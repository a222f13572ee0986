"""Golden files: fixed CLI runs whose output files are pinned byte for byte.

Each case runs `limitlearn.cli.main` in-process into a fresh directory and
compares every file it writes with `tests/golden/<case>/`.  The recorded
files are part of the test data: re-recording them is a deliberate edit of
that directory, made only when an output is meant to change.
"""
import hashlib
import json
from pathlib import Path

import pytest

from limitlearn.cli import main

GOLDEN = Path(__file__).parent / "golden"

KRON4 = [{"default": 1, "exceptions": {str(i + 1): 0}, "omega_count": 0} for i in range(4)]

FAMILIES = {
    "example1": {"members": [[[5, "omega"], [6, 2]], [[5, "omega"], [7, 1]]]},
    "example2": {"members": [[[5, "omega"]], [[6, "omega"]]]},
    "kron4": {"members": KRON4, "generator": {"name": "kronecker"}},
    "tails3": {"members": [[[1, "omega"]], [[1, "omega"], [2, 1]], [[1, "omega"], [2, 2]]]},
    "nonseparable": {"members": [[[5, "omega"]], [[5, "omega"], [2, 1]]]},
    "tails-gen": {"members": [[[5, 1], [1, "omega"]], [[5, 2], [1, "omega"]],
                              [[5, 3], [1, "omega"]]],
                  "generator": {"name": "five_n_tail"}},
    "omega-pair": {"members": [{"default": 0, "exceptions": {}, "omega_count": 1},
                               {"default": 0, "exceptions": {}, "omega_count": 2}]},
    # one member per kind of slot source: finite and omega counts, the
    # default pattern with skipped sizes, finitely and infinitely many
    # infinite classes
    "layouts": {"members": [
        [[5, "omega"], [2, 1]],
        {"default": 2, "exceptions": {"2": 0, "4": 1}, "omega_count": 0},
        {"default": 1, "exceptions": {"3": "omega", "1": 0}, "omega_count": 2},
        {"default": 0, "exceptions": {"4": 1}, "omega_count": "omega"},
        {"default": 3, "exceptions": {"1": 1, "6": "omega"}, "omega_count": "omega"},
    ]},
}

# a consistent start prefix for a member of example1: blocks {0,1,2}, {3}, {4,5}
START_ITEMS = "P 0 1\nP 1 2\nN 0 3\nP 4 5\nN 3 4\n"
# a text start prefix with sparse blocks {0, 2}, {5, 6} and {3}
TEXT_START_ITEMS = "P 0 2\n#\nP 5 6\nP 3 3\n"

# case name -> (command line, expected exit code); "{...}" is a family file
# or the start prefix
CASES = {
    # a generated family: the generator's verdicts include its companion limit
    "check-tails-gen": ("check --family {tails-gen}", 0),
    # members with infinite classes: no separability verdict, a note instead
    "check-omega-pair": ("check --family {omega-pair}", 0),
    # a separable family whose separators are nonempty: pins their component output
    "check-kron4": ("check --family {kron4}", 0),
    "simulate-separator-example1": (
        "simulate --family {example1} --learner separator --target 1 --seed 13 --horizon 2000", 0),
    "simulate-separator-kron4": (
        "simulate --family {kron4} --learner separator --target 2 --seed 5 --horizon 2000", 0),
    "simulate-separator-tails3": (
        "simulate --family {tails3} --learner separator --target 2 --seed 7 --horizon 2000", 0),
    "simulate-txt-separator-example2": (
        "simulate --family {example2} --learner txt-separator --target 1 --seed 2 --horizon 1500",
        0),
    "simulate-min-embed-kron4": (
        "simulate --family {kron4} --learner min-embed --target 2 --seed 5 --horizon 2000", 1),
    "simulate-min-embed-tails3": (
        "simulate --family {tails3} --learner min-embed --target 2 --seed 5 --horizon 2000", 0),
    "simulate-separator-reorder-example1": (
        "simulate --family {example1} --learner separator --target 1 --seed 3 --horizon 4000"
        " --reorder negatives-first", 0),
    # pins the stage at which the one-shot learner fires
    "simulate-one-shot-example1": (
        "simulate --family {example1} --learner one-shot --target 1 --seed 13 --horizon 2000", 0),
    "simulate-split-omega-pair": (
        "simulate --family {omega-pair} --learner split --target 1 --seed 4 --horizon 2000", 0),
    "adversary-limit-nonseparable": (
        "adversary --family {nonseparable} --learner separator --target 0 --horizon 2000", 0),
    "adversary-text-omega-pair": (
        "adversary --kind text --family {omega-pair} --learner txt-split --horizon 600", 0),
    "diagonalize-echo": (
        "diagonalize --learner echo --class-size 3 --horizon 40", 0),
    # the separator learner's conjectures, and so the expansionary stages,
    # depend on block births
    "diagonalize-separator-tails3": (
        "diagonalize --family {tails3} --learner separator --class-size 2 --horizon 40", 0),
    # tau's 7-class fires the one-shot learner inside the first stage
    "diagonalize-one-shot-example1": (
        "diagonalize --family {example1} --learner one-shot --class-size 7 --horizon 40", 0),
    "locking-separator-kron4": (
        "locking --family {kron4} --learner separator --target 1 --depth 40 --width 6", 0),
    # omega-pair's target has infinite classes: the builder's round robin over them
    "locking-constant-omega-pair": (
        "locking --family {omega-pair} --learner constant --target 1 --depth 60 --width 6", 0),
    "locking-start-example1": (
        "locking --family {example1} --learner separator --target 1 --start {start}", 0),
    # the text completion of a start with several blocks, and its candidates
    "locking-txt-echo-omega-pair": (
        "locking --family {omega-pair} --learner txt-echo --target 1 --start {text-start}", 0),
    "bridge-translate-layouts": (
        "bridge translate --family {layouts}", 0),
    "bridge-roundtrip-example1": (
        "bridge roundtrip --family {example1} --target 1 --seed 3 --horizon 2000", 0),
    # kron4's composed learner reaches the least-minimal-host fallback
    "bridge-roundtrip-kron4": (
        "bridge roundtrip --family {kron4} --target 2 --seed 5 --horizon 2000", 0),
    "bridge-telltale-kron4": (
        "bridge telltale --family {kron4} --bound 64", 0),
    # pins the closure's size at 20 positions, where the transpositions of
    # one input and of different inputs coincide
    "bridge-telltale-tails3-p20": (
        "bridge telltale --family {tails3} --positions 20", 0),
}


def run_case(name: str, root: Path) -> tuple[int, Path]:
    """Run one case under `root`; returns its exit code and output directory."""
    paths = {}
    for fam, payload in FAMILIES.items():
        paths[fam] = root / f"{fam}.json"
        paths[fam].write_text(json.dumps(payload))
    paths["start"] = root / "start.txt"
    paths["start"].write_text(START_ITEMS)
    paths["text-start"] = root / "text-start.txt"
    paths["text-start"].write_text(TEXT_START_ITEMS)
    out = root / "out"
    command, _ = CASES[name]
    argv = command.format(**paths).split() + ["--out", str(out)]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    return exit_info.value.code, out


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    code, out = run_case(name, tmp_path)
    assert code == CASES[name][1], f"{name}: exit code {code}"
    recorded = GOLDEN / name
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in recorded.iterdir()), f"{name}: output files differ"
    for filename in written:
        want, got = _digest(recorded / filename), _digest(out / filename)
        assert want == got, f"{name}: {filename}: recorded sha256 {want}, now {got}"
