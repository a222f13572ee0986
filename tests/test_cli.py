import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlearn import cli
from limitlearn.cli import _build_parser, main

CLI = [sys.executable, "-m", "limitlearn.cli"]


def run_cli(*args, cwd=None):
    return subprocess.run(
        CLI + [str(a) for a in args], capture_output=True, text=True, cwd=cwd
    )


@pytest.fixture(scope="module")
def family_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("families")
    files = {}
    payloads = {
        "example1": {"members": [[[5, "omega"], [6, 2]], [[5, "omega"], [7, 1]]]},
        "thm9": {"members": [[[5, "omega"]], [[5, "omega"], [2, 1]]]},
        "kron": {
            "members": [
                {"default": 1, "exceptions": {"1": 0}, "omega_count": 0},
                {"default": 1, "exceptions": {"2": 0}, "omega_count": 0},
            ],
            "generator": {"name": "kronecker"},
        },
        "omega-pair": {"members": [{"default": 0, "exceptions": {}, "omega_count": 1},
                                   {"default": 0, "exceptions": {}, "omega_count": 2}]},
    }
    for name, payload in payloads.items():
        path = root / f"{name}.json"
        path.write_text(json.dumps(payload))
        files[name] = str(path)
    files["root"] = str(root)
    return files


def test_check_verdicts(family_files, tmp_path):
    res = run_cli("check", "--family", family_files["example1"], "--out", tmp_path)
    assert res.returncode == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["finitely_separable"] is True
    assert report["fin_antichain"] is True

    res = run_cli("check", "--family", family_files["thm9"], "--out", tmp_path)
    assert res.returncode == 0
    report = json.loads((tmp_path / "check.json").read_text())
    assert report["finitely_separable"] is False
    assert report["counterexample"]["limit"] == [[5, "omega"]]
    assert report["fin_antichain"] is False


def test_one_shot_on_a_family_that_is_not_an_anti_chain_exits_3(tmp_path):
    # [5:omega] finitely embeds into [6:omega], so no substructure tells it apart
    family = tmp_path / "example2.json"
    family.write_text(json.dumps({"members": [[[5, "omega"]], [[6, "omega"]]]}))
    res = subprocess.run(
        CLI + ["simulate", "--family", str(family), "--learner", "one-shot",
               "--target", "0", "--horizon", "500", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=10,
    )
    assert res.returncode == 3, res.stderr
    assert "finitely embeds" in res.stderr


def test_check_generator_verdicts(family_files, tmp_path):
    res = run_cli("check", "--family", family_files["kron"], "--out", tmp_path, "--bound", 32)
    assert res.returncode == 0
    report = json.loads((tmp_path / "check.json").read_text())
    kinds = {v["verdict"] for v in report["generator_verdicts"]}
    assert kinds == {"limit"}
    assert all(v["certified"] for v in report["generator_verdicts"])


def test_check_lists_a_companion_member_once(tmp_path):
    # 5:omega is both the only member and five_n_tail's companion limit
    family = tmp_path / "five-tail.json"
    family.write_text(json.dumps({"members": [[[5, "omega"]]], "generator": {"name": "five_n_tail"}}))
    res = run_cli("check", "--family", family, "--out", tmp_path, "--bound", 8)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "check.json").read_text())
    assert [v["candidate"] for v in report["generator_verdicts"]] == [[[5, "omega"]]]
    assert report["generator_verdicts"][0]["verdict"] == "limit"


def assert_exit(res, code, message):
    assert res.returncode == code, res.stderr
    assert message in res.stderr
    assert "Traceback" not in res.stderr


def test_exit_code_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert_exit(run_cli("check", "--family", bad), 2, "cannot parse family file")


def test_exit_code_representation_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"members": [[[0, 1]]]}))
    assert_exit(run_cli("check", "--family", bad), 3, "invalid family")


def test_exit_code_unknown_learner(family_files, tmp_path):
    res = run_cli(
        "simulate", "--family", family_files["example1"], "--learner", "nonsense",
        "--out", tmp_path, "--horizon", 10,
    )
    assert_exit(res, 2, "unknown learner")


INPUT_FILES = {
    "inconsistent": "P 0 1\nN 0 1\n",
    "malformed": "X 0\n",
    "family_list": "[[[2, 1]], [[3, 1]]]",
    "family_number": "3",
    "family_string": '"members"',
    "exceptions_list": '{"members": [{"exceptions": [[2, 1]]}]}',
    "exceptions_string": '{"members": [{"exceptions": "abc"}]}',
    "exceptions_null": '{"members": [{"exceptions": null}]}',
    "items": "P 0 0\n",
    "summary_list": "[1, 2]",
    "summary_string": '"x"',
    "thm9": '{"members": [[[5, "omega"]], [[5, "omega"], [2, 1]]]}',
    "omega_pair": '{"members": [[["omega", 1]], [["omega", 2]]]}',
    "finite_and_infinite": '{"members": [[[3, 1], ["omega", 2]], [["omega", 2]]]}',
    "five_tail_gen": '{"members": [[[5, "omega"]]], "generator": {"name": "five_n_tail"}}',
    "no_members": '{"members": []}',
    "kronecker_gen": '{"generator": {"name": "kronecker"}}',
    "size_twice": '{"members": [[[2, 1], [2, 3]]]}',
    "size_twice_alike": '{"members": [[[2, 1], [2, 1]]]}',
    "size_twice_default": '{"members": [[[1, 0], [1, "omega"]]]}',
    "size_twice_keys": '{"members": [{"exceptions": {"2": 1, "02": 3}}]}',
    "omega_twice": '{"members": [[["omega", 1], ["omega", 2]]]}',
    "generator_string": '{"members": [[[2, 1]]], "generator": "kronecker"}',
    "generator_nameless": '{"members": [[[2, 1]]], "generator": {}}',
}

# Each input error and its documented exit code: 2 for a parse or usage
# error, 3 for a representation error.  {name} is a file from INPUT_FILES,
# {missing} a path that does not exist, {example1} a valid family.
EXIT_CODE_TABLE = [
    (("simulate", "--seeds", "3"), 2, "--seeds needs a nonempty range"),
    (("simulate", "--seeds", "4:2"), 2, "--seeds needs a nonempty range"),
    (("simulate", "--window", 500, "--horizon", 100), 2, "need 1 <= window <= horizon"),
    (("bridge", "roundtrip", "--window", 500, "--horizon", 100), 2, "need 1 <= window <= horizon"),
    (("diagonalize", "--class-size", 1), 2, "argument --class-size: must be at least 2"),
    (("diagonalize", "--horizon", -3), 2, "argument --horizon: must be at least 1"),
    # zero stages would pass every check vacuously
    (("diagonalize", "--horizon", 0), 2, "argument --horizon: must be at least 1"),
    (("bridge", "telltale", "--positions", -3), 2, "argument --positions: must be at least 0"),
    (("bridge", "telltale", "--bound", -1), 2, "argument --bound: must be at least 0"),
    (("check", "--bound", -1), 2, "argument --bound: must be at least 1"),
    # a bound of 0 checks no generated member and no component
    (("check", "--family", "{five_tail_gen}", "--bound", 0), 2,
     "argument --bound: must be at least 1"),
    (("locking", "--depth", -1), 2, "argument --depth: must be at least 0"),
    (("locking", "--width", 0), 2, "argument --width: must be at least 1"),
    (("simulate", "--jobs", 0), 2, "argument --jobs: must be at least 1"),
    # a text is never reordered, and a seed range replaces the single seed
    (("simulate", "--learner", "txt-separator", "--reorder", "reverse"), 2,
     "text learner 'txt-separator' does not read --reorder"),
    (("simulate", "--seeds", "0:2", "--seed", 7), 2, "simulate --seeds does not read --seed"),
    # a text adversary needs a two-class item and a limit adversary an item
    # for a verdict, and zero mind changes would make "defeated" vacuous
    (("adversary", "--kind", "text", "--learner", "txt-constant", "--family", "{omega_pair}",
      "--horizon", 0), 2, "argument --horizon: must be at least 1"),
    (("adversary", "--family", "{thm9}", "--learner", "constant", "--horizon", -5), 2,
     "argument --horizon: must be at least 1"),
    (("adversary", "--family", "{thm9}", "--learner", "constant", "--min-mind-changes", 0), 2,
     "argument --min-mind-changes: must be at least 1"),
    # each adversary kind refuses the options only the other reads
    (("adversary", "--family", "{thm9}", "--learner", "constant", "--depth", 3), 2,
     "adversary --kind limit does not read --depth"),
    (("adversary", "--family", "{thm9}", "--learner", "constant", "--width", 2), 2,
     "adversary --kind limit does not read --width"),
    (("adversary", "--kind", "text", "--learner", "txt-constant", "--family", "{omega_pair}",
      "--min-mind-changes", 3), 2, "adversary --kind text does not read --min-mind-changes"),
    # each bridge action refuses the options only another action reads
    (("bridge", "translate", "--bound", 5, "--horizon", 3), 2, "bridge translate does not read --bound"),
    (("bridge", "telltale", "--horizon", 3, "--seed", 4, "--target", 1), 2,
     "bridge telltale does not read --target"),
    (("bridge", "roundtrip", "--bound", 7, "--positions", 3), 2, "bridge roundtrip does not read --bound"),
    (("bridge", "translate", "--positions", 3), 2, "bridge translate does not read --positions"),
    (("bridge", "telltale", "--window", 10), 2, "bridge telltale does not read --window"),
    # the bridge reads listed members only: with none, every verdict would be vacuous
    (("bridge", "translate", "--family", "{no_members}"), 3, "invalid family: the bridge translates"),
    (("bridge", "telltale", "--family", "{no_members}"), 3, "invalid family: the bridge translates"),
    (("bridge", "translate", "--family", "{kronecker_gen}"), 3,
     "its generator 'kronecker' is not expanded"),
    (("bridge", "telltale", "--family", "{kronecker_gen}"), 3,
     "its generator 'kronecker' is not expanded"),
    # the one-shot learner reads explicit separations, which a text never states
    (("simulate", "--learner", "txt-one-shot", "--horizon", 50, "--window", 10), 2,
     "learner 'txt-one-shot': learner 'one-shot' has no text reading"),
    # separators are read off finite classes only
    (("simulate", "--learner", "separator", "--family", "{omega_pair}"), 3,
     "a member's separator is only defined for families without infinite classes"),
    # a text completion presents only infinite classes
    (("locking", "--learner", "txt-constant", "--family", "{finite_and_infinite}"), 3,
     "text locking search completes only toward"),
    (("replay", "--items", "{inconsistent}"), 3, "inconsistent item file"),
    (("replay", "--items", "{malformed}"), 2, "cannot read item file"),
    (("replay", "--items", "{missing}"), 2, "cannot read item file"),
    (("locking", "--learner", "constant", "--start", "{inconsistent}"), 3, "inconsistent item file"),
    (("locking", "--learner", "constant", "--start", "{malformed}"), 2, "cannot read item file"),
    (("check", "--family", "{family_list}"), 2, "cannot parse family file"),
    (("check", "--family", "{family_number}"), 2, "cannot parse family file"),
    (("check", "--family", "{family_string}"), 2, "cannot parse family file"),
    (("check", "--family", "{exceptions_list}"), 2, "cannot parse family file"),
    (("check", "--family", "{exceptions_string}"), 2, "cannot parse family file"),
    (("check", "--family", "{exceptions_null}"), 2, "cannot parse family file"),
    # a size listed twice: with two counts, one count twice, the default and
    # another, as two keys that name one size, or the infinite classes twice
    (("check", "--family", "{size_twice}"), 3, "invalid family: duplicate exception for size 2"),
    (("check", "--family", "{size_twice_alike}"), 3,
     "invalid family: duplicate exception for size 2"),
    (("check", "--family", "{size_twice_default}"), 3,
     "invalid family: duplicate exception for size 1"),
    (("check", "--family", "{size_twice_keys}"), 3, "invalid family: duplicate exception for size 2"),
    (("check", "--family", "{omega_twice}"), 3, "invalid family: duplicate exception for size omega"),
    (("check", "--family", "{generator_string}"), 2,
     "cannot parse family file: a generator is a JSON object, not a str"),
    (("check", "--family", "{generator_nameless}"), 2,
     "cannot parse family file: a generator's name is a JSON string"),
    (("replay", "--items", "{items}", "--summary", "{summary_list}"), 2,
     "cannot parse recorded summary"),
    (("replay", "--items", "{items}", "--summary", "{summary_string}"), 2,
     "cannot parse recorded summary"),
]


@pytest.mark.parametrize("command,code,message", EXIT_CODE_TABLE,
                         ids=[" ".join(map(str, row[0])) for row in EXIT_CODE_TABLE])
def test_exit_code_table(family_files, tmp_path, command, code, message):
    paths = {"missing": tmp_path / "missing.txt", "example1": family_files["example1"]}
    for name, text in INPUT_FILES.items():
        paths[name] = tmp_path / name
        paths[name].write_text(text)
    args = [str(a).format(**paths) for a in command]
    if "--family" not in args:
        args += ["--family", paths["example1"]]
    if args[0] == "replay" and "--summary" not in args:
        args += ["--summary", paths["missing"]]
    assert_exit(run_cli(*args, "--out", tmp_path), code, message)


def _commands_reading_a_family():
    """Every subcommand with a --family option, once per bridge action."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, command in sub.choices.items():
        if "--family" not in command._option_string_actions:
            continue
        actions = [a.choices for a in command._actions if not a.option_strings and a.choices]
        yield from ((name, action) for action in actions[0]) if actions else [(name,)]


# Malformed family files and the exit code each must get from every command
# that reads one: 2 for a parse error, 3 for a representation error
MALFORMED_FAMILIES = {
    "exceptions-list": ({"members": [{"exceptions": [[2, 1]]}]}, 2),
    "exceptions-string": ({"members": [{"exceptions": "abc"}]}, 2),
    "exceptions-null": ({"members": [{"exceptions": None}]}, 2),
    "size-0-class": ({"members": [[[0, 1]]]}, 3),
    "non-integer-size": ({"members": [{"exceptions": {"two": 1}}]}, 2),
    "fractional-size-shorthand": ({"members": [[[2.5, 1]]]}, 2),
    "members-object": ({"members": {"a": 1}}, 2),
    "unknown-generator": ({"members": [[[2, 1]]], "generator": {"name": "nope"}}, 3),
    "non-object-generator": ({"members": [[[2, 1]]], "generator": "kronecker"}, 2),
}
FAMILY_MESSAGES = {2: "cannot parse family file", 3: "invalid family"}


@pytest.mark.parametrize("malformed", MALFORMED_FAMILIES)
@pytest.mark.parametrize("command", list(_commands_reading_a_family()), ids=" ".join)
def test_a_malformed_family_exits_2_or_3_from_every_command(tmp_path, capsys, command,
                                                           malformed):
    payload, code = MALFORMED_FAMILIES[malformed]
    family = tmp_path / "family.json"
    family.write_text(json.dumps(payload))
    argv = [*command, "--family", str(family), "--out", str(tmp_path)]
    if command[0] == "replay":
        argv += ["--items", "items.txt", "--summary", "summary.json"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == code
    assert FAMILY_MESSAGES[code] in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [
        ("simulate", "--learner", "separator", "--horizon", 50),
        ("simulate", "--learner", "constant", "--horizon", 50),
        ("simulate", "--learner", "separator", "--seeds", "0:2", "--jobs", 2, "--horizon", 50),
        ("adversary", "--learner", "separator", "--horizon", 50),
        ("locking", "--learner", "constant"),
        ("bridge", "roundtrip", "--horizon", 50),
    ],
)
def test_negative_target_is_a_parse_error(family_files, tmp_path, command):
    res = run_cli(*command, "--family", family_files["example1"], "--target", -1,
                  "--out", tmp_path)
    assert res.returncode == 2
    assert "target index -1 outside the family" in res.stderr


# The shared options each command does not read, which it refuses
UNREAD_OPTIONS = {
    "check": ("learner", "target", "seed", "horizon", "window", "depth", "width", "jobs"),
    "simulate": ("depth", "width", "bound"),
    "adversary": ("seed", "window", "bound", "jobs"),
    "diagonalize": ("seed", "window", "depth", "width", "bound", "jobs"),
    "locking": ("seed", "horizon", "window", "bound", "jobs"),
    "bridge translate": ("learner", "depth", "width", "jobs"),
    "replay": ("seed", "depth", "width", "bound", "jobs"),
}


@pytest.mark.parametrize("command,option", [(c, o) for c, opts in UNREAD_OPTIONS.items()
                                            for o in opts])
def test_an_option_the_command_does_not_read_is_a_usage_error(tmp_path, command, option, capsys):
    argv = [*command.split(), "--family", "fam.json", "--out", str(tmp_path),
            f"--{option}", "separator" if option == "learner" else "1"]
    if command == "replay":
        argv += ["--items", "items.txt", "--summary", "summary.json"]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: --{option}" in capsys.readouterr().err


def test_an_unread_option_exits_2_from_the_command_line(family_files, tmp_path):
    res = run_cli("locking", "--family", family_files["example1"], "--horizon", 50,
                  "--out", tmp_path)
    assert_exit(res, 2, "unrecognized arguments: --horizon")


def test_simulate_writes_deterministic_outputs(family_files, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        res = run_cli(
            "simulate", "--family", family_files["example1"], "--learner", "separator",
            "--target", 1, "--seed", 7, "--horizon", 3000, "--out", out,
        )
        assert res.returncode == 0
    for name in ("items.txt", "trace.txt", "summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    summary = json.loads((out1 / "summary.json").read_text())
    assert summary["converged"] is True
    assert summary["final"] == [[5, "omega"], [7, 1]]


def test_simulate_violation_exit(family_files, tmp_path):
    res = run_cli(
        "simulate", "--family", family_files["example1"], "--learner", "split",
        "--target", 0, "--horizon", 400, "--window", 50, "--out", tmp_path,
    )
    assert res.returncode == 1


def test_simulate_seed_env_default(family_files, tmp_path):
    import os

    env = dict(os.environ, LIMITLEARN_SEED="7")
    res = subprocess.run(
        CLI + ["simulate", "--family", family_files["example1"], "--learner", "separator",
               "--target", "1", "--horizon", "3000", "--out", str(tmp_path / "env")],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 0
    res = run_cli(
        "simulate", "--family", family_files["example1"], "--learner", "separator",
        "--target", 1, "--seed", 7, "--horizon", 3000, "--out", tmp_path / "flag",
    )
    assert (tmp_path / "env" / "items.txt").read_bytes() == (tmp_path / "flag" / "items.txt").read_bytes()
    env["LIMITLEARN_SEED"] = "seven"
    res = subprocess.run(
        CLI + ["simulate", "--family", family_files["example1"], "--horizon", "100",
               "--window", "50", "--out", str(tmp_path / "bad")],
        capture_output=True, text=True, env=env,
    )
    assert res.returncode == 2 and "LIMITLEARN_SEED must be an integer" in res.stderr


def test_replay_reproduces_summary(family_files, tmp_path):
    run_cli(
        "simulate", "--family", family_files["example1"], "--learner", "separator",
        "--target", 1, "--seed", 3, "--horizon", 2000, "--out", tmp_path,
    )
    res = run_cli(
        "replay", "--family", family_files["example1"], "--learner", "separator",
        "--target", 1, "--items", tmp_path / "items.txt",
        "--summary", tmp_path / "summary.json", "--horizon", 2000, "--out", tmp_path,
    )
    assert res.returncode == 0
    # a corrupted summary is flagged
    summary = json.loads((tmp_path / "summary.json").read_text())
    summary["mind_changes"] += 1
    (tmp_path / "tampered.json").write_text(json.dumps(summary))
    res = run_cli(
        "replay", "--family", family_files["example1"], "--learner", "separator",
        "--target", 1, "--items", tmp_path / "items.txt",
        "--summary", tmp_path / "tampered.json", "--horizon", 2000, "--out", tmp_path,
    )
    assert res.returncode == 1


def test_adversary_command(family_files, tmp_path):
    res = run_cli(
        "adversary", "--family", family_files["thm9"], "--learner", "separator",
        "--target", 0, "--horizon", 4000, "--out", tmp_path,
    )
    assert res.returncode == 0
    report = json.loads((tmp_path / "adversary.json").read_text())
    assert report["defeated"] is True and report["consistent"] is True


def test_adversary_rejects_non_limit_target(family_files, tmp_path):
    res = run_cli(
        "adversary", "--family", family_files["example1"], "--learner", "separator",
        "--target", 0, "--horizon", 100, "--out", tmp_path,
    )
    assert res.returncode == 3


def test_text_adversary_command(family_files, tmp_path):
    res = run_cli(
        "adversary", "--kind", "text", "--family", family_files["omega-pair"],
        "--learner", "txt-split", "--target", 0, "--horizon", 800, "--out", tmp_path,
    )
    assert res.returncode == 0
    report = json.loads((tmp_path / "adversary.json").read_text())
    assert report["verdict"] in ("defeated", "undecided")


def test_diagonalize_command(family_files, tmp_path):
    res = run_cli(
        "diagonalize", "--learner", "echo", "--class-size", 2, "--horizon", 80,
        "--out", tmp_path, "--family", family_files["example1"],
    )
    assert res.returncode == 0
    report = json.loads((tmp_path / "diagonalization.json").read_text())
    assert report["ok"] is True


def test_locking_command(family_files, tmp_path):
    res = run_cli(
        "locking", "--family", family_files["example1"], "--learner", "constant",
        "--target", 0, "--depth", 20, "--out", tmp_path,
    )
    assert res.returncode == 0
    report = json.loads((tmp_path / "locking.json").read_text())
    assert report["kind"] == "candidate"


def test_locking_command_toward_a_finite_census(tmp_path):
    family = tmp_path / "finite.json"
    family.write_text(json.dumps({"members": [[[2, 1]], [[3, 1]]]}))
    res = run_cli(
        "locking", "--family", family, "--learner", "constant",
        "--target", 0, "--depth", 10, "--out", tmp_path,
    )
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "locking.json").read_text())
    assert report["kind"] == "candidate" and report["depth"] == 10


def test_locking_command_completes_a_start_past_the_listed_sizes(tmp_path):
    # five 3-blocks fit [*:1], which has a class of every size
    family = tmp_path / "default.json"
    family.write_text(json.dumps({"members": [{"default": 1},
                                              {"default": 1, "exceptions": {"3": 2}}]}))
    start = tmp_path / "start.txt"
    start.write_text("".join(f"P {x} {y}\n" for b in range(5)
                             for x in range(3 * b, 3 * b + 3) for y in range(3 * b, 3 * b + 3)))
    res = run_cli("locking", "--family", family, "--learner", "constant",
                  "--target", 0, "--start", start, "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "locking.json").read_text())
    assert report["sigma_length"] == 45


def test_locking_command_toward_a_census_with_no_classes(tmp_path):
    # the all-zero census has no element to place, so its presentation is
    # exhausted before the first probe
    family = tmp_path / "empty.json"
    family.write_text(json.dumps({"members": [[], [[1, "omega"]]]}))
    res = run_cli("locking", "--family", family, "--learner", "constant",
                  "--target", 0, "--out", tmp_path)
    assert res.returncode == 0, res.stderr
    report = json.loads((tmp_path / "locking.json").read_text())
    assert report["kind"] == "candidate" and report["probes"] == 0


def test_bridge_commands(family_files, tmp_path):
    res = run_cli("bridge", "translate", "--family", family_files["example1"], "--out", tmp_path)
    assert res.returncode == 0
    res = run_cli("bridge", "telltale", "--family", family_files["example1"], "--out", tmp_path)
    assert res.returncode == 0
    report = json.loads((tmp_path / "telltale.json").read_text())
    assert report["all_found"] is True and report["finitely_separable"] is True
    res = run_cli("bridge", "telltale", "--family", family_files["thm9"], "--out", tmp_path)
    assert res.returncode == 0
    report = json.loads((tmp_path / "telltale.json").read_text())
    assert report["all_found"] is False and report["finitely_separable"] is False
    res = run_cli(
        "bridge", "roundtrip", "--family", family_files["example1"], "--target", 1,
        "--horizon", 3000, "--out", tmp_path,
    )
    assert res.returncode == 0


def test_simulate_seed_fanout_with_jobs(family_files, tmp_path):
    res = run_cli(
        "simulate", "--family", family_files["example1"], "--learner", "separator",
        "--target", 0, "--seeds", "0:2", "--jobs", 2, "--horizon", 1500, "--out", tmp_path,
    )
    assert res.returncode == 0
    summary = json.loads((tmp_path / "summary-all.json").read_text())
    assert summary["all_converged"] is True
    assert (tmp_path / "items-seed0.txt").exists()
    assert (tmp_path / "items-seed1.txt").exists()


@pytest.mark.parametrize("jobs,seeds,workers", [(64, "0:3", [3]), (2, "0:3", [2]), (8, "0:1", [])])
def test_simulate_starts_at_most_one_worker_per_seed(family_files, tmp_path, monkeypatch,
                                                     jobs, seeds, workers):
    # a process pool starts all of its workers at the first task, so the
    # pool is a stand-in that records its size and runs the cells in process
    made = []

    class Pool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--family", family_files["example1"], "--seeds", seeds,
              "--jobs", str(jobs), "--horizon", "300", "--window", "50", "--out", str(tmp_path)])
    assert exit_info.value.code in (0, 1)
    assert made == workers


# ---------------------------------------------------------------------------
# The exit-code contract over drawn family files and command lines

def _mostly(valid, *invalid):
    """`valid` nine times in ten, else one of the `invalid` values."""
    return st.sampled_from(range(10)).flatmap(lambda k: valid if k else st.sampled_from(invalid))


SIZES = st.sampled_from([1, 2, 3, 4, 5, 6, "omega"])
COUNTS = st.sampled_from([0, 1, 2, 3, 4, "omega"])
CENSUSES = st.one_of(
    st.lists(st.tuples(SIZES, COUNTS).map(list), min_size=1, max_size=3,
             unique_by=lambda pair: pair[0]),
    st.fixed_dictionaries({
        "exceptions": st.dictionaries(st.integers(1, 6).map(str), COUNTS, min_size=1, max_size=3),
    }, optional={"default": COUNTS, "omega_count": COUNTS}),
)
FAMILIES = _mostly(
    st.fixed_dictionaries({"members": st.lists(CENSUSES, min_size=1, max_size=3)}, optional={
        "generator": _mostly(st.sampled_from([{"name": "kronecker"}, {"name": "five_n_tail"}]),
                             {"name": "nope"}, "kronecker", {}),
    }).map(json.dumps),
    "{not json", "", "[1, 2]", '"members"', '{"members": 3}', '{"members": []}',
    '{"members": [[[2, 1]]], "generator": {}}', '{"members": [[[0, 1]]]}',
    '{"members": [[["two", 1]]]}', '{"members": [[[2.5, 1]]]}', '{"members": [[[2, -1]]]}',
    '{"members": [{"default": "many"}]}', '{"members": [{"exceptions": {"2": null}}]}',
    '{"members": [[[2, 1], [2, 1]]]}', '{"members": [[[1, 0], [1, "omega"]]]}', '{"members": [{}]}')
ITEM_FILES = st.lists(_mostly(st.sampled_from(["P 0 0", "P 0 1", "N 0 1", "N 1 2", "P 2 3"]),
                              "#", "X 0", "P 1"), max_size=6).map(lambda lines: "\n".join(lines) + "\n")
SUMMARY_FILES = st.sampled_from(["{}", '{"converged": false, "stage": null}', "[1]", "{oops"])
LEARNERS = _mostly(st.sampled_from(["constant", "min-embed", "separator", "one-shot", "split",
                                    "echo", "txt-constant", "txt-separator", "txt-split"]),
                   "txt-one-shot", "nonsense")
TARGETS = _mostly(st.integers(0, 1), -1, 3)
HORIZONS = _mostly(st.integers(50, 300), 0, -1)
WINDOWS = _mostly(st.integers(1, 50), 0, 400)


def _options(**drawn):
    """Each drawn option as `--name value`, left out where the draw is None."""
    return st.fixed_dictionaries({name: st.one_of(st.none(), values)
                                  for name, values in drawn.items()}).map(
        lambda chosen: [arg for name, value in chosen.items() if value is not None
                        for arg in (f"--{name.replace('_', '-')}", str(value))])


COMMAND_LINES = st.one_of(
    st.tuples(st.just(["check"]), _options(bound=_mostly(st.integers(1, 8), 0, -1))),
    st.tuples(st.just(["simulate", "--jobs", "1"]), _options(
        learner=LEARNERS, target=TARGETS, horizon=HORIZONS, window=WINDOWS,
        seed=st.integers(0, 5), seeds=_mostly(st.sampled_from(["0:1", "0:3", "2:4"]), "3", "4:2"),
        reorder=st.sampled_from(["negatives-first", "reverse", "bogus"]),
        relation=st.sampled_from(["iso", "biembed"]))),
    st.tuples(st.just(["adversary", "--kind", "limit"]), _options(
        learner=LEARNERS, target=TARGETS, horizon=HORIZONS,
        min_mind_changes=_mostly(st.integers(1, 5), 0))),
    st.tuples(st.just(["adversary", "--kind", "text"]), _options(
        learner=LEARNERS, horizon=HORIZONS, depth=_mostly(st.integers(0, 6), -1),
        width=_mostly(st.integers(1, 3), 0))),
    st.tuples(st.just(["diagonalize"]), _options(
        learner=LEARNERS, target=TARGETS, horizon=_mostly(st.integers(1, 100), 0),
        class_size=_mostly(st.integers(2, 3), 1))),
    st.tuples(st.just(["locking"]), _options(
        learner=LEARNERS, target=TARGETS, depth=_mostly(st.integers(0, 8), -1),
        width=_mostly(st.integers(1, 3), 0), start=st.just("{items}"))),
    st.tuples(st.just(["bridge", "translate"]), st.just([])),
    st.tuples(st.just(["bridge", "telltale"]), _options(
        bound=_mostly(st.integers(0, 64), -1), positions=_mostly(st.integers(0, 6), -1))),
    st.tuples(st.just(["bridge", "roundtrip"]), _options(
        target=TARGETS, horizon=HORIZONS, window=WINDOWS, seed=st.integers(0, 5))),
    st.tuples(st.just(["replay", "--items", "{items}", "--summary", "{summary}"]), _options(
        learner=LEARNERS, target=TARGETS, horizon=HORIZONS, window=WINDOWS,
        relation=st.sampled_from(["iso", "biembed"]))),
)


@settings(max_examples=200, deadline=None)
@given(FAMILIES, ITEM_FILES, SUMMARY_FILES, COMMAND_LINES)
def test_every_command_line_exits_with_a_documented_code(family, items, summary, command):
    """Malformed or inconsistent input gets exit 2 or 3, and a run exits 0
    or 1: ``main`` raises SystemExit with a code in 0-3, never anything
    else, whatever the family file and the options."""
    head, options = command
    with tempfile.TemporaryDirectory() as root:
        paths = {"family": os.path.join(root, "family.json"),
                 "items": os.path.join(root, "items.txt"),
                 "summary": os.path.join(root, "summary.json")}
        for name, text in (("family", family), ("items", items), ("summary", summary)):
            with open(paths[name], "w") as fh:
                fh.write(text)
        argv = [arg.format(**paths) for arg in [*head, *options]]
        argv += ["--family", paths["family"], "--out", os.path.join(root, "out")]
        with pytest.raises(SystemExit) as exit_info, \
                contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            main(argv)
    assert exit_info.value.code in (0, 1, 2, 3), argv
