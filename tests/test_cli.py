import argparse
import json
import subprocess
import sys

import pytest

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
}

# Each input error and its documented exit code: 2 for a parse or usage
# error, 3 for a representation error.  {name} is a file from INPUT_FILES,
# {missing} a path that does not exist, {example1} a valid family.
EXIT_CODE_TABLE = [
    (("simulate", "--seeds", "3"), 2, "--seeds needs a nonempty range"),
    (("simulate", "--seeds", "4:2"), 2, "--seeds needs a nonempty range"),
    (("simulate", "--window", 500, "--horizon", 100), 2, "need 1 <= window <= horizon"),
    (("bridge", "roundtrip", "--window", 500, "--horizon", 100), 2, "need 1 <= window <= horizon"),
    (("diagonalize", "--class-size", 1), 2, "--class-size >= 2"),
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
    # the one-shot learner reads explicit separations, which a text never states
    (("simulate", "--learner", "txt-one-shot", "--horizon", 50, "--window", 10), 2,
     "learner 'txt-one-shot': learner 'one-shot' has no text reading"),
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
