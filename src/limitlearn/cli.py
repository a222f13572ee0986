"""Command-line entry point: reproducible runs with machine-readable output.

Exit codes: 0 = the run came out as the theory of the command predicts
(convergence, a defeated learner, agreeing verdicts), 1 = a property
violation, 2 = parse/usage error, 3 = representation violation.  All output
files are byte-stable functions of the run configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import islice

from . import bridge as bridge_mod
from .adversaries import LimitAdversary, diagonalize, text_adversary, weak_locking_search
from .learners import (
    ConstantLearner,
    EchoLearner,
    Learner,
    MinEmbedLearner,
    OneShotLearner,
    SeparatorLearner,
    SplitOnNegativeLearner,
    learner_from_text,
    run_simulation,
)
from .presentations import (
    INFORMANT,
    REORDER_STRATEGIES,
    TEXT,
    ConsistencyError,
    Prefix,
    PrefixState,
    Stream,
    fair_informant,
    fair_text,
    read_trace,
    reordered_informant,
    write_trace,
)
from .separability import (
    Family,
    FamilyError,
    FamilyOrder,
    fin_antichain,
    finitely_separable,
    generated_limit_verdict,
)
from .structures import RepresentationError

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_PARSE = 2
EXIT_REPRESENTATION = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code

    def __reduce__(self):  # raised in simulate's worker processes too
        return CliError, (str(self), self.code)


def _dump_json(path: str, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _load_family(path: str) -> Family:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse family file: {exc}", EXIT_PARSE)
    try:
        return Family.from_json(data)
    except (RepresentationError, FamilyError) as exc:
        raise CliError(f"invalid family: {exc}", EXIT_REPRESENTATION)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot parse family file: {exc}", EXIT_PARSE)


def _default_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    try:
        return int(os.environ.get("LIMITLEARN_SEED", "0"))
    except ValueError:
        raise CliError("LIMITLEARN_SEED must be an integer", EXIT_PARSE)


def _member(family: Family, index: int):
    if not 0 <= index < len(family.members):
        raise CliError(f"target index {index} outside the family", EXIT_PARSE)
    return family.members[index]


def _read_items(path: str, kind: str) -> Prefix:
    """An item file as a prefix: exit 2 if it cannot be read or parsed, 3 if
    it labels some pair both ways."""
    try:
        prefix = read_trace(path, kind)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot read item file {path}: {exc}", EXIT_PARSE)
    try:
        PrefixState(kind).feed_all(prefix.items)
    except ConsistencyError as exc:
        raise CliError(f"inconsistent item file {path}: {exc}", EXIT_REPRESENTATION)
    return prefix


def _check_run_length(horizon: int, window: int) -> None:
    if not 1 <= window <= horizon:
        raise CliError(f"need 1 <= window <= horizon, got window {window} "
                       f"and horizon {horizon}", EXIT_PARSE)


def _make_learner(name: str, family: Family, target: int) -> Learner:
    base_name = name.removeprefix("txt-")
    members = family.members
    try:
        if base_name == "constant":
            learner = ConstantLearner(_member(family, target))
        elif base_name == "min-embed":
            learner = MinEmbedLearner(members, enforce=False)
        elif base_name == "separator":
            learner = SeparatorLearner(members, enforce=False)
        elif base_name == "one-shot":
            learner = OneShotLearner(members)
        elif base_name == "split":
            learner = SplitOnNegativeLearner()
        elif base_name == "echo":
            learner = EchoLearner()
        else:
            raise CliError(f"unknown learner {name!r}", EXIT_PARSE)
        return learner if base_name == name else learner_from_text(learner)
    except FamilyError as exc:
        raise CliError(str(exc), EXIT_REPRESENTATION)
    except ValueError as exc:  # a learner with no text reading
        raise CliError(f"learner {name!r}: {exc}", EXIT_PARSE)


def _out_path(args, filename: str) -> str:
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, filename)


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args) -> int:
    family = _load_family(args.family)
    anti = fin_antichain(family.members)
    report: dict = {"members": [m.to_json() for m in family.members], "fin_antichain": anti}
    try:
        order = FamilyOrder(family.members)
        sep = order.separability()
        report["finitely_separable"] = sep.separable
        report["counterexample"] = (
            None if sep.counterexample is None
            else {"limit": sep.counterexample[0].to_json(),
                  "witness": sep.counterexample[1].to_json()}
        )
        if sep.separable:
            report["separators"] = [
                {"member": m.to_json(), "separator": order.separator(i).to_json()}
                for i, m in enumerate(family.members)
            ]
        violation = anti and not sep.separable  # anti-chain families are always separable
    except FamilyError as exc:
        report["finitely_separable"] = None
        report["note"] = str(exc)
        violation = False
    if family.generator:
        candidates = list(family.members)
        companion = family.spec().companion_limit
        if companion is not None and companion not in family.members:
            candidates.append(companion)
        verdicts = []
        for cand in candidates:
            verdict = generated_limit_verdict(cand, family, args.bound)
            verdicts.append({"candidate": cand.to_json(), "verdict": verdict.kind,
                             "bound": verdict.bound, "certified": verdict.certified})
        report["generator_verdicts"] = verdicts
    if args.out:
        _dump_json(_out_path(args, "check.json"), report)
    else:
        json.dump(report, sys.stdout, sort_keys=True, indent=2)
        sys.stdout.write("\n")
    return EXIT_VIOLATION if violation else EXIT_OK


def _run_one_simulation(args, seed: int):
    family = _load_family(args.family)
    learner = _make_learner(args.learner, family, args.target)
    target = _member(family, args.target)
    _check_run_length(args.horizon, args.window)
    if learner.mode == TEXT:
        if args.reorder:
            raise CliError(f"text learner {args.learner!r} does not read --reorder", EXIT_PARSE)
        stream = fair_text(target, seed)
    elif args.reorder:
        stream = reordered_informant(target, seed, args.reorder)
    else:
        stream = fair_informant(target, seed)
    items = list(islice(stream, args.horizon))
    result = run_simulation(learner, Stream(stream.kind, stream.character, iter(items)),
                            args.horizon, target, args.relation, args.window)
    summary = result.summary()
    summary["seed"] = seed
    summary["learner"] = args.learner
    summary["target_index"] = args.target
    return result, summary, Prefix(stream.kind, tuple(items))


def _simulate_cell(payload):
    args, seed = payload
    result, summary, prefix = _run_one_simulation(args, seed)
    suffix = f"-seed{seed}" if len(_seed_list(args)) > 1 else ""
    write_trace(_out_path(args, f"items{suffix}.txt"), prefix)
    with open(_out_path(args, f"trace{suffix}.txt"), "w") as fh:
        for line in result.trace.lines():
            fh.write(line + "\n")
    _dump_json(_out_path(args, f"summary{suffix}.json"), summary)
    return summary


def _seed_list(args) -> list[int]:
    if not args.seeds:
        return [_default_seed(args)]
    if args.seed is not None:
        raise CliError("simulate --seeds does not read --seed", EXIT_PARSE)
    lo, _, hi = args.seeds.partition(":")
    try:
        seeds = list(range(int(lo), int(hi)))
    except ValueError:
        seeds = []
    if not seeds:
        raise CliError(f"--seeds needs a nonempty range lo:hi, got {args.seeds!r}", EXIT_PARSE)
    return seeds


def cmd_simulate(args) -> int:
    seeds = _seed_list(args)
    payloads = [(args, seed) for seed in seeds]
    if args.jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(seeds))) as pool:
            summaries = list(pool.map(_simulate_cell, payloads))
    else:
        summaries = [_simulate_cell(p) for p in payloads]
    ok = all(s["converged"] for s in summaries)
    if len(summaries) > 1:
        _dump_json(_out_path(args, "summary-all.json"),
                   {"cells": summaries, "all_converged": ok})
    return EXIT_OK if ok else EXIT_VIOLATION


def _read_choice_options(args, command: str, chosen: str, label: str) -> None:
    """The parser leaves the command's options in CHOICE_OPTIONS unset: the
    chosen kind or action gives those it reads their defaults, and refuses
    those only another one reads."""
    for choice, names in CHOICE_OPTIONS[command].items():
        for name in names:
            dest = name.replace("-", "_")
            if getattr(args, dest) is None:
                setattr(args, dest, OPTIONS[name]["default"])
            elif choice != chosen:
                raise CliError(f"{label} does not read --{name}", EXIT_PARSE)


def cmd_adversary(args) -> int:
    _read_choice_options(args, "adversary", args.kind, f"adversary --kind {args.kind}")
    family = _load_family(args.family)
    learner = _make_learner(args.learner, family, args.target)
    if args.kind == "text":
        report = text_adversary(learner, depth=args.depth, width=args.width,
                                horizon=args.horizon)
        _dump_json(_out_path(args, "adversary.json"), report.to_json())
        return EXIT_OK if report.verdict in ("defeated", "undecided") else EXIT_VIOLATION
    adv = LimitAdversary(learner, _member(family, args.target), family.members)
    report = adv.run(args.horizon)
    write_trace(_out_path(args, "items.txt"), Prefix(INFORMANT, tuple(report.items)))
    payload = report.to_json()
    payload["min_mind_changes"] = args.min_mind_changes
    payload["defeated"] = report.defeated(args.min_mind_changes)
    _dump_json(_out_path(args, "adversary.json"), payload)
    return EXIT_OK if payload["defeated"] and report.consistent else EXIT_VIOLATION


def cmd_diagonalize(args) -> int:
    family = _load_family(args.family) if args.family else Family.of()
    learner = _make_learner(args.learner, family, args.target)
    report = diagonalize(learner, args.class_size, args.horizon)
    _dump_json(_out_path(args, "diagonalization.json"), report.to_json())
    return EXIT_OK if report.ok else EXIT_VIOLATION


def cmd_locking(args) -> int:
    family = _load_family(args.family)
    learner = _make_learner(args.learner, family, args.target)
    target = _member(family, args.target)
    kind = learner.mode
    start = _read_items(args.start, kind) if args.start else Prefix(kind, ())
    result = weak_locking_search(learner, target, start, args.depth, args.width)
    payload = {
        "kind": result.kind,
        "sigma_length": len(result.sigma),
        "tau_length": None if result.tau is None else len(result.tau),
        "depth": result.depth,
        "width": result.width,
        "probes": result.probes,
    }
    _dump_json(_out_path(args, "locking.json"), payload)
    return EXIT_OK


def cmd_bridge(args) -> int:
    _read_choice_options(args, "bridge", args.action, f"bridge {args.action}")
    family = _load_family(args.family)
    if not family.members:
        unread = f"; its generator {family.generator!r} is not expanded" if family.generator else ""
        raise CliError(f"invalid family: the bridge translates listed members, and it lists none{unread}",
                       EXIT_REPRESENTATION)
    langs = [bridge_mod.size_sequence_of(m) for m in family.members]
    if args.action == "translate":
        payload = [
            {"member": m.to_json(),
             "sizes": [lang.eval(i).to_json() for i in range(16)]}
            for m, lang in zip(family.members, langs)
        ]
        _dump_json(_out_path(args, "translate.json"), payload)
        return EXIT_OK
    if args.action == "telltale":
        # tell-tales are sought for each member's canonical translation,
        # against the bounded permutation closure of the whole family
        closure = bridge_mod.language_closure(langs, args.positions)
        results = []
        all_found = True
        for member, lang in zip(family.members, langs):
            tell = bridge_mod.telltale_search(lang, closure, args.bound)
            results.append({"member": member.to_json(),
                            "telltale": None if tell is None else sorted(tell)})
            all_found = all_found and tell is not None
        try:
            separable = finitely_separable(family.members).separable
        except FamilyError:
            separable = None
        payload = {"bound": args.bound, "positions": args.positions,
                   "closure_size": len(closure), "all_found": all_found,
                   "finitely_separable": separable, "results": results}
        _dump_json(_out_path(args, "telltale.json"), payload)
        consistent = separable is None or separable == all_found
        return EXIT_OK if consistent else EXIT_VIOLATION
    if args.action == "roundtrip":
        target = _member(family, args.target)
        _check_run_length(args.horizon, args.window)
        composed = bridge_mod.LanguageToStructLearner(family.members)
        reference = SeparatorLearner(family.members, enforce=False)
        seed = _default_seed(args)
        res_composed = run_simulation(composed, fair_informant(target, seed),
                                      args.horizon, target, "iso", args.window)
        res_reference = run_simulation(reference, fair_informant(target, seed),
                                       args.horizon, target, "iso", args.window)
        agree = (
            res_composed.final is not None and res_reference.final is not None
            and res_composed.final == res_reference.final
        )
        payload = {
            "composed": res_composed.summary(),
            "reference": res_reference.summary(),
            "agree": agree,
        }
        _dump_json(_out_path(args, "roundtrip.json"), payload)
        return EXIT_OK if agree and res_composed.converged else EXIT_VIOLATION
    raise CliError(f"unknown bridge action {args.action!r}", EXIT_PARSE)


def cmd_replay(args) -> int:
    family = _load_family(args.family)
    learner = _make_learner(args.learner, family, args.target)
    kind = learner.mode
    prefix = _read_items(args.items, kind)
    target = _member(family, args.target)
    horizon = min(args.horizon, len(prefix.items))
    window = min(args.window, horizon)
    _check_run_length(horizon, window)
    result = run_simulation(learner, iter(prefix.items), horizon, target,
                            args.relation, window)
    summary = result.summary()
    try:
        with open(args.summary) as fh:
            recorded = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse recorded summary: {exc}", EXIT_PARSE)
    if not isinstance(recorded, dict):
        raise CliError(f"cannot parse recorded summary: a summary is a JSON object, "
                       f"not a {type(recorded).__name__}", EXIT_PARSE)
    keys = ("converged", "stage", "final", "mind_changes", "mind_change_stages")
    mismatches = {k: (summary.get(k), recorded.get(k))
                  for k in keys if summary.get(k) != recorded.get(k)}
    if args.out:
        _dump_json(_out_path(args, "replay.json"),
                   {"match": not mismatches, "mismatches": mismatches})
    return EXIT_OK if not mismatches else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Argument parsing


def _at_least(floor: int):
    """An argparse type: an integer no smaller than `floor`."""
    def integer(text: str) -> int:
        value = int(text)
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value
    return integer


# the options several commands read, and those of one adversary kind
OPTIONS = {
    "learner": {"default": "separator"},
    "target": {"type": int, "default": 0, "help": "member index"},
    "seed": {"type": int, "default": None},
    "horizon": {"type": int, "default": 10000},
    "window": {"type": int, "default": 200},
    "depth": {"type": _at_least(0), "default": 50},
    "width": {"type": _at_least(1), "default": 8},
    "bound": {"type": _at_least(0), "default": 64},
    "jobs": {"type": _at_least(1), "default": 1},
    "min-mind-changes": {"type": _at_least(1), "default": 5},
    "positions": {"type": _at_least(0), "default": 12},
}
# the options only one adversary kind or bridge action reads; the command's
# other kinds or actions refuse them
CHOICE_OPTIONS = {
    "adversary": {"limit": ("min-mind-changes",), "text": ("depth", "width")},
    "bridge": {"translate": (), "telltale": ("bound", "positions"),
               "roundtrip": ("target", "seed", "horizon", "window")},
}


def _choice_options(command: str) -> tuple:
    return tuple(name for names in CHOICE_OPTIONS[command].values() for name in names)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitlearn",
        description="learners, adversaries, and certificates for equivalence-structure identification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *options, family_required=True):
        """--family, --out and the shared `options` the command reads."""
        p.add_argument("--family", required=family_required, help="family JSON file")
        for name in options:
            p.add_argument(f"--{name}", **OPTIONS[name])
        p.add_argument("--out", default=".")

    p = sub.add_parser("check", help="separability / anti-chain certificate")
    common(p)
    p.add_argument("--bound", **{**OPTIONS["bound"], "type": _at_least(1)})
    p.set_defaults(func=cmd_check)
    p.add_argument("--no-out", dest="out", action="store_const", const=None)

    p = sub.add_parser("simulate", help="run a learner on a fair stream")
    common(p, "learner", "target", "seed", "horizon", "window", "jobs")
    p.add_argument("--relation", choices=("iso", "biembed"), default="iso")
    p.add_argument("--reorder", choices=("",) + REORDER_STRATEGIES, default="")
    p.add_argument("--seeds", default="", help="seed range lo:hi for fan-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("adversary", help="run the limit or text adversary")
    kind_options = _choice_options("adversary")
    common(p, "learner", "target", *kind_options)
    p.add_argument("--horizon", **{**OPTIONS["horizon"], "type": _at_least(1)})
    p.add_argument("--kind", choices=tuple(CHOICE_OPTIONS["adversary"]), default="limit")
    p.set_defaults(func=cmd_adversary, **{name.replace("-", "_"): None for name in kind_options})

    p = sub.add_parser("diagonalize", help="run the pairwise diagonalizer")
    common(p, "learner", "target", family_required=False)
    p.add_argument("--horizon", **{**OPTIONS["horizon"], "type": _at_least(1), "default": 600})
    p.add_argument("--class-size", type=_at_least(2), default=2)
    p.set_defaults(func=cmd_diagonalize)

    p = sub.add_parser("locking", help="search for a weak locking sequence")
    common(p, "learner", "target", "depth", "width")
    p.add_argument("--start", default="", help="replay file with the start prefix")
    p.set_defaults(func=cmd_locking)

    p = sub.add_parser("bridge", help="language-learning translation tools")
    p.add_argument("action", choices=tuple(CHOICE_OPTIONS["bridge"]))
    action_options = _choice_options("bridge")
    common(p, *action_options)
    p.set_defaults(func=cmd_bridge, **{name.replace("-", "_"): None for name in action_options})

    p = sub.add_parser("replay", help="re-run a recorded item file and compare")
    common(p, "learner", "target", "horizon", "window")
    p.add_argument("--items", required=True)
    p.add_argument("--summary", required=True)
    p.add_argument("--relation", choices=("iso", "biembed"), default="iso")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv=None) -> None:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exc.code
    except RepresentationError as exc:
        print(f"representation error: {exc}", file=sys.stderr)
        code = EXIT_REPRESENTATION
    except FamilyError as exc:
        print(f"family error: {exc}", file=sys.stderr)
        code = EXIT_REPRESENTATION
    sys.exit(code)


if __name__ == "__main__":
    main()
