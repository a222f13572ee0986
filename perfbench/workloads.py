"""The four workloads: fixed, seeded lists of operations with their checks.

An operation is one call into the library that yields a verdict: a
simulation, an adversary run or a family certificate.  ``Op.run`` is what
is timed; ``Op.check`` then compares the verdict against computations made
apart from the library (see ``oracle``) and against answers the paper
states.  The workload seed picks stream seeds from the stream-seed range and
reorder strategies; the library receives the generated censuses and stream
seeds and nothing else.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import limitlearn as ll
from limitlearn import bridge as B

from oracle import biembeddable, count, decode, fin_embeds, is_limit, plain, require

HORIZON = 10_000
WINDOW = 200
CLOSURE_POSITIONS = 12
TELLTALE_BOUND = 64
LIMIT_BOUND = 32
# slots compared when judging inclusion between bridge languages: every
# language here agrees with its family members beyond the first dozen slots
SLOT_WINDOW = 32

OM = "omega"


def census(exceptions=(), default=0, omega=0) -> ll.Character:
    return ll.Character.make(default, dict(exceptions), omega)


def kron(i: int) -> ll.Character:
    return ll.GENERATORS["kronecker"].produce(i)


def kron_slice(m: int) -> tuple:
    return tuple(kron(i) for i in range(m))


FIVE_OMEGA = census({5: OM})
FIVE_OMEGA_TWO = census({5: OM, 2: 1})
C56 = census({5: OM, 6: 2})
C57 = census({5: OM, 7: 1})
ONE_INF = census(omega=1)
TWO_INF = census(omega=2)
NONSEPARABLE = (FIVE_OMEGA, FIVE_OMEGA_TWO)


def corpus() -> dict[str, tuple]:
    """The separable corpus of the acceptance criteria, built afresh so that no
    cached census state carries over from an earlier caller."""
    tails3 = (census({1: OM}), census({2: 1, 1: OM}), census({2: 2, 1: OM}))
    return {
        "example1": (C56, C57),
        "example2": (FIVE_OMEGA, census({6: OM})),
        **{f"kron{m}": kron_slice(m) for m in range(2, 7)},
        "singleton": (FIVE_OMEGA,),
        "tails3": tails3,
        "example1-plus": (C56, C57, census({8: 1, 1: OM})),
        "chain3": (census({3: OM}), census({4: OM}), census({5: OM})),
    }


# finite-embedding anti-chains: the families the one-shot learner accepts
ANTICHAINS = ("example1", "singleton", "example1-plus")


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable


def call(tr, fn, *args):
    """Call into the library, inside a span named module.function when traced."""
    if not tr.enabled:
        return fn(*args)
    with tr.span(f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"):
        return fn(*args)


# ---------------------------------------------------------------------------
# Simulations (informant, text, and the locking pairs of refute)


def _simulation_op(label, make_learner, make_stream, target, relation, horizon=HORIZON):
    judge = (lambda a, b: a == b) if relation == "iso" else biembeddable

    def run(tr):
        learner = call(tr, *make_learner)
        stream = call(tr, *make_stream)
        return call(tr, ll.run_simulation, learner, stream, horizon, target, relation, WINDOW)

    def check(res):
        require(res.converged, f"{label}: did not converge within {horizon} stages")
        require(res.final is not None and judge(plain(res.final), plain(target)),
                f"{label}: final conjecture {res.final} is not {relation} to {target}")

    return Op(label, run, check)


INFORMANT_LEARNERS = (
    ("separator", ll.learner_separator, "iso"),
    ("min-embed", ll.learner_min_embed, "biembed"),
    ("one-shot", ll.learner_one_shot, "iso"),
)


def informant_ops(rng: random.Random, stream_seeds) -> list[Op]:
    """Every learner on every member of its families, once on a fair
    informant and once on one reordered by a drawn strategy."""
    ops = []
    for name, members in corpus().items():
        for index, target in enumerate(members):
            for lname, factory, relation in INFORMANT_LEARNERS:
                if lname == "one-shot" and name not in ANTICHAINS:
                    continue
                seed = rng.choice(stream_seeds)
                ops.append(_simulation_op(
                    f"{lname}/{name}[{index}]/fair/seed{seed}", (factory, members),
                    (ll.fair_informant, target, seed), target, relation))
                seed, strategy = rng.choice(stream_seeds), rng.choice(ll.REORDER_STRATEGIES)
                ops.append(_simulation_op(
                    f"{lname}/{name}[{index}]/{strategy}/seed{seed}", (factory, members),
                    (ll.reordered_informant, target, seed, strategy), target, relation))
    return ops


def _text_separator(members):
    return ll.learner_from_text(ll.learner_separator(members))


def text_ops(rng: random.Random, stream_seeds) -> list[Op]:
    ops = []
    for name, members in corpus().items():
        for index, target in enumerate(members):
            seed = rng.choice(stream_seeds)
            ops.append(_simulation_op(
                f"txt-separator/{name}[{index}]/seed{seed}", (_text_separator, members),
                (ll.fair_text, target, seed), target, "iso"))
    return ops


# ---------------------------------------------------------------------------
# Refutations


def _check_prefix(label: str, items, text: bool = False):
    consistent, decoded = decode(items, text)
    require(consistent, f"{label}: replayed prefix is inconsistent")
    return decoded


def _diagonalize_op(label, make_learner, stages):
    def run(tr):
        tr.add("adversaries.diagonalize.stages", stages)
        return call(tr, ll.diagonalize, call(tr, *make_learner), 2, stages)

    def check(rep):
        require(rep.ok, f"{label}: report fails its own checks {rep.to_json()}")
        sigma = _check_prefix(label + " sigma", rep.sigma_prefix.items)
        tau = _check_prefix(label + " tau", rep.tau_prefix.items)
        require(sigma == plain(rep.sigma_char), f"{label}: sigma decodes to {sigma}")
        require(tau == plain(rep.tau_char), f"{label}: tau decodes to {tau}")
        require(sigma != tau, f"{label}: sigma and tau decode alike")

    return Op(label, run, check)


def _limit_op(label, make_learner, members):
    def run(tr):
        adversary = call(tr, ll.limit_adversary, call(tr, *make_learner), FIVE_OMEGA, members)
        rep = call(tr, adversary.run, HORIZON)
        tr.add("adversaries.limit.items", len(rep.items))
        return rep

    def check(rep):
        require(rep.consistent and rep.defeated(5), f"{label}: {rep.to_json()}")
        _check_prefix(label, rep.items)

    return Op(label, run, check)


def _text_adversary_op(label, make_learner, verdicts):
    def run(tr):
        return call(tr, ll.text_adversary, call(tr, *make_learner))

    def check(rep):
        require(rep.verdict in verdicts, f"{label}: verdict {rep.verdict} ({rep.reason})")
        if rep.sigma is not None:
            _check_prefix(label, rep.sigma.items, text=True)

    return Op(label, run, check)


def _locking_pair_op(label, members, target, seed):
    """Criterion 11: the locking normal form keeps the base learner's final
    conjecture on the same stream."""

    def run(tr):
        base = call(tr, ll.run_simulation, call(tr, ll.learner_separator, members),
                    call(tr, ll.fair_informant, target, seed), 5000, target, "iso", WINDOW)
        wrapped_learner = call(tr, ll.locking_transform, call(tr, ll.learner_separator, members))
        stream = call(tr, ll.fair_informant, target, seed)
        with tr.span("adversaries.locking_transform.simulation"):
            wrapped = call(tr, ll.run_simulation, wrapped_learner, stream, 5000, target, "iso", WINDOW)
        tr.add("adversaries.locking_transform.items", 5000)
        return base, wrapped, wrapped_learner.distilled()

    def check(result):
        base, wrapped, distilled = result
        require(base.converged and wrapped.converged, f"{label}: no convergence")
        require(plain(base.final) == plain(target) == plain(wrapped.final),
                f"{label}: finals {base.final}, {wrapped.final}")
        _check_prefix(label + " distilled", distilled.items)

    return Op(label, run, check)


def _weak_locking_op(label, make_learner, target, kind):
    def run(tr):
        res = call(tr, ll.weak_locking_search, call(tr, *make_learner), target,
                   ll.informant_prefix(), 50, 8)
        tr.add("adversaries.weak_locking_search.probes", res.probes)
        return res

    def check(res):
        require(res.kind == kind, f"{label}: {res.kind}, expected {kind}")
        require(res.probes > 0, f"{label}: no probes")
        _check_prefix(label + " sigma", res.sigma.items)
        if kind == "candidate":
            require(res.sigma.items == (), f"{label}: nonempty candidate")
        else:
            _check_prefix(label + " tau", res.tau.items)

    return Op(label, run, check)


def refute_ops(rng: random.Random, stream_seeds) -> list[Op]:
    fam = corpus()
    tails = [census({1: OM}), census({2: 1, 1: OM})]
    ops = [
        # criterion 7: the diagonalizer roster and its stage budgets
        _diagonalize_op("diagonalize/constant", (ll.learner_constant, FIVE_OMEGA), 400),
        _diagonalize_op("diagonalize/split", (ll.learner_split_on_negative,), 400),
        _diagonalize_op("diagonalize/one-shot", (ll.learner_one_shot, list(fam["example1"])), 400),
        _diagonalize_op("diagonalize/separator", (ll.learner_separator, tails), 300),
        _diagonalize_op("diagonalize/echo", (ll.learner_echo,), 150),
    ]
    # criterion 4: the limit adversary against the bi-embeddable pair
    pair = list(NONSEPARABLE)
    for label, make in (
        ("constant-5w", (ll.learner_constant, FIVE_OMEGA)),
        ("constant-5w2", (ll.learner_constant, FIVE_OMEGA_TWO)),
        ("min-embed", (ll.learner_min_embed, pair, False)),
        ("separator", (ll.learner_separator, pair, False)),
        ("split", (ll.learner_split_on_negative,)),
        ("echo", (ll.learner_echo,)),
    ):
        ops.append(_limit_op(f"limit/{label}", make, pair))
    # criterion 9: the text adversary on one versus two infinite classes
    defeated, either = ("defeated",), ("defeated", "undecided")
    ops += [
        _text_adversary_op("text-adversary/constant-1", (ll.learner_constant, ONE_INF, ll.TEXT), defeated),
        _text_adversary_op("text-adversary/constant-2", (ll.learner_constant, TWO_INF, ll.TEXT), defeated),
        _text_adversary_op("text-adversary/txt-split",
                           (ll.learner_from_text, ll.learner_split_on_negative()), either),
        _text_adversary_op("text-adversary/txt-echo", (ll.learner_from_text, ll.learner_echo()), either),
    ]
    # criterion 11: locking normal form and weak locking search
    for name, index in (("example1", 0), ("example1", 1), ("kron3", 1), ("tails3", 1)):
        members = list(fam[name])
        seed = rng.choice(stream_seeds)
        ops.append(_locking_pair_op(f"locking/{name}[{index}]/seed{seed}", members, members[index], seed))
    ops += [
        _weak_locking_op("weak-locking/constant", (ll.learner_constant, FIVE_OMEGA), FIVE_OMEGA, "candidate"),
        _weak_locking_op("weak-locking/split", (ll.learner_split_on_negative,), TWO_INF, "violator"),
    ]
    return ops


# ---------------------------------------------------------------------------
# Family certificates


def _unpair(code: int) -> tuple[int, int]:
    w = (math.isqrt(8 * code + 1) - 1) // 2
    j = code - w * (w + 1) // 2
    return w - j, j


def _slots(lang) -> tuple:
    return tuple(math.inf if v.finite is None else v.finite for v in map(lang.eval, range(SLOT_WINDOW)))


def _member(slots: tuple, code: int) -> bool:
    i, j = _unpair(code)
    return j < slots[i]


@dataclass
class Certificate:
    separability: object
    separators: list
    antichain: bool
    limit_verdicts: list
    languages: list
    closure: list
    telltales: list


def _certify_op(label, members, counterexample, limit_checks, no_telltale=()):
    def run(tr):
        sep = call(tr, ll.finitely_separable, members)
        separators = [call(tr, ll.separator_of, m, members) for m in members] if sep.separable else []
        antichain = call(tr, ll.fin_antichain, members)
        verdicts = [call(tr, ll.generated_limit_verdict, cand, ll.Family(generator=gen), LIMIT_BOUND)
                    for cand, gen in limit_checks]
        langs = [call(tr, B.size_sequence_of, m) for m in members]
        closure = call(tr, B.language_closure, langs, CLOSURE_POSITIONS)
        telltales = [call(tr, B.telltale_search, lang, closure, TELLTALE_BOUND) for lang in langs]
        tr.add("separability.families", 1)
        tr.add("bridge.closure_candidates", len(langs) * math.comb(CLOSURE_POSITIONS, 2))
        return Certificate(sep, separators, antichain, verdicts, langs, closure, telltales)

    def check(cert):
        plains = [plain(m) for m in members]
        # separability: no member is a limit of another
        counter = next(((a, b) for a in plains for b in plains if is_limit(a, b)), None)
        expected = None if counterexample is None else tuple(map(plain, counterexample))
        require(counter == expected, f"{label}: oracle counterexample {counter}, paper {expected}")
        got = cert.separability.counterexample
        require(cert.separability.separable == (expected is None)
                and (got is None or tuple(map(plain, got)) == expected),
                f"{label}: separable={cert.separability.separable} counterexample {got}")
        # a separator is realized by its owner and missed by every
        # finitely bi-embeddable companion
        for sep, own in zip(cert.separators, plains):
            for comp in sep.components:
                require(count(own, comp.size.finite) >= comp.index, f"{label}: {comp} not in owner")
            for other in plains:
                if other != own and fin_embeds(other, own) and fin_embeds(own, other):
                    require(any(count(other, c.size.finite) < c.index for c in sep.components),
                            f"{label}: separator of {own} realized by {other}")
        antichain = not any(a != b and fin_embeds(a, b) for a in plains for b in plains)
        require(cert.antichain == antichain, f"{label}: anti-chain {cert.antichain}, oracle {antichain}")
        for (cand, gen), verdict in zip(limit_checks, cert.limit_verdicts):
            require(verdict.kind == "limit" and verdict.certified,
                    f"{label}: {cand} against {gen}: {verdict}")
        # the closure holds the languages and their transpositions, once each
        expected = [_slots(lang) for lang in cert.languages]
        for slots in map(_slots, cert.languages):
            for a in range(CLOSURE_POSITIONS):
                for b in range(a + 1, CLOSURE_POSITIONS):
                    swapped = list(slots)
                    swapped[a], swapped[b] = slots[b], slots[a]
                    expected.append(tuple(swapped))
        expected = list(dict.fromkeys(expected))
        closure = [_slots(lang) for lang in cert.closure]
        require(closure == expected, f"{label}: closure of {len(closure)} languages, expected {len(expected)}")
        # tell-tales: a found set sits inside its language and in no properly
        # included closure language; a miss must be a miss at the bound, with
        # every member code up to the bound in a properly included language
        for index, (lang, found) in enumerate(zip(cert.languages, cert.telltales)):
            own = _slots(lang)
            below = [s for s in closure if s != own and all(x <= y for x, y in zip(s, own))]
            if found is not None:
                require(index not in no_telltale, f"{label}: tell-tale for language {index}")
                require(all(_member(own, c) for c in found), f"{label}: tell-tale outside language {index}")
                require(not any(all(_member(s, c) for c in found) for s in below),
                        f"{label}: tell-tale of language {index} fits a smaller language")
            else:
                codes = [c for c in range(TELLTALE_BOUND + 1) if _member(own, c)]
                require(any(all(_member(s, c) for c in codes) for s in below),
                        f"{label}: language {index} has a tell-tale within the bound, none reported")

    return Op(label, run, check)


def certify_ops(rng: random.Random, stream_seeds) -> list[Op]:
    families = dict(corpus())
    # kron slices 2-6 are the corpus families kron2-kron6
    families.update({f"kron{m}": kron_slice(m) for m in (7, 8)})
    ops = []
    for name, members in families.items():
        limits = [(m, "kronecker") for m in members] if name.startswith("kron") else []
        ops.append(_certify_op(f"certify/{name}", members, None, limits))
    # the bi-embeddable pair: not separable, counterexample (5:w, 5:w + 2:1),
    # no tell-tale for 5:w; 5:w is also the limit of the five_n_tail family
    ops.append(_certify_op("certify/nonseparable", NONSEPARABLE, NONSEPARABLE,
                           [(FIVE_OMEGA, "five_n_tail")], no_telltale=(0,)))
    return ops


BUILDERS = {"informant": informant_ops, "text": text_ops, "refute": refute_ops, "certify": certify_ops}


def stream_seed_range(spec: str) -> tuple:
    lo, _, hi = spec.partition(":")
    seeds = tuple(range(int(lo), int(hi)))
    if not seeds:
        raise ValueError(f"empty stream-seed range {spec!r}")
    return seeds


def build(workload: str, seed: int, stream_seeds: tuple) -> list[Op]:
    return BUILDERS[workload](random.Random(seed), stream_seeds)
