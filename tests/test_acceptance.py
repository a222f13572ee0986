"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Budgets: simulation horizon 10^4, convergence window
200, 20 seeds where a criterion calls for full seed coverage.
"""
import json
import subprocess
import sys

import limitlearn as ll
from limitlearn import bridge as B

from families import (
    C56,
    C57,
    EXAMPLE1,
    EXAMPLE2,
    FIVE_OMEGA,
    FIVE_OMEGA_TWO,
    NONSEPARABLE,
    ONE_INF,
    SEEDS,
    SEPARABLE_CORPUS,
    TWO_INF,
    census,
    kron,
    kron_slice,
    small_characters,
)
from oracles import brute_embeds, brute_fin_embeds, brute_fin_embeds_profiles

HORIZON = 10_000
WINDOW = 200


def report(criterion: int, ok: bool, detail: str = ""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------


def test_criterion_01_embedding_oracle_equivalence():
    chars = small_characters()
    pairs = 0
    for a in chars:
        for b in chars:
            assert ll.fin_embeds(a, b) == brute_fin_embeds(a, b), (a, b)
            assert ll.embeds(a, b) == brute_embeds(a, b), (a, b)
            pairs += 1
    # full-profile matching oracle on the sub-corpus where size-10 profiles
    # provably suffice (counts <= 2, sizes <= 3)
    small = small_characters(keys=(1, 2, 3), max_count=2, defaults=(0,))
    for a in small:
        for b in small:
            assert ll.fin_embeds(a, b) == brute_fin_embeds_profiles(a, b), (a, b)
            pairs += 1
    report(1, True, f"embedding tests agree with brute-force oracles on {pairs} pairs")


def test_criterion_02_example1_one_shot_learning():
    fam = list(EXAMPLE1)
    runs = 0
    for target in fam:
        for seed in SEEDS:
            res = ll.run_simulation(
                ll.learner_one_shot(fam), ll.fair_informant(target, seed),
                HORIZON, target, "iso", WINDOW,
            )
            assert res.converged, (target, seed)
            assert res.trace.fin_shape(target), (target, seed)
            runs += 1
    report(2, True, f"one-shot trace shape and correctness on {runs} runs")


def test_criterion_03_example2_needs_mind_changes():
    fam = list(EXAMPLE2)
    assert not ll.fin_antichain(fam)
    for target in fam:
        for seed in SEEDS:
            res = ll.run_simulation(
                ll.learner_separator(fam), ll.fair_informant(target, seed),
                HORIZON, target, "iso", WINDOW,
            )
            assert res.converged, (target, seed)
    report(3, True, "no anti-chain, yet the separator learner converges on all seeds")


def _adversary_roster():
    fam = list(NONSEPARABLE)
    return [
        ll.learner_constant(FIVE_OMEGA),
        ll.learner_constant(FIVE_OMEGA_TWO),
        ll.learner_min_embed(fam, enforce=False),
        ll.learner_separator(fam, enforce=False),
        ll.learner_split_on_negative(),
        ll.learner_echo(),
    ]


def test_criterion_04_biembeddable_pair():
    sep = ll.finitely_separable(NONSEPARABLE)
    assert not sep.separable
    assert sep.counterexample == (FIVE_OMEGA, FIVE_OMEGA_TWO)
    # a constant learner succeeds once the goal is only bi-embeddability
    for target in NONSEPARABLE:
        res = ll.run_simulation(
            ll.learner_constant(FIVE_OMEGA), ll.fair_informant(target, 0),
            2000, target, "biembed", WINDOW,
        )
        assert res.converged, target
    # and the limit adversary defeats every roster learner at the horizon
    for learner in _adversary_roster():
        rep = ll.limit_adversary(learner, FIVE_OMEGA, list(NONSEPARABLE)).run(HORIZON)
        assert rep.consistent, learner.name
        assert rep.defeated(5), (learner.name, rep.mind_changes)
    report(4, True, "counterexample found; adversary dichotomy holds for the roster")


def test_criterion_05_separator_learner_on_separable_corpus():
    assert len(SEPARABLE_CORPUS) >= 10
    runs = 0
    for name, fam in SEPARABLE_CORPUS.items():
        assert ll.finitely_separable(fam).separable, name
        members = list(fam)
        for target in members:
            for seed in SEEDS:
                res = ll.run_simulation(
                    ll.learner_separator(members), ll.fair_informant(target, seed),
                    HORIZON, target, "iso", WINDOW,
                )
                assert res.converged, (name, target, seed, res.final)
                runs += 1
            for strategy in ll.REORDER_STRATEGIES:
                res = ll.run_simulation(
                    ll.learner_separator(members),
                    ll.reordered_informant(target, 1, strategy),
                    HORIZON, target, "iso", WINDOW,
                )
                assert res.converged, (name, target, strategy, res.final)
                runs += 1
    report(5, True, f"isomorphism-correct convergence on {runs} runs over "
                    f"{len(SEPARABLE_CORPUS)} families")


def test_criterion_06_generated_family_limits():
    fam = ll.Family(generator="five_n_tail")
    verdict = ll.generated_limit_verdict(FIVE_OMEGA, fam, 32)
    assert verdict.kind == "limit" and verdict.certified
    for m in range(2, 7):
        assert ll.finitely_separable(kron_slice(m)).separable, m
    # the anti-chain status of the slices: mutual finite embedding fails it
    antichain_verdicts = {m: ll.fin_antichain(kron_slice(m)) for m in range(2, 7)}
    assert all(v is False for v in antichain_verdicts.values())
    kron_fam = ll.Family(generator="kronecker")
    for i in range(5):
        verdict = ll.generated_limit_verdict(kron(i), kron_fam, 32)
        assert verdict.kind == "limit" and verdict.certified, i
    report(6, True, "tail family and every excluded-size census are certified limits; "
                    f"slice anti-chain verdicts {antichain_verdicts}")


def test_criterion_07_diagonalizer_dichotomy():
    tails = [census(0, {1: "omega"}), census(0, {2: 1, 1: "omega"})]
    roster = [
        (ll.learner_constant(FIVE_OMEGA), 400),
        (ll.learner_split_on_negative(), 400),
        (ll.learner_one_shot(list(EXAMPLE1)), 400),
        (ll.learner_separator(tails), 300),
        (ll.learner_echo(), 150),
    ]
    expansion_counts = {}
    for learner, stages in roster:
        rep = ll.diagonalize(learner, 2, stages)
        assert rep.ok, (learner.name, rep.to_json())
        expansion_counts[learner.name] = len(rep.expansionary_stages)
    # both branches of the construction are exercised by the roster
    assert 0 in expansion_counts.values()
    assert any(v >= 2 for v in expansion_counts.values())
    report(7, True, f"dichotomy verified for 5 learners; expansionary stages {expansion_counts}")


def test_criterion_08_text_learning_matches_informant_learning():
    runs = 0
    for name, fam in SEPARABLE_CORPUS.items():
        members = list(fam)
        seeds = (0, 1, 2) if name == "example1" else (0,)
        for target in members:
            for seed in seeds:
                text_res = ll.run_simulation(
                    ll.learner_from_text(ll.learner_separator(members)),
                    ll.fair_text(target, seed), HORIZON, target, "iso", WINDOW,
                )
                inf_res = ll.run_simulation(
                    ll.learner_separator(members), ll.fair_informant(target, seed),
                    HORIZON, target, "iso", WINDOW,
                )
                assert text_res.converged and inf_res.converged, (name, target, seed)
                assert text_res.final == inf_res.final, (name, target, seed)
                runs += 1
    report(8, True, f"text learner matches the informant learner on {runs} runs")


def test_criterion_09_infinite_classes_split_text_from_informant():
    fam = [ONE_INF, TWO_INF]
    for target in fam:
        for seed in SEEDS:
            res = ll.run_simulation(
                ll.learner_split_on_negative(), ll.fair_informant(target, seed),
                HORIZON, target, "iso", WINDOW,
            )
            assert res.converged, (target, seed)
    rep = ll.text_adversary(ll.learner_constant(ONE_INF, mode="text"))
    assert rep.verdict == "defeated"
    rep = ll.text_adversary(ll.learner_constant(TWO_INF, mode="text"))
    assert rep.verdict == "defeated"
    text_roster = [
        ll.learner_constant(ONE_INF, mode="text"),
        ll.learner_constant(TWO_INF, mode="text"),
        ll.learner_from_text(ll.learner_split_on_negative()),
        ll.learner_from_text(ll.learner_echo()),
    ]
    verdicts = {}
    for learner in text_roster:
        rep = ll.text_adversary(learner)
        assert rep.verdict in ("defeated", "undecided"), (learner.name, rep.reason)
        verdicts[learner.name] = rep.verdict
    report(9, True, f"informant learner converges on both; text verdicts {verdicts}")


def test_criterion_10_language_learning_bridge():
    # round trip: the informant learner recovered from the language translation
    for name, fam in SEPARABLE_CORPUS.items():
        members = list(fam)
        for target in members:
            composed = B.LanguageToStructLearner(members)
            res = ll.run_simulation(
                composed, ll.fair_informant(target, 0), 6000, target, "iso", WINDOW
            )
            ref = ll.run_simulation(
                ll.learner_separator(members), ll.fair_informant(target, 0),
                6000, target, "iso", WINDOW,
            )
            assert res.converged and ref.converged, (name, target)
            assert res.final == ref.final, (name, target)
    # tell-tales: found for every member translation of every separable family
    for name, fam in SEPARABLE_CORPUS.items():
        langs = [B.size_sequence_of(m) for m in fam]
        closure = B.language_closure(langs, 12)
        for lang in langs:
            assert B.telltale_search(lang, closure, 64) is not None, name
    # and absent for the non-separable pair's nest
    langs = [B.size_sequence_of(m) for m in NONSEPARABLE]
    closure = B.language_closure(langs, 12)
    assert B.telltale_search(langs[0], closure, 64) is None
    # single-language collapse: both bare translations are tell-tale learnable
    bare = [B.size_sequence_of(m) for m in NONSEPARABLE]
    assert all(B.telltale_search(lang, bare, 64) is not None for lang in bare)
    assert not ll.finitely_separable(NONSEPARABLE).separable

    # every finite closure has tell-tales, so at a bound no code reaches the
    # two cases differ in growth: the largest tell-tale stays constant as the
    # closure permutes more positions for a separable family, and grows for
    # the non-separable pair
    def largest_telltale(fam, positions):
        langs = [B.size_sequence_of(m) for m in fam]
        closure = B.language_closure(langs, positions)
        return max(len(B.telltale_search(lang, closure, 10**9)) for lang in langs)

    grid = (8, 12, 16, 20)
    for name, fam in SEPARABLE_CORPUS.items():
        sizes = [largest_telltale(fam, p) for p in grid]
        assert len(set(sizes)) == 1, (name, sizes)
    sizes = [largest_telltale(NONSEPARABLE, p) for p in grid]
    assert all(a < b for a, b in zip(sizes, sizes[1:])), sizes
    report(10, True, "round trips converge; tell-tales track separability at bound 64; "
           f"at bound 10^9 over {grid} positions the largest tell-tale is constant "
           f"for every separable family and grows {sizes} for the non-separable pair")


def test_criterion_11_locking_machinery():
    paired = [
        (list(EXAMPLE1), C56, 0),
        (list(EXAMPLE1), C57, 2),
        (list(kron_slice(3)), kron(1), 0),
        (list(SEPARABLE_CORPUS["tails3"]), SEPARABLE_CORPUS["tails3"][1], 1),
    ]
    for members, target, seed in paired:
        base_res = ll.run_simulation(
            ll.learner_separator(members), ll.fair_informant(target, seed),
            5000, target, "iso", WINDOW,
        )
        wrapped_res = ll.run_simulation(
            ll.locking_transform(ll.learner_separator(members)),
            ll.fair_informant(target, seed), 5000, target, "iso", WINDOW,
        )
        assert base_res.converged and wrapped_res.converged, target
        assert ll.conjectures_equal(base_res.final, wrapped_res.final), target
    res = ll.weak_locking_search(
        ll.learner_constant(FIVE_OMEGA), FIVE_OMEGA, ll.informant_prefix(), 50, 8
    )
    assert res.kind == "candidate" and res.sigma.items == ()
    res = ll.weak_locking_search(
        ll.learner_split_on_negative(), TWO_INF, ll.informant_prefix(), 50, 8
    )
    assert res.kind == "violator"
    report(11, True, "normal form preserves final conjectures; candidate/violator verdicts as stated")


def test_criterion_12_determinism_and_replay(tmp_path):
    cli = [sys.executable, "-m", "limitlearn.cli"]
    family = tmp_path / "family.json"
    family.write_text(json.dumps({"members": [[[5, "omega"], [6, 2]], [[5, "omega"], [7, 1]]]}))
    outs = []
    for run in ("a", "b"):
        out = tmp_path / run
        res = subprocess.run(
            cli + ["simulate", "--family", str(family), "--learner", "separator",
                   "--target", "1", "--seed", "13", "--horizon", "4000", "--out", str(out)],
            capture_output=True,
        )
        assert res.returncode == 0
        outs.append(out)
    for name in ("items.txt", "trace.txt", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    res = subprocess.run(
        cli + ["replay", "--family", str(family), "--learner", "separator",
               "--target", "1", "--items", str(outs[0] / "items.txt"),
               "--summary", str(outs[0] / "summary.json"),
               "--horizon", "4000", "--out", str(tmp_path)],
        capture_output=True,
    )
    assert res.returncode == 0
    # library-level determinism: a reset learner replays the trace bit-exactly
    items = [it for it, _ in zip(iter(ll.fair_informant(C57, 3)), range(1000))]
    lrn = ll.learner_separator(list(EXAMPLE1))
    first = [lrn.feed(i) for i in items]
    lrn.reset()
    second = [lrn.feed(i) for i in items]
    assert all(ll.conjectures_equal(a, b) for a, b in zip(first, second))
    report(12, True, "byte-identical reruns, replay verified, traces reproduce")
