import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlearn import (
    Character,
    Family,
    FamilyError,
    FamilyOrder,
    GENERATORS,
    Component,
    ExtNat,
    MinEmbedLearner,
    PrefixState,
    SeparatorLearner,
    char_subset,
    fair_informant,
    fin_antichain,
    finitely_separable,
    generated_limit_verdict,
    limit_witness,
    profile_le,
    separator_of,
)
from limitlearn import separability, structures
from limitlearn.separability import GeneratorSpec

from families import (
    C57,
    EXAMPLE1,
    EXAMPLE1_PLUS,
    EXAMPLE2,
    FIVE_OMEGA,
    FIVE_OMEGA_TWO,
    NONSEPARABLE,
    SEPARABLE_CORPUS,
    SIX_OMEGA,
    census,
    kron,
    kron_slice,
)
from oracles import (
    brute_fin_embeds,
    listed_char_diff_min,
    listed_char_subset,
    listed_components,
    listing_bounds,
    pairwise_finitely_separable,
)
from test_learners import _order_censuses

OM = "omega"


# ---------------------------------------------------------------------------
# Limits


def test_limit_witness_examples():
    assert limit_witness(FIVE_OMEGA, [FIVE_OMEGA_TWO]) == FIVE_OMEGA_TWO
    assert limit_witness(census(0, {5: OM, 6: 2}), [census(0, {5: OM, 7: 1})]) is None
    assert limit_witness(FIVE_OMEGA, [FIVE_OMEGA]) is None


def test_limit_witness_rejects_infinite_classes():
    with pytest.raises(FamilyError):
        limit_witness(census(0, {}, 1), [FIVE_OMEGA])


def test_finitely_separable_examples():
    res = finitely_separable(NONSEPARABLE)
    assert not res.separable
    assert res.counterexample == (FIVE_OMEGA, FIVE_OMEGA_TWO)
    assert finitely_separable(EXAMPLE1).separable
    for m in range(2, 7):
        assert finitely_separable(kron_slice(m)).separable


def test_separable_is_monotone_under_subfamilies():
    for name, fam in SEPARABLE_CORPUS.items():
        assert finitely_separable(fam).separable, name
        for i in range(len(fam)):
            sub = fam[:i] + fam[i + 1:]
            assert finitely_separable(sub).separable, (name, i)


# ---------------------------------------------------------------------------
# Separators


def test_separator_examples():
    a1, a2 = kron_slice(2)
    assert separator_of(a1, [a1, a2]).sorted_components() == [Component(ExtNat(2), 1)]
    assert separator_of(FIVE_OMEGA, [FIVE_OMEGA]).components == frozenset()
    fam = EXAMPLE1
    # the two members are not finitely bi-embeddable, so both separators are empty
    assert separator_of(C57, fam).components == frozenset()


def test_separator_within_one_class():
    # all kronecker members share one finite-bi-embeddability class; the
    # separator of each collects the least component missing from every other
    fam = kron_slice(4)
    for i, member in enumerate(fam):
        sep = separator_of(member, fam)
        expected = {Component(ExtNat(j + 1), 1) for j in range(4) if j != i}
        assert sep.components == expected, (i, sep)


def test_separators_form_an_antichain():
    fam = kron_slice(4)
    seps = [separator_of(m, fam).components for m in fam]
    for i, a in enumerate(seps):
        for j, b in enumerate(seps):
            if i != j:
                assert not a <= b, (i, j)


def test_every_member_eventually_realizes_its_separator():
    for fam in (kron_slice(4), (census(0, {2: 1, 1: OM}), census(0, {2: 2, 1: OM}))):
        for member in fam:
            sep = separator_of(member, fam)
            state = PrefixState("informant")
            it = iter(fair_informant(member, 0))
            for _ in range(4000):
                state.feed(next(it))
            census_now = state.char()
            assert all(census_now.has_component(c) for c in sep.components), (member, sep)


def test_separator_requires_membership():
    with pytest.raises(FamilyError):
        separator_of(FIVE_OMEGA, EXAMPLE1)


# ---------------------------------------------------------------------------
# The family's order


def assert_the_family_order_matches_the_references(family):
    """`FamilyOrder` against the pairwise reference, `brute_fin_embeds` and
    the listed components: the same order and classes, counts and pointwise
    comparisons, the same verdict and counterexample as the row-major
    `imitates` scan (`pairwise_finitely_separable`), and the same
    separators, each the least missing components over the member's class,
    which the separator learner holds as plain pairs; with an infinite class
    all sides raise."""
    order, n = FamilyOrder(family), len(family)
    le = [[brute_fin_embeds(a, b) for b in family] for a in family]
    assert order.le == le
    assert order.classes == [[j for j in range(n) if le[i][j] and le[j][i]] for i in range(n)]
    top, cap = listing_bounds(*family)
    for a in family:
        listed = listed_components(a, top, cap)
        assert all((a.count(size or math.inf) >= index) == ((size, index) in listed)
                   for size in [*range(1, top + 1), None] for index in range(1, cap + 1)), a
        assert [char_subset(a, b) for b in family] == [listed_char_subset(a, b) for b in family]
    if any(m.count(math.inf) != 0 for m in family):
        for call in (order.separability, lambda: pairwise_finitely_separable(family),
                     lambda: order.separator(0), lambda: separator_of(family[0], family),
                     lambda: SeparatorLearner(family, enforce=False)):
            with pytest.raises(FamilyError):
                call()
        return
    verdict = pairwise_finitely_separable(family)
    assert order.separability() == finitely_separable(family) == verdict
    separators = [separator_of(m, family) for m in family]
    assert [order.separator(i) for i in range(n)] == separators
    for i, member in enumerate(family):
        diffs = {listed_char_diff_min(member, family[j]) for j in order.classes[i] if j != i}
        assert separators[i].components == diffs - {None}, member
    learner = SeparatorLearner(family, enforce=False)
    assert [set(pairs) for pairs in learner._separators] == [
        {(c.size.finite, c.index) for c in sep.components} for sep in separators]


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(
    lambda infinite: st.lists(_order_censuses(infinite), min_size=1, max_size=5, unique=True)))
def test_the_family_order_matches_the_pairwise_reference(family):
    assert_the_family_order_matches_the_references(family)


NAMED_FAMILIES = {
    **SEPARABLE_CORPUS, **{f"kron{m}": kron_slice(m) for m in range(2, 9)},
    "nonseparable": NONSEPARABLE,
    # two limits, the first with two witnesses: the counterexample's order shows
    "two-limits": (FIVE_OMEGA_TWO, census(0, {5: OM, 3: 1}), FIVE_OMEGA,
                   census(0, {6: OM, 1: 1}), SIX_OMEGA),
}


@pytest.mark.parametrize("name", NAMED_FAMILIES)
def test_the_family_order_matches_the_pairwise_reference_on_named_families(name):
    assert_the_family_order_matches_the_references(NAMED_FAMILIES[name])


@pytest.fixture
def profile_le_calls(monkeypatch):
    """The `profile_le` calls made, under both names it is called by: the
    family's order calls separability's, `fin_embeds` structures'."""
    calls = []

    def counting(pa, pb):
        calls.append((pa, pb))
        return profile_le(pa, pb)

    monkeypatch.setattr(separability, "profile_le", counting)
    monkeypatch.setattr(structures, "profile_le", counting)
    return calls


@pytest.mark.parametrize("family", [kron_slice(6), EXAMPLE1_PLUS], ids=["kron6", "example1-plus"])
def test_the_family_order_is_built_from_n_squared_comparisons(profile_le_calls, family):
    # the order, and each learner that reads it, compares each ordered pair
    # once; a separator learner's separability and separators compare none
    for build in (FamilyOrder, MinEmbedLearner, SeparatorLearner):
        profile_le_calls.clear()
        build(family)
        assert len(profile_le_calls) == len(family) ** 2, build
    # one separator, as certificates ask for it, scans the member's companions
    for member in family:
        profile_le_calls.clear()
        separator_of(member, family)
        assert len(profile_le_calls) <= 2 * (len(family) - 1)


def test_a_separator_learner_builds_no_component_and_no_extended_natural(monkeypatch):
    # its separators are plain (size, index) pairs, read off the order
    family, built = kron_slice(6), []
    for cls in (Component, ExtNat):
        monkeypatch.setattr(cls, "__post_init__", lambda self: built.append(self))
    learner = SeparatorLearner(family)
    assert built == []
    assert sorted(map(sorted, learner._separators)) == sorted(
        [(j + 1, 1) for j in range(6) if j != i] for i in range(6))


def test_each_in_class_difference_is_computed_once(monkeypatch):
    # kron6 is one class: 30 ordered pairs, each one least missing component,
    # which separability and every separator read again without computing
    calls = []

    def counting(c, s):
        calls.append((c, s))
        return structures.least_missing(c, s)

    monkeypatch.setattr(separability, "least_missing", counting)
    family = kron_slice(6)
    order = SeparatorLearner(family)._order
    assert len(calls) == len(set(calls)) == 30
    assert order.separability() and [order.separator(i) for i in range(6)]
    assert len(calls) == 30


# ---------------------------------------------------------------------------
# Anti-chain (one-shot learnability)


def test_fin_antichain_examples():
    assert fin_antichain(EXAMPLE1)
    assert not fin_antichain(EXAMPLE2)
    assert fin_antichain((FIVE_OMEGA,))
    assert not fin_antichain(kron_slice(3))


def test_antichain_implies_separable():
    for name, fam in SEPARABLE_CORPUS.items():
        if len(fam) > 1 and fin_antichain(fam):
            assert finitely_separable(fam).separable, name
    # and the non-separable pair is not an anti-chain
    assert not fin_antichain(NONSEPARABLE)


# ---------------------------------------------------------------------------
# Generated families


def test_five_n_tail_limit_verdict():
    fam = Family(generator="five_n_tail")
    for bound in (8, 32):
        verdict = generated_limit_verdict(FIVE_OMEGA, fam, bound)
        assert verdict.kind == "limit", verdict
        assert verdict.certified


def test_kronecker_limit_verdicts():
    fam = Family(generator="kronecker")
    for i in range(5):
        verdict = generated_limit_verdict(kron(i), fam, 32)
        assert verdict.kind == "limit", (i, verdict)
        assert verdict.certified


def test_clause_one_refutation():
    # a census that some generated member does not finitely embed into
    fam = Family(generator="kronecker")
    verdict = generated_limit_verdict(FIVE_OMEGA, fam, 16)
    assert verdict.kind == "not-limit"
    assert "finitely embed" in verdict.detail


def _six_spec(name):
    # a generator whose closed form rules out every component but sizes 1 and 6
    return GeneratorSpec(
        name,
        lambda n: Character.make(0, {6: n + 1, 1: OM}, 0),
        lambda comp: not comp.size.is_omega and comp.size.finite in (1, 6),
    )


def test_certified_finite_component_refutation():
    # a registered-for-this-test generator whose closed form rules a component out
    GENERATORS["test-six"] = _six_spec("test-six")
    try:
        fam = Family(generator="test-six")
        verdict = generated_limit_verdict(census(0, {6: OM, 2: 1}), fam, 24)
        assert verdict.kind == "not-limit"
        assert "finitely many" in verdict.detail
    finally:
        del GENERATORS["test-six"]


def test_heuristic_verdict_without_closed_form():
    GENERATORS["test-blind"] = GeneratorSpec(
        "test-blind",
        lambda n: Character.make(0, {5: n + 1, 1: OM}, 0),
        None,
    )
    try:
        fam = Family(generator="test-blind")
        verdict = generated_limit_verdict(FIVE_OMEGA, fam, 32)
        assert verdict.kind == "limit"
        assert not verdict.certified  # heuristic witness only
    finally:
        del GENERATORS["test-blind"]


def test_generated_verdict_needs_a_positive_bound():
    # at bound 0 no member and no component is checked, so "limit" would be vacuous
    for bound in (0, -1):
        with pytest.raises(ValueError, match="bound >= 1"):
            generated_limit_verdict(FIVE_OMEGA, Family(generator="five_n_tail"), bound)


def test_kept_members_match_a_fresh_enumeration():
    for name in ("five_n_tail", "kronecker"):
        # the registered spec, and a fresh copy with nothing built yet
        for spec in (GENERATORS[name], replace(GENERATORS[name])):
            for n in (32, 8, 40):
                assert spec.members(n) == [spec.produce(i) for i in range(n)], (name, n)
            # a member read again is the one built first, not a rebuilt copy
            assert spec.members(8)[7] is spec.members(40)[7]


def test_limit_verdicts_match_on_a_cold_and_a_warm_store(monkeypatch):
    # fresh copies of the specs start with nothing built
    for name in ("kronecker", "five_n_tail"):
        monkeypatch.setitem(GENERATORS, name, replace(GENERATORS[name]))
    monkeypatch.setitem(GENERATORS, "test-six", _six_spec("test-six"))
    cases = [(kron(i), "kronecker", 32) for i in range(5)]
    cases += [(FIVE_OMEGA, "five_n_tail", 32), (census(0, {6: OM, 2: 1}), "test-six", 24)]

    def verdicts():
        return [generated_limit_verdict(cand, Family(generator=gen), bound)
                for cand, gen, bound in cases]

    assert not any(GENERATORS[gen]._built for _, gen, _ in cases)
    cold = verdicts()
    assert all(GENERATORS[gen]._built for _, gen, _ in cases)
    assert verdicts() == cold
    assert [v.kind for v in cold] == ["limit"] * 6 + ["not-limit"]
    assert all(v.certified for v in cold)


def test_a_spec_registered_again_under_a_name_builds_its_own_members():
    GENERATORS["test-reused"] = _six_spec("test-reused")
    try:
        generated_limit_verdict(census(0, {6: OM, 2: 1}), Family(generator="test-reused"), 24)
    finally:
        del GENERATORS["test-reused"]
    GENERATORS["test-reused"] = GeneratorSpec(
        "test-reused",
        lambda n: Character.make(0, {5: n + 1, 1: OM}, 0),
        None,
    )
    try:
        spec = Family(generator="test-reused").spec()
        assert spec.members(30) == [census(0, {5: n + 1, 1: OM}) for n in range(30)]
        verdict = generated_limit_verdict(FIVE_OMEGA, Family(generator="test-reused"), 32)
        assert verdict.kind == "limit" and not verdict.certified
    finally:
        del GENERATORS["test-reused"]


def test_generated_verdict_requires_generator():
    with pytest.raises(FamilyError):
        generated_limit_verdict(FIVE_OMEGA, Family.of(FIVE_OMEGA), 8)


# ---------------------------------------------------------------------------
# Family files


def test_family_rejects_isomorphic_members():
    from limitlearn import RepresentationError

    with pytest.raises(RepresentationError):
        Family.of(FIVE_OMEGA, census(0, {5: OM}))
