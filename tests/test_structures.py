import math
import pickle
from bisect import bisect_left

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlearn import (
    OMEGA,
    ZERO,
    Character,
    Component,
    ExtNat,
    RepresentationError,
    biembeddable,
    char_diff_min,
    char_subset,
    embeds,
    ext,
    fin_biembeddable,
    fin_embeds,
    pair_code,
    profile_le,
    profile_of,
    unpair_code,
)

from families import C56, FIVE_OMEGA, FIVE_OMEGA_TWO, census, small_characters
from oracles import (
    brute_embeds,
    brute_fin_embeds,
    extnat_cumulative,
    extnat_embeds,
    extnat_fin_embeds,
    listed_char_diff_min,
    listed_char_subset,
    listed_components,
    listing_bounds,
)

OM = "omega"


# ---------------------------------------------------------------------------
# Extended naturals


def test_ext_coerces_ints_and_omega():
    assert ext("omega").is_omega
    assert ext(4) == ExtNat(4)


def test_extnat_rejects_negatives():
    with pytest.raises(RepresentationError):
        ExtNat(-1)


@pytest.mark.parametrize("value", [True, False])
def test_extnat_rejects_bools(value):
    with pytest.raises(RepresentationError):
        ext(value)
    with pytest.raises(RepresentationError):
        ExtNat(value)
    assert ExtNat(1) != True  # noqa: E712


def test_extnat_equals_only_extnat():
    # counts are compared as plain numbers, so an ExtNat has no ordering and
    # is never equal to an int
    assert ExtNat(3) != 3 and OMEGA == OMEGA
    assert hash(ExtNat(3)) == hash(ExtNat(3))
    assert len({ExtNat(2), 2, OMEGA}) == 3
    with pytest.raises(TypeError):
        ExtNat(3) < OMEGA


# ---------------------------------------------------------------------------
# Pairing


@given(st.integers(0, 2000), st.integers(0, 2000))
def test_pairing_roundtrip(x, y):
    assert unpair_code(pair_code(x, y)) == (x, y)


@given(st.integers(0, 50000))
def test_unpairing_roundtrip(code):
    x, y = unpair_code(code)
    assert pair_code(x, y) == code


def test_unpairing_exact_beyond_float_range():
    code = 10**320
    assert pair_code(*unpair_code(code)) == code
    assert unpair_code(pair_code(code, code + 7)) == (code, code + 7)


# ---------------------------------------------------------------------------
# Census counts


def test_count_reads_description():
    assert Character.of((5, OM)).count(5) == math.inf
    assert census(1, {2: 0}).count(2) == 0
    assert census(1, {2: 0}).count(7) == 1
    assert census(0, {}, 2).count(math.inf) == 2


def test_count_rejects_size_zero():
    with pytest.raises(RepresentationError):
        Character.of((5, OM)).count(0)


@pytest.mark.parametrize("size", [ExtNat(2), OMEGA, "omega", "2", 2.0, True])
def test_count_takes_a_plain_size(size):
    """A size is an ``int`` or ``math.inf``: an ``ExtNat``, a string, a
    non-integral float or a bool is refused, not coerced."""
    with pytest.raises(TypeError):
        census(1, {2: 0}, 3).count(size)


def test_count_at_infinity_is_the_infinite_class_count():
    assert census(1, {2: 0}, 3).count(math.inf) == 3
    assert census(0, {5: OM}, OM).count(math.inf) == math.inf
    assert census(0, {5: OM}).count(math.inf) == 0


_count = st.one_of(st.integers(0, 4), st.just(OM))


@st.composite
def _censuses(draw):
    """Defaults 0, 1 or omega, omega-counted exceptions, and no, finitely many
    or infinitely many infinite classes."""
    return census(
        draw(st.sampled_from([0, 1, OM])),
        draw(st.dictionaries(st.integers(1, 12), _count, max_size=6)),
        draw(st.one_of(st.integers(0, 3), st.just(OM))),
    )


@settings(max_examples=500, deadline=None)
@given(_censuses(), _censuses())
def test_census_algebra_matches_extnat_reference(a, b):
    assert fin_embeds(a, b) == extnat_fin_embeds(a, b)
    assert embeds(a, b) == extnat_embeds(a, b)
    top = max(a.sizes_of_interest + b.sizes_of_interest + (0,)) + 2
    sizes, counts = a.cumulative_profile
    for t in range(1, top + 1):
        want = extnat_cumulative(a, t)
        assert counts[bisect_left(sizes, t)] == (math.inf if want.is_omega else want.finite)


@settings(max_examples=100, deadline=None)
@given(_censuses())
def test_cumulative_profile_is_invisible_to_equality_hash_and_pickle(c):
    fresh = Character(c.default, c.exceptions, c.omega_count)
    c.cumulative_profile  # built on one side only
    assert "cumulative_profile" not in vars(fresh)
    assert c == fresh and fresh == c and hash(c) == hash(fresh)
    for obj in (c, fresh):
        back = pickle.loads(pickle.dumps(obj))
        assert back == c and hash(back) == hash(fresh)
        assert back.cumulative_profile == c.cumulative_profile
        assert fin_embeds(back, fresh) and embeds(fresh, back)


def test_component_membership():
    assert FIVE_OMEGA.has_component(Component(ExtNat(5), 100))
    assert not Character.of((5, 2)).has_component(Component(ExtNat(5), 3))
    assert Character.of((5, 2)).has_component(Component(ExtNat(5), 2))


def test_canonical_form_is_enforced():
    with pytest.raises(RepresentationError):
        Character(default=ZERO, exceptions=((2, ZERO),))  # exception equals default
    with pytest.raises(RepresentationError):
        Character.make(0, {0: 1}, 0)
    # make() canonicalizes silently
    assert Character.make(1, {3: 1}, 0) == census(1)


def test_census_counts_must_be_extnat_values():
    # an int count equals no ExtNat, so canonical form could not be checked
    with pytest.raises(RepresentationError):
        Character(default=ZERO, exceptions=((2, 0),))
    with pytest.raises(RepresentationError):
        Character(default=1)


# ---------------------------------------------------------------------------
# Subset and least missing component


def test_char_subset_examples():
    assert char_subset(FIVE_OMEGA, FIVE_OMEGA_TWO)
    assert not char_subset(FIVE_OMEGA_TWO, FIVE_OMEGA)
    for c in (FIVE_OMEGA, C56, census(1, {2: 0})):
        assert char_subset(c, c)


def test_char_diff_min_examples():
    a1 = census(1, {1: 0})
    a2 = census(1, {2: 0})
    assert char_diff_min(a1, a2) == Component(ExtNat(2), 1)
    assert char_diff_min(FIVE_OMEGA, FIVE_OMEGA) is None
    # computed independently: enumerate both component sets and take the least
    c, s = Character.of((5, 2), (3, 1)), Character.of((5, 1))
    comps_c = {(k, i) for k in (3, 5) for i in range(1, 3) if c.count(k) >= i}
    comps_s = {(k, i) for k in (3, 5) for i in range(1, 3) if s.count(k) >= i}
    expected = min(comps_c - comps_s, key=lambda ki: pair_code(*ki))
    got = char_diff_min(c, s)
    assert (got.size.finite, got.index) == expected


def _raised(c: Character, default: bool, sizes, omega: bool) -> Character:
    """`c` with omega put in for the default, for the counts at `sizes` and
    for the infinite-class count, where asked: pointwise at least `c`."""
    return census(OM if default else c.default, {**c.exception_map, **dict.fromkeys(sizes, OM)},
                  OM if omega else c.omega_count)


@settings(max_examples=300, deadline=None)
@given(_censuses(), _censuses(), st.data())
def test_pointwise_relations_match_the_listed_components(a, b, data):
    up = _raised(a, data.draw(st.booleans()), data.draw(st.sets(st.integers(1, 12), max_size=3)),
                 data.draw(st.booleans()))
    assert char_subset(a, up) and listed_char_subset(a, up)
    for x, y in ((a, b), (b, a), (a, up), (up, a)):
        assert char_subset(x, y) == listed_char_subset(x, y), (x, y)
        x, y = census(x.default, x.exceptions), census(y.default, y.exceptions)
        assert char_diff_min(x, y) == listed_char_diff_min(x, y), (x, y)
    top, cap = listing_bounds(a)
    listed = listed_components(a, top, cap)
    for size in [*range(1, top + 1), None]:
        for index in range(1, cap + 1):
            comp = Component(OMEGA if size is None else ExtNat(size), index)
            assert a.has_component(comp) == ((size, index) in listed), (a, comp)


def test_char_diff_min_rejects_infinite_classes():
    with pytest.raises(RepresentationError):
        char_diff_min(census(0, {}, 1), FIVE_OMEGA)


# ---------------------------------------------------------------------------
# Embedding tests against the stated example oracles


def test_fin_embeds_examples():
    assert fin_embeds(FIVE_OMEGA, Character.of((6, OM)))
    assert not fin_embeds(Character.of((6, OM)), FIVE_OMEGA)
    assert fin_embeds(FIVE_OMEGA_TWO, FIVE_OMEGA)
    assert fin_embeds(FIVE_OMEGA, FIVE_OMEGA_TWO)
    # matches the brute-force route on the same pairs
    assert brute_fin_embeds(FIVE_OMEGA, Character.of((6, OM)))
    assert not brute_fin_embeds(Character.of((6, OM)), FIVE_OMEGA)


def test_embeds_examples():
    assert embeds(census(0, {}, 1), census(0, {}, 2))
    assert not embeds(census(0, {}, 1), census(1))
    assert embeds(FIVE_OMEGA_TWO, FIVE_OMEGA)
    assert brute_embeds(FIVE_OMEGA_TWO, FIVE_OMEGA)
    assert not brute_embeds(census(0, {}, 1), census(1))


def test_equivalences():
    assert FIVE_OMEGA == Character.of((5, OM))
    assert biembeddable(FIVE_OMEGA, FIVE_OMEGA_TWO)
    assert not fin_biembeddable(FIVE_OMEGA, Character.of((6, OM)))
    assert fin_biembeddable(C56, C56)


# ---------------------------------------------------------------------------
# Algebraic properties over generated censuses


_small = st.sampled_from(small_characters())
_with_omega = st.sampled_from(
    small_characters() + [census(0, {5: OM}), census(0, {2: OM, 1: 1}), census(0, {3: 2}, 1)]
)


@settings(max_examples=150, deadline=None)
@given(_with_omega, _with_omega, _with_omega)
def test_embedding_orders_are_preorders(a, b, c):
    assert fin_embeds(a, a) and embeds(a, a)
    if fin_embeds(a, b) and fin_embeds(b, c):
        assert fin_embeds(a, c)
    if embeds(a, b) and embeds(b, c):
        assert embeds(a, c)


@settings(max_examples=150, deadline=None)
@given(_with_omega, _with_omega)
def test_iso_implies_biembeddable(a, b):
    if a == b:
        assert fin_biembeddable(a, b)
        assert biembeddable(a, b)


@settings(max_examples=150, deadline=None)
@given(_with_omega, _with_omega)
def test_mutual_subset_is_isomorphism(a, b):
    if char_subset(a, b) and char_subset(b, a):
        assert a == b


@settings(max_examples=150, deadline=None)
@given(_small, _small)
def test_diff_min_absent_iff_subset(a, b):
    assert (char_diff_min(a, b) is None) == char_subset(a, b)
    diff = char_diff_min(a, b)
    if diff is not None:
        assert a.has_component(diff)
        assert not b.has_component(diff)


@settings(max_examples=150, deadline=None)
@given(_small, _small)
def test_subset_implies_embeddings(a, b):
    if char_subset(a, b):
        assert fin_embeds(a, b)
        assert embeds(a, b)


_counts = st.one_of(st.integers(0, 3), st.just(OM))
_censuses = st.builds(
    lambda default, exceptions, omega_count: census(default, exceptions, omega_count),
    st.sampled_from([0, 0, 0, 1, OM]),
    st.dictionaries(st.integers(1, 8), _counts, max_size=4),
    st.one_of(st.integers(0, 2), st.just(OM)),
)


@settings(max_examples=300, deadline=None)
@given(_censuses, _censuses)
def test_profile_le_matches_the_brute_force_oracle(a, b):
    assert profile_le(a.cumulative_profile, b.cumulative_profile) == brute_fin_embeds(a, b)


def _join(a: Character, b: Character) -> Character:
    """The census with the larger of `a`'s and `b`'s counts at every size."""
    def larger(size):
        n = max(a.count(size), b.count(size))
        return OM if n == math.inf else n
    sizes = {*a.sizes_of_interest, *b.sizes_of_interest}
    default = larger(next(k for k in range(1, len(sizes) + 2) if k not in sizes))
    return census(default, {s: larger(s) for s in sizes}, larger(math.inf))


@settings(max_examples=300, deadline=None)
@given(_censuses, _censuses)
def test_subset_implies_finite_embedding_by_the_brute_force_oracle(a, b):
    """A census whose counts sit pointwise under another's finitely embeds
    into it, so a member that imitates another is in its bi-embeddability
    class; `b` and the join of the two give both a drawn and a sure subset."""
    join = _join(a, b)
    assert char_subset(a, join) and char_subset(b, join)
    for c in (b, join):
        if char_subset(a, c):
            assert brute_fin_embeds(a, c)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(1, 12), st.integers(1, 4), max_size=6))
def test_profile_of_counts_the_classes_at_every_threshold(counts):
    sizes, totals = profile_of(counts)
    assert list(sizes) == sorted(counts)
    for t in range(1, 15):
        assert totals[bisect_left(sizes, t)] == sum(c for s, c in counts.items() if s >= t)
    assert profile_of(counts) == Character.make(0, counts, 0).cumulative_profile


def test_json_roundtrip():
    for c in (FIVE_OMEGA, FIVE_OMEGA_TWO, census(1, {2: 0}), census(0, {3: 2}, 1), Character.make()):
        assert Character.from_json(c.to_json()) == c
    assert Character.from_json([[5, "omega"], [2, 1]]) == FIVE_OMEGA_TWO
