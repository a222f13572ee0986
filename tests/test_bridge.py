import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from limitlearn import (
    Character,
    ExtNat,
    SizeSequence,
    fair_informant,
    language_closure,
    learner_separator,
    pair_code,
    run_simulation,
    size_sequence_of,
    telltale_search,
)
from limitlearn.bridge import LanguageToStructLearner, _window

from families import (
    C56,
    C57,
    EXAMPLE1,
    FIVE_OMEGA,
    FIVE_OMEGA_TWO,
    NONSEPARABLE,
    SEPARABLE_CORPUS,
    census,
    kron_slice,
)
from oracles import (
    FinitePermutation,
    census_slot_sizes,
    flat_telltale_search,
    lang_member,
    pairwise_language_closure,
    permuted,
    plain_sizes,
    probe_telltale_search,
    slot_count,
    vec_le,
)

OM = "omega"


# ---------------------------------------------------------------------------
# Size sequences


def test_canonical_sequences():
    assert [size_sequence_of(census(0, {2: 1})).eval(i).to_json() for i in range(4)] == [2, 0, 0, 0]
    assert [size_sequence_of(census(0, {1: OM})).eval(i).to_json() for i in range(4)] == [1, 1, 1, 1]
    assert [size_sequence_of(FIVE_OMEGA_TWO).eval(i).to_json() for i in range(4)] == [2, 5, 5, 5]
    assert [size_sequence_of(census(0, {}, 2)).eval(i).to_json() for i in range(4)] == [OM, OM, 0, 0]
    assert [size_sequence_of(census(1, {3: 0})).eval(i).to_json() for i in range(5)] == [1, 2, 4, 5, 6]


@pytest.mark.parametrize(
    "char",
    [
        census(0, {2: 1}),
        C56,
        C57,
        census(1, {2: 0}),
        census(2, {3: 1}),
        census(0, {3: OM, 5: OM}),
        census(0, {2: 1}, 1),
        Character.make(),
    ],
)
def test_count_property(char):
    """Every size is carried by exactly as many slots as the census demands."""
    seq = size_sequence_of(char)
    for size in list(range(1, 9)) + [math.inf]:
        assert slot_count(seq, size) == char.count(size), (char, size)
    # empirical cross-check on a long prefix for finite counts
    for size in range(1, 9):
        seen = sum(1 for i in range(400) if seq.eval(i) == ExtNat(size))
        expected = char.count(size)
        if expected == math.inf:
            assert seen >= 20
        else:
            assert seen == expected


def test_language_membership():
    seq = size_sequence_of(census(0, {2: 1}))  # h(0) = 2
    assert lang_member(seq, pair_code(0, 1))
    assert not lang_member(seq, pair_code(0, 2))
    inf = size_sequence_of(census(0, {}, 1))  # h(0) = omega
    assert all(lang_member(inf, pair_code(0, j)) for j in range(50))


def seq_le(a, b):
    """Pointwise comparison (= language inclusion) as `telltale_search` reads it."""
    base, period, (va, vb) = _window((a, b))
    return vec_le(va, vb, base, period)


def seq_eq(a, b):
    """Equality as `language_closure` reads it: equal window vectors."""
    _, _, (va, vb) = _window((a, b))
    return va == vb


def test_seq_comparisons():
    g1 = size_sequence_of(FIVE_OMEGA)
    g2 = size_sequence_of(FIVE_OMEGA_TWO)
    assert seq_le(g2, g1) and not seq_le(g1, g2)
    assert seq_eq(g1, size_sequence_of(census(0, {5: OM})))
    k2, k3 = (size_sequence_of(c) for c in kron_slice(3)[1:])
    assert seq_le(k3, k2) and not seq_le(k2, k3)  # nested ascending patterns
    # 1, 2, 3, ... stays below 50, 50, ... past every settle index: only the steps tell
    assert not seq_le(size_sequence_of(census(1, {})), size_sequence_of(census(0, {50: OM})))


_censuses = st.builds(
    census,
    st.integers(0, 2),
    st.dictionaries(st.integers(1, 5), st.one_of(st.integers(0, 2), st.just(OM)), max_size=3),
    st.sampled_from([0, 1, OM]),
)
_swaps = st.one_of(st.none(), st.lists(st.integers(0, 11), min_size=2, max_size=2, unique=True))


def _swapped(char, swap):
    seq = size_sequence_of(char)
    return seq if swap is None else permuted(seq, FinitePermutation((tuple(swap), tuple(swap[::-1]))))


def _swapped_sizes(char, swap, n):
    """`census_slot_sizes`, with the two slots of `swap` exchanged."""
    sizes = census_slot_sizes(char, n)
    if swap is not None:
        a, b = swap
        sizes[a], sizes[b] = sizes[b], sizes[a]
    return sizes


@given(_censuses, _swaps)
@settings(max_examples=300, deadline=None)
def test_size_sequence_matches_the_census_slot_sizes(char, swap):
    """A settled size sequence, some transposed, reads the census's slot
    sizes on its first 400 slots: its warm-up and period are long enough."""
    seq = _swapped(char, swap)
    got = [math.inf if v.is_omega else v.finite for v in map(seq.eval, range(400))]
    assert got == _swapped_sizes(char, swap, 400)


@given(_censuses, _swaps, st.data())
@settings(max_examples=300, deadline=None)
def test_seq_comparisons_match_explicit_prefix(char, swap, data):
    """`_window` and `vec_le` agree with pointwise comparison over 200 slots, for
    random censuses, some transposed; the second census is often a variant of
    the first, so inclusions and equalities come up, not only misses."""
    other = data.draw(st.one_of(
        st.just(char),
        st.builds(census, st.integers(0, 2), st.just(dict(char.exceptions)), st.sampled_from([0, 1, OM])),
        _censuses,
    ))
    a, b = _swapped(char, swap), _swapped(other, data.draw(_swaps))
    va, vb = ([math.inf if v.is_omega else v.finite for v in map(s.eval, range(200))]
              for s in (a, b))
    assert seq_le(a, b) == all(x <= y for x, y in zip(va, vb))
    assert seq_le(b, a) == all(y <= x for x, y in zip(va, vb))
    assert seq_eq(a, b) == (va == vb)


@given(st.lists(st.tuples(_censuses, st.lists(_swaps, max_size=3)), max_size=4), st.randoms())
@settings(max_examples=300, deadline=None)
def test_window_matches_the_per_sequence_reference(drawn, rnd):
    """`_window`'s values are each sequence's census slot sizes, and past its
    base those sizes repeat with its period up to a fixed step per slot.
    Each census comes with some of its transpositions, so sequences on
    different windows and on the same one meet."""
    pairs = [(_swapped(char, swap), (char, swap)) for char, swaps in drawn for swap in (None, *swaps)]
    rnd.shuffle(pairs)
    base, period, vecs = _window([seq for seq, _ in pairs])
    for vec, (_, (char, swap)) in zip(vecs, pairs):
        n = base + 3 * period
        assert plain_sizes(SizeSequence(vec, period), n) == _swapped_sizes(char, swap, n)


@given(_censuses, st.integers(0, 20), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_stretched_values_match_the_closed_form(char, extra, times):
    """A sequence stretched to a longer window holds there the sizes `at`
    reads off its own window's closed form."""
    seq = size_sequence_of(char)
    base, period = seq.base + extra, seq.period * times
    assert seq.stretched(base, period).values == tuple(map(seq.at, range(base + 2 * period)))


def test_finite_permutation_rejects_non_bijections_and_fixed_points():
    for moves in (((0, 1),), ((0, 1), (1, 0), (2, 0)), ((0, 1), (1, 0), (2, 2))):
        with pytest.raises(ValueError):
            FinitePermutation(moves)


def test_permuted_sequences():
    g2 = size_sequence_of(FIVE_OMEGA_TWO)
    moved = permuted(g2, FinitePermutation(((0, 3), (3, 0))))
    assert [moved.eval(i).to_json() for i in range(5)] == [5, 5, 5, 2, 5]
    assert seq_eq(permuted(moved, FinitePermutation(((0, 3), (3, 0)))), g2)
    # permuting equal values is invisible
    g1 = size_sequence_of(FIVE_OMEGA)
    assert seq_eq(permuted(g1, FinitePermutation(((1, 2), (2, 1)))), g1)


@pytest.mark.parametrize("family", [*SEPARABLE_CORPUS.values(), NONSEPARABLE],
                         ids=[*SEPARABLE_CORPUS, "nonseparable"])
def test_language_closure_matches_pairwise_reference(family):
    langs = [size_sequence_of(m) for m in family]
    closure = language_closure(langs, 12)
    assert len({(len(lang.values), lang.period) for lang in closure}) == 1  # one window
    assert ([plain_sizes(lang, 200) for lang in closure]
            == [plain_sizes(lang, 200) for lang in pairwise_language_closure(langs, 12)])


@given(st.lists(_censuses, min_size=1, max_size=4), st.booleans(), st.integers(0, 16))
@settings(max_examples=200, deadline=None)
def test_language_closure_members_match_the_pairwise_reference(family, twice, positions):
    """A closure's members, built as it is read, are the pairwise reference's
    in order, each time it is read, and its inputs come first; a language
    listed twice is kept twice among the inputs."""
    langs = [size_sequence_of(c) for c in family]
    if twice:
        langs.append(langs[0])
    closure = language_closure(langs, positions)
    members = list(closure)
    n = len(closure.inputs[0].values) + closure.inputs[0].period
    assert ([plain_sizes(lang, n) for lang in members]
            == [plain_sizes(lang, n) for lang in pairwise_language_closure(langs, positions)])
    assert list(closure) == members
    assert tuple(members[:len(langs)]) == closure.inputs


@pytest.mark.parametrize("positions", (12, 20))
def test_language_closure_builds_no_member(positions, monkeypatch):
    """`language_closure` builds at most two size sequences per input (its
    stretch to the window and the input held on it), none of the 536 and
    1,528 members."""
    built = []
    init = SizeSequence.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    langs = [size_sequence_of(c) for c in kron_slice(8)]
    monkeypatch.setattr(SizeSequence, "__init__", counted)
    closure = language_closure(langs, positions)
    assert len(built) <= 2 * len(langs)
    monkeypatch.undo()
    assert len(closure) == {12: 536, 20: 1528}[positions]


# ---------------------------------------------------------------------------
# Tell-tales


def test_telltale_singleton_family():
    lang = size_sequence_of(C56)
    assert telltale_search(lang, [lang], 64) == set()


def test_telltale_collapse_demo():
    """Two bare translations of the non-separable pair are tell-tale
    learnable, so a single-language translation cannot reflect learnability."""
    g1 = size_sequence_of(FIVE_OMEGA)
    g2 = size_sequence_of(FIVE_OMEGA_TWO)
    assert telltale_search(g2, [g1, g2], 64) == set()
    tell = telltale_search(g1, [g1, g2], 64)
    assert tell is not None and tell
    assert all(lang_member(g1, c) and not lang_member(g2, c) for c in tell)


def test_telltale_fails_over_permutation_closure_for_nonseparable():
    langs = [size_sequence_of(m) for m in NONSEPARABLE]
    closure = language_closure(langs, 12)
    assert telltale_search(langs[0], closure, 64) is None  # the big language
    assert telltale_search(langs[1], closure, 64) is not None


def test_telltale_succeeds_over_closure_for_separable_families():
    for name in ("example1", "kron4", "tails3", "chain3"):
        fam = SEPARABLE_CORPUS[name]
        langs = [size_sequence_of(m) for m in fam]
        closure = language_closure(langs, 12)
        for lang in langs:
            assert telltale_search(lang, closure, 64) is not None, name


def test_telltale_bound_must_reach_the_separating_codes():
    """Kron slices 7 and 8 are separable, but some members need separating
    codes 72, 84 and 98: bound 64 misses them, bound 100 finds them all."""
    for size, missed in ((7, [5]), (8, [5, 6])):
        langs = [size_sequence_of(c) for c in kron_slice(size)]
        closure = language_closure(langs, 12)
        assert [i for i, lang in enumerate(langs) if telltale_search(lang, closure, 64) is None] == missed
        assert all(telltale_search(lang, closure, 100) is not None for lang in langs)


TELLTALE_FAMILIES = {**SEPARABLE_CORPUS, "kron7": kron_slice(7), "kron8": kron_slice(8),
                     "nonseparable": NONSEPARABLE}


@pytest.mark.parametrize("positions", (8, 12, 16, 20))
def test_telltale_closed_form_matches_the_probe_loop(positions):
    """The least separating codes read off the window equal the ones found by
    probing every code up to the bound."""
    for name, fam in TELLTALE_FAMILIES.items():
        langs = [size_sequence_of(m) for m in fam]
        closure = language_closure(langs, positions)
        for lang in langs:
            for bound in (0, 5, 64, 100, 400):
                want = probe_telltale_search(lang, closure, bound)
                assert telltale_search(lang, closure, bound) == want, (name, bound)


@pytest.mark.parametrize("name", TELLTALE_FAMILIES)
def test_telltales_do_not_depend_on_the_closure_window(name):
    """The closure's languages share one window; the same languages built one
    by one with `permuted`, each on its own window and with the duplicates
    left in, give the same tell-tales."""
    langs = [size_sequence_of(m) for m in TELLTALE_FAMILIES[name]]
    closure = language_closure(langs, 12)
    apart = [*langs, *(permuted(lang, FinitePermutation(((a, b), (b, a))))
                       for lang in langs for a in range(12) for b in range(a + 1, 12))]
    assert len({(len(lang.values), lang.period) for lang in apart}) > 1
    for lang in langs:
        for bound in (64, 100):
            assert telltale_search(lang, apart, bound) == telltale_search(lang, closure, bound), bound


# censuses whose sequences often have a larger base than a closure of
# `_censuses` (a larger skipped size) or a period it does not divide
_off_window = st.builds(
    census,
    st.integers(3, 5),
    st.dictionaries(st.integers(1, 12), st.integers(0, 2), max_size=2),
    st.sampled_from([0, 1]),
)


@given(st.lists(_censuses, min_size=1, max_size=4), st.integers(0, 16), _off_window)
# 1, 2, 3, ... lies below 2, 2, 2, ... on their short window, not past it:
# a scan that skipped the growth check would take it for a smaller language
@example([census(1, {}, 0), census(0, {2: OM}, 0)], 0, census(3, {}, 0))
# a transposition through slot 1, past the one position, would lie below the
# second member: a scan that let a slot past the positions be moved finds it
@example([census(1, {}, 1), census(1, {1: OM}, 0)], 1, census(3, {}, 0))
@settings(max_examples=300, deadline=None)
def test_telltale_scan_of_the_inputs_matches_the_flat_scan(family, positions, outside):
    """Scanning a closure's inputs and the transpositions that can lie below
    the language finds the tell-tales that ordering the language against
    every member finds, for each family member and for a language off the
    closure's window."""
    langs = [size_sequence_of(c) for c in family]
    closure = language_closure(langs, positions)
    away = size_sequence_of(outside)
    assume(away.base > closure.inputs[0].base or closure.inputs[0].period % away.period)
    for lang in (*langs, away):
        for bound in (0, 1, 5, 64, 10**9):
            assert telltale_search(lang, closure, bound) == flat_telltale_search(lang, list(closure), bound)


# ---------------------------------------------------------------------------
# The learner translation


def test_language_to_struct_learner_converges_and_roundtrips():
    for target in EXAMPLE1:
        composed = LanguageToStructLearner(list(EXAMPLE1))
        res = run_simulation(composed, fair_informant(target, 0), 6000, target, "iso", 200)
        ref = run_simulation(
            learner_separator(list(EXAMPLE1)), fair_informant(target, 0), 6000, target, "iso", 200
        )
        assert res.converged and ref.converged
        assert res.final == ref.final


def test_language_to_struct_question_marks():
    lrn = LanguageToStructLearner(list(EXAMPLE1))
    assert lrn.conjecture() is None  # empty prefix
    for i in range(8):
        for j in range(8):
            lrn.consume((i, j, 1))
    assert lrn.conjecture() is None  # an 8-block exceeds every member
