import math
import tracemalloc
from collections import Counter
from functools import partial
from itertools import chain, islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitlearn import (
    INFORMANT,
    TEXT,
    ConsistencyError,
    Prefix,
    PrefixState,
    embeds,
    fair_informant,
    fair_text,
    informant_prefix,
    learner_separator,
    read_trace,
    reordered_informant,
    REORDER_STRATEGIES,
    run_simulation,
    write_trace,
)
from limitlearn import adversaries, bridge, presentations
from limitlearn.presentations import (
    PATTERN,
    _cantor_rank,
    _new_pairs,
    class_slots,
    pattern_sizes,
    reorder_items,
    slot_demand,
    spawn_sizes,
)
from limitlearn.structures import pair_code, unpair_code

from families import C57, EXAMPLE1, FIVE_OMEGA, SEPARABLE_CORPUS, TWO_INF, census
from oracles import (
    ClassAssignment,
    PathCompressingPrefixState,
    SetPrefixState,
    counter_pattern_sizes,
    generator_fair_informant,
    generator_fair_text,
    next_call_reordered_head,
    pair_walk,
    scan_births_for_size,
    sweep_pattern_sizes,
)
from test_learners import _ANY_CENSUS, _FINITE_UNIVERSES

OM = "omega"


# ---------------------------------------------------------------------------
# Prefix decoding


def _decoded(kind, items):
    """The decoded blocks of a whole prefix, each sorted, in sorted order."""
    state = PrefixState(kind)
    state.feed_all(items)
    return sorted(state.blocks())


def test_decode_informant_prefix():
    items = [(0, 1, 1), (2, 3, 0)]
    assert _decoded(INFORMANT, items) == [[0, 1], [2], [3]] == _closure_blocks(items, INFORMANT)


def test_decode_text_transitivity():
    items = [(0, 1), (1, 2)]
    assert _decoded(TEXT, items) == [[0, 1, 2]] == _closure_blocks(items, TEXT)


def test_decode_empty_prefix():
    assert _decoded(INFORMANT, []) == [] == _closure_blocks([], INFORMANT)


def test_decode_normalizes_names():
    # names are kept, pauses skipped, and the blocks listed in sorted order
    items = [(10, 30), None, (7, 7)]
    assert _decoded(TEXT, items) == [[7], [10, 30]] == _closure_blocks(items, TEXT)


def test_inconsistent_prefix_reports_item_index():
    with pytest.raises(ConsistencyError) as err:
        PrefixState(INFORMANT).feed_all([(0, 1, 1), (1, 2, 1), (0, 2, 0)])
    assert err.value.index == 2
    with pytest.raises(ConsistencyError):
        PrefixState(INFORMANT).feed_all([(0, 1, 0), (0, 1, 1)])


@st.composite
def _consistent_informant(draw, max_elements=10, max_items=60):
    """Labeled pairs of a random partition of a few elements, in random
    order, repeats allowed."""
    n = draw(st.integers(1, max_elements))
    cls = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          min_size=max_items // 2, max_size=max_items))
    return [(x, y, 1 if cls[x] == cls[y] else 0) for x, y in pairs]


def _assert_births_indexed(state):
    for size in range(1, state.n_mentioned + 1):
        entries = state.births_by_size.get(size, [])
        assert [b for b, _ in entries] == sorted(scan_births_for_size(state, size))
        assert entries == sorted((state.birth[r], r) for r in state.block_roots()
                                 if state.block_size(r) == size)
    assert all(state.births_by_size.values())  # no empty list is kept


@settings(max_examples=200, deadline=None)
@given(_consistent_informant(), st.data())
def test_births_by_size_match_the_block_scan(items, data):
    cut = data.draw(st.integers(0, len(items)))
    state = PrefixState("informant")
    for item in items[:cut]:
        state.feed(item)
        _assert_births_indexed(state)
    dup = state.copy()
    # the original and its copy are fed apart: the rest, and the rest reversed
    for item in items[cut:]:
        state.feed(item)
        _assert_births_indexed(state)
    for item in reversed(items[cut:]):
        dup.feed(item)
        _assert_births_indexed(dup)
    assert state.char() == dup.char()


@st.composite
def _any_informant(draw, names, max_items=60):
    """Labeled pairs over `names` by a random partition, in random order,
    repeats allowed, with up to three labels flipped, so that some prefixes
    are inconsistent."""
    cls = draw(st.lists(st.integers(0, 3), min_size=len(names), max_size=len(names)))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(names) - 1), st.integers(0, len(names) - 1)),
                          max_size=max_items))
    flips = draw(st.sets(st.integers(0, max(len(pairs) - 1, 0)), max_size=3))
    return [(names[i], names[j], int((cls[i] == cls[j]) != (k in flips)))
            for k, (i, j) in enumerate(pairs)]


def _feed_both(state, ref, item):
    """Feed the bitset decoder and the set-based reference one item each and
    check that they agree on the error, the counters and every separation."""
    errors = []
    for decoder in (state, ref):
        try:
            decoder.feed(item)
            errors.append(None)
        except ConsistencyError as err:
            errors.append((err.index, str(err)))
    assert errors[0] == errors[1], item
    assert (state.neg_rev, state.struct_rev) == (ref.neg_rev, ref.struct_rev)
    roots = state.block_roots()
    assert sorted(roots) == sorted(ref.block_roots())
    for a in roots:
        for b in roots:
            assert state.separated(a, b) == ref.separated(a, b), (a, b)


_NAMES = st.lists(st.integers(0, 10**6), min_size=1, max_size=12, unique=True)


@settings(max_examples=300, deadline=None)
@given(_NAMES, st.data())
def test_bitset_negatives_match_the_enemy_sets(names, data):
    items = data.draw(_any_informant(names))
    cut = data.draw(st.integers(0, len(items)))
    state, ref = PrefixState("informant"), SetPrefixState("informant")
    for item in items[:cut]:
        _feed_both(state, ref, item)
    # the copies are fed apart; elements only the copy mentions take the
    # first-mention indices that the original gives to other elements
    fresh = data.draw(st.lists(st.integers(0, 10**6).filter(lambda x: x not in names),
                               min_size=1, max_size=6, unique=True))
    extra = data.draw(_any_informant(fresh + names))
    dup, dup_ref = state.copy(), ref.copy()
    for item in items[cut:]:
        _feed_both(state, ref, item)
    for item in extra:
        _feed_both(dup, dup_ref, item)


def _same_state(state, ref):
    """Check that two decoders agree on everything a learner reads."""
    assert (state.stage, state.struct_rev, state.neg_rev) == (ref.stage, ref.struct_rev, ref.neg_rev)
    assert state.blocks() == ref.blocks()
    assert state.births_by_size == ref.births_by_size
    roots = state.block_roots()
    for a in roots:
        for b in roots:
            assert state.separated(a, b) == ref.separated(a, b), (a, b)


def _closure_blocks(items, kind):
    """The classes of the positive facts over every mentioned element, by
    a fixpoint of merges: independent of the union-find decoder."""
    classes = {}
    for item in items:
        if item is None:
            continue
        x, y = item[:2]
        classes.setdefault(x, {x})
        classes.setdefault(y, {y})
        if kind == TEXT or item[2]:
            merged = classes[x] | classes[y]
            for e in merged:
                classes[e] = merged
    return sorted({min(c): sorted(c) for c in classes.values()}.values())


@settings(max_examples=300, deadline=None)
@given(_NAMES, st.data())
def test_advance_matches_item_by_item_feeding(names, data):
    """`advance` over arbitrary runs of a prefix stops right after the
    first item that moves `struct_rev`, leaves the decoder where the
    per-item, path-compressing decoder leaves it, fails on the same item as
    a whole-prefix decode, and decodes the classes a plain closure does."""
    kind = data.draw(st.sampled_from([INFORMANT, TEXT]))
    if kind == INFORMANT:
        items = data.draw(_any_informant(names))
    else:
        pair = st.tuples(st.sampled_from(names), st.sampled_from(names))
        items = data.draw(st.lists(st.one_of(st.none(), pair), max_size=60))
    state, ref = PrefixState(kind), PathCompressingPrefixState(kind)
    stream = iter(items)
    while ref.stage < len(items):
        run = data.draw(st.integers(0, 8))
        rev = ref.struct_rev
        try:
            fed = state.advance(islice(stream, run))
        except ConsistencyError as err:
            with pytest.raises(ConsistencyError) as want:
                for item in items[ref.stage:]:
                    ref.feed(item)
            assert err.index == want.value.index
            _same_state(state, ref)
            with pytest.raises(ConsistencyError) as whole:
                PrefixState(kind).feed_all(items)
            assert whole.value.index == err.index
            return
        assert fed <= run
        for item in items[ref.stage:ref.stage + fed]:
            assert ref.struct_rev == rev, "advance fed past a structural revision"
            ref.feed(item)
        if fed < run and ref.stage < len(items):  # stopped early: by a revision
            assert ref.struct_rev != rev
        _same_state(state, ref)
    assert state.advance(stream) == 0
    assert sorted(state.blocks()) == _closure_blocks(items, kind)


@st.composite
def staged_classes(draw, max_elements=16):
    """A class per element and the element count after each diagonalizer
    stage, from 0: some stages add no element, and later stages add
    elements to earlier ones' classes."""
    n = draw(st.integers(0, max_elements))
    cls = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return cls, sorted(draw(st.lists(st.integers(0, n), max_size=5)) + [n])


def stage_items(cls, old_n, n):
    """A diagonalizer stage's informant items: the new pairs in Cantor
    order, labeled by the class map."""
    return [(x, y, 1 if cls[x] == cls[y] else 0) for x, y in _new_pairs(old_n, n)]


def _decoded_fields(state):
    """A decoder's fields but `neg_rev` and the raw negative bits, and the
    separations between its blocks."""
    roots = state.block_roots()
    return (state.stage, state.struct_rev, state._parent, state._members, state._bit,
            state._mask, state.birth, state.births_by_size,
            {(a, b) for a in roots for b in roots if state.separated(a, b)})


@settings(max_examples=300, deadline=None)
@given(staged_classes())
# an empty stage, then one that grows both old classes and starts a new one
@example(([0, 1, 0, 1, 2, 0, 1], [2, 2, 7]))
# the diagonalizer's first expansion at class size 2, on its tau side
@example(([0, 0, 3, 3, 4, 4, 5, 5, 9], [2, 9]))
def test_stage_decode_matches_feeding_the_stage_items(case):
    cls, marks = case
    state, ref, old_n = PrefixState(INFORMANT), PrefixState(INFORMANT), 0
    for n in marks:
        state.decode_stage(cls, old_n, n)
        ref.feed_all(stage_items(cls, old_n, n))
        assert _decoded_fields(state) == _decoded_fields(ref), (old_n, n)
        old_n = n


@st.composite
def mixed_stages(draw):
    """A staged class map; for each stage whether it is decoded whole or
    fed its items, and whether the decoder is copied after it; and two
    elements of distinct classes (None if there are none)."""
    cls, marks = draw(staged_classes())
    steps = draw(st.lists(st.tuples(st.booleans(), st.booleans()),
                          min_size=len(marks), max_size=len(marks)))
    n = marks[-1]
    apart = [(x, y) for x in range(n) for y in range(n) if cls[x] != cls[y]]
    return cls, marks, steps, draw(st.sampled_from(apart)) if apart else None


@settings(max_examples=300, deadline=None)
@given(mixed_stages())
# class 1 starts in a stage fed item by item and grows in a decoded one
@example(([0, 0, 1, 1, 1], [2, 3, 5], [(True, False), (False, False), (True, False)], (0, 4)))
# two decoded stages, the second copied, then a stage fed its items
@example(([0, 1, 0, 1, 2, 0, 1], [2, 4, 7], [(True, False), (True, True), (False, False)],
          (1, 4)))
def test_mixed_stage_paths_match_feeding_every_item(case):
    # decoded stages record their separations lazily, and item-fed stages
    # skip the memo of each class's least element; after either, a positive
    # item between two classes contradicts the same item of the reference
    cls, marks, steps, pair = case
    state, ref, old_n = PrefixState(INFORMANT), PrefixState(INFORMANT), 0
    for n, (at_once, copied) in zip(marks, steps):
        if at_once:
            state.decode_stage(cls, old_n, n)
        else:
            state.feed_all(stage_items(cls, old_n, n))
        if copied:
            state = state.copy()
        ref.feed_all(stage_items(cls, old_n, n))
        assert _decoded_fields(state) == _decoded_fields(ref), (old_n, n)
        old_n = n
    if pair is not None:
        indices = []
        for decoder in (state, ref):
            with pytest.raises(ConsistencyError) as err:
                decoder.feed((*pair, 1))
            indices.append(err.value.index)
        assert indices[0] == indices[1] == marks[-1] ** 2


def test_a_failed_run_keeps_the_facts_before_its_error():
    # the negative fact and the contradiction arrive in one run: the counters
    # include the fact, and the stage the failing item
    items = [(0, 0, 1), (1, 1, 1), (0, 1, 0), (1, 0, 1)]
    state, ref = PrefixState(INFORMANT), PathCompressingPrefixState(INFORMANT)
    run = iter(items)
    assert state.advance(run) == 1 and state.advance(run) == 1  # two new elements
    with pytest.raises(ConsistencyError) as err:
        state.advance(run)
    with pytest.raises(ConsistencyError) as want:
        for item in items:
            ref.feed(item)
    assert err.value.index == want.value.index == 3
    _same_state(state, ref)
    assert (state.stage, state.neg_rev) == (4, 1)


def test_pair_walk_follows_the_cantor_codes():
    assert list(islice(pair_walk(None), 5000)) == [unpair_code(c) for c in range(5000)]


@given(st.integers(0, 500), st.integers(0, 500), st.integers(1, 1000))
def test_a_square_wider_than_a_diagonal_ranks_its_pairs_by_their_cantor_codes(x, y, wider):
    assert pair_code(x, y) == _cantor_rank(x + y + wider, x, y)


@pytest.mark.parametrize("n", range(1, 13))
def test_pair_walk_repeats_the_sorted_square(n):
    square = sorted(((x, y) for x in range(n) for y in range(n)), key=lambda p: pair_code(*p))
    assert list(islice(pair_walk(n), 3 * n * n)) == square * 3


_MEMBERS = sorted({m for family in SEPARABLE_CORPUS.values() for m in family}, key=str)


@pytest.mark.parametrize("member", _MEMBERS, ids=str)
def test_fair_streams_match_the_per_pair_generators(member):
    for new, old in ((fair_informant, generator_fair_informant), (fair_text, generator_fair_text)):
        assert list(islice(new(member, 7), 20000)) == list(islice(old(member, 7), 20000)), new


@pytest.mark.parametrize("char", [census(0, {1: 1}), census(0, {2: 2, 3: 1}), census(0, {1: 3, 4: 2})],
                         ids=str)
def test_fair_streams_match_over_three_passes_of_a_finite_census(char):
    n = char.finite_universe_size()
    # three passes of the square; the text reaches far past the universe
    for new, old in ((fair_informant, generator_fair_informant), (fair_text, generator_fair_text)):
        for seed in (0, 5):
            got = list(islice(new(char, seed), 3 * n * n))
            assert got == list(islice(old(char, seed), 3 * n * n)), (new, seed)
    assert set(islice(fair_text(char), 3 * n * n, 4 * n * n)) == {None}


def test_fair_streams_hold_one_diagonal_at_a_time():
    # 3,000 singletons: the square holds 9 million pairs, a diagonal 3,000
    char = census(0, {1: 3000})
    for new in (fair_informant, fair_text):
        tracemalloc.start()
        try:
            head = list(islice(new(char, 0), 200))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(head) == 200 and peak < 5 * 2**20, (new, peak)


# ---------------------------------------------------------------------------
# Trace file format


_text_items = st.lists(
    st.one_of(st.none(), st.tuples(st.integers(0, 30), st.integers(0, 30))), max_size=30
)


@settings(max_examples=50, deadline=None)
@given(_text_items)
def test_text_trace_roundtrip(tmp_path_factory, items):
    path = tmp_path_factory.mktemp("traces") / "t.txt"
    prefix = Prefix(TEXT, tuple(items))
    write_trace(path, prefix)
    assert read_trace(path, "text") == prefix


def test_informant_trace_roundtrip(tmp_path):
    prefix = informant_prefix([(0, 1, 1), (4, 2, 0), (3, 3, 1)])
    write_trace(tmp_path / "i.txt", prefix)
    assert read_trace(tmp_path / "i.txt", "informant") == prefix


def test_trace_rejects_wrong_kind(tmp_path):
    write_trace(tmp_path / "x.txt", Prefix(TEXT, (None,)))
    with pytest.raises(ValueError):
        read_trace(tmp_path / "x.txt", "informant")


# ---------------------------------------------------------------------------
# Slot plans

COUNTS = st.sampled_from([0, 1, 2, 3, OM])


@settings(max_examples=200, deadline=None)
@given(COUNTS, st.dictionaries(st.integers(1, 8), COUNTS, max_size=4),
       st.sampled_from([0, 1, 2, OM]))
def test_slot_demand_and_pattern_reproduce_the_census(default, exceptions, omega_count):
    char = census(default, exceptions, omega_count)
    finite, sources = slot_demand(char)
    assert finite == sorted(finite, key=lambda s: (s is None, s))
    head = list(islice(pattern_sizes(char), 400)) if PATTERN in sources else []
    for size in [*range(1, 11), None]:
        want = char.count(math.inf if size is None else size)
        seen = finite.count(size) + head.count(size)
        if size in sources or seen >= 10:  # an unbounded demand
            assert want == math.inf, (char, size)
        else:
            assert want == seen, (char, size)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.sets(st.integers(1, 12)))
def test_pattern_arithmetic_matches_the_counters(per_size, skip):
    skip = tuple(sorted(skip))
    counted = counter_pattern_sizes(per_size, skip, 500)
    zeros = {s: 0 for s in skip}
    assert list(islice(pattern_sizes(census(per_size, zeros)), 500)) == counted
    assert list(islice(pattern_sizes(census(OM, zeros)), 500)) == sweep_pattern_sizes(skip, 500)


def test_the_pattern_is_drawn_only_where_pattern_is_a_source(monkeypatch):
    # under a zero default the pattern never yields a size, so a slot plan
    # may draw it only at PATTERN
    def refused(char):
        raise AssertionError(f"the pattern of {char} was drawn")
        yield

    for module in (presentations, adversaries, bridge):
        monkeypatch.setattr(module, "pattern_sizes", refused)
    assert list(islice(spawn_sizes([2, None], [5, PATTERN], iter([1, 1, 3])), 8)) == \
        [2, None, 5, 1, 5, 1, 5, 3]
    for zero in (census(0, {2: 1, 3: OM}), census(0, {4: 2}, OM), census(0, {1: 3}, 2)):
        assert len(list(islice(class_slots(zero, 1), 300))) == 300
        builder = adversaries._TargetBuilder(zero)
        for _ in range(50):
            builder._next_spawn_target()
        bridge.size_sequence_of(zero)
    # with a nonzero default each plan draws it (so the patch reaches each)
    with pytest.raises(AssertionError):
        next(class_slots(census(1)))
    with pytest.raises(AssertionError):
        adversaries._TargetBuilder(census(1))._next_spawn_target()
    with pytest.raises(AssertionError):
        bridge.size_sequence_of(census(1))


_CENSUSES = st.builds(census, COUNTS, st.dictionaries(st.integers(1, 8), COUNTS, max_size=4),
                      st.sampled_from([0, 1, 2, OM])).filter(lambda char: not char.is_empty)


def _assert_slots_match_the_reference(char, seed, count):
    # equal slots need the same random draws in the same order: the finite
    # demands shuffled, then the sources, then one pivot per round that
    # holds two or more slots
    plan = ClassAssignment(char, seed)
    n = min(count, char.finite_universe_size()) if char.total_size_finite else count
    assert list(islice(class_slots(char, seed), count)) == [plan.slot_of(x) for x in range(n)]


@settings(max_examples=300, deadline=None)
@given(_CENSUSES, st.integers(0, 2**32))
def test_class_slots_match_the_round_robin_reference(char, seed):
    _assert_slots_match_the_reference(char, seed, 300)


# omega-counted small sizes, perhaps beside one finitely counted size
_FILLED_AT_ONCE = st.builds(
    lambda small, finite: census(0, {**finite, **dict.fromkeys(small, OM)}),
    st.sets(st.integers(1, 3), min_size=1),
    st.dictionaries(st.integers(1, 4), st.integers(1, 3), max_size=1))


@settings(max_examples=30, deadline=None)
@given(_FILLED_AT_ONCE, st.integers(0, 2**32))
@example(census(0, {1: OM}), 0)
@example(census(0, {1: OM, 2: 3}), 1)
def test_class_slots_match_the_round_robin_reference_where_slots_fill_at_once(char, seed):
    """Most slots are full within a few rounds of their spawn, so nearly
    every slot a round draws its pivot over is full and skipped: the
    bookkeeping of the slots with room decides every slot drawn."""
    _assert_slots_match_the_reference(char, seed, 2000)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(1, 8), st.integers(0, 3), min_size=1)
       .filter(lambda counts: any(counts.values())), st.integers(0, 2**32))
def test_class_slots_of_a_finite_universe_end_at_its_last_element(counts, seed):
    # the slots end once every class is full, however many idle rounds the
    # schedule had left
    char = census(0, counts)
    slots = list(class_slots(char, seed))
    assert len(slots) == char.finite_universe_size()
    assert Counter(Counter(slots).values()) == +Counter(counts)


# ---------------------------------------------------------------------------
# Fair streams


@pytest.mark.parametrize("char", [FIVE_OMEGA, C57, census(1, {2: 0}), census(0, {2: 1, 1: OM})])
@pytest.mark.parametrize("seed", [0, 1])
def test_fair_informant_prefixes_embed_into_target(char, seed):
    # these censuses host any number of blocks at each relevant size, so the
    # decoded prefixes (transient fragments included) must embed outright
    state = PrefixState("informant")
    it = iter(fair_informant(char, seed))
    for k in range(1500):
        state.feed(next(it))  # raises on inconsistency
        if k % 250 == 0:
            assert embeds(state.char(), char), (k, state.char())
    assert embeds(state.char(), char)


def test_fair_informant_two_class_prefixes_stay_two_colorable():
    # decoded fragments of a two-infinite-class presentation may exceed two
    # blocks transiently, but the explicit negatives always stay 2-colorable
    state = PrefixState("informant")
    it = iter(fair_informant(TWO_INF, 0))
    for k in range(1500):
        state.feed(next(it))
        if k % 250 != 0:
            continue
        roots = state.block_roots()
        color: dict = {}
        ok = True
        for start in roots:
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                node = queue.pop()
                for enemy in (r for r in roots if state.separated(node, r)):
                    if enemy not in color:
                        color[enemy] = 1 - color[node]
                        queue.append(enemy)
                    elif color[enemy] == color[node]:
                        ok = False
        assert ok, f"negation graph not 2-colorable at item {k}"


def test_fair_informant_rejects_empty_census():
    from limitlearn import RepresentationError

    # the census is checked when the stream is built, not at its first item
    for stream in (fair_informant, fair_text, partial(reordered_informant, strategy="reverse")):
        with pytest.raises(RepresentationError):
            stream(census(0, {}), 0)


def test_fair_informant_two_infinite_classes_cap():
    state = PrefixState("informant")
    it = iter(fair_informant(TWO_INF, 3))
    for _ in range(2000):
        state.feed(next(it))
    assert len(state.blocks()) <= 2 + 2  # two classes plus unlinked newcomers
    assert state.size_counts.get(1, 0) <= 2


def test_fair_informant_identity_relation():
    it = iter(fair_informant(census(0, {1: OM}), 0))
    for _ in range(500):
        x, y, label = next(it)
        assert label == (1 if x == y else 0)


def test_fair_text_singletons_emit_reflexive_pairs_only():
    it = iter(fair_text(census(0, {1: OM}), 0))
    for _ in range(500):
        item = next(it)
        if item is not None:
            assert item[0] == item[1]


def test_fair_text_finite_structure_pauses_forever():
    items = []
    it = iter(fair_text(census(0, {2: 1}), 0))
    for _ in range(400):
        items.append(next(it))
    positives = [i for i in items if i is not None]
    assert set(positives) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert all(i is None for i in items[200:])


def test_fair_text_content_matches_relation():
    state = PrefixState("text")
    it = iter(fair_text(C57, 1))
    for _ in range(4000):
        state.feed(next(it))
    assert embeds(state.char(), C57)
    # the seven-class is eventually complete
    assert state.size_counts.get(7, 0) == 1


def test_fair_streams_are_deterministic():
    a = [next(iter(fair_informant(C57, 9))) for _ in range(200)]
    b = []
    it = iter(fair_informant(C57, 9))
    for _ in range(200):
        b.append(next(it))
    assert a[:1] == b[:1]
    it1, it2 = iter(fair_informant(C57, 9)), iter(fair_informant(C57, 9))
    assert [next(it1) for _ in range(500)] == [next(it2) for _ in range(500)]


@pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
def test_reordered_streams_stay_consistent(strategy):
    state = PrefixState("informant")
    it = iter(reordered_informant(C57, 0, strategy, window=800))
    for _ in range(1200):
        state.feed(next(it))
    assert embeds(state.char(), C57)


@pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
def test_reordered_heads_match_the_next_call_construction(strategy):
    # the head is drawn with one islice and sorted on plain keys, reversed
    # for positives-first, where the first construction negated the keys
    for target in (C57, FIVE_OMEGA, census(0, {2: 1}), SEPARABLE_CORPUS["kron3"][1]):
        for seed in (0, 3, 11):
            head = list(islice(reordered_informant(target, seed, strategy), 2000))
            assert head == next_call_reordered_head(target, seed, strategy), (target, seed)


def test_reordered_informant_checks_its_arguments_when_called():
    with pytest.raises(ValueError, match="window"):
        reordered_informant(C57, 0, "reverse", -1)
    with pytest.raises(ValueError, match="window"):  # a bool is an int to isinstance
        reordered_informant(C57, 0, "reverse", True)
    # the head is built on first read, but a strategy is checked at once
    with pytest.raises(ValueError, match="unknown reorder strategy 'sideways'"):
        reordered_informant(C57, 0, "sideways")


def _counted(monkeypatch, name):
    """Count the calls to the presentations module's function `name`."""
    calls, real = [], getattr(presentations, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(presentations, name, counted)
    return calls


@pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
def test_a_planned_reordered_run_draws_its_slots_once_and_builds_no_item(monkeypatch, strategy):
    slots, built = _counted(monkeypatch, "class_slots"), _counted(monkeypatch, "fair_informant")
    stream = reordered_informant(C57, 3, strategy)
    assert slots == built == []  # made, never read: nothing built
    result = run_simulation(learner_separator(EXAMPLE1), stream, 3000, C57)
    assert result.converged
    assert len(slots) == 1 and built == []
    # reading a reordered stream builds its head from the fair informant
    next(iter(reordered_informant(C57, 3, strategy)))
    assert len(built) == 1


def _event_stages(state, stages):
    """The stages `stages` steps through where the decoder's `struct_rev`
    moved, and the state's view: stage, revisions, births, blocks."""
    moved, rev = [], state.struct_rev
    for stage in stages:
        if state.struct_rev != rev:
            moved.append(stage)
            rev = state.struct_rev
    return moved, (state.stage, state.struct_rev, state.birth, state.births_by_size,
                   state.blocks())


def _item_stages(state, items):
    """Decode `items` by `advance` runs, yielding the stage each reaches."""
    while state.advance(items):
        yield state.stage


@settings(max_examples=250, deadline=None)
@given(st.one_of(_FINITE_UNIVERSES, _ANY_CENSUS), st.integers(0, 2**16),
       st.sampled_from(REORDER_STRATEGIES), st.data())
@example(census(0, {1: 1}), 0, "reverse", None)
def test_a_reordered_head_decoded_from_its_events_matches_the_items(char, seed, strategy, data):
    """`PrefixState.run_fair` on a reordered plan against `advance` over
    the head built apart from the library: windows up to three copies of a
    finite universe's square (odd ones too), horizons that end inside the
    head or past it.  Equal event stages, decoder views and separations."""
    side = char.finite_universe_size() if char.total_size_finite else 30
    if data is None:  # a one-element universe: window 2, horizon 1
        window, horizon = 2, 1
    else:
        window = data.draw(st.integers(0, 3 * side * side), label="window")
        horizon = data.draw(st.integers(1, window + 60), label="horizon")
    state, reference = PrefixState(INFORMANT), PrefixState(INFORMANT)
    got = _event_stages(state, state.run_fair(char, (seed, strategy, window), horizon))
    tail = islice(generator_fair_informant(char, seed), window, None)
    items = islice(chain(next_call_reordered_head(char, seed, strategy, window), tail), horizon)
    assert got == _event_stages(reference, _item_stages(reference, items))
    roots = state.block_roots()
    assert [[state.separated(a, b) for b in roots] for a in roots] == \
        [[reference.separated(a, b) for b in roots] for a in roots]


def test_a_finite_universe_informant_decodes_its_joins_past_the_anti_diagonal():
    """Where a join's pair lies past the square's anti-diagonal, its rank in
    the square is not its Cantor code: `run_fair` must rank it in the square
    and match the items over two passes of it."""
    char, seed = census(0, {2: 3, 3: 1}), 1
    u = char.finite_universe_size()
    slot, least = list(class_slots(char, seed)), {}
    for x, s in enumerate(slot):
        least.setdefault(s, x)
    past = [(x, least[s]) for x, s in enumerate(slot) if least[s] != x and x + least[s] >= u]
    assert past and all(pair_code(x, m) != _cantor_rank(u, x, m) for x, m in past)
    state, reference = PrefixState(INFORMANT), PrefixState(INFORMANT)
    got = _event_stages(state, state.run_fair(char, (seed, None, 0), 2 * u * u))
    items = islice(generator_fair_informant(char, seed), 2 * u * u)
    assert got == _event_stages(reference, _item_stages(reference, items))


def test_a_birth_and_a_join_at_one_pair_are_one_stage():
    """Element 1 of C57 drawn with seed 1 is in element 0's class: the pair
    (1, 0) both mentions it and joins it to 0.  `_apply` yields that stage
    once, after both events, and every stage an item-by-item run reaches."""
    char, seed, horizon = C57, 1, 300
    assert list(islice(class_slots(char, seed), 2)) == [0, 0]
    state, reference = PrefixState(INFORMANT), PrefixState(INFORMANT)
    revs = [(stage, state.struct_rev) for stage in state.run_fair(char, (seed, None, 0), horizon)]
    assert revs[:2] == [(1, 1), (pair_code(1, 0) + 1, 3)]
    want, rev = [], 0
    for stage in _item_stages(reference, islice(fair_informant(char, seed), horizon)):
        if reference.struct_rev != rev:
            rev = reference.struct_rev
            want.append((stage, rev))
    assert revs == want


# ---------------------------------------------------------------------------
# Text-to-informant reordering


def _reordered(items):
    """The informant items that present a text prefix's classes one at a time."""
    state = PrefixState(TEXT)
    state.feed_all(items)
    return reorder_items(state.blocks())


def test_reorder_golden_example():
    assert _reordered([(0, 1), (2, 3)]) == [
        (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1),
        (2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 1),
        (0, 2, 0), (0, 3, 0), (1, 2, 0), (1, 3, 0),
        (2, 0, 0), (2, 1, 0), (3, 0, 0), (3, 1, 0),
    ]


def test_reorder_trivial_cases():
    assert _reordered([]) == []
    assert _reordered([(0, 0)]) == [(0, 0, 1)]


def test_reorder_output_is_consistent_and_structure_preserving():
    items = [(4, 9), (1, 2), None, (9, 9), (2, 4)]
    # decoding the informant raises if it is inconsistent
    assert _decoded(INFORMANT, _reordered(items)) == _decoded(TEXT, items)


def test_reorder_monotone_over_completed_classes():
    """Positive facts of classes whose membership is unchanged survive
    extension of the text prefix."""
    it = iter(fair_text(C57, 0))
    items = [next(it) for _ in range(2500)]
    prev_positive: set = set()
    prev_blocks: list = []
    for cut in (500, 1000, 1500, 2000, 2500):
        state = PrefixState("text")
        state.feed_all(items[:cut])
        blocks = {frozenset(b) for b in state.blocks()}
        positives = {(x, y) for x, y, lab in reorder_items(state.blocks()) if lab}
        for block in prev_blocks:
            if block in blocks:  # class unchanged by the extension
                for x in block:
                    for y in block:
                        assert (x, y) in positives
        prev_positive, prev_blocks = positives, list(blocks)
