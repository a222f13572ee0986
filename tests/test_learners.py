from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitlearn import (
    INFORMANT,
    REORDER_STRATEGIES,
    TEXT,
    Character,
    FamilyError,
    PrefixState,
    Trace,
    conjectures_equal,
    distinguishing_substructure,
    fair_informant,
    fair_text,
    informant_prefix,
    learner_constant,
    learner_echo,
    learner_from_text,
    learner_min_embed,
    learner_one_shot,
    learner_separator,
    learner_split_on_negative,
    locking_transform,
    reordered_informant,
    run_simulation,
    weak_locking_search,
)
from limitlearn.bridge import LanguageToStructLearner
from limitlearn.learners import EchoLearner, MinEmbedLearner, SeparatorLearner, minimal_hosts

from families import (
    ANTICHAIN_FAMILIES,
    C56,
    C57,
    EXAMPLE1,
    EXAMPLE2,
    FIVE_OMEGA,
    NONSEPARABLE,
    ONE_INF,
    SEPARABLE_CORPUS,
    SIX_OMEGA,
    TWO_INF,
    census,
    kron_slice,
    small_characters,
)
from limitlearn import fin_biembeddable
from oracles import (
    CharMinEmbedLearner,
    CharSeparatorLearner,
    ComposedLanguageToStructLearner,
    ListTrace,
    char_minimal_hosts,
    cumulative_distinguishing_substructure,
    per_item_simulation,
    rewrite_text_conjecture,
)
from test_clone import ANTICHAIN, CASES, CHAIN, _learner_classes, histories
from test_clone import items as history_items

OM = "omega"


def trace_of(conjectures):
    """The trace of a full conjecture list, stage 0 first."""
    if not conjectures:
        return Trace([], 0)
    return Trace.fold(conjectures[0], enumerate(conjectures[1:], 1))


def feed_all(learner, items):
    learner.reset()
    out = [learner.conjecture()]
    for item in items:
        out.append(learner.feed(item))
    return out


# ---------------------------------------------------------------------------
# The finite-bi-embeddability-type learner


def test_min_embed_empty_history_takes_least_index():
    lrn = learner_min_embed(list(NONSEPARABLE), enforce=False)
    assert lrn.conjecture() == FIVE_OMEGA  # least index among the hosts


def test_min_embed_tracks_hosts():
    lrn = learner_min_embed(list(EXAMPLE2))
    # a six-block rules the five-class census out
    items = [(i, j, 1) for i in range(6) for j in range(6)]
    conjectures = feed_all(lrn, items)
    assert conjectures[-1] == census(0, {6: OM})


def test_a_merge_gives_a_member_back_its_host_status():
    """A decoded prefix's profile does not only rise: merging two singletons
    lowers its block count at threshold 1, so [2:1], which stops hosting two
    singletons, hosts again once they merge into one 2-block."""
    lrn = learner_min_embed([census(0, {2: 1}), census(0, {1: OM})])
    assert feed_all(lrn, [(0, 0, 1), (1, 1, 1), (0, 1, 1)]) == [
        census(0, {2: 1}), census(0, {2: 1}), census(0, {1: OM}), census(0, {2: 1})]


def test_min_embed_answers_question_mark_when_nothing_hosts():
    lrn = learner_min_embed(list(EXAMPLE1))
    items = [(i, j, 1) for i in range(8) for j in range(8)]  # an 8-block
    assert feed_all(lrn, items)[-1] is None


def test_min_embed_enforces_preconditions():
    with pytest.raises(FamilyError):
        learner_min_embed(list(NONSEPARABLE))
    with pytest.raises(FamilyError):
        learner_min_embed([ONE_INF, TWO_INF])


def test_min_embed_settles_on_the_target_bi_embeddability_class():
    for name in ("example1", "kron3", "tails3", "chain3"):
        members = list(SEPARABLE_CORPUS[name])
        for target in members:
            lrn = learner_min_embed(members)
            it = iter(fair_informant(target, 1))
            tail = []
            for stage in range(6000):
                conj = lrn.feed(next(it))
                if stage >= 5500:
                    tail.append(conj)
            assert all(c is not None for c in tail), (name, target)
            assert all(fin_biembeddable(c, target) for c in tail), (name, target)
            assert all(fin_biembeddable(c, tail[0]) for c in tail), (name, target)


def test_one_shot_fin_shape_over_antichain_corpus():
    for name in ANTICHAIN_FAMILIES:
        members = list(SEPARABLE_CORPUS[name])
        if len(members) < 2:
            continue
        for target in members:
            res = run_simulation(
                learner_one_shot(members), fair_informant(target, 5), 8000, target, "iso", 200
            )
            assert res.converged and res.trace.fin_shape(target), (name, target)


# ---------------------------------------------------------------------------
# The separator learner


def test_separator_learner_examples():
    lrn = learner_separator([FIVE_OMEGA])
    assert lrn.conjecture() == FIVE_OMEGA  # empty separator realized at once
    res = run_simulation(
        learner_separator(list(EXAMPLE1)), fair_informant(C57, 0), 4000, C57, "iso", 200
    )
    assert res.converged
    # golden convergence stage for this fixed stream
    assert res.stage == 92
    res = run_simulation(
        learner_separator(list(EXAMPLE1)), fair_informant(C56, 0), 4000, C56, "iso", 200
    )
    assert res.converged


def test_separator_learner_is_deterministic_and_replayable():
    items = []
    it = iter(fair_informant(C57, 5))
    for _ in range(800):
        items.append(next(it))
    first = feed_all(learner_separator(list(EXAMPLE1)), items)
    second = feed_all(learner_separator(list(EXAMPLE1)), items)
    assert all(conjectures_equal(a, b) for a, b in zip(first, second))
    assert len(first) == len(second) == 801


def test_separator_learner_clone_independence():
    lrn = learner_separator(list(EXAMPLE1))
    it = iter(fair_informant(C57, 1))
    for _ in range(100):
        lrn.feed(next(it))
    dup = lrn.clone()
    snapshot = dup.conjecture()
    for _ in range(300):
        lrn.feed(next(it))
    assert conjectures_equal(dup.conjecture(), snapshot)


def test_separator_learner_distinguishes_one_class_family():
    fam = list(kron_slice(3))
    for target in fam:
        res = run_simulation(learner_separator(fam), fair_informant(target, 4), 8000, target, "iso", 200)
        assert res.converged, (target, res.final)


# ---------------------------------------------------------------------------
# One-shot learning


def test_distinguishing_substructures_for_example1():
    assert distinguishing_substructure(C56, [C57]) == (6, 6)
    assert distinguishing_substructure(C57, [C56]) == (7,)


def test_no_distinguishing_substructure_when_a_member_finitely_embeds_into_another():
    # every finite piece of [5:omega] sits inside [6:omega]
    with pytest.raises(FamilyError, match="finitely embeds"):
        distinguishing_substructure(FIVE_OMEGA, [SIX_OMEGA])


_FINITE_CLASS_CHARS = small_characters()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FINITE_CLASS_CHARS), min_size=2, max_size=3, unique=True))
def test_distinguishing_substructure_matches_the_cumulative_count_search(family):
    for member in family:
        others = [o for o in family if o is not member]
        try:
            want = cumulative_distinguishing_substructure(member, others, cap=12)
        except FamilyError:
            want = None
        try:
            got = distinguishing_substructure(member, others, cap=12)
        except FamilyError:
            got = None
        assert got == want, (member, others)


def test_one_shot_fires_on_witness_with_explicit_separation():
    lrn = learner_one_shot(list(EXAMPLE1))
    # a full 7-block certifies the second census on its own
    items = [(i, j, 1) for i in range(7) for j in range(7)]
    assert feed_all(lrn, items)[-1] == C57
    # two 6-blocks only fire once explicitly separated
    lrn = learner_one_shot(list(EXAMPLE1))
    blocks = [(i, j, 1) for i in range(6) for j in range(6)]
    blocks += [(6 + i, 6 + j, 1) for i in range(6) for j in range(6)]
    conjectures = feed_all(lrn, blocks)
    assert conjectures[-1] is None  # the two blocks might still merge
    assert lrn.feed((0, 6, 0)) == C56


def test_one_shot_trace_shape_on_fair_streams():
    for target in EXAMPLE1:
        res = run_simulation(
            learner_one_shot(list(EXAMPLE1)), fair_informant(target, 11), 6000, target, "iso", 200
        )
        assert res.converged
        assert res.trace.fin_shape(target)
        assert len({str(c) for c in res.trace.conjectures if c is not None}) == 1


def test_one_shot_requires_antichain():
    with pytest.raises(FamilyError):
        learner_one_shot(list(EXAMPLE2))


def test_one_shot_accepts_explicit_witnesses():
    # a lone 7-block is the default witness for C57 but not this one, whose
    # sizes come in any order
    lrn = learner_one_shot(list(EXAMPLE1), witnesses=[(6, 6), (5, 7)])
    seven = [(i, j, 1) for i in range(7) for j in range(7)]
    five = [(7 + i, 7 + j, 1) for i in range(5) for j in range(5)]
    assert feed_all(lrn, seven + five)[-1] is None  # not yet labeled apart
    assert lrn.feed((0, 7, 0)) == C57


# ---------------------------------------------------------------------------
# Text readings


def test_text_learner_matches_base_on_fair_texts():
    for target in EXAMPLE1:
        base = learner_separator(list(EXAMPLE1))
        res = run_simulation(learner_from_text(base), fair_text(target, 0), 6000, target, "iso", 200)
        assert res.converged, target


def test_text_learner_trivial_cases():
    lrn = learner_from_text(learner_constant(FIVE_OMEGA))
    assert lrn.conjecture() == FIVE_OMEGA
    assert lrn.feed(None) == FIVE_OMEGA
    assert lrn.feed((0, 1)) == FIVE_OMEGA


def test_text_learner_starts_from_an_empty_base_history():
    base = learner_echo()
    base.feed((0, 1, 0))
    lrn = learner_from_text(base)
    assert (lrn.mode, lrn.name) == (TEXT, "txt-echo")
    assert lrn.conjecture() == Character.make()
    assert lrn.feed((2, 3)) == census(0, {2: 1})
    lrn.reset()
    assert lrn.conjecture() == Character.make()
    # the base keeps its own decoder and its mode
    assert (base.mode, base.conjecture()) == (INFORMANT, census(0, {1: 2}))


def test_text_learner_requires_informant_base():
    with pytest.raises(ValueError):
        learner_from_text(learner_constant(FIVE_OMEGA, mode="text"))


def test_learners_that_read_separations_have_no_text_reading():
    # a text never labels two blocks apart
    for base in (learner_one_shot(list(EXAMPLE1)), locking_transform(learner_echo())):
        with pytest.raises(ValueError, match="no text reading"):
            learner_from_text(base)


TEXT_READINGS = {
    "constant": lambda members: learner_constant(members[0]),
    "split": lambda members: learner_split_on_negative(),
    "echo": lambda members: learner_echo(),
    "min-embed": lambda members: learner_min_embed(members, enforce=False),
}


def rewrite_mismatches(base, items) -> list[int]:
    """The stages, the empty prefix and each structural revision of the text
    `items`, at which the text reading of `base` and the rewrite of the
    decoded prefix into an informant for `base` conjecture differently."""
    learner, state = learner_from_text(base), PrefixState(TEXT)

    def agree():
        return conjectures_equal(learner.conjecture(), rewrite_text_conjecture(base, state))

    mismatches = [] if agree() else [0]
    for stage, item in enumerate(items, 1):
        learner.consume(item)
        rev = state.struct_rev
        state.feed(item)
        if state.struct_rev != rev and not agree():
            mismatches.append(stage)
    return mismatches


@pytest.mark.parametrize("reading", TEXT_READINGS)
def test_text_readings_match_the_rewrite_on_fair_texts(reading):
    for name, fam in SEPARABLE_CORPUS.items():
        for target in fam:
            items = list(islice(fair_text(target, 0), 2000))
            base = TEXT_READINGS[reading](list(fam))
            assert rewrite_mismatches(base, items) == [], (name, target)


@pytest.mark.parametrize("reading", TEXT_READINGS)
@settings(max_examples=60, deadline=None)
@given(histories())
def test_text_readings_match_the_rewrite_on_random_texts(reading, history):
    classes, *prefixes = history
    items = [it for pairs in prefixes for it in history_items(TEXT, classes, pairs)]
    assert rewrite_mismatches(TEXT_READINGS[reading](list(CHAIN)), items) == []


def test_text_separator_ends_where_the_rewrite_does_on_fair_texts():
    # births count text stages rather than rewrite positions, so the traces
    # may differ on the way; the finals agree
    for name, fam in SEPARABLE_CORPUS.items():
        for target in fam:
            base = learner_separator(list(fam))
            learner, state = learner_from_text(base), PrefixState(TEXT)
            items = list(islice(fair_text(target, 0), 2000))
            learner.consume_all(items)
            state.feed_all(items)
            want = rewrite_text_conjecture(base, state)
            assert conjectures_equal(learner.conjecture(), want), (name, target)


# ---------------------------------------------------------------------------
# Constant and split learners


def test_constant_learner():
    res = run_simulation(
        learner_constant(FIVE_OMEGA), fair_informant(FIVE_OMEGA, 0), 500, FIVE_OMEGA, "iso", 100
    )
    assert res.converged and res.stage == 0


def test_split_learner_on_both_targets():
    for target in (ONE_INF, TWO_INF):
        res = run_simulation(
            learner_split_on_negative(), fair_informant(target, 2), 3000, target, "iso", 200
        )
        assert res.converged, target


def test_split_learner_switch_is_single():
    lrn = learner_split_on_negative()
    conjectures = feed_all(lrn, [(0, 0, 1), (0, 1, 1), (0, 2, 0), (2, 2, 1)])
    assert conjectures[:3] == [ONE_INF, ONE_INF, ONE_INF]
    assert conjectures[3] == TWO_INF and conjectures[4] == TWO_INF


def test_echo_learner_reports_prefix_census():
    lrn = learner_echo()
    assert lrn.feed((0, 1, 1)) == census(0, {2: 1})
    assert lrn.feed((2, 3, 0)) == census(0, {2: 1, 1: 2})


def test_echo_learner_builds_one_census_per_structural_revision(monkeypatch):
    items = list(islice(fair_informant(C57, 0), 2000))
    lrn = learner_echo()
    make, calls = Character.make, []

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return make(*args, **kwargs)

    monkeypatch.setattr(Character, "make", classmethod(counting))
    revisions = set()
    for item in items:
        lrn.feed(item)
        revisions.add(lrn._state.struct_rev)
    assert len(calls) == len(revisions) < len(items) // 2


# ---------------------------------------------------------------------------
# Simulation harness


def test_run_simulation_trace_and_mind_changes():
    lrn = learner_split_on_negative()
    items = [(0, 0, 1), (0, 1, 0), (1, 1, 1)]
    res = run_simulation(lrn, iter(items), 3, TWO_INF, "iso", 1)
    assert res.converged
    assert res.trace.mind_changes_ex == [2]
    assert res.trace.mind_changes_fin == [2]


def test_run_simulation_fin_vs_ex_mind_changes():
    trace = trace_of([None, None, C56, C56, C57])
    assert trace.mind_changes_ex == [2, 4]
    assert trace.mind_changes_fin == [4]
    assert not trace.fin_shape(C56)
    assert trace_of([None, C56, C56]).fin_shape(C56)


_PALETTE = (None, C56, C57, FIVE_OMEGA)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, len(_PALETTE) - 1), max_size=30))
def test_trace_judging_compares_equal_copies_like_shared_objects(picks):
    shared = [_PALETTE[i] for i in picks]
    copies = [c if c is None else Character(c.default, c.exceptions, c.omega_count)
              for c in shared]
    a, b = trace_of(shared), trace_of(copies)
    assert a.mind_changes_ex == b.mind_changes_ex
    assert a.mind_changes_fin == b.mind_changes_fin
    assert a.stable_from() == b.stable_from()
    assert a.mind_changes_ex == [s for s in range(1, len(picks)) if picks[s] != picks[s - 1]]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, len(_PALETTE) - 1), st.booleans()), max_size=30))
def test_change_point_trace_matches_the_list_trace(picks):
    # each stage either shares the palette object or gets an equal copy
    conjectures = [
        _PALETTE[i] if shared or _PALETTE[i] is None
        else Character(_PALETTE[i].default, _PALETTE[i].exceptions, _PALETTE[i].omega_count)
        for i, shared in picks
    ]
    got, want = trace_of(conjectures), ListTrace(conjectures)
    assert got.length == len(conjectures)
    assert got.conjectures == conjectures
    assert got.mind_changes_ex == want.mind_changes_ex
    assert got.mind_changes_fin == want.mind_changes_fin
    assert got.stable_from() == want.stable_from()
    assert got.lines() == want.lines()
    for target in _PALETTE[1:]:
        for relation in ("iso", "biembed"):
            assert got.fin_shape(target, relation) == want.fin_shape(target, relation)
    if conjectures:
        assert conjectures_equal(got.final(), want.final())
    else:  # a run always has stage 0; an empty trace has no final conjecture
        for trace in (got, want):
            with pytest.raises(IndexError):
                trace.final()


def test_run_simulation_biembed_relation():
    lrn = learner_constant(FIVE_OMEGA)
    target = census(0, {5: OM, 2: 1})
    res = run_simulation(lrn, fair_informant(target, 0), 500, target, "biembed", 100)
    assert res.converged
    res = run_simulation(lrn, fair_informant(target, 0), 500, target, "iso", 100)
    assert not res.converged


def test_run_simulation_reports_exhaustion():
    lrn = learner_constant(FIVE_OMEGA)
    res = run_simulation(lrn, iter([(0, 0, 1)] * 5), 50, FIVE_OMEGA, "iso", 2)
    assert res.exhausted and not res.converged


def test_run_simulation_rejects_mode_mismatch():
    with pytest.raises(ValueError):
        run_simulation(learner_split_on_negative(), fair_text(FIVE_OMEGA, 0), 10, FIVE_OMEGA)


# a census with finitely many elements, whose stream is cut short of the horizon
_FINITE = census(0, {1: 2, 2: 1})


def _differential_streams(mode: str, seed: int):
    """(name, stream factory, target) for the mode: fair and reordered
    streams of the roster families' members, and a finite census's stream
    that runs out before the horizon."""
    for target in (*CHAIN, *ANTICHAIN):
        if mode == INFORMANT:
            yield "fair", lambda t=target: fair_informant(t, seed), target
            strategy = REORDER_STRATEGIES[seed % len(REORDER_STRATEGIES)]
            yield strategy, lambda t=target: reordered_informant(t, seed, strategy, 300), target
        else:
            yield "text", lambda t=target: fair_text(t, seed), target
    stream = fair_informant if mode == INFORMANT else fair_text
    yield "finite", lambda: islice(stream(_FINITE, seed), 250), _FINITE


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("make", [make for _, make in CASES], ids=[name for name, _ in CASES])
def test_simulation_matches_the_per_item_reference(make, seed):
    """`run_simulation`, which reads the conjecture once per `advance`,
    records what reading it after every item records, for every learner
    class."""
    for name, stream, target in _differential_streams(make().mode, seed):
        got = run_simulation(make(), stream(), 600, target, "iso", 100)
        want = per_item_simulation(make(), stream(), 600, target, "iso", 100)
        assert (got.trace.changes, got.trace.length, got.converged, got.stage, got.exhausted) == \
            (want.trace.changes, want.trace.length, want.converged, want.stage, want.exhausted), \
            (name, target)
        assert got.exhausted == (name == "finite")


def test_one_shot_fires_on_the_union_that_completes_its_witness():
    # a 3-block and a 4-block become C57's 7-block witness by one item, so the
    # largest block jumps past every witness's largest block (6) in one revision
    items = [(0, 1, 1), (1, 2, 1), (3, 4, 1), (4, 5, 1), (5, 6, 1), (2, 3, 1)]
    got = run_simulation(learner_one_shot(list(EXAMPLE1)), iter(items), len(items), None, "iso", 1)
    want = per_item_simulation(learner_one_shot(list(EXAMPLE1)), iter(items), len(items), None, "iso", 1)
    assert got.trace.changes == want.trace.changes == [(0, None), (len(items), C57)]


@pytest.mark.parametrize("make", [make for _, make in CASES], ids=[name for name, _ in CASES])
@settings(max_examples=40, deadline=None)
@given(histories())
def test_consume_all_leaves_the_learner_where_consume_does(make, history):
    """A batch replayed as `advance` runs gives the conjecture that
    consuming it item by item gives, and the same conjectures after it."""
    classes, a, b, _ = history
    batched, single = make(), make()
    head = history_items(batched.mode, classes, a + b)
    tail = history_items(batched.mode, classes, b)
    batched.consume_all(head)
    for it in head:
        single.consume(it)
    assert conjectures_equal(batched.conjecture(), single.conjecture()), batched.name
    for stage, it in enumerate(tail):
        got, want = batched.feed(it), single.feed(it)
        assert conjectures_equal(got, want), (batched.name, stage, it, got, want)


def test_no_decoding_learner_overrides_consume():
    # `EchoLearner.advance` feeds the decoder itself: an override would be skipped
    subclasses = list(_learner_classes(EchoLearner))
    assert subclasses and all(c.consume is EchoLearner.consume for c in subclasses)


class _FeedOnly:
    """A learner that is no ``Learner``: reset, feed and conjecture only."""

    mode = INFORMANT

    def __init__(self):
        self._inner = learner_separator(EXAMPLE1)

    def reset(self):
        self._inner.reset()

    def feed(self, item):
        return self._inner.feed(item)

    def conjecture(self):
        return self._inner.conjecture()


def test_run_simulation_judges_an_object_that_only_feeds():
    got = run_simulation(_FeedOnly(), fair_informant(C57, 1), 3000, C57)
    want = run_simulation(learner_separator(EXAMPLE1), fair_informant(C57, 1), 3000, C57)
    assert got.converged and len(got.trace.changes) > 1
    assert (got.trace, got.stage) == (want.trace, want.stage)


def test_trace_lines_format():
    trace = trace_of([None, C56, C56])
    lines = trace.lines()
    assert lines[0] == "stage 0: ?"
    assert lines[1].startswith("stage 1: ") and lines[1].endswith("[MC]")
    assert "[MC]" not in lines[2]


# ---------------------------------------------------------------------------
# Host checks on the prefix's plain profile


@st.composite
def corpus_prefixes(draw):
    """A corpus family and a consistent informant prefix: items of a fair
    informant of one of its members, or the pairs of a random structure on
    up to 16 elements in a random order, cut at a random length."""
    family = SEPARABLE_CORPUS[draw(st.sampled_from(sorted(SEPARABLE_CORPUS)))]
    if draw(st.booleans()):
        target = draw(st.sampled_from(family))
        length = draw(st.integers(0, 1500))
        return family, list(islice(fair_informant(target, draw(st.integers(0, 50))), length))
    n = draw(st.integers(1, 16))
    classes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pairs = draw(st.permutations([(x, y) for x in range(n) for y in range(n)]))
    pairs = pairs[:draw(st.integers(0, len(pairs)))]
    return family, [(x, y, int(classes[x] == classes[y])) for x, y in pairs]


@settings(max_examples=60, deadline=None)
@given(corpus_prefixes())
def test_profile_hosts_match_the_census_hosts(case):
    family, items = case
    min_embed = learner_min_embed(family, enforce=False)
    pairs = (
        (min_embed, CharMinEmbedLearner(family, enforce=False)),
        (learner_separator(family, enforce=False), CharSeparatorLearner(family, enforce=False)),
    )
    for stage, item in enumerate(items):
        for learner, reference in pairs:
            got, want = learner.feed(item), reference.feed(item)
            assert conjectures_equal(got, want), (learner.name, stage, got, want)
        state = min_embed._state
        assert state.profile() == state.char().cumulative_profile
        below = min_embed._strictly_below
        assert minimal_hosts(state.profile(), min_embed._profiles, below) == \
            char_minimal_hosts(state, family, below), stage
        assert min_embed._cached_index == pairs[0][1]._cached_index


# Families whose profiles end in infinite counts, where the memo's count
# bound skips them: infinite classes, or a nonzero default
BOUND_FAMILIES = {
    "nonseparable": NONSEPARABLE,
    "infinite": (ONE_INF, TWO_INF),
    "default": (census(1, {2: 3}), census(0, {1: 2, 3: 1}), census(0, {3: OM})),
}


@st.composite
def prefixes_past_the_bounds(draw):
    """A family, corpus or ``BOUND_FAMILIES``, and a consistent informant
    prefix: items of a fair informant of one of its members, or the positive
    facts, in a random order, of a structure whose blocks reach two past the
    memo's size bound and whose blocks of one size reach two past its count
    bound."""
    families = {**SEPARABLE_CORPUS, **BOUND_FAMILIES}
    family = families[draw(st.sampled_from(sorted(families)))]
    if draw(st.booleans()):
        target = draw(st.sampled_from(family))
        length = draw(st.integers(0, 1500))
        return family, list(islice(fair_informant(target, draw(st.integers(0, 50))), length))
    bounds = MinEmbedLearner(family, enforce=False)
    counts = draw(st.dictionaries(st.integers(1, bounds._top + 2),
                                  st.integers(1, bounds._cap + 2), min_size=1, max_size=3))
    return family, draw(st.permutations(_blocks(counts)))


def _blocks(counts: dict) -> list:
    """The positive facts of a structure with `counts[size]` blocks of each
    size, block by block: a self-fact on each block's first element, then a
    chain through the rest."""
    facts, start = [], 0
    for size, n in sorted(counts.items()):
        for _ in range(n):
            facts.append((start, start, 1))
            facts.extend((x, x + 1, 1) for x in range(start, start + size - 1))
            start += size
    return facts


@settings(max_examples=80, deadline=None)
@given(prefixes_past_the_bounds())
# prefixes that no member hosts but that one would host if clamped one
# step lower: an 8-block past example1's largest size 7, three 6-blocks past
# C56's two, and three singletons past the two infinite classes
@example((EXAMPLE1, _blocks({8: 1})))
@example((EXAMPLE1, _blocks({6: 3})))
@example(((ONE_INF, TWO_INF), _blocks({1: 3})))
def test_memoized_hosts_match_the_census_hosts_past_the_bounds(case):
    """The memoized learners agree after every item with references that
    build the census and test every member, on families with infinite counts
    and on blocks and block counts past the memo's bounds."""
    family, items = case
    pairs = [(MinEmbedLearner(family, enforce=False), CharMinEmbedLearner(family, enforce=False))]
    if all(m.count(OM) == 0 for m in family):
        pairs.append((SeparatorLearner(family, enforce=False),
                      CharSeparatorLearner(family, enforce=False)))
    for stage, item in enumerate(items):
        for learner, reference in pairs:
            got, want = learner.feed(item), reference.feed(item)
            assert conjectures_equal(got, want), (learner.name, stage, got, want)


def test_the_host_memo_repeats_its_keys_on_fair_informants():
    """Fair informants of the example1 and kron4 members at horizon 10^4
    leave at most one memo key per ten structural revisions over the runs
    together; a census keyed unclamped takes nearly one per revision."""
    keys = revisions = 0
    for family in (EXAMPLE1, SEPARABLE_CORPUS["kron4"]):
        for target in family:
            learner = MinEmbedLearner(family)
            run_simulation(learner, fair_informant(target, 3), 10**4, target, "biembed")
            keys += len(learner._hosts)
            revisions += learner._state.struct_rev
    assert 10 * keys <= revisions, (keys, revisions)


@settings(max_examples=60, deadline=None)
@given(corpus_prefixes())
def test_language_decoding_learner_matches_the_composed_reference(case):
    """The language-decoding learner, a separator learner that falls back to
    the least minimal host, agrees after every item with the arbiter
    composition in `oracles`; and a separator conjecture is always one of the
    minimal hosts."""
    family, items = case
    decode, reference = LanguageToStructLearner(family), ComposedLanguageToStructLearner(family)
    separator = learner_separator(family, enforce=False)
    assert decode.conjecture() is None and reference.conjecture() is None
    for stage, item in enumerate(items):
        got, want = decode.feed(item), reference.feed(item)
        assert conjectures_equal(got, want), (stage, got, want)
        refined = separator.feed(item)
        minimal = minimal_hosts(separator._state.profile(), separator._profiles,
                                separator._strictly_below)
        assert refined is None or any(family[i] == refined for i in minimal), (stage, refined)


def test_host_checks_build_no_census(monkeypatch):
    items = list(islice(fair_informant(C57, 0), 600))
    min_embed = learner_min_embed(list(EXAMPLE1))
    decode = LanguageToStructLearner(list(EXAMPLE1))

    def refuse(cls, *args, **kwargs):
        raise AssertionError("Character.make called")

    monkeypatch.setattr(Character, "make", classmethod(refuse))
    for item in items:
        min_embed.feed(item)
        decode.feed(item)
    assert min_embed.conjecture() == C57 and decode.conjecture() == C57
    res = weak_locking_search(learner_separator(list(EXAMPLE1)), C57, informant_prefix(items),
                              depth=50, width=8)
    assert res.kind == "candidate"


def _rename(items, f):
    return [(f(x), f(y), label) for x, y, label in items]


@pytest.mark.parametrize("rename", [lambda x: 3 * x + 7, lambda x: x ^ 5], ids=["affine", "xor"])
def test_renaming_the_elements_changes_no_trace(rename):
    """The learners read a structure only up to isomorphism: an injective
    renaming of a fair informant's elements, order-preserving or not, leaves
    every mind change, the convergence verdict and the final conjecture."""
    horizon = 4000
    for name, family in SEPARABLE_CORPUS.items():
        learners = [learner_separator(family), learner_min_embed(family)]
        if name in ANTICHAIN_FAMILIES:
            learners.append(learner_one_shot(family))
        for target in family:
            for seed in (0, 3):
                items = list(islice(fair_informant(target, seed), horizon))
                for learner in learners:
                    a, b = (run_simulation(learner, iter(its), horizon, target, "iso", 200)
                            for its in (items, _rename(items, rename)))
                    assert (a.trace.changes, a.converged, a.final) == \
                        (b.trace.changes, b.converged, b.final), (name, target, seed, learner.name)
