import math
from functools import partial
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from limitlearn import (
    INFORMANT,
    REORDER_STRATEGIES,
    TEXT,
    Character,
    ConsistencyError,
    FamilyError,
    Learner,
    PrefixState,
    Stream,
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
    profile_of,
    reordered_informant,
    run_simulation,
    weak_locking_search,
)
from limitlearn.bridge import LanguageToStructLearner
from limitlearn.learners import (
    EchoLearner,
    MinEmbedLearner,
    SeparatorLearner,
    minimal_hosts,
    run_stages,
)

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
    ScratchMinEmbedLearner,
    ScratchSeparatorLearner,
    brute_fin_embeds,
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


@pytest.mark.parametrize("family", SEPARABLE_CORPUS.values(), ids=SEPARABLE_CORPUS)
def test_distinguishing_substructure_matches_the_oracle_at_the_default_cap(family):
    """The pruned search at cap 200 on every corpus member, criteria 2-3's
    example1 and example2 among them: the cumulative-count search's
    witness, or FamilyError exactly where the brute-force embedding oracle
    puts the member inside another (the cumulative-count search would list
    every partition up to 200 there)."""
    for member in family:
        others = [o for o in family if o is not member]
        if any(brute_fin_embeds(member, other) for other in others):
            with pytest.raises(FamilyError):
                distinguishing_substructure(member, others)
        else:
            want = cumulative_distinguishing_substructure(member, others)
            assert distinguishing_substructure(member, others) == want, member


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
    # the refusal names the member that has no witness
    with pytest.raises(FamilyError, match="finitely embeds into another member"):
        learner_one_shot(list(EXAMPLE2))
    # the other members are taken by position: a census object listed twice
    # embeds into its own copy
    with pytest.raises(FamilyError, match="finitely embeds into another member"):
        learner_one_shot([C56, C57, C56])


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


DECODING_CASES = [(name, make) for name, make in CASES if isinstance(make(), EchoLearner)] + [
    ("txt-min-embed", lambda: learner_from_text(learner_min_embed(CHAIN))),
    ("txt-lang-decode", lambda: learner_from_text(LanguageToStructLearner(CHAIN))),
]


def test_the_renaming_cases_cover_every_decoding_learner_in_both_modes():
    covered = {(type(make()), make().mode) for _, make in DECODING_CASES}
    for cls in (EchoLearner, *_learner_classes(EchoLearner)):
        if cls.__module__.startswith("limitlearn."):
            modes = (TEXT,) if cls.mode == TEXT else (INFORMANT, TEXT)
            assert {(cls, mode) for mode in modes} <= covered, cls.__name__


@pytest.mark.parametrize("make", [make for _, make in DECODING_CASES],
                         ids=[name for name, _ in DECODING_CASES])
@settings(max_examples=60, deadline=None)
@given(histories(), st.lists(st.integers(0, 20), min_size=6, max_size=6, unique=True))
@example(([0, 0, 1, 1], [(0, 1), (2, 3)], [(1, 2)], []), [10**6, 7, 3, 0, 1, 2])
def test_a_decoding_learner_reads_a_prefix_up_to_renaming(make, history, names):
    """A decoding learner gives equal conjectures on a prefix and on its
    image under an injective renaming of elements, at every stage: the
    invariant that makes ``EchoLearner.probe_key`` an exact key for the
    locking normal form's memo of probes."""
    classes, *prefixes = history
    plain, renamed = make(), make()
    for stage, it in enumerate(history_items(plain.mode, classes, sum(prefixes, []))):
        image = it if it is None else (names[it[0]], names[it[1]], *it[2:])
        got, want = renamed.feed(image), plain.feed(it)
        assert conjectures_equal(got, want), (plain.name, stage, it, image, got, want)


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


class _OwnPlan(Learner):
    """A learner with its own ``run_plan``, which reads nothing and says the
    conjecture may change at fixed stages: C56 before stage 7, C57 from it."""

    def __init__(self):
        self.plans = []
        self.reset()

    def reset(self):
        self.read = 0

    def consume(self, item):
        self.read += 1

    def conjecture(self):
        return C57 if self.read >= 7 else C56

    def run_plan(self, stream, stop):
        self.plans.append(stop)
        for self.read in (3, 7, 9):
            yield self.read


def test_run_simulation_hands_an_unread_planned_stream_to_the_learners_run_plan():
    learner = _OwnPlan()
    got = run_simulation(learner, fair_informant(C57, 0), 50, C57, window=20)
    assert learner.plans == [50]
    assert got.trace == Trace([(0, C56), (7, C57)], 51) and got.stage == 7
    read = fair_informant(C57, 0)
    next(iter(read))
    for stream in (read, iter(fair_informant(C57, 0))):
        learner = _OwnPlan()
        by_items = run_simulation(learner, stream, 50, C57, window=20)
        assert learner.plans == [] and by_items.trace == got.trace


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
        assert profile_of(state.size_counts) == state.char().cumulative_profile
        below = min_embed._strictly_below
        assert minimal_hosts(profile_of(state.size_counts), min_embed._profiles, below) == \
            char_minimal_hosts(state, family, below), stage
        assert min_embed._cached_index == pairs[0][1]._cached_index


_order_count = st.one_of(st.integers(0, 3), st.just(OM))


def _order_censuses(infinite: bool):
    """Censuses over sizes 1–5 with ω counts and defaults, with infinite
    classes only when `infinite`."""
    return st.builds(census, st.sampled_from([0, 0, 1, OM]),
                     st.dictionaries(st.integers(1, 5), _order_count, max_size=3),
                     st.sampled_from([0, 1, OM]) if infinite else st.just(0))


@settings(max_examples=150, deadline=None)
@given(st.booleans().flatmap(
    lambda infinite: st.lists(_order_censuses(infinite), min_size=1, max_size=5, unique=True)))
@example([census(0, {5: OM}), census(0, {6: OM})])
@example([census(0, {5: OM}), census(0, {5: OM, 2: 1}), census(0, {3: 1})])
def test_the_learners_family_order_matches_the_brute_force_oracle(family):
    """Each learner's strict finite-embedding order and each separator's
    bi-embeddability classes are the relations `brute_fin_embeds` gives:
    member j is strictly below member i when j embeds into i and i not into
    j, and j is in i's class when each embeds into the other."""
    n = len(family)
    le = [[brute_fin_embeds(a, b) for b in family] for a in family]
    below = [[le[j][i] and not le[i][j] for j in range(n)] for i in range(n)]
    assert MinEmbedLearner(family, enforce=False)._strictly_below == below
    if all(m.count(math.inf) == 0 for m in family):
        separator = SeparatorLearner(family, enforce=False)
        assert separator._strictly_below == below
        assert separator._class_of == [[j for j in range(n) if le[i][j] and le[j][i]]
                                       for i in range(n)]


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
    if all(m.count(math.inf) == 0 for m in family):
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
        minimal = minimal_hosts(profile_of(separator._state.size_counts), separator._profiles,
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


# ---------------------------------------------------------------------------
# Fair streams run as structural events


EVENT_LEARNERS = {
    INFORMANT: (
        ("echo", lambda members: learner_echo()),
        ("min-embed", learner_min_embed),
        ("separator", learner_separator),
        ("lang-decode", LanguageToStructLearner),
    ),
    TEXT: (
        ("txt-separator", lambda members: learner_from_text(learner_separator(members))),
        ("txt-split", lambda members: learner_from_text(learner_split_on_negative())),
    ),
}


def _decoder_view(learner):
    state = learner._state
    return (state.stage, state.struct_rev, state.birth, state.births_by_size, state.blocks())


def _assert_event_run_matches_items(make, stream, horizon, target, window=100):
    """`run_simulation` on a planned stream (the event path for a decoding
    learner) against the same items as a plain iterator (item by item):
    equal traces, summaries and decoders.  Returns both learners."""
    by_events, by_items = make(), make()
    assert stream().plan is not None
    got = run_simulation(by_events, stream(), horizon, target, "iso", window)
    want = run_simulation(by_items, iter(stream()), horizon, target, "iso", window)
    assert (got.trace.changes, got.trace.length, got.summary()) == \
        (want.trace.changes, want.trace.length, want.summary())
    assert _decoder_view(by_events) == _decoder_view(by_items)
    return by_events, by_items


def _corpus_targets():
    for name, members in SEPARABLE_CORPUS.items():
        for index, target in enumerate(members):
            yield pytest.param(members, target, id=f"{name}[{index}]")


@pytest.mark.parametrize("members, target", list(_corpus_targets()))
def test_fair_stream_events_match_the_items_over_the_corpus(members, target):
    """Every corpus target, 20 stream seeds: the fair informant and one
    reordered informant per seed (the strategies in turn) under every
    decoding informant learner, and the fair text under the text readings."""
    for seed in range(20):
        strategy = REORDER_STRATEGIES[seed % len(REORDER_STRATEGIES)]
        for _, factory in EVENT_LEARNERS[INFORMANT]:
            for stream in (lambda: fair_informant(target, seed),
                           lambda: reordered_informant(target, seed, strategy, 300)):
                _assert_event_run_matches_items(partial(factory, members), stream, 900, target)
        for _, factory in EVENT_LEARNERS[TEXT]:
            _assert_event_run_matches_items(
                partial(factory, members), lambda: fair_text(target, seed), 900, target)


@pytest.mark.parametrize("strategy", REORDER_STRATEGIES)
def test_reordered_stream_events_match_past_the_default_window(strategy):
    members = SEPARABLE_CORPUS["example1-plus"]
    for target in members:
        _assert_event_run_matches_items(
            partial(learner_separator, members),
            lambda: reordered_informant(target, 3, strategy), 2600, target, 200)


# finite universes, whose informant repeats its square and whose text pauses
_FINITE_UNIVERSES = st.builds(
    census, st.just(0), st.dictionaries(st.integers(1, 6), st.integers(0, 3), max_size=3),
    st.integers(0, 0)).filter(lambda char: not char.is_empty)
_ANY_CENSUS = st.builds(
    census, st.sampled_from([0, 1, 2, 3, OM]),
    st.dictionaries(st.integers(1, 8), st.sampled_from([0, 1, 2, 3, OM]), max_size=4),
    st.sampled_from([0, 1, 2, OM])).filter(lambda char: not char.is_empty)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_FINITE_UNIVERSES, _ANY_CENSUS), st.integers(0, 2**16),
       st.sampled_from(("fair", "text", *REORDER_STRATEGIES)), st.integers(1, 60),
       st.integers(1, 1500), st.integers(0, 5))
def test_fair_stream_events_match_the_items_over_random_censuses(
        char, seed, stream_kind, window, horizon, pick):
    """Random censuses, finite universes among them, with horizons that may
    end inside a reorder window or a finite universe's first square."""
    mode = TEXT if stream_kind == "text" else INFORMANT
    _, factory = EVENT_LEARNERS[mode][pick % len(EVENT_LEARNERS[mode])]
    if stream_kind == "fair":
        stream = partial(fair_informant, char, seed)
    elif stream_kind == "text":
        stream = partial(fair_text, char, seed)
    else:
        stream = partial(reordered_informant, char, seed, stream_kind, window)
    _assert_event_run_matches_items(partial(factory, CHAIN), stream, horizon, char, 1)


def test_a_stream_read_before_the_run_is_run_item_by_item():
    stream = fair_informant(C57, 2)
    skipped = list(islice(stream, 40))
    assert stream.plan is None
    got = run_simulation(learner_separator(EXAMPLE1), stream, 3000, C57)
    rest = iter(fair_informant(C57, 2))
    assert list(islice(rest, 40)) == skipped
    want = run_simulation(learner_separator(EXAMPLE1), rest, 3000, C57)
    assert (got.trace, got.summary()) == (want.trace, want.summary())


def _probe_items(learner):
    state = learner._state
    elements = sorted(state._parent)
    fresh = max(elements) + 1
    for x in elements[::3] + [fresh]:
        for y in elements[::2] + [fresh]:
            for label in (0, 1):
                yield (x, y, label)


@pytest.mark.parametrize("stream", [
    lambda: fair_informant(C57, 0),
    lambda: fair_informant(census(0, {2: 3, 3: 1}), 1),
    lambda: reordered_informant(C56, 4, "negatives-first", 150),
], ids=["fair", "finite-universe", "reordered"])
def test_an_item_fed_after_an_event_run_is_judged_as_item_by_item(stream):
    """The negatives an event run skips are written before the next item:
    every probe item is accepted, or refused with ConsistencyError, as on
    the decoder that read every item, and leaves the same conjecture."""
    by_events, by_items = _assert_event_run_matches_items(learner_echo, stream, 400, None)
    for item in _probe_items(by_items):
        outcomes = []
        for learner in (by_events.clone(), by_items.clone()):
            try:
                outcomes.append(learner.feed(item))
            except ConsistencyError:
                outcomes.append(ConsistencyError)
        assert outcomes[0] == outcomes[1], item
    state, reference = by_events._state, by_items._state
    roots = state.block_roots()
    assert [[state.separated(a, b) for b in roots] for a in roots] == \
        [[reference.separated(a, b) for b in roots] for a in roots]


def test_the_separator_learner_is_held_back_by_the_horizon_not_by_its_reading():
    """Separator learner, [2:3 default, 3:ω] against [1:ω, 6:ω], target 0,
    fair informant seed 0: the only fact against the wrong member is a
    class of size 7, and the stream completes its first 7-class at stage
    11,095.  A horizon of 10^4 ends before it; 10^5 converges exactly
    there, on the event path and item by item."""
    members = [census(2, {3: OM}), census(0, {1: OM, 6: OM})]
    short = run_simulation(learner_separator(members), fair_informant(members[0], 0),
                           10**4, members[0])
    assert not short.converged and short.final == members[1]
    by_events = run_simulation(learner_separator(members), fair_informant(members[0], 0),
                               10**5, members[0])
    by_items = run_simulation(learner_separator(members), iter(fair_informant(members[0], 0)),
                              10**5, members[0])
    assert by_events.converged and by_events.stage == 11_095
    assert by_events.summary() == by_items.summary()


# ---------------------------------------------------------------------------
# Settled learners stop reading a planned stream


def _assert_settled_run_matches_items(make, stream, horizon, target):
    """`run_simulation` on a planned stream, which stops reading once the
    learner is settled, against the same items as a plain iterator, read to
    the horizon: equal traces and summaries.  Returns the learner of the
    planned run, the plain run's result and how many items the planned run
    read."""
    settled, by_items = make(), make()
    planned = stream()
    read = [0]

    def counted(items):
        for read[0], item in enumerate(items, 1):
            yield item

    plan = planned.plan
    assert plan is not None
    planned = Stream(planned.kind, planned.character, counted(iter(planned)), plan)
    got = run_simulation(settled, planned, horizon, target, "iso", 200)
    want = run_simulation(by_items, iter(stream()), horizon, target, "iso", 200)
    assert (got.trace.changes, got.trace.length, got.summary()) == \
        (want.trace.changes, want.trace.length, want.summary())
    return settled, want, read[0]


def _first_commitment(result) -> int:
    """The stage of the trace's first actual conjecture, else its horizon."""
    return next((s for s, c in result.trace.changes if c is not None), result.horizon)


@pytest.mark.parametrize("members, target", [
    pytest.param(SEPARABLE_CORPUS[name], target, id=f"{name}[{index}]")
    for name in ANTICHAIN_FAMILIES for index, target in enumerate(SEPARABLE_CORPUS[name])])
def test_a_one_shot_run_ends_its_reading_at_its_commitment(members, target):
    """Every anti-chain member, 20 stream seeds, the fair informant and every
    reordered one: the planned run equals the item-by-item run, and its
    decoder stops at the firing stage, not at the horizon."""
    for seed in range(20):
        streams = [partial(fair_informant, target, seed)] + [
            partial(reordered_informant, target, seed, strategy) for strategy in REORDER_STRATEGIES]
        for stream in streams:
            learner, want, read = _assert_settled_run_matches_items(
                partial(learner_one_shot, members), stream, 4000, target)
            fired = _first_commitment(want)
            assert learner._state.stage == fired == read, (seed, stream)
            assert want.converged


@pytest.mark.parametrize("target", [*EXAMPLE1, ONE_INF, TWO_INF, FIVE_OMEGA, census(0, {2: 3})],
                         ids=str)
def test_constant_and_split_learners_end_their_reading_once_settled(target):
    for seed in range(20):
        for mode, stream in ((INFORMANT, fair_informant), (TEXT, fair_text)):
            _, _, read = _assert_settled_run_matches_items(
                partial(learner_constant, FIVE_OMEGA, mode), partial(stream, target, seed),
                3000, target)
            assert read == 0
        learner, want, read = _assert_settled_run_matches_items(
            learner_split_on_negative, partial(fair_informant, target, seed), 3000, target)
        assert read == (want.trace.mind_changes_ex or [3000])[0]
        assert learner.settled == (read < 3000)


# ---------------------------------------------------------------------------
# Recomputes that read only what the decoder moved


def _recompute_pairs(family, mode=INFORMANT):
    """The min-embed and separator learners on `family`, each with its
    from-scratch reference, reading `mode`: the separator only where every
    member's classes are finite."""
    kinds = [(MinEmbedLearner, ScratchMinEmbedLearner)]
    if all(m.count(math.inf) == 0 for m in family):
        kinds.append((SeparatorLearner, ScratchSeparatorLearner))
    pairs = [(make(family, enforce=False), ref(family, enforce=False)) for make, ref in kinds]
    if mode == TEXT:
        pairs = [(learner_from_text(a), learner_from_text(b)) for a, b in pairs]
    return pairs


def _assert_recomputes_agree(learner, reference, where):
    """Equal conjectures, chosen hosts and minimal host lists."""
    got, want = learner.conjecture(), reference.conjecture()
    assert conjectures_equal(got, want), (learner.name, where, got, want)
    assert learner._cached_index == reference._cached_index, (learner.name, where)
    assert learner._minimal == reference._minimal_hosts(), (learner.name, where)


def _assert_runs_agree(learner, reference, stops, stride=1):
    """Step both learners through `stops`, pairs of equal stages, comparing
    them at every `stride`-th stop (so events pile up between two
    recomputes) and at the end."""
    for k, (got, want) in enumerate(stops):
        assert got == want
        if k % stride == 0:
            _assert_recomputes_agree(learner, reference, got)
    _assert_recomputes_agree(learner, reference, "end")


_RECOMPUTE_FAMILIES = {**SEPARABLE_CORPUS, **BOUND_FAMILIES}


@st.composite
def recompute_runs(draw):
    """A family, corpus or ``BOUND_FAMILIES``, a census to present, one of
    its members or any census (whose blocks pass the memo's bounds), a
    stream seed and a horizon."""
    family = _RECOMPUTE_FAMILIES[draw(st.sampled_from(sorted(_RECOMPUTE_FAMILIES)))]
    target = draw(st.one_of(st.sampled_from(family), _ANY_CENSUS))
    return family, target, draw(st.integers(0, 2**16)), draw(st.integers(1, 1500))


@settings(max_examples=100, deadline=None)
@given(recompute_runs(), st.sampled_from(("fair", "text", *REORDER_STRATEGIES)),
       st.integers(1, 60), st.integers(1, 4))
def test_running_recomputes_match_the_scratch_ones_on_the_event_path(run, kind, window, stride):
    """``run_plan`` on fair and reordered informants and, through
    ``learner_from_text``, on fair texts."""
    family, target, seed, horizon = run
    if kind == "fair":
        stream = partial(fair_informant, target, seed)
    elif kind == "text":
        stream = partial(fair_text, target, seed)
    else:
        stream = partial(reordered_informant, target, seed, kind, window)
    for learner, reference in _recompute_pairs(family, TEXT if kind == "text" else INFORMANT):
        _assert_recomputes_agree(learner, reference, 0)
        stops = zip(learner.run_plan(stream(), horizon), reference.run_plan(stream(), horizon))
        _assert_runs_agree(learner, reference, stops, stride)


@settings(max_examples=80, deadline=None)
@given(prefixes_past_the_bounds(), st.integers(1, 4))
@example((EXAMPLE1, _blocks({8: 1, 6: 3})), 1)
# a singleton joins the 3-block at stage 12: the finite member's two
# singletons host the prefix only if the size the singleton left is read
@example((BOUND_FAMILIES["default"],
          list(islice(fair_informant(BOUND_FAMILIES["default"][1], 1), 12))), 1)
def test_running_recomputes_match_the_scratch_ones_item_by_item(case, stride):
    family, items = case
    for learner, reference in _recompute_pairs(family):
        stops = zip(run_stages(learner, iter(items)), run_stages(reference, iter(items)))
        _assert_runs_agree(learner, reference, stops, stride)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_RECOMPUTE_FAMILIES)), st.integers(1, 16), st.data())
def test_running_recomputes_match_the_scratch_ones_over_diagonalizer_stages(name, n, data):
    """``consume_stage``, whose stages decode many events between two
    recomputes."""
    family = _RECOMPUTE_FAMILIES[name]
    cls = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    marks = sorted({*data.draw(st.lists(st.integers(1, n), max_size=4)), n})
    for learner, reference in _recompute_pairs(family):
        old_n = 0
        for n in marks:
            learner.consume_stage(cls, old_n, n)
            reference.consume_stage(cls, old_n, n)
            old_n = n
            _assert_recomputes_agree(learner, reference, n)


@settings(max_examples=80, deadline=None)
@given(recompute_runs(), st.integers(0, 5))
# the clone's blocks realize separators that the original has not
@example((SEPARABLE_CORPUS["kron3"], kron_slice(1)[0], 0, 1), 0)
def test_a_clone_taken_mid_run_recomputes_like_a_scratch_learner(run, pick):
    """A learner runs its planned stream to a horizon and is cloned; the
    clone then reads a fair informant of a member on fresh elements and the
    original the rest of its own stream, each against a reference that ran
    the same."""
    family, target, seed, cut = run
    other = family[pick % len(family)]
    tails = (
        [(x + 10**6, y + 10**6, label) for x, y, label in islice(fair_informant(other, seed), 300)],
        list(islice(fair_informant(target, seed), cut, cut + 300)),
    )
    for original, reference in _recompute_pairs(family):
        for _ in original.run_plan(fair_informant(target, seed), cut):
            original.conjecture()
        dup = original.clone()
        for learner, tail in zip((dup, original), tails):
            fresh = type(reference)(family, enforce=False)
            for _ in fresh.run_plan(fair_informant(target, seed), cut):
                pass
            stops = zip(run_stages(learner, iter(tail)), run_stages(fresh, iter(tail)))
            _assert_runs_agree(learner, fresh, stops)
