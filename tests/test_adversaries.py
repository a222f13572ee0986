import math
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from limitlearn import (
    PAUSE,
    REORDER_STRATEGIES,
    TEXT,
    ConsistencyError,
    FamilyError,
    Learner,
    Prefix,
    PrefixState,
    conjectures_equal,
    diagonalize,
    embeds,
    fair_informant,
    fair_text,
    finitely_separable,
    informant_prefix,
    learner_constant,
    learner_echo,
    learner_from_text,
    learner_min_embed,
    learner_one_shot,
    learner_separator,
    learner_split_on_negative,
    limit_adversary,
    locking_transform,
    profile_le,
    profile_of,
    reordered_informant,
    run_simulation,
    text_adversary,
    weak_locking_search,
)
from limitlearn import learners
from limitlearn.adversaries import _EXHAUSTED, LockingNormalForm, _TargetBuilder, _TextBuilder
from limitlearn.bridge import LanguageToStructLearner, size_sequence_of
from limitlearn.learners import EchoLearner, run_stages
from limitlearn.presentations import _new_pairs

from families import (
    C56,
    C57,
    EXAMPLE1,
    FIVE_OMEGA,
    FIVE_OMEGA_TWO,
    NONSEPARABLE,
    ONE_INF,
    TWO_INF,
    census,
)
from oracles import (
    CodeWalkTargetBuilder,
    CodeWalkTextBuilder,
    ItemKeyedLockingNormalForm,
    brute_fin_embeds,
    full_labeling_extension,
    materialized_diagonalize,
    per_item_diagonalize,
    per_item_limit_adversary,
    per_item_two_class_phase,
    rescan_spawn_sizes,
)
from test_clone import ANTICHAIN, CHAIN
from test_presentations import stage_items, staged_classes

OM = "omega"


def informant_roster():
    fam = list(NONSEPARABLE)
    return [
        learner_constant(FIVE_OMEGA),
        learner_constant(FIVE_OMEGA_TWO),
        learner_min_embed(fam, enforce=False),
        learner_separator(fam, enforce=False),
        learner_split_on_negative(),
        learner_echo(),
    ]


# ---------------------------------------------------------------------------
# The limit adversary


def test_limit_adversary_requires_a_limit():
    with pytest.raises(FamilyError):
        limit_adversary(learner_constant(C56), C56, list(EXAMPLE1))


def test_limit_adversary_on_constant_limit_guesser():
    adv = limit_adversary(learner_constant(FIVE_OMEGA), FIVE_OMEGA, list(NONSEPARABLE))
    report = adv.run(6000)
    # the stream retreats to the witness immediately and presents it forever
    assert report.phase_switches and report.phase_switches[0][0] == 0
    assert report.final_target == FIVE_OMEGA_TWO
    assert report.consistent
    assert report.defeated()
    # the emitted prefix decodes into the witness census
    state = PrefixState("informant")
    state.feed_all(report.items)
    assert embeds(state.char(), FIVE_OMEGA_TWO)
    assert state.size_counts.get(2, 0) >= 1  # the two-class was actually shown


def test_limit_adversary_lets_a_decoder_defect_surface(monkeypatch):
    # only an inconsistent item counts against the stream; any other error
    # from the decoder that checks it is a defect and must not read as
    # `consistent: false`
    def broken(self, items):
        raise TypeError("decoder defect")

    monkeypatch.setattr(PrefixState, "advance", broken)
    adv = limit_adversary(learner_constant(FIVE_OMEGA), FIVE_OMEGA, list(NONSEPARABLE))
    with pytest.raises(TypeError, match="decoder defect"):
        adv.run(50)


def test_limit_adversary_dichotomy_over_roster():
    for learner in informant_roster():
        report = limit_adversary(learner, FIVE_OMEGA, list(NONSEPARABLE)).run(6000)
        assert report.consistent, learner.name
        assert report.defeated(), (learner.name, report.mind_changes, report.final_target)


_RANDOM_MEMBERS = st.builds(
    census, st.integers(0, 2),
    st.dictionaries(st.integers(1, 6), st.one_of(st.integers(0, 3), st.just(OM)), max_size=3),
).filter(lambda char: not char.is_empty)


@seed(1)
@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(_RANDOM_MEMBERS, min_size=2, max_size=3, unique=True))
def test_the_infex_dichotomy_holds_on_random_families(members):
    # exactly one half holds, and `finitely_separable` says which: the
    # separator learner converges on every member of a separable family, and
    # the limit adversary built from the counterexample defeats the roster
    verdict = finitely_separable(members)
    if verdict.separable:
        for target in members:
            res = run_simulation(learner_separator(members), fair_informant(target, 0),
                                 10_000, target, "iso", 200)
            assert res.converged, (members, target, res.final)
        return
    limit, witness = verdict.counterexample
    roster = [learner_constant(limit), learner_constant(witness),
              learner_min_embed(members, enforce=False),
              learner_separator(members, enforce=False),
              learner_split_on_negative(), learner_echo()]
    for learner in roster:
        report = limit_adversary(learner, limit, members).run(10_000)
        assert report.consistent, (members, learner.name)
        assert report.defeated(), (members, learner.name, report.mind_changes)


class FaceValue(Learner):
    """Takes transient two-blocks at face value; consumes one item per run."""

    mode = "informant"
    name = "face-value"
    _owned = ("_st",)

    def __init__(self):
        self._st = PrefixState("informant")

    def reset(self):
        self._st = PrefixState("informant")

    def consume(self, item):
        self._st.feed(item)

    def conjecture(self):
        return FIVE_OMEGA_TWO if self._st.size_counts.get(2, 0) else FIVE_OMEGA


def test_limit_adversary_forces_oscillation():
    """A learner that takes transient two-blocks at face value is driven to
    arbitrarily many phase switches."""
    report = limit_adversary(FaceValue(), FIVE_OMEGA, list(NONSEPARABLE)).run(8000)
    assert report.consistent
    assert len(report.phase_switches) >= 10
    assert report.mind_changes >= 5
    assert report.defeated()


class Scripted(Learner):
    """Conjectures nothing for stages 0-2, the limit 5:omega at stage 3 and
    its witness from stage 4 on, which it never leaves: from there it
    consumes everything in one ``advance`` run, so the adversary's switches
    fall inside that run."""

    mode = "informant"
    name = "scripted"

    def __init__(self):
        self.reset()

    def reset(self):
        self._stage = 0

    def advance(self, items):
        fed = sum(1 for _ in (items if self._stage >= 4 else islice(items, 1)))
        self._stage += fed
        return fed

    def conjecture(self):
        if self._stage < 3:
            return None
        return FIVE_OMEGA if self._stage == 3 else FIVE_OMEGA_TWO


def limit_roster():
    return [*informant_roster(), FaceValue(), Scripted(),
            locking_transform(learner_separator(list(NONSEPARABLE), False))]


def assert_limit_adversary_matches_the_per_item_reference(horizon):
    # conjectures read at the end of each `advance` run, one diagonal at a
    # time, against one `feed` and one comparison per item
    for learner, reference in zip(limit_roster(), limit_roster()):
        got = limit_adversary(learner, FIVE_OMEGA, list(NONSEPARABLE)).run(horizon)
        want = per_item_limit_adversary(
            limit_adversary(reference, FIVE_OMEGA, list(NONSEPARABLE)), horizon)
        assert got.items == want.items, learner.name
        assert got.trace.changes == want.trace.changes, learner.name
        assert got.trace.length == want.trace.length == horizon + 1, learner.name
        assert got.phase_switches == want.phase_switches, learner.name
        assert got.final_target == want.final_target, learner.name
        assert got.consistent == want.consistent, learner.name


@pytest.mark.parametrize("horizon", [0, 1, 7, 500])
def test_limit_adversary_matches_the_per_item_reference(horizon):
    assert_limit_adversary_matches_the_per_item_reference(horizon)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 3000))
def test_limit_adversary_matches_the_per_item_reference_at_drawn_horizons(horizon):
    # a horizon may end inside a diagonal, a one-item cut or a learner's run
    assert_limit_adversary_matches_the_per_item_reference(horizon)


def test_the_limit_adversary_hands_a_constant_learner_a_diagonal_per_run(monkeypatch):
    # 10^4 items fill 141 diagonals, and the constant learner reads each in
    # one run: the switch at step 0 cuts diagonal 0, which has one item
    calls = Counter()
    advance = learners.ConstantLearner.advance

    def counted(learner, items):
        calls["advance"] += 1
        return advance(learner, items)

    monkeypatch.setattr(learners.ConstantLearner, "advance", counted)
    for guess in (FIVE_OMEGA, FIVE_OMEGA_TWO):
        calls.clear()
        report = limit_adversary(learner_constant(guess), FIVE_OMEGA, list(NONSEPARABLE)).run(10_000)
        assert len(report.items) == 10_000 and report.consistent
        assert calls["advance"] < 200, (guess, calls)


def test_limit_adversary_rechecks_the_conjecture_after_a_switch_inside_a_run():
    # the scripted learner conjectures the witness when the stream retreats to
    # it in the middle of a run, so the adversary turns back at the next item
    report = limit_adversary(Scripted(), FIVE_OMEGA, list(NONSEPARABLE)).run(500)
    assert report.phase_switches == [(11, str(FIVE_OMEGA_TWO)), (12, str(FIVE_OMEGA))]


def test_target_builder_retarget_plans_only_classes_the_census_has():
    builder = _TargetBuilder(census(1))
    for _ in range(300):
        builder.next_item()
    builder.finishing = True
    while not builder.clean:
        builder.next_item()
    target = census(1, {3: 2})
    builder.retarget(target, freeze=True)
    for _ in range(600):
        builder.next_item()
    for size, planned in Counter(builder.slot_target).items():
        assert planned <= target.count(size), (size, planned)


def test_target_builder_from_blocks_plans_only_classes_the_census_has():
    # the completion a locking search walks from a start prefix with one 2-block
    builder = _TargetBuilder(census(1, {1: 0}), [[0, 1]])
    for _ in range(400):
        builder.next_item()
    assert builder.slot_target.count(2) == 1


@pytest.mark.parametrize("blocks", [(), ([0, 1],), ([3],)])
def test_target_builder_on_a_finite_census_labels_every_pair_then_is_exhausted(blocks):
    target = census(0, {2: 1, 3: 1})
    builder = _TargetBuilder(target, blocks)
    items = []
    while (item := builder.next_item()) is not _EXHAUSTED:
        items.append(item)
        assert len(items) <= 100
    assert builder.next_item() is _EXHAUSTED
    universe = sorted(builder.slot_of)
    assert sorted((x, y) for x, y, _ in items) == [(x, y) for x in universe for y in universe]
    state = PrefixState("informant")
    state.feed_all(items)
    assert state.char() == target


@st.composite
def _fit_cases(draw):
    """A census of default 0-2, up to three exceptions (omega allowed) and 0-2
    or omega infinite classes, and the block sizes of a start prefix."""
    count = st.one_of(st.integers(0, 3), st.just(OM))
    target = census(
        draw(st.integers(0, 2)),
        draw(st.dictionaries(st.integers(1, 6), count, max_size=3)),
        draw(st.one_of(st.integers(0, 2), st.just(OM))),
    )
    return target, draw(st.lists(st.integers(1, 9), max_size=8))


@settings(max_examples=400, deadline=None)
@given(_fit_cases())
@example((census(1), [3] * 5))  # more blocks of one size than the listed window holds
@example((census(1, {}, 1), [3, 3, 3]))  # the third block goes to the infinite class
def test_target_builder_fits_exactly_the_blocks_the_census_profile_admits(case):
    target, sizes = case
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    blocks = [list(range(a, a + size)) for a, size in zip(starts, sizes)]
    fits = profile_le(profile_of(Counter(sizes)), target.cumulative_profile)
    try:
        builder = _TargetBuilder(target, blocks)
    except FamilyError:
        assert not fits
        return
    assert fits
    for members, planned in zip(builder.slot_members, builder.slot_target):
        assert planned is None or planned >= len(members), (members, planned)
    for size, planned in Counter(builder.slot_target).items():
        assert planned <= target.count(math.inf if size is None else size), (size, planned)


@settings(max_examples=300, deadline=None)
@given(_fit_cases())
@example((census(1, {2: 1, 3: OM}, 1), [2, 2, 1, 1]))  # a block planned on a pattern size
def test_target_builder_spawns_what_a_rescan_of_the_demand_spawns(case):
    # one spawn iterator, its finite demands and pattern sizes filtered when
    # drawn, against rescanning the demand on every draw: `_fit` sets `used`
    # after the plan, and `used` only grows until the next one
    target, sizes = case
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    try:
        builder = _TargetBuilder(target, [list(range(a, a + n)) for a, n in zip(starts, sizes)])
    except FamilyError:
        return
    want = rescan_spawn_sizes(target, builder.used, 40)
    assert list(islice(iter(builder._next_spawn_target, _EXHAUSTED), 40)) == want


@settings(max_examples=300, deadline=None)
@given(_fit_cases().map(lambda case: case[0]))
def test_target_builder_spawns_the_bridge_slot_layout(target):
    # one slot plan: from an empty start the builder spawns the census's
    # size sequence (omega as math.inf), exhausted where it turns to 0
    layout, builder = size_sequence_of(target), _TargetBuilder(target)
    for i in range(60):
        size = builder._next_spawn_target()
        if layout.at(i) == 0:
            assert size is _EXHAUSTED, (i, size)
        else:
            assert (math.inf if size is None else size) == layout.at(i), i


def test_target_builder_spreads_elements_over_two_infinite_classes():
    builder = _TargetBuilder(TWO_INF)
    state = PrefixState("informant")
    state.feed_all(builder.next_item() for _ in range(2000))  # raises on an inconsistent item
    sizes = [state.block_size(r) for r in state.block_roots()]
    assert len(sizes) == 2 and abs(sizes[0] - sizes[1]) <= 1, sizes


def test_target_builder_refuses_to_finish_a_clean_builder():
    # `finishing` set with no slot open would leave the next element unplaced
    # for good; the builder raises at that element, before the rest of the
    # placed elements' square
    builder = _TargetBuilder(census(1))
    for _ in range(300):
        builder.next_item()
    builder.finishing = True
    while not builder.clean:
        builder.next_item()
    placed = len(builder.slot_of)
    assert sorted(builder.slot_of) == list(range(placed))
    with pytest.raises(FamilyError, match="made no progress"):
        for _ in range(placed + 1):  # at most the rest of the current diagonal
            builder.next_item()


def _outcome(call, *args):
    """What a builder call returns, or the error it raises, for comparing two
    builders."""
    try:
        return call(*args)
    except FamilyError as exc:
        return ("FamilyError", str(exc))


def _sparse_blocks(elements: int, blocks: int):
    """Up to `blocks` disjoint blocks over 0 .. elements - 1, gaps allowed."""
    return st.lists(st.tuples(st.integers(0, elements - 1), st.integers(0, blocks - 1)),
                    unique_by=lambda pair: pair[0], max_size=6).map(
        lambda pairs: [sorted(x for x, b in pairs if b == i)
                       for i in range(blocks) if any(b == i for _, b in pairs)])


_COUNT = st.one_of(st.integers(0, 2), st.just(OM))
_SIZES = st.dictionaries(st.integers(1, 4), _COUNT, max_size=2)
_BUILDER_CENSUSES = st.builds(census, st.sampled_from([0, 0, 1, 2]), _SIZES,
                              st.sampled_from([0, 0, 1, 2]))
# what the limit adversary retargets to: censuses with infinitely many
# elements (a nonzero default, else an omega-counted size)
_INFINITE_CENSUSES = st.builds(
    lambda default, sizes, size, omega: census(default, sizes if default else {**sizes, size: OM},
                                               omega),
    st.integers(0, 2), _SIZES, st.integers(1, 4), st.sampled_from([0, 0, 1]))


def _blocks_state(blocks) -> PrefixState:
    state = PrefixState("informant")
    state.feed_all((b[0], x, 1) for b in blocks for x in b)
    return state


@settings(max_examples=120, deadline=None)
@given(_BUILDER_CENSUSES, _sparse_blocks(8, 3), st.integers(1, 4), st.data())
@example(census(0, {2: 1, 3: 1}), [[3]], 3, None)
@example(census(1), [[1], [4, 5]], 2, None)
@example(census(0, {1: 1, 2: 1}), [[1], [4, 5]], 2, None)  # element 0 is never placed
def test_target_builder_walk_matches_the_code_walk(target, blocks, width, data):
    # the diagonal walk against the walk over Cantor codes it replaced:
    # items, cursor and candidates at every step, under the limit adversary's
    # switch rule (retargets only from censuses with infinitely many elements)
    builders = [_outcome(cls, target, blocks) for cls in (_TargetBuilder, CodeWalkTargetBuilder)]
    if not isinstance(builders[0], _TargetBuilder):
        assert builders[0] == builders[1]
        return
    got, want = builders
    state = _blocks_state(blocks)
    pending = False
    switching = data is not None and not target.total_size_finite
    for step in range(250):
        if pending and got.clean:
            assert want.clean
            freeze = data.draw(st.booleans())
            if freeze:  # a witness: the current classes and more
                extra = data.draw(_SIZES)
                new = census(data.draw(st.integers(1, 2)),
                             {**extra, **Counter(map(len, got.slot_members))})
            else:
                new = data.draw(_INFINITE_CENSUSES)
            outcomes = [_outcome(b.retarget, new, freeze) for b in (got, want)]
            assert outcomes[0] == outcomes[1]
            if outcomes[0] is not None:
                return
            pending = False
        got.finishing = want.finishing = pending
        item = got.next_item()
        assert item == want.next_item(), step
        if item is _EXHAUSTED:
            assert target.total_size_finite
            return
        assert got.cursor == want.cursor, step
        state.feed(item)
        assert got.candidates(state, width) == want.candidates(state, width), step
        if switching and not pending:
            pending = data.draw(st.booleans())


@st.composite
def _informant_starts(draw):
    """A consistent informant prefix over up to six elements: each element
    drawn a class, and drawn pairs labeled by whether their classes agree."""
    classes = draw(st.lists(st.integers(0, 3), max_size=6))
    pairs = st.tuples(st.integers(0, len(classes) - 1), st.integers(0, len(classes) - 1))
    drawn = draw(st.lists(pairs, max_size=12)) if classes else []
    return [(x, y, int(classes[x] == classes[y])) for x, y in drawn]


@settings(max_examples=100, deadline=None)
@given(_fit_cases().map(lambda case: case[0]), _informant_starts())
# merges that do not fit, from an empty start and from a start with two blocks
@example(census(0, {2: OM}), [])
@example(census(0, {1: 1}, 2), [])
@example(census(0, {2: 3}), [(0, 0, 1), (1, 0, 0)])
def test_target_builder_offers_a_merge_exactly_when_the_merged_census_fits(target, start):
    # for each look-ahead pair split across slots whose blocks the prefix
    # leaves distinct and open, the merged label is a candidate exactly when
    # the census with those two blocks merged finitely embeds in the target,
    # along the first 60 items of the completion
    state = PrefixState("informant")
    state.feed_all(start)
    try:
        builder = _TargetBuilder(target, state.blocks())
    except FamilyError:
        return
    fits: dict = {}
    for _ in range(60):
        width = 2 * (max(builder.slot_of, default=-1) + 1) ** 2 + 2  # the whole look-ahead
        cands = builder.candidates(state, width)
        assert len(cands) < width
        for x, y in dict.fromkeys((x, y) for x, y, _ in cands):
            rx, ry = state.find(x), state.find(y)
            if builder.slot_of[x] == builder.slot_of[y] or rx == ry or state.separated(rx, ry):
                continue
            sizes = Counter(state.block_size(r) for r in state.block_roots() if r not in (rx, ry))
            sizes[state.block_size(rx) + state.block_size(ry)] += 1
            merged = tuple(sorted(sizes.items()))
            if merged not in fits:
                fits[merged] = brute_fin_embeds(census(0, merged), target)
            assert ((x, y, 1) in cands) == fits[merged], (x, y, merged)
        item = builder.next_item()
        if item is _EXHAUSTED:
            return
        state.feed(item)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), _sparse_blocks(8, 4), st.integers(1, 5))
@example(2, [[3]], 4)
@example(3, [[1], [4, 5]], 3)
def test_text_builder_walk_matches_the_code_walk(k, blocks, width):
    target = census(0, {}, k)
    got, want = _TextBuilder(target, blocks), CodeWalkTextBuilder(target, blocks)
    for step in range(200):
        assert got.next_item() == want.next_item(), step
        assert got.cursor == want.cursor, step
        assert got.candidates(None, width) == want.candidates(None, width), step


def test_target_builder_candidates_reach_a_sparse_start():
    # the look-ahead walks to the last pair of the placed square, however far
    # the start's elements lie apart: a bound on the codes walked found only
    # (0, 0) here, 180,600 codes short of (300, 300)
    state = PrefixState("informant")
    state.feed_all([(0, 0, 1), (300, 300, 1), (0, 300, 0)])
    builder = _TargetBuilder(census(0, {1: OM}), state.blocks())
    assert builder.candidates(state, 8) == [(0, 0, 1), (300, 0, 0), (0, 300, 0), (300, 300, 1)]


def test_text_builder_candidates_reach_a_sparse_start():
    state = PrefixState("text")
    state.feed_all([(0, 0), (300, 300)])
    builder = _TextBuilder(ONE_INF, state.blocks())
    assert builder.candidates(state, 8) == [PAUSE, (301, 301), (0, 0), (300, 0), (0, 300),
                                            (300, 300)]


# ---------------------------------------------------------------------------
# The diagonalizer


def test_diagonalizer_constant_learner_never_expands():
    report = diagonalize(learner_constant(FIVE_OMEGA), 2, 300)
    assert report.expansionary_stages == []
    assert report.ok
    # no expansion: one side is all singletons, the other has the lone pair
    assert report.sigma_char.count(2) == 0
    assert report.tau_char.count(2) == 1
    assert report.sigma_char != report.tau_char


def test_diagonalizer_echo_expands_every_stage():
    report = diagonalize(learner_echo(), 2, 120)
    assert len(report.expansionary_stages) == 120
    assert report.ok
    assert report.sigma_char.count(2) == 240
    assert report.tau_char.count(2) == 361


def test_diagonalizer_echo_memory_follows_elements_not_block_pairs():
    # the echo learner decodes both full labelings; negative facts kept per
    # pair of blocks peaked at 10.7 MiB here, per-block bitmasks at 0.43 MiB
    tracemalloc.start()
    try:
        report = diagonalize(learner_echo(), 2, 60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.ok
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


def test_diagonalizer_discriminating_family_single_expansion():
    fam = [census(0, {1: OM}), census(0, {2: 1, 1: OM})]
    report = diagonalize(learner_separator(fam), 2, 300)
    assert len(report.expansionary_stages) == 1
    assert report.ok


def test_diagonalizer_prefixes_are_consistent():
    report = diagonalize(learner_echo(), 3, 40)
    for prefix in (report.sigma_prefix, report.tau_prefix):
        state = PrefixState("informant")
        state.feed_all(prefix.items)  # raises on inconsistency
    assert report.nu_marks[0] >= 1
    assert len(report.nu_marks) == len(report.expansionary_stages) + 1


def test_diagonalizer_rejects_small_class_size():
    with pytest.raises(ValueError):
        diagonalize(learner_constant(FIVE_OMEGA), 1, 10)


def test_diagonalizer_rejects_negative_horizon():
    # zero stages too: every check would hold vacuously
    for stages in (-1, 0):
        with pytest.raises(ValueError):
            diagonalize(learner_constant(FIVE_OMEGA), 2, stages)


class BlocksModThree(Learner):
    """Conjectures the number of blocks of one size, mod 3.  Against the
    diagonalizer's blocks of that size (2k on σ, 1 + 3k on τ after k
    expansions) it forces two expansions, after which σ's conjecture has
    changed and τ's has not."""

    mode = "informant"
    name = "blocks-mod-3"
    _owned = ("_st",)

    def __init__(self, size):
        self.size = size
        self.reset()

    def reset(self):
        self._st = PrefixState("informant")

    def consume(self, item):
        self._st.feed(item)

    def conjecture(self):
        return census(0, {1: self._st.size_counts.get(self.size, 0) % 3 + 1})


def diagonalizer_roster(class_size):
    """Criterion 7's roster, plus a learner whose σ and τ snapshots differ."""
    return [
        learner_constant(FIVE_OMEGA),
        learner_split_on_negative(),
        learner_one_shot(list(EXAMPLE1)),
        learner_separator([census(0, {1: OM}), census(0, {2: 1, 1: OM})]),
        learner_echo(),
        BlocksModThree(class_size),
    ]


@pytest.mark.parametrize("class_size", [2, 3, 4])
def test_diagonalizer_matches_materialized_reference(class_size):
    # 40 stages reach every roster learner's expansions at these class sizes
    roster = zip(diagonalizer_roster(class_size), diagonalizer_roster(class_size))
    for learner, reference in roster:
        got = diagonalize(learner, class_size, 40)
        want = materialized_diagonalize(reference, class_size, 40)
        for side in ("sigma_prefix", "tau_prefix"):
            assert tuple(getattr(got, side).items) == getattr(want, side).items, learner.name
            assert len(getattr(got, side)) == len(getattr(want, side))
        assert got.nu_marks == want.nu_marks
        assert got.to_json() == want.to_json()


class ItemsModThree(Learner):
    """Conjectures how many items it consumed, mod 3: the two sides see the
    same number of pairs, so any item a side misses or sees twice shows."""

    mode = "informant"
    name = "items-mod-3"

    def __init__(self):
        self.reset()

    def reset(self):
        self._count = 0

    def consume(self, item):
        self._count += 1

    def conjecture(self):
        return census(0, {1: self._count % 3 + 1})


def per_item_roster():
    """One learner of each class the diagonalizer drives.  The second
    one-shot learner's witnesses are a 3-block and two 2-blocks, so it
    decodes to the next revision while every block is a singleton and
    consumes one item at a time once a 2-block is decoded.  The third's
    witness is one singleton, so a stage that adds one element to an empty
    prefix fires it with no room to spare in the bound its stages check."""
    chain = [census(0, {1: OM}), census(0, {2: 1, 1: OM}), census(0, {3: 1, 1: OM})]
    return [
        learner_constant(FIVE_OMEGA),
        learner_split_on_negative(),
        learner_one_shot(list(EXAMPLE1)),
        learner_one_shot([census(0, {3: 1, 1: OM}), census(0, {2: 2, 1: OM})]),
        learner_one_shot([FIVE_OMEGA]),
        learner_min_embed(chain),
        learner_separator(chain),
        learner_echo(),
        ItemsModThree(),
    ]


@pytest.mark.parametrize("class_size", [2, 3, 7, 8])
def test_diagonalizer_matches_the_per_item_reference(class_size):
    # whole stages against one `consume` per item; at class sizes 7 and 8
    # example1's one-shot learner fires inside a stage, on the item that
    # completes a 7-block, so only it runs there
    def roster():
        return per_item_roster() if class_size < 7 else [learner_one_shot(list(EXAMPLE1))]

    for learner, reference in zip(roster(), roster()):
        got = diagonalize(learner, class_size, 80)
        want = per_item_diagonalize(reference, class_size, 80)
        assert got.to_json() == want.to_json(), learner.name
        assert (got.expansionary_stages, got.nu_marks) == (want.expansionary_stages, want.nu_marks)
        for side in ("sigma_prefix", "tau_prefix"):
            got_items, want_items = getattr(got, side).items, getattr(want, side).items
            assert len(got_items) == len(want_items), (learner.name, side)
            assert all(a == b for a, b in zip(got_items, want_items, strict=True)), \
                (learner.name, side)


@settings(max_examples=100, deadline=None)
@given(staged_classes())
@example(([0, 0], [1, 2]))  # a first stage of one element
def test_a_whole_stage_leaves_the_conjecture_its_items_do(case):
    # `consume_stage` against `consume_all` over the stage's labeled pairs
    cls, marks = case
    for learner, reference in zip(per_item_roster(), per_item_roster()):
        old_n = 0
        for n in marks:
            learner.consume_stage(cls, old_n, n)
            reference.consume_all(stage_items(cls, old_n, n))
            assert conjectures_equal(learner.conjecture(), reference.conjecture()), \
                (learner.name, old_n, n)
            old_n = n


def test_the_stage_learners_decode_no_item(monkeypatch):
    # the constant, split and decoding learners take a diagonalizer stage
    # whole: a fallback to labeling its pairs would reach either method
    def refuse(self, items):
        raise AssertionError("a diagonalizer stage was decoded item by item")

    monkeypatch.setattr(PrefixState, "advance", refuse)
    monkeypatch.setattr(Learner, "consume_all", refuse)
    tails = [census(0, {1: OM}), census(0, {2: 1, 1: OM})]
    # example1's one-shot learner never fires at class size 2
    roster = [learner_constant(FIVE_OMEGA), learner_split_on_negative(), learner_echo(),
              learner_separator(tails), learner_one_shot(list(EXAMPLE1))]
    for learner in roster:
        assert diagonalize(learner, 2, 60).ok, learner.name


def test_diagonalizer_stages_cost_their_new_elements(monkeypatch):
    # per-stage work in the elements already decoded would be writing out
    # every block's negatives or labeling the stage's pairs: both raise here
    def refuse(*args):
        raise AssertionError("a diagonalizer stage did work over its old elements")

    monkeypatch.setattr(PrefixState, "_write_apart", refuse)
    monkeypatch.setattr(learners, "stage_items", refuse)
    tails = [census(0, {1: OM}), census(0, {2: 1, 1: OM})]
    for learner in (learner_echo(), learner_one_shot(list(EXAMPLE1)), learner_separator(tails)):
        assert diagonalize(learner, 2, 400).ok, learner.name


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda new: st.tuples(st.integers(0, new), st.just(new))))
def test_new_pairs_are_the_new_square_in_cantor_order(bounds):
    old_n, new_n = bounds
    reference = full_labeling_extension(old_n, new_n, lambda x, y: False)
    assert list(_new_pairs(old_n, new_n)) == [(x, y) for x, y, _ in reference]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 400), st.integers(1, 8))
@example(400, 8)
def test_new_pairs_match_the_new_square_at_diagonalizer_stage_shapes(old_n, k):
    # a diagonalizer stage adds one element, or 3 * class_size + 1, to
    # hundreds: the walk's first and last diagonals and the order within
    # each are checked at those sizes
    reference = full_labeling_extension(old_n, old_n + k, lambda x, y: False)
    assert list(_new_pairs(old_n, old_n + k)) == [(x, y) for x, y, _ in reference]


def test_new_pairs_stay_lazy():
    # a stage's pairs are walked, never held: the first of four million comes
    # without building the rest
    tracemalloc.start()
    try:
        first = next(iter(_new_pairs(10**6, 10**6 + 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == (10**6, 0)
    assert peak < 2**16, f"peak {peak} bytes"


@pytest.mark.parametrize("learner", [learner_echo(), learner_split_on_negative()])
def test_diagonalizer_prefixes_replay(learner):
    report = diagonalize(learner, 2, 6)
    for prefix in (report.sigma_prefix, report.tau_prefix):
        items = list(prefix.items)
        assert list(prefix.items) == items
        assert len(prefix) == len(items)
        assert [prefix.items[i] for i in range(len(items))] == items
        assert prefix.items[-1] == items[-1]
        with pytest.raises(IndexError):
            prefix.items[len(items)]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_diagonalizer_prefixes_slice_like_tuples(data):
    report = diagonalize(learner_echo(), 2, 3)
    for prefix in (report.sigma_prefix, report.tau_prefix):
        items = tuple(prefix.items)
        s = data.draw(st.slices(len(items) + 3))
        assert prefix.items[s] == items[s]
    assert report.sigma_prefix.items[0:3] == ((0, 0, 1), (1, 0, 0), (0, 1, 0))


# ---------------------------------------------------------------------------
# Weak locking search


def test_locking_search_constant_learner_candidate():
    res = weak_locking_search(
        learner_constant(FIVE_OMEGA), FIVE_OMEGA, informant_prefix(), depth=30, width=6
    )
    assert res.kind == "candidate"
    assert res.sigma.items == ()


def test_locking_search_finds_split_violator():
    res = weak_locking_search(
        learner_split_on_negative(), TWO_INF, informant_prefix(), depth=50, width=8
    )
    assert res.kind == "violator"
    assert res.tau is not None
    # the violating extension is consistent
    PrefixState("informant").feed_all(res.tau.items)


def test_locking_search_candidate_for_converged_separator_learner():
    lrn = learner_separator(list(EXAMPLE1))
    items = []
    it = iter(fair_informant(C57, 0))
    for _ in range(600):
        items.append(next(it))
    res = weak_locking_search(lrn, C57, informant_prefix(items), depth=50, width=8)
    assert res.kind == "candidate"


@pytest.mark.parametrize("start", [(), ((0, 1, 1),)])
def test_locking_search_toward_a_finite_census_stops_when_every_fact_is_given(start):
    target = census(0, {2: 1, 3: 1})
    res = weak_locking_search(learner_constant(target), target, informant_prefix(start), depth=200)
    assert res.kind == "candidate"
    # the echo learner names the census it has seen, so it moves on the spine
    res = weak_locking_search(learner_echo(), target, informant_prefix(start), depth=200)
    assert res.kind == "violator"
    PrefixState("informant").feed_all(res.tau.items)


@pytest.mark.parametrize("target", [
    census(0, {3: 1}, 2),  # a finite class besides the infinite ones
    census(1, {}, 1),  # a nonzero default
    census(0, {}, OM),  # infinitely many infinite classes
    census(0, {}, 0),  # no class at all
])
def test_text_locking_search_refuses_a_census_it_does_not_complete_toward(target):
    # a text completion presents only its finitely many infinite classes
    with pytest.raises(FamilyError, match="completes only toward"):
        weak_locking_search(learner_constant(target, mode="text"), target, Prefix(TEXT, ()))


def test_locking_search_completes_more_blocks_of_one_size_than_the_census_lists():
    # under a nonzero default every size has classes, so five 3-blocks fit [*:1]
    start = informant_prefix([(x, y, 1) for b in range(5)
                              for x in range(3 * b, 3 * b + 3) for y in range(3 * b, 3 * b + 3)])
    target = census(1)
    res = weak_locking_search(learner_constant(target), target, start, depth=20)
    assert res.kind == "candidate" and res.sigma == start


def test_locking_search_rejects_bad_start():
    bad = informant_prefix([(i, j, 1) for i in range(8) for j in range(8)])
    with pytest.raises(FamilyError):
        weak_locking_search(learner_constant(C56), C56, bad)


# ---------------------------------------------------------------------------
# Locking normal form


def test_locking_transform_constant_is_identity():
    wrapped = locking_transform(learner_constant(FIVE_OMEGA))
    assert wrapped.conjecture() == FIVE_OMEGA
    it = iter(fair_informant(FIVE_OMEGA, 0))
    for _ in range(200):
        wrapped.feed(next(it))
    assert wrapped.conjecture() == FIVE_OMEGA
    assert len(wrapped.distilled()) == 0


@pytest.mark.parametrize("target,seed", [(C56, 0), (C57, 2), (C57, 7)])
def test_locking_transform_preserves_final_conjectures(target, seed):
    base_res = run_simulation(
        learner_separator(list(EXAMPLE1)), fair_informant(target, seed), 5000, target, "iso", 200
    )
    wrapped = locking_transform(learner_separator(list(EXAMPLE1)))
    wrapped_res = run_simulation(wrapped, fair_informant(target, seed), 5000, target, "iso", 200)
    assert base_res.converged and wrapped_res.converged
    assert conjectures_equal(base_res.final, wrapped_res.final)


def test_locking_transform_distilled_prefix_stabilizes():
    wrapped = locking_transform(learner_separator(list(EXAMPLE1)))
    it = iter(fair_informant(C57, 3))
    sizes = []
    for _ in range(3000):
        wrapped.feed(next(it))
        sizes.append(len(wrapped.distilled()))
    assert sizes[-1] == sizes[-500], "distilled prefix still growing at the horizon"


@pytest.mark.parametrize("fed, refused, index", [
    ([(0, 1, 1)], (0, 1, 0), 1),
    ([(0, 1, 1), (2, 3, 1), (0, 2, 0)], (0, 3, 1), 3),
])
def test_the_locking_normal_form_reports_a_refused_item_at_its_own_index(fed, refused, index):
    # the shadow learner counts sigma's items before the history's, and
    # reported items 2 and 5
    wrapped = locking_transform(learner_echo())
    for item in fed:
        wrapped.feed(item)
    with pytest.raises(ConsistencyError, match=f"^item {index}: pair") as err:
        wrapped.feed(refused)
    assert err.value.index == index


@pytest.mark.parametrize("refused", [(0, 1, 0), (5, 5, 0)])
def test_an_item_the_locking_normal_form_refuses_leaves_no_trace(refused):
    # the refused item once stayed in the history, so the next mind change
    # replayed it and raised on a consistent item
    wrapped, clean = locking_transform(learner_echo()), locking_transform(learner_echo())
    wrapped.feed((0, 1, 1))
    clean.feed((0, 1, 1))
    with pytest.raises(ConsistencyError):
        wrapped.feed(refused)
    for item in [(0, 0, 1), (2, 3, 1), (3, 4, 1), (0, 4, 0)]:
        assert conjectures_equal(wrapped.feed(item), clean.feed(item)), item
        assert wrapped.distilled() == clean.distilled(), item


LOCKING_ROSTER = {
    "constant": lambda: learner_constant(FIVE_OMEGA),
    "split": learner_split_on_negative,
    "one-shot": lambda: learner_one_shot(ANTICHAIN),
    "echo": learner_echo,
    "min-embed": lambda: learner_min_embed(CHAIN),
    "separator": lambda: learner_separator(CHAIN),
    "lang-decode": lambda: LanguageToStructLearner(CHAIN),
    "txt-echo": lambda: learner_from_text(learner_echo()),
    "txt-split": lambda: learner_from_text(learner_split_on_negative()),
    "txt-separator": lambda: learner_from_text(learner_separator(CHAIN)),
    "two-blocks-of-3": lambda: TwoBigBlocks(3),
}
LOCKING_TARGETS = (*CHAIN, *ANTICHAIN, C57, TWO_INF, census(0, {2: 1, 3: 1}))


@st.composite
def locking_streams(draw, mode):
    """The first items of a fair, reordered or text stream of a census."""
    target, seed = draw(st.sampled_from(LOCKING_TARGETS)), draw(st.integers(0, 20))
    if mode == TEXT:
        stream = fair_text(target, seed)
    else:
        strategy = draw(st.sampled_from((None, *REORDER_STRATEGIES)))
        stream = (fair_informant(target, seed) if strategy is None
                  else reordered_informant(target, seed, strategy, window=200))
    return list(islice(stream, draw(st.integers(1, 300))))


@pytest.mark.parametrize("name", LOCKING_ROSTER)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_locking_normal_form_matches_the_item_keyed_reference(name, data):
    """Keying the memo of probes by ``probe_key`` changes nothing the wrapper
    shows: the conjecture, the distilled prefix and sigma agree at every
    stage with the wrapper that keys it by the item."""
    make = LOCKING_ROSTER[name]
    wrapped, reference = locking_transform(make()), ItemKeyedLockingNormalForm(make())
    for stage, item in enumerate(data.draw(locking_streams(wrapped.mode)), 1):
        got, want = wrapped.feed(item), reference.feed(item)
        assert conjectures_equal(got, want), (name, stage, got, want)
        assert wrapped.distilled() == reference.distilled(), (name, stage)
        assert wrapped._sigma == reference._sigma, (name, stage)


@pytest.mark.parametrize("name", LOCKING_ROSTER)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_locking_normal_form_in_runs_matches_the_item_keyed_reference(name, data):
    """Fed by ``advance`` runs, the wrapper shows at every stop what the
    item-keyed wrapper shows fed one item at a time."""
    make = LOCKING_ROSTER[name]
    wrapped, reference = locking_transform(make()), ItemKeyedLockingNormalForm(make())
    items = data.draw(locking_streams(wrapped.mode))
    fed = 0
    for stage in run_stages(wrapped, iter(items)):
        for item in items[fed:stage]:
            reference.consume(item)
        fed = stage
        assert conjectures_equal(wrapped.conjecture(), reference.conjecture()), (name, stage)
        assert wrapped.distilled() == reference.distilled(), (name, stage)
        assert wrapped._sigma == reference._sigma, (name, stage)
    assert fed == len(items)


@pytest.mark.parametrize("name", ["echo", "min-embed", "separator"])
def test_an_item_the_locking_normal_form_refuses_inside_a_run(name):
    # after `head` the items of `known` are of kinds already probed and move
    # no block, so one `advance` call reads them and the refused item with them
    make = LOCKING_ROSTER[name]
    head = [(0, 0, 1), (1, 1, 1), (0, 1, 0), (0, 2, 1)]
    known, refused = [(2, 1, 0), (0, 0, 1), (2, 2, 1)], (1, 2, 1)
    wrapped, clean = locking_transform(make()), locking_transform(make())
    wrapped.consume_all(head)
    for item in head + known:
        clean.consume(item)
    index = len(head) + len(known)
    with pytest.raises(ConsistencyError, match=f"^item {index}: pair") as err:
        wrapped.advance(iter([*known, refused, (3, 3, 1)]))
    assert err.value.index == index
    assert conjectures_equal(wrapped.conjecture(), clean.conjecture())
    assert wrapped._history == clean._history == head + known
    assert wrapped.distilled() == clean.distilled()
    for item in [(3, 3, 1), (0, 3, 0), (3, 4, 1), (1, 3, 1)]:
        assert conjectures_equal(wrapped.feed(item), clean.feed(item)), item
        assert wrapped.distilled() == clean.distilled(), item


class TwoWhileOneBlock(EchoLearner):
    """Conjectures two infinite classes while the prefix decodes to exactly
    one block, one before and after: a kind of item that leaves it alone at
    one distilled prefix can move it at the next."""

    def _recompute(self):
        self._cached = TWO_INF if len(self._state.block_roots()) == 1 else ONE_INF


def test_the_memo_of_probes_starts_over_when_sigma_moves():
    # two new blocks leave the empty prefix's conjecture alone, but they move
    # the conjecture once (0, 0, 1) has made one block
    items = [(5, 6, 0), (0, 0, 1), (7, 8, 0)]
    wrapped = locking_transform(TwoWhileOneBlock())
    reference = ItemKeyedLockingNormalForm(TwoWhileOneBlock())
    for item in items:
        assert conjectures_equal(wrapped.feed(item), reference.feed(item)), item
        assert wrapped.distilled() == reference.distilled(), item
    assert wrapped.distilled().items == ((0, 0, 1), (5, 6, 0))


def test_a_run_of_the_locking_normal_form_stops_at_a_new_kind_of_item():
    # (1, 1, 1) moves no block of the shadow, which would read on; alone at
    # the empty distilled prefix it makes one block, and the conjecture two
    # classes, so the run stops there and probes it
    wrapped = locking_transform(TwoWhileOneBlock())
    stops = list(run_stages(wrapped, iter([(1, 0, 0), (1, 1, 1), (1, 0, 0)])))
    assert stops == [1, 2, 3]
    assert wrapped.distilled().items == ((1, 1, 1), (1, 0, 0))
    assert conjectures_equal(wrapped.conjecture(), ONE_INF)


def test_the_locking_normal_form_probes_each_kind_of_item_once(monkeypatch):
    # a fair informant never repeats an item: keyed by the item, the memo of
    # probes missed on every one of them, about 5,100 clones in all
    clones = Counter()
    clone = Learner.clone

    def counted(learner):
        clones[type(learner).__name__] += 1
        return clone(learner)

    monkeypatch.setattr(Learner, "clone", counted)
    wrapped = locking_transform(learner_separator(list(EXAMPLE1)))
    wrapped.consume_all(islice(fair_informant(C57, 18), 5000))
    assert conjectures_equal(wrapped.conjecture(), C57)
    assert sum(clones.values()) < 100, clones


class CountingLearner(Learner):
    """Conjectures a drawn function of how many items it has read:
    ``values[n]`` after n items, and past the list ``values[n % len]`` when
    it cycles, its last entry when not.  It refuses to read past ``CAP``
    items, so a locking drain that does not return fails, not hangs."""

    CAP = 5000

    def __init__(self, values, cycles: bool):
        self.values, self.cycles = tuple(values), cycles
        self.name = f"counting{'-cycle' if cycles else ''}"
        self.reset()

    def reset(self):
        self.read = 0

    def consume(self, item):
        self.read += 1
        assert self.read <= self.CAP, "a locking drain that does not return"

    def conjecture(self):
        n, values = self.read, self.values
        if n < len(values):
            return values[n]
        return values[n % len(values)] if self.cycles else values[-1]


PARITY = CountingLearner((ONE_INF, TWO_INF), cycles=True)
# two of one conjecture, then another: a whole-history move appends the
# whole history, so a bound on moves alone lets sigma reach 14,640 items
# on 240
PERIOD3 = CountingLearner((ONE_INF, ONE_INF, TWO_INF), cycles=True)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from((None, ONE_INF, TWO_INF)), min_size=1, max_size=8),
       st.booleans(),
       st.lists(st.sampled_from([(0, 0, 1), (0, 1, 0), (1, 2, 1), (3, 3, 1)]), min_size=1,
                max_size=40))
@example(PARITY.values, PARITY.cycles, [(0, 0, 1)] * 40)
@example(PARITY.values, PARITY.cycles, [(0, 0, 1), (0, 1, 0)] * 20)
@example(PERIOD3.values, PERIOD3.cycles, [(0, 0, 1)] * 240)
def test_the_locking_normal_form_returns_on_a_learner_that_flips_on_every_item(
        values, cycles, items):
    """Sigma stays at most twice as long as the items read, so every
    ``advance`` returns, even where each item flips the wrapped learner; the
    wrapper in runs matches the item-keyed reference, which has the same
    bound, at every stop; and where the drawn function settles, the wrapper
    ends on the base learner's final conjecture."""
    wrapped = LockingNormalForm(CountingLearner(values, cycles))
    reference = ItemKeyedLockingNormalForm(CountingLearner(values, cycles))
    base = CountingLearner(values, cycles)
    fed = 0
    for stage in run_stages(wrapped, iter(items)):
        assert len(wrapped._sigma) <= 2 * stage == 2 * len(wrapped._history)
        for item in items[fed:stage]:
            reference.consume(item)
            base.consume(item)
        fed = stage
        assert conjectures_equal(wrapped.conjecture(), reference.conjecture()), stage
        assert wrapped._sigma == reference._sigma, stage
    assert fed == len(items)
    settled = not cycles or len(set(values)) == 1
    if settled and len(items) >= len(values):
        assert conjectures_equal(wrapped.conjecture(), base.conjecture())


# ---------------------------------------------------------------------------
# The text adversary


def test_text_adversary_defeats_constants():
    rep = text_adversary(learner_constant(ONE_INF, mode="text"))
    assert rep.verdict == "defeated"
    rep = text_adversary(learner_constant(TWO_INF, mode="text"))
    assert rep.verdict == "defeated"
    assert "incorrect" in rep.reason


def test_text_adversary_on_wrapped_learners():
    for base in (learner_split_on_negative(), learner_echo()):
        rep = text_adversary(learner_from_text(base))
        assert rep.verdict in ("defeated", "undecided"), (base.name, rep.reason)


class TwoBigBlocks(EchoLearner):
    """Conjectures two infinite classes once two blocks reach `size`, one
    before, so it can lock on the single-class structure and leave the lock
    in the two-class phase."""

    mode = TEXT

    def __init__(self, size):
        self.size = size
        self.name = f"two-blocks-of-{size}"
        super().__init__()

    def _recompute(self):
        state = self._state
        big = sum(state.block_size(r) >= self.size for r in state.block_roots())
        self._cached = TWO_INF if big >= 2 else ONE_INF


@pytest.mark.parametrize("horizon", [20, 600])
def test_text_adversary_matches_the_per_item_reference(horizon):
    # the second phase in `advance` runs against one `feed` per item
    roster = [learner_constant(ONE_INF, mode="text"), *map(TwoBigBlocks, (2, 3, 4))]
    verdicts = []
    for learner in roster:
        rep = text_adversary(learner, horizon=horizon)
        assert rep.locked_conjecture == ONE_INF, learner.name
        moved = per_item_two_class_phase(learner, rep.sigma, horizon)
        assert rep.phase2_stages == (horizon if moved is None else moved), learner.name
        assert rep.verdict == ("defeated" if moved is None else "undecided"), learner.name
        verdicts.append(rep.verdict)
    # the two-blocks learners leave the lock after 12, 23 and 38 items
    assert set(verdicts) == {"defeated", "undecided"}


@pytest.mark.parametrize("horizon", [0, -1])
def test_text_adversary_needs_a_two_class_item(horizon):
    with pytest.raises(ValueError):
        text_adversary(learner_constant(ONE_INF, mode="text"), horizon=horizon)


def test_text_adversary_rejects_informant_learners():
    with pytest.raises(FamilyError):
        text_adversary(learner_split_on_negative())
