import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitlearn import (
    TEXT,
    FamilyError,
    Learner,
    Prefix,
    PrefixState,
    conjectures_equal,
    diagonalize,
    embeds,
    fair_informant,
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
    run_simulation,
    text_adversary,
    weak_locking_search,
)
from limitlearn.adversaries import _EXHAUSTED, _TargetBuilder
from limitlearn.learners import EchoLearner
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
    full_labeling_extension,
    materialized_diagonalize,
    per_item_diagonalize,
    per_item_limit_adversary,
    per_item_two_class_phase,
)

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


@pytest.mark.parametrize("horizon", [0, 1, 7, 500])
def test_limit_adversary_matches_the_per_item_reference(horizon):
    # conjectures read at the end of each `advance` run against one `feed`
    # and one comparison per item
    roster = zip([*informant_roster(), FaceValue(), Scripted()],
                 [*informant_roster(), FaceValue(), Scripted()])
    for learner, reference in roster:
        got = limit_adversary(learner, FIVE_OMEGA, list(NONSEPARABLE)).run(horizon)
        want = per_item_limit_adversary(
            limit_adversary(reference, FIVE_OMEGA, list(NONSEPARABLE)), horizon)
        assert got.items == want.items, learner.name
        assert got.trace.changes == want.trace.changes, learner.name
        assert got.trace.length == want.trace.length == horizon + 1, learner.name
        assert got.phase_switches == want.phase_switches, learner.name
        assert got.final_target == want.final_target, learner.name
        assert got.consistent == want.consistent, learner.name


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


def test_target_builder_spreads_elements_over_two_infinite_classes():
    builder = _TargetBuilder(TWO_INF)
    state = PrefixState("informant")
    state.feed_all(builder.next_item() for _ in range(2000))  # raises on an inconsistent item
    sizes = [state.block_size(r) for r in state.block_roots()]
    assert len(sizes) == 2 and abs(sizes[0] - sizes[1]) <= 1, sizes


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
    consumes one item at a time once a 2-block is decoded."""
    chain = [census(0, {1: OM}), census(0, {2: 1, 1: OM}), census(0, {3: 1, 1: OM})]
    return [
        learner_constant(FIVE_OMEGA),
        learner_split_on_negative(),
        learner_one_shot(list(EXAMPLE1)),
        learner_one_shot([census(0, {3: 1, 1: OM}), census(0, {2: 2, 1: OM})]),
        learner_min_embed(chain),
        learner_separator(chain),
        learner_echo(),
        ItemsModThree(),
    ]


@pytest.mark.parametrize("class_size", [2, 3])
def test_diagonalizer_matches_the_per_item_reference(class_size):
    # chunked runs through `advance` against one `consume` per item
    for learner, reference in zip(per_item_roster(), per_item_roster()):
        got = diagonalize(learner, class_size, 80)
        want = per_item_diagonalize(reference, class_size, 80)
        assert got.to_json() == want.to_json(), learner.name
        assert (got.expansionary_stages, got.nu_marks) == (want.expansionary_stages, want.nu_marks)
        for side in ("sigma_prefix", "tau_prefix"):
            got_items, want_items = getattr(got, side).items, getattr(want, side).items
            assert len(got_items) == len(want_items), (learner.name, side)
            assert all(a == b for a, b in zip(got_items, want_items, strict=True)), \
                (learner.name, side)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(lambda new: st.tuples(st.integers(0, new), st.just(new))))
def test_new_pairs_are_the_new_square_in_cantor_order(bounds):
    old_n, new_n = bounds
    reference = full_labeling_extension(old_n, new_n, lambda x, y: False)
    assert list(_new_pairs(old_n, new_n)) == [(x, y) for x, y, _ in reference]


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
