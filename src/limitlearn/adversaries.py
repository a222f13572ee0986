"""Constructive refutations: adaptive streams that defeat learners.

The limit adversary alternates between presenting a limit structure and the
witnesses that imitate it, switching whenever the learner catches up.  The
diagonalizer grows two almost-identical structures and expands them each time
the learner tells them apart.  The locking machinery searches for prefixes no
consistent extension can dislodge, and rewrites learners into that normal
form.  All searches are bounded and say so in their verdicts.
"""
from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import cycle, islice
from typing import Optional

from .learners import Learner, Trace, conjectures_equal, run_stages
from .presentations import (
    INFORMANT,
    PATTERN,
    PAUSE,
    TEXT,
    ConsistencyError,
    Prefix,
    PrefixState,
    _new_pairs,
    pattern_sizes,
    slot_demand,
)
from .separability import FamilyError, imitates
from .structures import (
    OMEGA,
    ZERO,
    Character,
    char_subset,
    pair_code,
    profile_le,
    profile_of,
    unpair_code,
)

_EXHAUSTED = object()


def _pairs_ahead(cursor: int, out: list, n: int, known: int, keep) -> list:
    """`out` extended to n items by the pairs of the Cantor walk from `cursor`
    that `keep` accepts; the walk gives up after 40 * (n + 1) * (known + 4)
    codes, `known` being the number of elements already placed."""
    for code in range(cursor, cursor + 40 * (n + 1) * (known + 4)):
        if len(out) >= n:
            break
        x, y = unpair_code(code)
        if keep(x, y):
            out.append((x, y))
    return out


# ---------------------------------------------------------------------------
# A retargetable presentation builder (informant mode)


class _TargetBuilder:
    """Emits informant items in Cantor pair order while steering the resulting
    structure toward a target census.

    Elements are assigned to class slots as the pair walk reaches them; labels
    are read off the slot assignment, which never changes retroactively, so
    every emitted prefix stays consistent.  Retargeting maps the existing
    slots into the new census's demand; with ``freeze`` the slots keep their
    exact current sizes (they must fit the new census), otherwise they may be
    planned to grow.  Slots planned as infinite classes have target None and
    absorb elements round-robin forever.

    A pair whose new element finds no slot is skipped for good: element k
    first appears as (k, 0), and placement fails only once a census with
    finitely many elements has all of them placed (``finishing`` is set only
    while a slot is open).
    """

    def __init__(self, target: Character, blocks: Sequence[Sequence[int]] = ()):
        if target.default.is_omega:
            raise FamilyError("builder does not support censuses with an infinite default")
        self.slot_members: list[list[int]] = []
        self.slot_target: list[Optional[int]] = []
        self.slot_of: dict[int, int] = {}
        self.used: Counter = Counter()  # planned slots per size, None for infinite
        self.cursor = 0
        self.finishing = False
        self._inf_rot = 0
        self._plan(target)
        if blocks:
            order = sorted(((len(b), i) for i, b in enumerate(blocks)), reverse=True)
            self.slot_members = [sorted(blocks[i]) for _, i in order]
            self.slot_target = self._match_sizes([s for s, _ in order])
            for idx, members in enumerate(self.slot_members):
                for x in members:
                    self.slot_of[x] = idx

    # -- demand bookkeeping ----------------------------------------------

    def _plan(self, target: Character) -> None:
        """Read the census's slot demand and restart its sources."""
        self.target = target
        self._finite, self._sources = slot_demand(target)
        self._pattern = pattern_sizes(target)
        self._rot = 0

    def _avail(self, size: Optional[int]) -> bool:
        return self.used[size] < self.target.count(OMEGA if size is None else size)

    def _match_sizes(self, sizes_desc: list[int]) -> list[Optional[int]]:
        """Plan a target size >= each block size, smallest available first;
        blocks that no finite class can host go to infinite classes."""
        self.used = Counter()
        planned: list[Optional[int]] = []
        limit = max([*self.target.sizes_of_interest, *sizes_desc, 1]) + 1
        for size in sizes_desc:
            k = next((k for k in range(size, limit + 1) if self._avail(k)), None)
            if k is None and not self._avail(None):
                raise FamilyError(f"existing classes do not fit the census {self.target}")
            self.used[k] += 1
            planned.append(k)
        return planned

    def _next_spawn_target(self):
        """The first open finite demand, else the next source in turn; the
        default pattern skips sizes that are already planned in full."""
        size = next((s for s in self._finite if self._avail(s)), _EXHAUSTED)
        if size is _EXHAUSTED:
            if not self._sources:
                return _EXHAUSTED
            size = self._sources[self._rot % len(self._sources)]
            self._rot += 1
            if size == PATTERN:
                size = next(s for s in self._pattern if self._avail(s))
        self.used[size] += 1
        return size

    # -- retargeting -------------------------------------------------------

    @property
    def clean(self) -> bool:
        return all(
            t is not None and len(m) == t
            for m, t in zip(self.slot_members, self.slot_target)
        )

    def census(self) -> Character:
        return Character.make(0, Counter(map(len, self.slot_members)), 0)

    def retarget(self, new_target: Character, freeze: bool) -> None:
        if not self.clean:
            raise FamilyError("retargeting requires all planned classes to be complete")
        self._plan(new_target)
        sizes = [len(m) for m in self.slot_members]
        if freeze:
            if not char_subset(self.census(), new_target):
                raise FamilyError(f"cannot freeze classes {self.census()} inside {new_target}")
            self.slot_target = list(sizes)
            self.used = Counter(sizes)
        else:
            order = sorted(range(len(sizes)), key=lambda i: -sizes[i])
            planned = self._match_sizes([sizes[i] for i in order])
            new_targets: list[Optional[int]] = [0] * len(sizes)
            for rank, i in enumerate(order):
                new_targets[i] = planned[rank]
            self.slot_target = new_targets
        self.finishing = False

    # -- emission -----------------------------------------------------------

    def _assign(self, e: int) -> bool:
        for idx, members in enumerate(self.slot_members):
            t = self.slot_target[idx]
            if t is not None and len(members) < t:
                members.append(e)
                self.slot_of[e] = idx
                return True
        if not self.finishing:
            tgt = self._next_spawn_target()
            if tgt is not _EXHAUSTED:
                self.slot_members.append([e])
                self.slot_target.append(tgt)
                self.slot_of[e] = len(self.slot_members) - 1
                return True
        infinite = [i for i, t in enumerate(self.slot_target) if t is None]
        if infinite:
            idx = infinite[self._inf_rot % len(infinite)]
            self._inf_rot += 1
            self.slot_members[idx].append(e)
            self.slot_of[e] = idx
            return True
        return False

    def _try_pair(self, x: int, y: int) -> bool:
        for e in dict.fromkeys((x, y)):
            if e not in self.slot_of and not self._assign(e):
                return False
        return True

    def next_item(self):
        """The next labeled pair of the walk, or ``_EXHAUSTED`` once a census
        with finitely many elements has every element placed and every pair
        among them emitted."""
        for _ in range(100000):
            x, y = unpair_code(self.cursor)
            self.cursor += 1
            if self._try_pair(x, y):
                return self._label(x, y)
            if self._complete():
                return _EXHAUSTED
        raise FamilyError("builder made no progress; retarget before emitting")

    def _complete(self) -> bool:
        target = self.target
        if not target.total_size_finite or len(self.slot_of) < target.finite_universe_size():
            return False
        last = max(self.slot_of, default=-1)
        return self.cursor > pair_code(last, last)

    def _label(self, x: int, y: int) -> tuple[int, int, int]:
        return (x, y, 1 if self.slot_of[x] == self.slot_of[y] else 0)

    def upcoming_pairs(self, n: int) -> list[tuple[int, int]]:
        """The next pairs of the walk among already-assigned elements."""
        slot_of = self.slot_of
        return _pairs_ahead(self.cursor, [], n, len(slot_of),
                            lambda x, y: x in slot_of and y in slot_of)


# ---------------------------------------------------------------------------
# The limit adversary


@dataclass
class AdversaryReport:
    trace: Trace
    items: list
    phase_switches: list[tuple[int, str]]
    final_target: Character
    consistent: bool

    @property
    def mind_changes(self) -> int:
        return len(self.trace.mind_changes_ex)

    def defeated(self, threshold: int = 5) -> bool:
        """The dichotomy forced on the learner: it either changed its mind at
        least `threshold` times or its final conjecture misses the structure
        the stream is presenting."""
        final = self.trace.final()
        wrong = final is None or final != self.final_target
        return self.mind_changes >= threshold or wrong

    def to_json(self) -> dict:
        final = self.trace.final()
        return {
            "phase_switches": len(self.phase_switches),
            "switch_stages": [s for s, _ in self.phase_switches],
            "mind_changes": self.mind_changes,
            "final_target": self.final_target.to_json(),
            "final_conjecture": None if final is None else final.to_json(),
            "consistent": self.consistent,
            "defeated": self.defeated(),
        }


class LimitAdversary:
    """Builds a presentation of a limit structure that retreats to imitating a
    witness whenever the learner names the current target.

    Witness phases never grow the classes already presented, so the partial
    classes always extend to the witness; with infinitely many switches the
    emitted stream presents the limit structure itself.
    """

    def __init__(self, learner: Learner, limit: Character, members: Sequence[Character]):
        if learner.mode != INFORMANT:
            raise FamilyError("the limit adversary drives informant learners")
        if limit.omega_count != ZERO or any(m.omega_count != ZERO for m in members):
            raise FamilyError("the limit adversary requires families without infinite classes")
        self.learner = learner
        self.limit = limit
        self.witnesses = [m for m in members if imitates(m, limit)]
        if not self.witnesses:
            raise FamilyError(f"{limit} is not a limit of the given family")

    def run(self, stages: int) -> AdversaryReport:
        """Emit `stages` items to the learner, which consumes them in
        ``advance`` runs; its conjecture is read at each run's end and holds
        before that, so a switch inside a run is judged by the last one read."""
        learner, limit = self.learner, self.limit
        learner.reset()
        builder = _TargetBuilder(limit)
        witnesses = cycle(self.witnesses)
        current = limit
        switches: list[tuple[int, str]] = []
        items = []
        last = first = learner.conjecture()
        pending = conjectures_equal(first, current)

        def emit():
            nonlocal current, pending
            for step in range(stages):
                switched = pending and builder.clean
                if switched:
                    current = next(witnesses) if current is limit else limit
                    builder.retarget(current, freeze=current is not limit)
                    switches.append((step, str(current)))
                    pending = False
                builder.finishing = pending
                item = builder.next_item()
                items.append(item)
                yield item
                if switched:
                    # the learner has consumed the switch item, after which it
                    # conjectures what was last read
                    pending = conjectures_equal(last, current)

        def points():
            nonlocal last, pending
            for stage in run_stages(learner, emit()):
                last = learner.conjecture()
                if conjectures_equal(last, current):
                    pending = True
                yield stage, last

        trace = Trace.fold(first, points())
        # the emitted prefix is consistent exactly when decoding it raises nothing
        try:
            PrefixState(INFORMANT).feed_all(items)
            consistent = True
        except ConsistencyError:
            consistent = False
        return AdversaryReport(trace, items, switches, current, consistent)


# ---------------------------------------------------------------------------
# The pairwise diagonalizer


@dataclass
class DiagonalizationReport:
    class_size: int
    stages: int
    expansionary_stages: list[int]
    sigma_prefix: Prefix
    tau_prefix: Prefix
    nu_marks: list[int]  # sigma item counts at stage 0 and the expansionary stages
    sigma_char: Character
    tau_char: Character
    e_counts_ok: bool
    singletons_ok: bool
    nu_mind_changes_ok: bool
    distinct_ok: bool

    @property
    def ok(self) -> bool:
        return (self.e_counts_ok and self.singletons_ok
                and self.nu_mind_changes_ok and self.distinct_ok)

    def to_json(self) -> dict:
        return {
            "class_size": self.class_size,
            "stages": self.stages,
            "expansionary_stages": self.expansionary_stages,
            "sigma_char": self.sigma_char.to_json(),
            "tau_char": self.tau_char.to_json(),
            "e_counts_ok": self.e_counts_ok,
            "singletons_ok": self.singletons_ok,
            "nu_mind_changes_ok": self.nu_mind_changes_ok,
            "distinct_ok": self.distinct_ok,
            "ok": self.ok,
        }


class _Labeling(Sequence):
    """The informant items one side of the diagonalizer emitted, replayed on
    demand: `cls[x]` is element x's class and `marks` the element count after
    each stage, and each stage labels the pairs it added in Cantor order.  A
    side keeps one int per element instead of one item per pair.
    """

    def __init__(self, cls: list[int], marks: list[int]):
        self._cls = cls
        self._marks = marks

    def __len__(self) -> int:
        return self._marks[-1] ** 2

    def __iter__(self):
        cls, old_n = self._cls, 0
        for n in self._marks:
            for x, y in _new_pairs(old_n, n):
                yield x, y, 1 if cls[x] == cls[y] else 0
            old_n = n

    def __getitem__(self, index: int):  # replays up to the item
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("labeling index out of range")
        return next(islice(self, index, None))


def _census_of(cls: list[int]) -> Character:
    return Character.make(0, Counter(Counter(cls).values()), 0)


_CHUNK = 512  # pairs labeled at a time, so a stage's items are never all held


def diagonalize(learner: Learner, class_size: int, stages: int) -> DiagonalizationReport:
    """Grow paired structures that differ by one class of the given size,
    expanding both every time the learner's conjectures tell them apart.

    One side starts as `class_size` singletons, the other as a single full
    class, so the two sides differ from stage 0 on.  Expansionary stages add
    two fresh classes to the first side and the same two plus one more to the
    second (plus singleton padding); other stages add one shared singleton.
    The report checks the claims that hold on either branch: exact class
    counts per expansionary stage, singleton growth, and a mind change between
    consecutive expansionary snapshots of the first side's presentation.  It
    runs at least one stage: with none, every check would hold vacuously.
    """
    e = class_size
    if e < 2:
        raise ValueError("class size must be >= 2")
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if learner.mode != INFORMANT:
        raise FamilyError("the diagonalizer drives informant learners")
    learner.reset()
    lrn_sigma = learner.clone()
    lrn_tau = learner.clone()
    sigma_class = list(range(e))
    tau_class = [0] * e
    next_class = e + 1
    marks: list[int] = []  # element count after each stage, stage 0 first

    def label_new_pairs(old_n: int):
        # each side's conjecture is read only after the stage, so each
        # chunk of the stage's pairs is labeled and fed to it as one run
        n = len(sigma_class)
        marks.append(n)
        pairs = _new_pairs(old_n, n)
        while chunk := list(islice(pairs, _CHUNK)):
            lrn_sigma.consume_all([(x, y, 1 if sigma_class[x] == sigma_class[y] else 0)
                                   for x, y in chunk])
            lrn_tau.consume_all([(x, y, 1 if tau_class[x] == tau_class[y] else 0)
                                 for x, y in chunk])
        return lrn_sigma.conjecture(), lrn_tau.conjecture()

    c_sigma, c_tau = label_new_pairs(0)
    expansionary: list[int] = []
    nu_conjectures = []  # sigma's conjectures after the expansionary stages
    for stage_no in range(1, stages + 1):
        # a stage that did not expand saw agreeing conjectures, so the sides
        # were told apart since the last expansion iff they are apart now
        expand = not conjectures_equal(c_sigma, c_tau)
        if expand:
            expansionary.append(stage_no)
            shared = [next_class] * e + [next_class + 1] * e
            sigma_class += shared + list(range(next_class + 3, next_class + 3 + e))
            tau_class += shared + [next_class + 2] * e
            next_class += 3 + e
        sigma_class.append(next_class)
        tau_class.append(next_class + 1)
        next_class += 2
        c_sigma, c_tau = label_new_pairs(marks[-1])
        if expand:
            nu_conjectures.append(c_sigma)

    m = len(expansionary)
    case2 = stages - m
    sigma_char = _census_of(sigma_class)
    tau_char = _census_of(tau_class)
    e_counts_ok = sigma_char.count(e) == 2 * m and tau_char.count(e) == 1 + 3 * m
    singletons_ok = (
        sigma_char.count(1) == e + m * (e + 1) + case2
        and tau_char.count(1) == m + case2
    )
    nu_ok = all(
        not conjectures_equal(a, b) for a, b in zip(nu_conjectures, nu_conjectures[1:])
    )
    distinct_ok = sigma_char != tau_char
    nu_marks = [marks[t] ** 2 for t in [0] + expansionary]
    return DiagonalizationReport(
        e, stages, expansionary,
        Prefix(INFORMANT, _Labeling(sigma_class, marks)),
        Prefix(INFORMANT, _Labeling(tau_class, marks)),
        nu_marks, sigma_char, tau_char,
        e_counts_ok, singletons_ok, nu_ok, distinct_ok,
    )


# ---------------------------------------------------------------------------
# Weak locking search


@dataclass
class LockingSearchResult:
    kind: str  # "candidate" | "violator"
    sigma: Prefix
    tau: Prefix | None
    depth: int
    width: int
    probes: int


class _TextBuilder:
    """Completes a text prefix toward a census of `omega_classes` infinite
    classes: existing components are distributed over the classes and every
    pair of the growing universe is visited in Cantor order."""

    def __init__(self, blocks: Sequence[Sequence[int]], omega_classes: int,
                 second_component_fresh: bool = False):
        self.k = omega_classes
        self.class_of: dict[int, int] = {}
        ordered = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
        for i, block in enumerate(ordered):
            cls = 0 if second_component_fresh else i % omega_classes
            for x in block:
                self.class_of[x] = cls
        self._fresh_rot = 1 if second_component_fresh else len(ordered)
        self.cursor = 0
        self._next_elem = max(self.class_of, default=-1) + 1

    def _ensure(self, e: int) -> None:
        while self._next_elem <= e:
            if self._next_elem not in self.class_of:
                self.class_of[self._next_elem] = self._fresh_rot % self.k
                self._fresh_rot += 1
            self._next_elem += 1
        if e not in self.class_of:
            self.class_of[e] = self._fresh_rot % self.k
            self._fresh_rot += 1

    def next_item(self):
        x, y = unpair_code(self.cursor)
        self.cursor += 1
        self._ensure(max(x, y))
        if self.class_of[x] == self.class_of[y]:
            return (x, y)
        return PAUSE

    def upcoming_positive_candidates(self, n: int) -> list:
        """Candidate single text items: a fresh self-pair plus upcoming
        positive pairs of the walk."""
        fresh, cls = self._next_elem, self.class_of
        return _pairs_ahead(self.cursor, [(fresh, fresh)], n, len(cls),
                            lambda x, y: x in cls and y in cls and cls[x] == cls[y])


def weak_locking_search(
    learner: Learner,
    target: Character,
    start: Prefix,
    depth: int = 50,
    width: int = 8,
) -> LockingSearchResult:
    """Semi-decide whether `start` locks the learner on the target census.

    Walks one canonical completion of `start` toward the target for `depth`
    items, or until it has given every fact of a target with finitely many
    elements, probing up to `width` single-item variations at every step.  Any
    conjecture differing from the one at `start` yields a violator pair;
    otherwise `start` is reported as a candidate locking sequence at these
    bounds.  Completability of informant prefixes is judged without merging
    existing blocks, which is conservative.  A text completion presents only
    infinite classes, so in text mode a target with a finite class, a nonzero
    default or infinitely many infinite classes is refused (``FamilyError``).
    """
    if learner.mode != start.kind:
        raise FamilyError("learner mode does not match the prefix kind")
    state = PrefixState(start.kind)
    state.feed_all(start.items)  # raises on inconsistency
    if start.kind == INFORMANT:
        if not profile_le(state.profile(), target.cumulative_profile):
            raise FamilyError("start prefix is not completable to the target census")
        builder = _TargetBuilder(target, state.blocks())
    else:
        k = target.count(OMEGA)
        if target.default != ZERO or target.exceptions or not 0 < k < math.inf:
            raise FamilyError("text locking search completes only toward finitely many "
                              "infinite classes and no finite ones")
        builder = _TextBuilder(state.blocks(), k)
    base = learner.clone()
    base.reset()
    base.consume_all(start.items)
    base_conj = base.conjecture()
    spine: list = []
    probes = 0

    def violator(extra) -> LockingSearchResult:
        tau = Prefix(start.kind, (*start.items, *spine, *extra))
        return LockingSearchResult("violator", start, tau, depth, width, probes)

    for _ in range(depth):
        for cand in _candidate_items(builder, state, target, width, start.kind):
            probes += 1
            probe = base.clone()
            probe.consume(cand)
            if not conjectures_equal(probe.conjecture(), base_conj):
                return violator([cand])
        # advance the spine by the first item new to the decoder (builders never contradict it)
        for _skip in range(100000):
            item = builder.next_item()
            if item is _EXHAUSTED:
                break
            rev = (state.struct_rev, state.neg_rev)
            state.feed(item)
            if (state.struct_rev, state.neg_rev) != rev:
                break
        if item is _EXHAUSTED:
            break  # a target with finitely many elements is fully labeled
        spine.append(item)
        base.consume(item)
        probes += 1
        if not conjectures_equal(base.conjecture(), base_conj):
            return violator([])
    return LockingSearchResult("candidate", start, None, depth, width, probes)


def _candidate_items(builder, state: PrefixState, target: Character, width: int, kind: str):
    if kind == TEXT:
        cands = [PAUSE]
        cands.extend(builder.upcoming_positive_candidates(max(1, width - 1)))
        return cands[:width]
    cands: list = []
    # every assigned element came with an emitted pair, which `state` was fed
    for x, y in builder.upcoming_pairs(width):
        same = builder.slot_of[x] == builder.slot_of[y]
        cands.append((x, y, 1 if same else 0))
        if len(cands) >= width:
            break
        rx, ry = state.find(x), state.find(y)
        if rx == ry or state.separated(rx, ry):
            continue
        if same:
            cands.append((x, y, 0))
        else:
            # merging the two blocks must still fit the census
            merged = state.size_counts
            for s in (state.block_size(rx), state.block_size(ry)):
                merged[s] -= 1
                if not merged[s]:
                    del merged[s]
            big = state.block_size(rx) + state.block_size(ry)
            merged[big] = merged.get(big, 0) + 1
            if profile_le(profile_of(merged), target.cumulative_profile):
                cands.append((x, y, 1))
    return cands[:width]


# ---------------------------------------------------------------------------
# Locking normal form


class LockingNormalForm(Learner):
    """Wraps a learner so that its conjecture only follows fragments of the
    history that actually caused mind changes.

    Keeps a distilled prefix: each incoming item is probed alone against the
    wrapped learner's state at the distilled prefix, and the full history is
    probed as one fragment, in that order; whichever flips the conjecture is
    appended.  After a change every remembered item is probed again.  The
    wrapper locks once nothing it remembers flips it.
    """

    _owned = ("_history", "_sigma", "_shadow", "_no_flip")

    def __init__(self, base: Learner):
        self._at_empty = base.clone()
        self._at_empty.reset()
        self.mode = base.mode
        self.name = f"locking-{base.name}"
        self.reset()

    def reset(self) -> None:
        self._history: list = []
        self._sigma: list = []
        self._at_sigma = self._at_empty  # never fed: probes clone it
        self._conj = self._at_sigma.conjecture()
        self._shadow = self._at_sigma.clone()  # state at sigma + full history
        self._no_flip: set = set()

    def _changed(self, new_at_sigma, appended: list) -> deque:
        """Move sigma and return the history's distinct items, in first-seen
        order, to be probed again."""
        self._sigma.extend(appended)
        self._at_sigma = new_at_sigma
        self._conj = new_at_sigma.conjecture()
        self._no_flip.clear()
        self._shadow = new_at_sigma.clone()
        self._shadow.consume_all(self._history)
        return deque(dict.fromkeys(self._history))

    def consume(self, item) -> None:
        self._history.append(item)
        self._shadow.consume(item)
        pending = deque() if item in self._no_flip else deque([item])
        progress = True
        while progress:
            progress = False
            while pending:
                it = pending.popleft()
                if it in self._no_flip:
                    continue
                probe = self._at_sigma.clone()
                probe.consume(it)
                if conjectures_equal(probe.conjecture(), self._conj):
                    self._no_flip.add(it)
                else:
                    pending = self._changed(probe, [it])
                    progress = True
                    break
            if not progress and not conjectures_equal(self._shadow.conjecture(), self._conj):
                pending = self._changed(self._shadow, list(self._history))
                progress = True

    def conjecture(self):
        return self._conj

    def distilled(self) -> Prefix:
        return Prefix(self.mode, tuple(self._sigma))


# ---------------------------------------------------------------------------
# The text adversary


ONE_CLASS = Character.make(0, {}, 1)


@dataclass
class TextAdversaryReport:
    verdict: str  # "defeated" | "undecided"
    reason: str
    restarts: int
    sigma: Prefix | None
    locked_conjecture: Optional[Character]
    phase2_stages: int = 0

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "restarts": self.restarts,
            "sigma_length": None if self.sigma is None else len(self.sigma),
            "locked_conjecture": None if self.locked_conjecture is None
            else self.locked_conjecture.to_json(),
            "phase2_stages": self.phase2_stages,
        }


def text_adversary(
    learner: Learner,
    depth: int = 40,
    width: int = 6,
    horizon: int = 2000,
    max_restarts: int = 25,
) -> TextAdversaryReport:
    """Defeat a text learner on the pair {one infinite class, two infinite classes}.

    Phase 1 hunts for a locking candidate on the single-class structure; phase
    2 extends it with a second connected component for `horizon` items (at
    least one: a verdict needs a two-class item).  A learner that never locks
    within bounds, locks on a wrong conjecture, or stays locked while the
    stream turns two-classed is defeated; anything else is undecided.
    """
    if learner.mode != TEXT:
        raise FamilyError("the text adversary drives text learners")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    sigma = Prefix(TEXT, ())
    restarts = 0
    result = weak_locking_search(learner, ONE_CLASS, sigma, depth, width)
    while result.kind == "violator" and restarts < max_restarts:
        sigma = result.tau
        restarts += 1
        result = weak_locking_search(learner, ONE_CLASS, sigma, depth, width)
    if result.kind == "violator":
        return TextAdversaryReport(
            "defeated",
            "no locking candidate on the single-class structure within bounds",
            restarts, sigma, None,
        )
    probe = learner.clone()
    probe.reset()
    probe.consume_all(sigma.items)
    locked = probe.conjecture()
    if locked is None or locked != ONE_CLASS:
        return TextAdversaryReport(
            "defeated",
            "locks on an incorrect conjecture for the single-class structure",
            restarts, sigma, locked,
        )
    state = PrefixState(TEXT)
    state.feed_all(sigma.items)
    builder = _TextBuilder(state.blocks(), 2, second_component_fresh=True)
    for stage in run_stages(probe, (builder.next_item() for _ in range(horizon))):
        if not conjectures_equal(probe.conjecture(), locked):
            return TextAdversaryReport(
                "undecided",
                "the learner moved off its locked conjecture during the two-class phase",
                restarts, sigma, locked, stage,
            )
    return TextAdversaryReport(
        "defeated",
        "stayed locked on the single-class conjecture while the stream presents two classes",
        restarts, sigma, locked, horizon,
    )
