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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, count, cycle, islice
from typing import Optional

from .learners import ONE_CLASS, TWO_CLASSES, Learner, Trace, conjectures_equal, run_stages
from .presentations import (
    INFORMANT,
    PAUSE,
    TEXT,
    ConsistencyError,
    Prefix,
    PrefixState,
    pattern_sizes,
    slot_demand,
    spawn_sizes,
    stage_items,
)
from .separability import FamilyError, imitates
from .structures import (
    ZERO,
    Character,
    char_subset,
    pair_code,
    profile_le,
    profile_of,
    unpair_code,
)

_EXHAUSTED = object()


def _pairs_ahead(cursor: int, out: list, n: int, top: int, keep) -> list:
    """`out` extended to n items by the pairs of the Cantor walk from `cursor`
    that `keep` accepts, `keep` accepting only pairs of elements up to `top`:
    the walk ends at (top, top), the last pair of their square."""
    for code in range(cursor, pair_code(top, top) + 1):
        if len(out) >= n:
            break
        x, y = unpair_code(code)
        if keep(x, y):
            out.append((x, y))
    return out


class _Walk:
    """A completion builder's walk over the Cantor diagonals, as fair streams
    walk them: element d, first seen as (d, 0), is placed (``_place``) on
    reaching diagonal d, and each pair (d - y, y) of placed elements is
    emitted as ``_label(x, y)``.  Once an element finds no place, which
    happens only when a census with finitely many elements has all of them
    placed, the walk ends with their square.  ``next_item`` reads the walk
    one item at a time, `cursor` being the code after the last one, and
    ``rows`` one diagonal at a time."""

    cursor = 0

    def next_item(self):
        """The next item of the walk, or ``_EXHAUSTED`` once it has ended."""
        return next(self._walk, _EXHAUSTED)

    def _diagonal(self, d: int) -> list[int] | None:
        """Place element d, then list the y of each pair (d - y, y) of
        diagonal d whose elements are both placed; None once the walk has
        ended."""
        placed = self.slot_of
        if d not in placed and not self._place(d) and d > 2 * max(placed, default=-1):
            return None
        return [y for y in range(d + 1) if d - y in placed and y in placed]

    def _items(self):
        for d in count():
            ys = self._diagonal(d)
            if ys is None:
                return
            for y in ys:
                self.cursor = d * (d + 1) // 2 + y + 1
                yield self._label(d - y, y)

    def rows(self):
        """The walk's items, one list per diagonal that has any; element d
        is placed by the time diagonal d's list is drawn."""
        label = self._label
        for d in count():
            ys = self._diagonal(d)
            if ys is None:
                return
            if ys:
                yield [label(d - y, y) for y in ys]


# ---------------------------------------------------------------------------
# A retargetable presentation builder (informant mode)


class _TargetBuilder(_Walk):
    """Emits informant items in Cantor pair order while steering the resulting
    structure toward a target census.

    Elements are assigned to class slots as the walk reaches them; labels
    are read off the slot assignment, which never changes retroactively, so
    every emitted prefix stays consistent.  Retargeting maps the existing
    slots into the new census's demand; with ``freeze`` the slots keep their
    exact current sizes (they must fit the new census), otherwise they may be
    planned to grow.  Slots planned as infinite classes have target None and
    absorb elements round-robin forever.

    ``finishing`` holds back new slots and is set only while a slot is open:
    set on a clean builder, the next placement raises ``FamilyError``.
    """

    def __init__(self, target: Character, blocks: Sequence[Sequence[int]] = ()):
        if target.default.is_omega:
            raise FamilyError("builder does not support censuses with an infinite default")
        self.slot_members: list[list[int]] = []
        self.slot_target: list[Optional[int]] = []
        self.slot_of: dict[int, int] = {}
        self.used: Counter = Counter()  # planned slots per size, None for infinite
        self.finishing = False
        self._inf_rot = 0
        self._plan(target)
        if blocks:
            order = sorted(((len(b), i) for i, b in enumerate(blocks)), reverse=True)
            self.slot_members = [sorted(blocks[i]) for _, i in order]
            self.slot_target = self._fit([s for s, _ in order])
            for idx, members in enumerate(self.slot_members):
                for x in members:
                    self.slot_of[x] = idx
        self._walk = self._items()

    # -- demand bookkeeping ----------------------------------------------

    def _plan(self, target: Character) -> None:
        """Read the census's slot demand and restart its spawn order, whose
        finite demands and pattern sizes are taken only if `_avail` when
        drawn: `used` only grows between plans, so a passed one never
        reopens."""
        self.target = target
        finite, sources = slot_demand(target)
        avail = self._avail
        self._spawns = spawn_sizes(filter(avail, finite), sources,
                                   filter(avail, pattern_sizes(target)))

    def _avail(self, size: Optional[int]) -> bool:
        return self.used[size] < self.target.count(math.inf if size is None else size)

    def _fit(self, sizes: list[int]) -> list[Optional[int]]:
        """Plan a class of the census for each block size, largest block
        first: the smallest available size >= the block's up to one past
        every listed size, else an infinite class, else (under a nonzero
        default, which has classes of every larger size) a larger size.
        The blocks' hosts are nested, so this fails exactly when the blocks'
        profile exceeds the census's (``FamilyError``)."""
        self.used = Counter()
        planned: list[Optional[int]] = [None] * len(sizes)
        limit = max([*self.target.sizes_of_interest, *sizes, 1]) + 1
        for i in sorted(range(len(sizes)), key=lambda i: -sizes[i]):
            beyond = count(limit + 1) if self.target.default != ZERO else ()
            hosts = chain(range(sizes[i], limit + 1), [None], beyond)
            k = next((k for k in hosts if self._avail(k)), _EXHAUSTED)
            if k is _EXHAUSTED:
                raise FamilyError(f"existing classes do not fit the census {self.target}")
            self.used[k] += 1
            planned[i] = k
        return planned

    def _next_spawn_target(self):
        """The size of the next slot to spawn, planned, or ``_EXHAUSTED``."""
        size = next(self._spawns, _EXHAUSTED)
        if size is not _EXHAUSTED:
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
            self.slot_target = self._fit(sizes)
        self.finishing = False

    # -- emission -----------------------------------------------------------

    def _place(self, e: int) -> bool:
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
        if self.finishing:
            raise FamilyError("builder made no progress; retarget before emitting")
        return False

    def _label(self, x: int, y: int) -> tuple[int, int, int]:
        return (x, y, 1 if self.slot_of[x] == self.slot_of[y] else 0)

    def candidates(self, state: PrefixState, width: int) -> list:
        """Up to `width` single items a locking search probes: the next pairs
        of the walk among placed elements, each as labeled here and, when
        `state` (the decoded prefix so far) leaves the pair open, with the
        other label if the census still fits it."""
        slot_of = self.slot_of
        cands: list = []
        # every placed element came with an emitted pair, which `state` was fed
        for x, y in _pairs_ahead(self.cursor, [], width, max(slot_of, default=-1),
                                 lambda x, y: x in slot_of and y in slot_of):
            same = slot_of[x] == slot_of[y]
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
                a, b = state.block_size(rx), state.block_size(ry)
                merged = Counter(state.size_counts)
                merged.subtract((a, b))
                merged[a + b] += 1
                if profile_le(profile_of(+merged), self.target.cumulative_profile):
                    cands.append((x, y, 1))
        return cands[:width]


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
        """Emit `stages` items to the learner, one Cantor diagonal at a time.

        A step switches when the learner has conjectured the current target
        (`pending`) and every planned class is complete.  The learner reads
        the rest of the diagonal in ``advance`` runs, and its conjecture,
        which holds inside a run, is read after each.  A run is cut to one
        item at the only steps after which the next one can switch without a
        conjecture read in between: a switch step, after which `pending`
        says whether the learner names the new target, and a diagonal's
        first step, whose placement may complete the last open class."""
        learner, limit = self.learner, self.limit
        learner.reset()
        builder = _TargetBuilder(limit)
        witnesses = cycle(self.witnesses)
        current = limit
        switches: list[tuple[int, str]] = []
        items = []
        first = learner.conjecture()
        pending = conjectures_equal(first, current)

        def points():
            nonlocal current, pending
            rows, step, left = builder.rows(), 0, 0
            while step < stages:
                cut = pending and builder.clean
                if cut:
                    current = next(witnesses) if current is limit else limit
                    builder.retarget(current, freeze=current is not limit)
                    switches.append((step, str(current)))
                    pending = False
                if not left:  # the diagonal's first step places its element
                    builder.finishing = pending
                    row = next(rows)
                    items.extend(row)
                    run, left = iter(row), len(row)
                    cut = cut or (pending and builder.clean)
                fed = learner.advance(islice(run, min(1 if cut else left, stages - step)))
                step += fed
                left -= fed
                last = learner.conjecture()
                pending = pending or conjectures_equal(last, current)
                yield step, last

        trace = Trace.fold(first, points())
        del items[stages:]
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
        cls, marks = self._cls, self._marks
        stages = zip([0, *marks], marks)
        return chain.from_iterable(stage_items(cls, old_n, n) for old_n, n in stages)

    def __getitem__(self, index):  # replays up to the item; a slice is a tuple
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            return tuple(islice(self, start, stop, step)) if step > 0 else tuple(self)[index]
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError("labeling index out of range")
        return next(islice(self, index, None))


def _census_of(cls: list[int]) -> Character:
    return Character.make(0, Counter(Counter(cls).values()), 0)


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
    Each side's learner takes each stage whole (``Learner.consume_stage``),
    and its conjecture is read after it.
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

    def run_stage(old_n: int):
        n = len(sigma_class)
        marks.append(n)
        lrn_sigma.consume_stage(sigma_class, old_n, n)
        lrn_tau.consume_stage(tau_class, old_n, n)
        return lrn_sigma.conjecture(), lrn_tau.conjecture()

    c_sigma, c_tau = run_stage(0)
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
        c_sigma, c_tau = run_stage(marks[-1])
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


class _TextBuilder(_Walk):
    """Completes a text prefix toward a census of finitely many infinite
    classes and no finite ones, the only censuses a text completion
    presents (any other is refused, ``FamilyError``): existing blocks, by
    least element, and then the elements the walk places are dealt to the
    classes in rotation, and a pair of the walk is emitted as itself when
    its elements share a class and as a pause otherwise."""

    def __init__(self, target: Character, blocks: Sequence[Sequence[int]]):
        self.k = target.count(math.inf)
        if target.default != ZERO or target.exceptions or not 0 < self.k < math.inf:
            raise FamilyError("text locking search completes only toward finitely many "
                              "infinite classes and no finite ones")
        self.slot_of: dict[int, int] = {}
        ordered = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
        for i, block in enumerate(ordered):
            for x in block:
                self.slot_of[x] = i % self.k
        self._rot = len(ordered)
        self._walk = self._items()

    def _place(self, e: int) -> bool:
        self.slot_of[e] = self._rot % self.k
        self._rot += 1
        return True

    def _label(self, x: int, y: int):
        return (x, y) if self.slot_of[x] == self.slot_of[y] else PAUSE

    def candidates(self, state: PrefixState, width: int) -> list:
        """Up to `width` single items a locking search probes: a pause, a
        fresh self-pair and upcoming positive pairs of the walk; a text
        prefix rules none of them out, so `state` is not read."""
        cls = self.slot_of
        fresh = max(cls, default=-1) + 1  # one past every placed element
        pairs = _pairs_ahead(self.cursor, [(fresh, fresh)], max(1, width - 1), fresh - 1,
                             lambda x, y: x in cls and y in cls and cls[x] == cls[y])
        return [PAUSE, *pairs][:width]


def weak_locking_search(
    learner: Learner,
    target: Character,
    start: Prefix,
    depth: int = 50,
    width: int = 8,
) -> LockingSearchResult:
    """Semi-decide whether `start` locks the learner on the target census.

    Walks one canonical completion of `start` toward the target for `depth`
    items new to the decoded prefix, skipping the items it already implies,
    or until it has given every fact of a target with finitely many
    elements, probing up to `width` single-item variations at every step.  Any
    conjecture differing from the one at `start` yields a violator pair;
    otherwise `start` is reported as a candidate locking sequence at these
    bounds.  The completion's builder refuses a start it cannot complete
    toward the target (``FamilyError``); it keeps the start's blocks
    unmerged.
    """
    if learner.mode != start.kind:
        raise FamilyError("learner mode does not match the prefix kind")
    state = PrefixState(start.kind)
    state.feed_all(start.items)  # raises on inconsistency
    builder = (_TargetBuilder if start.kind == INFORMANT else _TextBuilder)(target, state.blocks())
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
        for cand in builder.candidates(state, width):
            probes += 1
            probe = base.clone()
            probe.consume(cand)
            if not conjectures_equal(probe.conjecture(), base_conj):
                return violator([cand])
        # advance the spine by the first item new to the decoder (builders
        # never contradict it).  The skip ends: each diagonal d of the walk
        # either places a new element, whose pair (d, 0) is a new fact (in
        # text its self-pair (d, d) is), or the walk ends with the placed square
        for item in iter(builder.next_item, _EXHAUSTED):
            rev = (state.struct_rev, state.neg_rev)
            state.feed(item)
            if (state.struct_rev, state.neg_rev) != rev:
                break
        else:
            break  # a target with finitely many elements is fully labeled
        spine.append(item)
        base.consume(item)
        probes += 1
        if not conjectures_equal(base.conjecture(), base_conj):
            return violator([])
    return LockingSearchResult("candidate", start, None, depth, width, probes)


# ---------------------------------------------------------------------------
# Locking normal form


class LockingNormalForm(Learner):
    """Wraps a learner so that its conjecture only follows fragments of the
    history that actually caused mind changes.

    Keeps a distilled prefix sigma and reads its conjecture from the wrapped
    learner at sigma, which is never fed once sigma moves to it.  Probes go
    through one queue: an incoming item is probed alone against the learner
    at sigma, and a probe that flips the conjecture is appended to sigma and
    refills the queue with the history's items, to be probed again.  Once
    the queue is empty the full history is probed as one fragment; if it
    flips the conjecture it is appended to sigma and refills the queue, and
    otherwise the wrapper is locked on what it remembers.

    `_no_flip` holds the probes that left the conjecture alone since the
    distilled prefix last moved, keyed by the learner's ``probe_key`` there:
    for a decoding learner the blocks an item touches, so each kind of item
    is probed once; for any other learner the item itself.  An item the
    wrapped learner refuses (ConsistencyError) leaves the wrapper as it was
    before that item, and the error gives the item's index in the wrapper's
    own input.

    ``advance`` feeds the shadow one run, which stops after the first item
    whose key is not in `_no_flip` or where the shadow's own run stops.
    Every item before that one has its key in `_no_flip` and leaves the
    shadow's conjecture, which is the wrapper's, alone, so only the run's
    last item is probed.

    Sigma moves only while it stays at most twice as long as the items read
    since ``reset``, as the classic construction bounds its search by the
    input; each move lengthens it, so every call returns, even where each
    item flips the wrapped learner.  A drain the bound cuts short
    carries its queue, and the whole-history probe it owes, into the next
    call, which reads one item, as ``consume`` does.
    """

    _owned = ("_history", "_sigma", "_shadow", "_no_flip", "_queue")

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
        self._shadow = self._at_sigma.clone()  # state at sigma + full history
        self._no_flip: set = set()
        self._queue: deque = deque()  # the probes still to drain
        self._cut = False

    def _replay(self) -> None:
        self._shadow = self._at_sigma.clone()
        self._shadow.consume_all(self._history)

    def _changed(self, new_at_sigma, appended: list) -> bool:
        """Move sigma, unless that makes it longer than twice the items
        read, and queue the history's distinct items, in first-seen order, to
        be probed again; returns whether it moved."""
        if len(self._sigma) + len(appended) > 2 * len(self._history):
            return False
        self._sigma.extend(appended)
        self._at_sigma = new_at_sigma
        self._no_flip.clear()
        self._replay()
        self._queue = deque(dict.fromkeys(self._history))
        return True

    def advance(self, items: Iterator) -> int:
        if self._cut:  # a drain the bound cut short goes on an item at a time
            items = islice(items, 1)
        probe_key, no_flip, run = self._at_sigma.probe_key, self._no_flip, []

        def known():  # the items up to the first whose key is new
            for item in items:
                run.append(item)
                yield item
                if probe_key(item) not in no_flip:
                    return

        try:
            fed = self._shadow.advance(known())
        except ConsistencyError as err:
            self._history += run[:-1]
            self._replay()  # the shadow may hold part of the refused item
            # the shadow's index counts sigma's items and the history's
            index, reason = len(self._history), str(err).split(": ", 1)[-1]
            raise ConsistencyError(f"item {index}: {reason}", index) from err
        if not fed:
            return 0
        self._history += run
        self._queue.append(run[-1])
        self._cut = True  # until the wrapper locks
        while True:
            while self._queue:
                it = self._queue.popleft()
                key = self._at_sigma.probe_key(it)
                if key in self._no_flip:
                    continue
                probe = self._at_sigma.clone()
                probe.consume(it)
                if conjectures_equal(probe.conjecture(), self.conjecture()):
                    self._no_flip.add(key)
                elif not self._changed(probe, [it]):
                    self._queue.appendleft(it)
                    return fed
            if conjectures_equal(self._shadow.conjecture(), self.conjecture()):
                self._cut = False
                return fed
            if not self._changed(self._shadow, list(self._history)):
                return fed

    def conjecture(self):
        return self._at_sigma.conjecture()

    def distilled(self) -> Prefix:
        return Prefix(self.mode, tuple(self._sigma))


# ---------------------------------------------------------------------------
# The text adversary


MAX_RESTARTS = 25  # locking searches restarted from a violator before phase 1 gives up


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
    while result.kind == "violator" and restarts < MAX_RESTARTS:
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
    merged = [x for block in state.blocks() for x in block]
    builder = _TextBuilder(TWO_CLASSES, [merged] if merged else [])
    for stage in run_stages(probe, islice(chain.from_iterable(builder.rows()), horizon)):
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
