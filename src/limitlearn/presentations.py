"""Texts, informants, prefix decoding, the slot plan and fair stream generation.

Items are plain tuples for speed: an informant item is ``(x, y, label)`` with
label 1 for related and 0 for unrelated; a text item is ``(x, y)`` or ``None``
for a pause.  Streams are single-consumer iterators tagged with their kind
and, while unread, the plan of a fair or reordered stream.

The slot plan turns a census into class slots: `slot_demand` lists the
classes it demands and `spawn_sizes` gives the order they are spawned in.
Fair streams (`class_slots`), the adversaries' presentation builder and the
bridge's size sequences all spawn their slots in that order.

Diagonalizer stages and fair streams walk a class map's pairs in Cantor
order, so where blocks are born and merge follows from the class map alone:
`_events` lists those structural events for both, and `PrefixState._apply`
applies them (`decode_stage`, `run_fair`).  A reordered informant permutes
the head of that walk by one position function per strategy
(`_head_order`), so its head's events follow from the class map too
(`_head_events`).
"""
from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .structures import (
    ZERO,
    Character,
    RepresentationError,
    pair_code,
)

InformantItem = tuple[int, int, int]
TextItem = Optional[tuple[int, int]]
PAUSE: TextItem = None

INFORMANT = "informant"
TEXT = "text"


class ConsistencyError(ValueError):
    """An informant prefix labels some pair both ways (directly or by closure)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class Prefix:
    """A finite presentation: `items` is a sequence of items of the given
    kind, usually a tuple; the diagonalizer's prefixes are sequences that
    replay their items on demand instead of storing them."""

    kind: str
    items: Sequence

    def __post_init__(self):
        if self.kind not in (INFORMANT, TEXT):
            raise ValueError(f"unknown prefix kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.items)


def informant_prefix(items: Iterable[InformantItem] = ()) -> Prefix:
    return Prefix(INFORMANT, tuple(items))


# ---------------------------------------------------------------------------
# Incremental prefix decoding


class PrefixState:
    """Decoder for a growing prefix: the positive-closure blocks over all
    mentioned elements and the explicit negative facts between blocks.

    Every element points straight at its block's root (`_parent`), so a root
    is one dict lookup.  A union relabels the members of the smaller block
    and keeps the larger block's root (weighted quick-find).  For each block
    `birth` holds the stage at which it last changed size, which learners use
    to tell long-stable blocks from transient ones.

    Negative facts are bitmasks over the elements' order of first mention:
    `_bit[x]` is element x's bit, `_mask[root]` the block's members and
    `_neg[root]` elements with an explicit negative fact against some member
    (one per fact that first separated two blocks).  Blocks a and b are
    separated when `_neg[a] & _mask[b]` is nonzero, and a union ORs both
    pairs of masks, so no fact names a root that a union retires.

    `births_by_size` indexes the blocks by size: for each size a list of
    (birth stage, root) pairs, sorted, with no empty list.  Its lengths are
    the census of block sizes, and the k-th smallest birth among the blocks
    of one size is its list's k-th entry.  The decoder keeps no census:
    `char()` is built on each call, and a learner caches what it reads of
    it by `struct_rev`.  `moved_sizes` holds the sizes whose list changed
    since its reader last cleared it: the two block mutators add to it, a
    singleton's birth size 1 and a union both old sizes and the new one, so
    every way of decoding reports there.  The min-embed and separator
    learners fold in only those sizes and clear it; a reader that never
    clears it keeps it bounded by the number of distinct sizes.

    `advance` decodes items one at a time, and `feed` and `feed_all` run
    it; there `neg_rev` counts the negative facts that first separated two
    blocks.  `decode_stage` decodes a whole diagonalizer stage from its
    class map, without its items: there `neg_rev` moves once per stage that
    adds an element.  `_least` memoizes each class's least element over the
    first `_read` elements of the class map.  `run_fair` decodes a planned
    stream, fair or reordered, from its events alone, leaving blocks,
    births, `stage` and `struct_rev` as decoding its items would.  Neither
    writes the negatives it skips: `_pending` holds that one write, a
    function of the state (`copy` shares it), which `advance` and
    `separated` run once before they read a negative.  After a stage it is `_write_apart`, as every two
    blocks are separated, and `separated` reads that without running it.
    """

    __slots__ = (
        "kind", "stage", "struct_rev", "neg_rev", "_parent", "_members", "_bit", "_mask",
        "_neg", "birth", "births_by_size", "moved_sizes", "_pending", "_least", "_read",
    )

    def __init__(self, kind: str = INFORMANT):
        self.kind = kind
        self.stage = 0
        self.struct_rev = 0
        self.neg_rev = 0
        self._parent: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}
        self._bit: dict[int, int] = {}
        self._mask: dict[int, int] = {}
        self._neg: dict[int, int] = {}
        self.birth: dict[int, int] = {}
        self.births_by_size: dict[int, list[tuple[int, int]]] = {}
        self.moved_sizes: set[int] = set()
        self._pending: Optional[Callable[[PrefixState], None]] = None
        self._least: dict[int, int] = {}
        self._read = 0

    # -- blocks -----------------------------------------------------------

    def find(self, x: int) -> int:
        return self._parent[x]

    def _add_element(self, x: int, stage: int) -> int:
        """Make the unseen element x a singleton block born at `stage`;
        returns x."""
        self._parent[x] = x
        self._members[x] = [x]
        self._bit[x] = self._mask[x] = 1 << len(self._bit)
        self._neg[x] = 0
        self.birth[x] = stage
        # two elements first mentioned by one item share a stage
        insort(self.births_by_size.setdefault(1, []), (stage, x))
        self.moved_sizes.add(1)
        self.struct_rev += 1
        return x

    def _union(self, a: int, b: int, stage: int) -> None:
        members, birth, by_size = self._members, self.birth, self.births_by_size
        if len(members[a]) < len(members[b]):
            a, b = b, a
        moved = self.moved_sizes
        for root in (a, b):
            size = len(members[root])
            entries = by_size[size]
            del entries[bisect_left(entries, (birth[root], root))]
            if not entries:
                del by_size[size]
            moved.add(size)
        joined = members.pop(b)
        parent = self._parent
        for x in joined:
            parent[x] = a
        members[a] += joined
        self._mask[a] |= self._mask.pop(b)
        self._neg[a] |= self._neg.pop(b)
        del birth[b]
        birth[a] = stage
        insort(by_size.setdefault(len(members[a]), []), (stage, a))
        moved.add(len(members[a]))
        self.struct_rev += 1

    # -- decoding -----------------------------------------------------------

    def _write_apart(self) -> None:
        """The write a diagonalizer stage defers: each block's negatives
        become every element outside it."""
        full, neg = (1 << len(self._bit)) - 1, self._neg
        for root, mask in self._mask.items():
            neg[root] = full ^ mask

    def advance(self, items: Iterable) -> int:
        """Decode items until one moves `struct_rev`; returns how many were
        decoded, 0 once `items` is exhausted.  Raises ConsistencyError on the
        first contradictory label, with `stage` counting that item."""
        parent, neg, mask, bit = self._parent, self._neg, self._mask, self._bit
        if self._pending is not None:
            self._pending(self)
            self._pending = None
        text = self.kind == TEXT
        start = stage = self.stage
        neg_rev = self.neg_rev
        grew = False
        try:
            for stage, item in enumerate(items, start + 1):
                if text:
                    if item is None:
                        continue
                    x, y = item
                    label = 1
                else:
                    x, y, label = item
                try:
                    ra = parent[x]
                    rb = parent[y]
                except KeyError:  # a new element: a singleton block
                    for z in (x, y):
                        if z not in parent:
                            self._add_element(z, stage)
                    ra, rb = parent[x], parent[y]
                    grew = True
                if label:
                    if ra != rb:
                        if neg[ra] & mask[rb]:  # explicitly separated
                            raise ConsistencyError(
                                f"item {stage - 1}: pair ({x},{y}) related but blocks separated",
                                stage - 1)
                        self._union(ra, rb, stage)
                        break
                elif ra == rb:
                    raise ConsistencyError(
                        f"item {stage - 1}: pair ({x},{y}) unrelated but positively connected",
                        stage - 1)
                elif not neg[ra] & mask[rb]:
                    neg[ra] |= bit[y]
                    neg[rb] |= bit[x]
                    neg_rev += 1
                if grew:
                    break
        finally:
            self.stage, self.neg_rev = stage, neg_rev
        return stage - start

    def feed(self, item) -> None:
        """Consume one item; raises ConsistencyError on contradictory labels."""
        self.advance((item,))

    def feed_all(self, items: Iterable) -> None:
        items = iter(items)
        while self.advance(items):
            pass

    def _apply(self, events: list, offset: int) -> Iterator[int]:
        """Apply structural events, as `_events` lists them, each at stage
        offset + its code; yields each stage that has events once they are
        all applied, with `stage` standing there."""
        parent, stage = self._parent, None
        for code, step, x, m in events:
            if offset + code != stage:
                if stage is not None:
                    self.stage = stage
                    yield stage
                stage = offset + code
            if step == _JOIN:
                self._union(parent[x], parent[m], stage)
            else:
                self._add_element(x, stage)
        if stage is not None:
            self.stage = stage
            yield stage

    def decode_stage(self, cls: Sequence[int], old_n: int, n: int) -> None:
        """Decode a diagonalizer stage: the informant items labeling the
        pairs of range(n)² outside range(old_n)² in Cantor order
        (`_new_pairs`), 1 where `cls` gives both elements one class, once
        the state holds the decoding of range(old_n)² so labeled.  `cls`
        extends the class map of every earlier call, which the memo of each
        class's least element reads.

        Only the structural events (`_events`) are replayed, each at its
        pair's stage.  Every other pair is positive within a block or
        negative between classes, and after the stage every two blocks are
        separated."""
        if n <= old_n:
            return
        # extended from the memo's own end: stages decoded item by item skip it
        least = self._least
        for x in range(self._read, old_n):
            least.setdefault(cls[x], x)
        self._read = n

        def rank(x: int, y: int) -> int:  # the pair's place among the stage's pairs
            return _cantor_rank(n, x, y) - _cantor_rank(old_n, x, y)

        end = self.stage + n * n - old_n * old_n
        for _ in self._apply(_events(INFORMANT, cls, least, old_n, n, rank), self.stage + 1):
            pass
        self._pending = PrefixState._write_apart
        self.stage = end
        self.neg_rev += 1

    def run_fair(self, char: Character, plan: tuple[int, str | None, int],
                 stop: int) -> Iterator[int]:
        """Decode the first `stop` items of the planned stream of the census
        (`Stream.plan`: `fair_informant` or `fair_text`, by the state's
        kind, or `reordered_informant`) from their structural events, on a
        new state; yields each stage that has events, as `_apply` does, and
        stands at stage `stop` after the last.

        Past a reordered head the events are the fair stream's
        (`_events`); the head's own follow from the class map as well
        (`_head_events`), and one `class_slots` draw serves both.  An
        informant's skipped items are negative between classes or positive
        within a block; the negatives, which no event shows, are the
        pending write, and `neg_rev` moves once for them."""
        if stop <= 0:
            return
        seed, strategy, window = plan
        universe = char.finite_universe_size() if char.total_size_finite else None
        # element x is not mentioned before the code of (x, 0), x(x+1)/2
        n = math.isqrt(2 * max(stop, window)) + 1
        if universe is not None:
            n = min(n, universe)
        # a finite universe's informant walks its square, then repeats it
        # with no event; elsewhere a square wider than every pair's diagonal
        # ranks pairs by their plain Cantor codes
        if universe is not None and self.kind == INFORMANT:
            square, code = universe, partial(_cantor_rank, universe)
        else:
            square, code = 2 * n, pair_code
        slot = list(itertools.islice(class_slots(char, seed), n))
        events = [e for e in _events(self.kind, slot, {}, 0, n, code) if window <= e[0] < stop]
        if window:
            events[:0] = sorted(e for e in _head_events(strategy, window, slot, square)
                                if e[0] < stop)
        yield from self._apply(events, 1)
        self.stage = stop
        if self.kind == INFORMANT:
            def write(state: PrefixState) -> None:
                parent, neg, bit = state._parent, state._neg, state._bit
                stream = (reordered_informant(char, seed, strategy, window) if window
                          else fair_informant(char, seed))
                for x, y, label in itertools.islice(stream, stop):
                    if not label:
                        neg[parent[x]] |= bit[y]
                        neg[parent[y]] |= bit[x]
            self._pending = write
            self.neg_rev += 1

    # -- queries ----------------------------------------------------------

    @property
    def n_mentioned(self) -> int:
        return len(self._parent)

    @property
    def size_counts(self) -> dict[int, int]:
        """The census of current block sizes: size -> number of blocks."""
        return {size: len(entries) for size, entries in self.births_by_size.items()}

    def blocks(self) -> list[list[int]]:
        return [sorted(m) for m in self._members.values()]

    def block_roots(self) -> list[int]:
        return list(self._members.keys())

    def block_size(self, root: int) -> int:
        return len(self._members[root])

    def separated(self, root_a: int, root_b: int) -> bool:
        pending = self._pending
        if pending is not None:
            if pending is PrefixState._write_apart:
                return root_a != root_b
            pending(self)
            self._pending = None
        return bool(self._neg[root_a] & self._mask[root_b])

    def char(self) -> Character:
        return Character.make(0, self.size_counts, 0)

    def copy(self) -> "PrefixState":
        dup = PrefixState.__new__(PrefixState)
        dup.kind = self.kind
        dup.stage = self.stage
        dup.struct_rev = self.struct_rev
        dup.neg_rev = self.neg_rev
        dup._parent = dict(self._parent)
        dup._members = {r: list(m) for r, m in self._members.items()}
        dup._bit = dict(self._bit)
        dup._mask = dict(self._mask)
        dup._neg = dict(self._neg)
        dup.birth = dict(self.birth)
        dup.births_by_size = {s: list(e) for s, e in self.births_by_size.items()}
        dup.moved_sizes = set(self.moved_sizes)
        dup._pending = self._pending
        dup._least = dict(self._least)
        dup._read = self._read
        return dup


# ---------------------------------------------------------------------------
# Trace / replay file format


def format_item(kind: str, item) -> str:
    if kind == TEXT:
        if item is None:
            return "#"
        return f"P {item[0]} {item[1]}"
    x, y, label = item
    return f"{'P' if label else 'N'} {x} {y}"


def parse_item(kind: str, line: str):
    line = line.strip()
    if line == "#":
        if kind != TEXT:
            raise ValueError("pause mark in an informant trace")
        return PAUSE
    tag, xs, ys = line.split()
    x, y = int(xs), int(ys)
    if kind == TEXT:
        if tag != "P":
            raise ValueError(f"negative item {line!r} in a text trace")
        return (x, y)
    if tag == "P":
        return (x, y, 1)
    if tag == "N":
        return (x, y, 0)
    raise ValueError(f"unrecognized trace line {line!r}")


def write_trace(path, prefix: Prefix) -> None:
    with open(path, "w") as fh:
        for item in prefix.items:
            fh.write(format_item(prefix.kind, item) + "\n")


def read_trace(path, kind: str) -> Prefix:
    with open(path) as fh:
        items = [parse_item(kind, line) for line in fh if line.strip()]
    return Prefix(kind, tuple(items))


# ---------------------------------------------------------------------------
# Slot plans and planned class assignments


PATTERN = "pattern"  # the slot source that spawns the default count's sizes


def slot_demand(char: Character) -> tuple[list[int | None], list]:
    """The class slots a census demands, as two lists.

    `finite` holds one entry per finitely counted class: its size, in
    exception order, then None for each of finitely many infinite classes.
    `sources` holds the spawners that demand classes forever, to be taken in
    turn: each omega-counted size, then PATTERN when the default count is
    nonzero, then None when there are infinitely many infinite classes.
    """
    finite: list[int | None] = []
    sources: list = []
    for size, count in char.exceptions:
        if count.is_omega:
            sources.append(size)
        else:
            finite.extend([size] * count.finite)
    if char.default != ZERO:
        sources.append(PATTERN)
    if char.omega_count.is_omega:
        sources.append(None)
    else:
        finite.extend([None] * char.omega_count.finite)
    return finite, sources


def pattern_sizes(char: Character) -> Iterator[int]:
    """The sizes PATTERN spawns for the census, in order.  A finite default
    count d gives the sizes outside the listed ones, ascending, each repeated
    d times (under a zero default, drawing one never returns).  An infinite
    default sweeps 1; 1, 2; 1, 2, 3; ... so that every admissible size recurs
    unboundedly often."""
    skip = char.sizes_of_interest
    if char.default.is_omega:
        for top in itertools.count(1):
            for size in range(1, top + 1):
                if size not in skip:
                    yield size
    else:
        for size in itertools.count(1):
            if size not in skip:
                yield from itertools.repeat(size, char.default.finite)


def spawn_sizes(finite: Iterable, sources: Sequence, pattern: Iterator[int]) -> Iterator:
    """The order in which class slots are spawned: the `finite` demands, then
    one size from each of the `sources` in turn, PATTERN taking the next size
    from `pattern`, which is drawn nowhere else."""
    yield from finite
    for source in itertools.cycle(sources):
        yield next(pattern) if source == PATTERN else source


def class_slots(char: Character, seed: int = 0) -> Iterator[int]:
    """The class slots of elements 0, 1, 2, ... in a presentation of the
    census; for a census with finitely many elements they end with the last.

    Slots are spawned in `spawn_sizes` order, the finite demands and the
    sources each shuffled by the seed: one slot every other round, finitely
    demanded classes first, while open-ended demands (omega counts,
    default-pattern sizes, infinite classes) spawn progressively forever.
    Every round each unfull slot takes one element, in slot order rotated to
    a pivot drawn over all the slots, so finite classes complete and
    infinite ones grow unboundedly.  A round visits only the slots with
    room, so full slots cost nothing."""
    _check_presentable(char)
    rng = random.Random(seed)
    finite, sources = slot_demand(char)
    rng.shuffle(finite)
    rng.shuffle(sources)
    return _filled_slots(spawn_sizes(reversed(finite), sources, pattern_sizes(char)), rng)


def _check_presentable(char: Character) -> None:
    if char.is_empty:
        raise RepresentationError("cannot present the all-zero census")


def _filled_slots(spawns: Iterator, rng: random.Random) -> Iterator[int]:
    """The rounds of `class_slots` over the slot sizes `spawns` yields (None
    for an infinite class): a generator of its own, so that `class_slots`
    checks the census when it is called, not at the first slot drawn."""
    room: list = []  # what each slot still takes, math.inf for an infinite class
    open_slots: list[int] = []  # the slots with room, ascending
    for size in itertools.chain(spawns, itertools.repeat(0)):
        if size != 0:
            open_slots.append(len(room))
            room.append(math.inf if size is None else size)
        elif not open_slots:  # every slot full and none to come
            return
        for _ in range(2):  # two rounds per spawn
            k = len(room)
            cut = bisect_left(open_slots, rng.randrange(k)) if k > 1 else 0
            for slot in open_slots[cut:] + open_slots[:cut]:
                room[slot] -= 1
                yield slot
            open_slots = [slot for slot in open_slots if room[slot]]


# ---------------------------------------------------------------------------
# Streams


@dataclass
class Stream:
    """A single-consumer stream of items of one kind.

    `plan` is (seed, strategy, window) when the items are those of the
    fair stream of `character` drawn with `seed`, but for the first
    `window`, which the reorder `strategy` permutes (`reordered_informant`);
    None and 0 for `fair_informant` and `fair_text`.  A stream built from
    items has none.  Iterating the stream drops the plan, since a stream
    once read no longer starts at stage 0; a learner's `run_plan` may read
    an unread plan to skip to the stream's structural events."""

    kind: str
    character: Character | None
    _iterator: Iterator = field(repr=False)
    plan: tuple[int, str | None, int] | None = None

    def __iter__(self):
        self.plan = None
        return self._iterator


def _new_pairs(old_n: int, new_n: int):
    """The ordered pairs over range(new_n) outside the square range(old_n)²,
    in Cantor order: diagonal x + y ascending, then y ascending.  Only the
    diagonals old_n to 2 * new_n - 2 hold new pairs: (old_n, 0) is the first
    pair outside the old square and (new_n - 1, new_n - 1) the last of the
    new one.  A generator, so a stage's pairs are never all held."""
    for d in range(old_n, 2 * new_n - 1):
        lo, hi = max(0, d - new_n + 1), min(d, new_n - 1)
        for y in range(lo, min(hi, d - old_n) + 1):  # x >= old_n
            yield d - y, y
        for y in range(max(lo, old_n, d - old_n + 1), hi + 1):  # y >= old_n
            yield d - y, y


def stage_items(cls: Sequence[int], old_n: int, n: int) -> Iterator[InformantItem]:
    """The informant items of one diagonalizer stage: the pairs `_new_pairs`
    walks, labeled 1 where `cls` puts both elements in one class.  Lazy, so
    a stage's items are never all held."""
    return ((x, y, 1 if cls[x] == cls[y] else 0) for x, y in _new_pairs(old_n, n))


def _cantor_rank(n: int, x: int, y: int) -> int:
    """How many pairs of range(n)² come before (x, y) in Cantor order."""
    d = x + y
    if d <= n:
        below = d * (d + 1) // 2  # pairs on the diagonals under d
    else:
        top = max(2 * n - 1 - d, 0)  # the square's pairs on diagonals d and up
        below = n * n - top * (top + 1) // 2
    return below + max(0, min(y, n) - max(0, d - n + 1))


_JOIN = 2  # an event's step: 0 or 1 is a birth, by the element's side of its pair


def _events(kind: str, slot: Sequence, least: dict, lo: int, hi: int, code) -> list:
    """The structural events of elements lo..hi-1 in a presentation that
    walks pairs in Cantor order, sorted, as (code, step, x, partner):
    `slot[x]` is element x's class and `code(x, y)` the place of the pair
    (x, y) in the walk.  `least` maps each class to its least element and
    holds every class of the elements below lo; it is extended here.  A
    birth's step is its element's side of the pair, 0 or 1, since an item
    that first mentions both its elements mentions x before y; a join's
    step is `_JOIN`, after the births at its pair, and it merges the blocks
    of x and its partner in that order.

    In an informant, element x is first mentioned by the pair (x, 0) and
    joins its class by the pair (x, m), m the class's least element: no
    earlier pair relates x to a class-mate.  In a text, where only related
    pairs are stated, both happen at the pair (x, m), m being x itself when
    x is the least element, and then x joins nothing."""
    events = []
    for x in range(lo, hi):
        m = least.setdefault(slot[x], x)
        events.append((code(x, m if kind == TEXT else 0), 0, x, m))
        if m != x:
            events.append((code(x, m), _JOIN, x, m))
    events.sort()
    return events


def _diagonal_starts(square: int, ranks: int) -> list[int]:
    """The rank of each diagonal's first pair in the Cantor walk of
    range(square)², for the diagonals that hold the first `ranks` ranks."""
    starts, rank = [], 0
    for d in range(2 * square - 1):
        if rank >= ranks:
            break
        starts.append(rank)
        rank += min(d, square - 1) - max(0, d - square + 1) + 1
    return starts


def _head_order(strategy: str, window: int, square: int, positives: list[int]):
    """The order of a reordered informant's head: position(i, d) is where
    the strategy puts the fair informant's item at walk index i < window,
    whose pair lies on diagonal d.  `square` is the side of the square the
    walk ranks its pairs in, and repeats when the head outruns it (a finite
    universe's), so walk index i is copy * square² + rank; `positives`
    lists the walk indices of the head's positive items, ascending.  Each
    strategy keeps the fair order among the items it does not tell apart."""
    if strategy == "reverse":
        return lambda i, d: window - 1 - i
    if strategy == "interleave-swap":
        return lambda i, d: i ^ 1 if i ^ 1 < window else i
    if strategy in ("negatives-first", "positives-first"):
        # an item's rank within its label group, from the positives' ranks
        n_pos = len(positives)
        first, second = (0, n_pos) if strategy == "positives-first" else (window - n_pos, 0)

        def by_label(i: int, d: int) -> int:
            k = bisect_left(positives, i)
            return first + k if k < n_pos and positives[k] == i else second + i - k
        return by_label
    # large-pairs-first: the diagonals in descending order, each in walk
    # order; a copy holds a diagonal's `size` pairs, the last copy those it
    # reaches
    period = square * square
    copies, rest = divmod(window - 1, period)
    starts = _diagonal_starts(square, min(window, period))
    sizes = [min(d, square - 1) - max(0, d - square + 1) + 1 for d in range(len(starts))]
    base, behind = [0] * len(starts), 0
    for d in reversed(range(len(starts))):
        base[d] = behind - starts[d]
        behind += copies * sizes[d] + min(max(rest + 1 - starts[d], 0), sizes[d])

    def by_diagonal(i: int, d: int) -> int:
        copy, rank = divmod(i, period)
        return base[d] + copy * sizes[d] + rank
    return by_diagonal


def _head_events(strategy: str, window: int, slot: Sequence, square: int) -> list:
    """The structural events of a reordered informant's head, unsorted and
    as `_events` lists them, each at its item's position in the head:
    `slot[x]` is element x's class for every element the head mentions,
    and `square` as for `_head_order`.

    Element x is first mentioned by the least position among a few pairs
    that name it, in the first, second and last two copies of the square
    the head holds: the two earliest (which interleave-swap may swap), its
    first negative and first positive pair (the first of each label group),
    and those on the last diagonal it reaches in the head and the one
    below (the latest, for reverse, and the largest, for large-pairs-first).
    Pairs that name x come in the walk with partners 0, 0, 1, 1, 2, ...
    The joins are those of a union-find over the head's positive pairs,
    taken in position order."""
    period = square * square
    starts = _diagonal_starts(square, min(window, period))
    top = len(starts)  # the diagonals the head's first copy reaches
    # the rank of (x, y) in the square is shift[x + y] + y
    shift = [start - max(0, d - square + 1) for d, start in enumerate(starts)]
    h = min(len(slot), top)  # the elements the head mentions
    classes: dict = {}
    for x in range(h):
        classes.setdefault(slot[x], []).append(x)
    positives, pairs = [], []
    for members in classes.values():
        for a in members:
            for b in members:
                d = a + b
                if d >= top or shift[d] + b >= window:  # so for each later b
                    break
                for i in range(shift[d] + b, window, period):
                    positives.append(i)
                    if a != b:
                        pairs.append((i, a, b))
    positives.sort()
    position = _head_order(strategy, window, square, positives)

    copies, rank = divmod(window - 1, period)
    last = bisect_right(starts, rank) - 1  # the last copy's last diagonal
    offsets = [c * period for c in {0, 1, copies - 1, copies} if 0 <= c <= copies]
    outside = next((y for y in range(h) if slot[y] != slot[0]), h)
    events = []
    for x in range(h):
        reach = min(last, x + square - 1)
        other = 0 if slot[0] != slot[x] else outside
        first = 2 * window  # 2 * position + side: the least is the first mention
        # diagonal x holds x's first two pairs, but for 0, whose second is (1, 0)
        for d in {x, 1, x + other, x + classes[slot[x]][0], reach - 1, reach, x + square - 1}:
            if x <= d < top and d - x < h:
                for side, rank in ((0, shift[d] + d - x), (1, shift[d] + x)):
                    for i in offsets:
                        i += rank
                        if i < window and (key := 2 * position(i, d) + side) < first:
                            first = key
        events.append((*divmod(first, 2), x, x))
    parent = list(range(h))

    def root(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    for p, a, b in sorted((position(i, a + b), a, b) for i, a, b in pairs):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[rb] = ra
            events.append((p, _JOIN, a, b))
    return events


def _diagonals(char: Character, slots: Iterator[int], square: bool):
    """The Cantor diagonals d = 0, 1, 2, ... as (d, ys, slot): diagonal d's
    pairs are (d - y, y) for y in `ys`, ascending, and `slot[x]` is element
    x's class slot, drawn from the census's `slots`, None outside a finite
    universe.  With `square`, a finite universe's diagonals are cut to its
    square and repeat forever."""
    n = char.finite_universe_size() if char.total_size_finite else None
    cut = square and n is not None
    if cut:
        walk = itertools.chain.from_iterable(itertools.repeat(range(2 * n - 1)))
    else:
        walk = itertools.count()
    slot: list = []
    for d in walk:
        if d == len(slot):  # element d is first reached on diagonal d
            slot.append(next(slots) if n is None or d < n else None)
        yield d, range(max(0, d - n + 1), min(d, n - 1) + 1) if cut else range(d + 1), slot


def fair_informant(char: Character, seed: int = 0) -> Stream:
    """Deterministic informant for the census: labels every pair in Cantor order.

    For a census with finitely many elements the labeled pairs of the finite
    universe repeat forever (informants may repeat items).  Items are built
    one diagonal at a time.
    """
    slots = class_slots(char, seed)
    diagonals = ([(d - y, y, 1 if slot[d - y] == slot[y] else 0) for y in ys]
                 for d, ys, slot in _diagonals(char, slots, True))
    return Stream(INFORMANT, char, itertools.chain.from_iterable(diagonals), (seed, None, 0))


def fair_text(char: Character, seed: int = 0) -> Stream:
    """Deterministic text: related pairs in Cantor order, pauses elsewhere,
    built one diagonal at a time."""
    slots = class_slots(char, seed)
    # a pair with an element outside a finite universe is a pause
    diagonals = ([(d - y, y) if slot[d - y] == slot[y] is not None else PAUSE for y in ys]
                 for d, ys, slot in _diagonals(char, slots, False))
    return Stream(TEXT, char, itertools.chain.from_iterable(diagonals), (seed, None, 0))


REORDER_STRATEGIES = (
    "negatives-first",
    "positives-first",
    "reverse",
    "interleave-swap",
    "large-pairs-first",
)


def reordered_informant(char: Character, seed: int, strategy: str, window: int = 2000) -> Stream:
    """Adversarially permuted fair informant: the first `window` items are
    rearranged by the named strategy (`_head_order`), the rest stream
    unchanged.

    The head is built when the stream is first read, not here, so a
    learner's `run_plan`, which decodes it from the class map
    (`PrefixState.run_fair`), builds no item of it.  The window keeps the
    adversarial mention-to-link lag inside a 10^4-stage horizon; facts are
    order-independent, so any permutation stays a fair presentation of the
    census."""
    if strategy not in REORDER_STRATEGIES:
        raise ValueError(f"unknown reorder strategy {strategy!r}")
    if not isinstance(window, int) or isinstance(window, bool) or window < 0:
        raise ValueError(f"window must be a non-negative integer, not {window!r}")
    _check_presentable(char)

    def items() -> Iterator[InformantItem]:
        it = iter(fair_informant(char, seed))
        head = list(itertools.islice(it, window))
        # a finite universe's walk repeats its square; elsewhere a square
        # wider than the head's diagonals ranks pairs by their Cantor codes
        square = (char.finite_universe_size() if char.total_size_finite
                  else math.isqrt(2 * window) + 1)
        position = _head_order(strategy, window, square,
                               [i for i, item in enumerate(head) if item[2]])
        ordered = [None] * window
        for i, item in enumerate(head):
            ordered[position(i, item[0] + item[1])] = item
        yield from ordered
        yield from it

    return Stream(INFORMANT, char, items(), (seed, strategy, window))


# ---------------------------------------------------------------------------
# Text-to-informant reordering


def reorder_items(blocks: list[list[int]]) -> list[InformantItem]:
    """Informant items presenting the given classes one at a time: each class's
    positive pairs, then the assumed negatives between it and earlier classes.
    No learner reads texts this way: the rewrite stays only as the reference
    the benchmark's layer probe and the text learners' differential test
    replay, and goes with the next revision of the benchmark."""
    classes = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
    items: list[InformantItem] = []
    for idx, cls in enumerate(classes):
        for x in cls:
            for y in cls:
                items.append((x, y, 1))
        cross: list[tuple[int, int]] = []
        for earlier in classes[:idx]:
            for x in cls:
                for y in earlier:
                    cross.append((x, y))
                    cross.append((y, x))
        cross.sort()
        items.extend((x, y, 0) for x, y in cross)
    return items

