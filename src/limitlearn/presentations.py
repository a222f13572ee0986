"""Texts, informants, prefix decoding, and fair stream generation.

Items are plain tuples for speed: an informant item is ``(x, y, label)`` with
label 1 for related and 0 for unrelated; a text item is ``(x, y)`` or ``None``
for a pause.  Streams are single-consumer iterators tagged with their kind.
"""
from __future__ import annotations

import itertools
import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .structures import (
    ZERO,
    Character,
    RepresentationError,
    profile_of,
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
    `profile()` and `char()` are built on each call, and a learner caches
    what it reads of them by `struct_rev`.

    `advance` is the one decoding loop; `feed` and `feed_all` run it.
    """

    __slots__ = (
        "kind", "stage", "struct_rev", "neg_rev", "_parent", "_members",
        "_bit", "_mask", "_neg", "birth", "births_by_size",
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
        self.struct_rev += 1
        return x

    def _union(self, a: int, b: int, stage: int) -> None:
        members, birth, by_size = self._members, self.birth, self.births_by_size
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for root in (a, b):
            size = len(members[root])
            entries = by_size[size]
            del entries[bisect_left(entries, (birth[root], root))]
            if not entries:
                del by_size[size]
        moved = members.pop(b)
        parent = self._parent
        for x in moved:
            parent[x] = a
        members[a] += moved
        self._mask[a] |= self._mask.pop(b)
        self._neg[a] |= self._neg.pop(b)
        del birth[b]
        birth[a] = stage
        insort(by_size.setdefault(len(members[a]), []), (stage, a))
        self.struct_rev += 1

    # -- decoding -----------------------------------------------------------

    def advance(self, items: Iterable) -> int:
        """Decode items until one moves `struct_rev`; returns how many were
        decoded, 0 once `items` is exhausted.  Raises ConsistencyError on the
        first contradictory label, with `stage` counting that item."""
        parent, neg, mask, bit = self._parent, self._neg, self._mask, self._bit
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
        return bool(self._neg[root_a] & self._mask[root_b])

    def profile(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """The cumulative profile of the block-size census, as plain numbers:
        ``char().cumulative_profile`` without building the census."""
        return profile_of(self.size_counts)

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


def pattern_size(n: int, per_size: int, skip: Sequence[int]) -> int:
    """The n-th size (from 0) of a finite default count: ascending sizes
    outside the sorted `skip`, each repeated `per_size` times."""
    size = n // per_size + 1
    for s in skip:
        if s > size:
            break
        size += 1
    return size


def pattern_sizes(char: Character) -> Iterator[int]:
    """The sizes PATTERN spawns for the census, in order.  An infinite
    default sweeps 1; 1, 2; 1, 2, 3; ... so that every admissible size
    recurs unboundedly often."""
    skip = char.sizes_of_interest
    if char.default.is_omega:
        for top in itertools.count(1):
            for size in range(1, top + 1):
                if size not in skip:
                    yield size
    else:
        for n in itertools.count():
            yield pattern_size(n, char.default.finite, skip)


class ClassAssignment:
    """Deterministic assignment of elements 0,1,2,... to classes realizing a census.

    Slots are instantiated by a seed-shuffled round-robin schedule: finitely
    demanded classes are spawned first (one every other round), while
    open-ended demands (omega counts, default-pattern sizes, infinite classes)
    spawn progressively forever.  Every unfull slot grows by one element per
    round, so finite classes complete and infinite ones grow unboundedly.
    """

    SPAWN_PERIOD = 2

    def __init__(self, char: Character, seed: int = 0):
        if char.is_empty:
            raise RepresentationError("cannot present the all-zero census")
        rng = random.Random(seed)
        self._finite_demands, self._sources = slot_demand(char)
        rng.shuffle(self._finite_demands)
        rng.shuffle(self._sources)
        self._pattern = pattern_sizes(char)
        self._source_idx = 0
        self._rng = rng
        self._round = 0
        # slots: parallel lists of target size (None = infinite) and member count
        self._targets: list[int | None] = []
        self._filled: list[int] = []
        self._slot_of: dict[int, int] = {}
        self._next_element = 0
        self.finite_universe = char.total_size_finite
        self.universe_size = char.finite_universe_size() if self.finite_universe else None

    def _spawn_next(self) -> None:
        if self._finite_demands:
            target = self._finite_demands.pop()
        elif self._sources:
            target = self._sources[self._source_idx % len(self._sources)]
            self._source_idx += 1
            if target == PATTERN:
                target = next(self._pattern)
        else:
            return
        self._targets.append(target)
        self._filled.append(0)

    def _run_round(self) -> None:
        if self._round % self.SPAWN_PERIOD == 0:
            self._spawn_next()
        order = list(range(len(self._targets)))
        if len(order) > 1:
            pivot = self._rng.randrange(len(order))
            order = order[pivot:] + order[:pivot]
        for slot in order:
            target = self._targets[slot]
            if target is None or self._filled[slot] < target:
                self._slot_of[self._next_element] = slot
                self._filled[slot] += 1
                self._next_element += 1
        self._round += 1

    def slot_of(self, x: int) -> int:
        if self.finite_universe and x >= self.universe_size:
            raise RepresentationError(f"element {x} outside the finite universe")
        guard = 0
        while x not in self._slot_of:
            before = self._next_element
            self._run_round()
            guard = guard + 1 if self._next_element == before else 0
            if guard > 4:  # demand exhausted: finite structure fully assigned
                raise RepresentationError(f"element {x} outside the finite universe")
        return self._slot_of[x]


# ---------------------------------------------------------------------------
# Streams


@dataclass
class Stream:
    kind: str
    character: Character | None
    _iterator: Iterator = field(repr=False)

    def __iter__(self):
        return self._iterator


def _new_pairs(old_n: int, new_n: int):
    """The ordered pairs over range(new_n) outside the square range(old_n)²,
    in Cantor order: diagonal x + y ascending, then y ascending."""
    for d in range(old_n, 2 * new_n - 1):
        lo, hi = max(0, d - new_n + 1), min(d, new_n - 1)
        for y in range(lo, min(hi, d - old_n) + 1):  # x >= old_n
            yield d - y, y
        for y in range(max(lo, old_n, d - old_n + 1), hi + 1):  # y >= old_n
            yield d - y, y


def _diagonals(plan: ClassAssignment, square: bool):
    """The Cantor diagonals d = 0, 1, 2, ... as (d, ys, slot): diagonal d's
    pairs are (d - y, y) for y in `ys`, ascending, and `slot[x]` is element
    x's class slot, None outside a finite universe.  With `square`, a finite
    universe's diagonals are cut to its square and repeat forever."""
    n = plan.universe_size
    cut = square and n is not None
    if cut:
        walk = itertools.chain.from_iterable(itertools.repeat(range(2 * n - 1)))
    else:
        walk = itertools.count()
    slot: list = []
    for d in walk:
        if d == len(slot):  # element d is first reached on diagonal d
            slot.append(plan.slot_of(d) if n is None or d < n else None)
        yield d, range(max(0, d - n + 1), min(d, n - 1) + 1) if cut else range(d + 1), slot


def fair_informant(char: Character, seed: int = 0) -> Stream:
    """Deterministic informant for the census: labels every pair in Cantor order.

    For a census with finitely many elements the labeled pairs of the finite
    universe repeat forever (informants may repeat items).  Items are built
    one diagonal at a time.
    """
    plan = ClassAssignment(char, seed)
    diagonals = ([(d - y, y, 1 if slot[d - y] == slot[y] else 0) for y in ys]
                 for d, ys, slot in _diagonals(plan, True))
    return Stream(INFORMANT, char, itertools.chain.from_iterable(diagonals))


def fair_text(char: Character, seed: int = 0) -> Stream:
    """Deterministic text: related pairs in Cantor order, pauses elsewhere,
    built one diagonal at a time."""
    plan = ClassAssignment(char, seed)
    # a pair with an element outside a finite universe is a pause
    diagonals = ([(d - y, y) if slot[d - y] == slot[y] is not None else PAUSE for y in ys]
                 for d, ys, slot in _diagonals(plan, False))
    return Stream(TEXT, char, itertools.chain.from_iterable(diagonals))


REORDER_STRATEGIES = (
    "negatives-first",
    "positives-first",
    "reverse",
    "interleave-swap",
    "large-pairs-first",
)


def reordered_informant(char: Character, seed: int, strategy: str, window: int = 2000) -> Stream:
    """Adversarially permuted fair informant: the first `window` items are
    rearranged by the named strategy, the rest stream unchanged.

    The window keeps the adversarial mention-to-link lag inside a 10^4-stage
    horizon; facts are order-independent, so any permutation stays a fair
    presentation of the census."""
    base = fair_informant(char, seed)
    it = iter(base)
    head = [next(it) for _ in range(window)]
    if strategy == "negatives-first":
        head.sort(key=lambda item: item[2])
    elif strategy == "positives-first":
        head.sort(key=lambda item: -item[2])
    elif strategy == "reverse":
        head.reverse()
    elif strategy == "interleave-swap":
        for i in range(0, len(head) - 1, 2):
            head[i], head[i + 1] = head[i + 1], head[i]
    elif strategy == "large-pairs-first":
        head.sort(key=lambda item: -(item[0] + item[1]))
    else:
        raise ValueError(f"unknown reorder strategy {strategy!r}")

    return Stream(INFORMANT, char, itertools.chain(head, it))


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

