"""Translation between structure learning and language learning.

A census translates to a size sequence g (slot index -> class size) and then
to the language { <i,j> : j < g(i) }.  A size sequence is held settled: plain
numbers (omega = math.inf) on the slots [0, base + 2 * period), past whose
base each residue class gains a fixed step per period, so those values decide
equality and inclusion of the induced languages exactly.  `size_sequence_of`
settles a census's slot layout once, and `_window` stretches sequences to a
common base and period only where theirs differ.  Finite permutations of the
slots give the language family a census maps to.  Two searches run over that
family: `language_closure`, bounded to the transpositions of the first slots,
which keeps its inputs on one window that every member shares and builds
its members only when read, and `telltale_search`, which reads the least
separating codes off those values in closed form, bounded by the largest
code and set size it may report.  It scans a closure's inputs, not its
members: the slots where an input exceeds the language name the
transpositions that can lie below it, at most one pair or the pairs through
one slot, unless the input lies below it already.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from .learners import SeparatorLearner
from .presentations import PATTERN, pattern_sizes, slot_demand, spawn_sizes
from .structures import (
    OMEGA,
    Character,
    ExtNat,
    RepresentationError,
    pair_code,
)


# ---------------------------------------------------------------------------
# Size sequences


@dataclass(frozen=True)
class SizeSequence:
    """A total map slot index -> class size (0 = no class), settled: `values`
    on the slots [0, base + 2 * period) as plain numbers, omega as math.inf.
    Past `base` each residue class mod `period` gains a fixed step per period
    (0 where the class size is constant or infinite)."""

    values: tuple
    period: int

    @property
    def base(self) -> int:
        return len(self.values) - 2 * self.period

    def at(self, i: int) -> float:
        """The size at slot i as a plain number."""
        values = self.values
        if i < len(values):
            return values[i]
        base = self.base
        turns, residue = divmod(i - base, self.period)
        first = values[base + residue]
        if first == math.inf:
            return first
        return first + turns * (values[base + residue + self.period] - first)

    def eval(self, i: int) -> ExtNat:
        size = self.at(i)
        return OMEGA if size == math.inf else ExtNat(size)

    def stretched(self, base: int, period: int) -> SizeSequence:
        """The same sequence held on [0, base + 2 * period), for a base at
        least this one's and a multiple of this period, from each residue's step."""
        values, own, end = list(self.values), self.period, len(self.values)
        steps = [0 if v == math.inf else w - v for v, w in zip(values[-2 * own:-own], values[-own:])]
        for i in range(end, base + 2 * period):
            values.append(values[i - own] + steps[(i - end) % own])
        return SizeSequence(tuple(values), period)


def size_sequence_of(char: Character) -> SizeSequence:
    """The canonical slot layout for a census, settled: its `slot_demand` in
    `spawn_sizes` order, then 0.  Only the default count's sizes (PATTERN)
    warm up: they rise by 1 every `per_size` turns once past the largest
    listed size, which takes `per_size * (max(skip) - len(skip))` turns."""
    if char.default.is_omega:
        raise RepresentationError("size sequences for an infinite default are out of scope")
    finite, sources = slot_demand(char)
    per_size, skip = char.default.finite, char.sizes_of_interest
    warm_up, turns = 0, 1
    if PATTERN in sources:
        warm_up, turns = per_size * (max(skip, default=0) - len(skip)), per_size
    width = max(1, len(sources))
    base, period = len(finite) + width * warm_up, width * turns
    spawns = spawn_sizes(finite, sources, pattern_sizes(char))
    values = itertools.islice(itertools.chain(spawns, itertools.repeat(0)), base + 2 * period)
    return SizeSequence(tuple(math.inf if s is None else s for s in values), period)


# ---------------------------------------------------------------------------
# One window for many sequences (exact, via eventual periodicity), and the
# bounded permutation closure held on one


def _window(seqs: Sequence[SizeSequence], floor: int = 0) -> tuple[int, int, list[tuple]]:
    """(base, period, values): the largest of `floor` and the bases, the lcm
    of the periods, and each sequence's values on [0, base + 2 * period), which
    decide equality and, with the steps past the base, inclusion.  A sequence
    already held on that window (a `language_closure`'s inputs and members)
    gives its values as they are; only the others are stretched."""
    period = math.lcm(*{seq.period for seq in seqs})
    base = max([floor, *(seq.base for seq in seqs)])
    size = base + 2 * period
    return base, period, [seq.values if len(seq.values) == size else seq.stretched(base, period).values
                          for seq in seqs]


@dataclass(frozen=True)
class Closure:
    """The members of one `language_closure`, built only when read from its
    `inputs` (held on one window) and the number of leading slots,
    `positions`, whose transpositions it adds: the inputs, in order, then
    each new language at the first transposition that yields it.  `len`
    counts them by iterating."""

    inputs: tuple
    positions: int

    def __iter__(self):
        yield from self.inputs
        seen = {lang.values for lang in self.inputs}
        for lang in self.inputs:
            for a, b in itertools.combinations(range(self.positions), 2):
                vec = list(lang.values)
                vec[a], vec[b] = vec[b], vec[a]
                vec = tuple(vec)
                if vec not in seen:
                    seen.add(vec)
                    yield SizeSequence(vec, lang.period)

    def __len__(self) -> int:
        return sum(1 for _ in self)


def language_closure(langs: Sequence[SizeSequence], positions: int) -> Closure:
    """The given languages together with all transposition variants over the
    first `positions` slots (a bounded stand-in for the full permutation closure).

    The inputs are stretched to one window, with a base of at least
    `positions`, which every member shares; `telltale_search` scans them."""
    _, period, values = _window(langs, positions)
    return Closure(tuple(SizeSequence(vec, period) for vec in values), positions)


# ---------------------------------------------------------------------------
# Tell-tales


def telltale_search(
    lang: SizeSequence,
    family_langs: Sequence[SizeSequence],
    bound: int,
) -> Optional[set[int]]:
    """A finite subset of the language that no other family language can sit
    above (between it and the language), or None at this bound.

    The set carries the least code of L \\ L' for each properly-included family
    language L': the least ``<i, L'(i)>`` over the slots where L'(i) < L(i).
    That code lies in the window's values: past their base each slot gains a
    fixed step per period, L' gains no more than L and neither loses, so a
    residue class whose gap opens at all opens within the window's two
    periods, and its later codes are larger.  Codes and the set size are
    capped by `bound`, so the bound must reach the largest separating code
    the family needs: over kron slices 7 and 8 at 12 positions that is 72,
    84 and 98, and the search fails at bound 64 though both slices are
    separable.

    A `Closure` is scanned through its inputs, not its members: each member
    is an input u, or u with two slots below `positions` exchanged, and the
    window over the language and the inputs has its base past those slots.
    So u's growth past the base decides for all its transpositions; the
    slots where u exceeds L must be at most two, all below `positions`, and
    a transposition must move each of them (u itself counts when there are
    none); and a transposition's least code is the least of u's codes below
    L away from its two slots and of the two swapped entries' codes where
    they fall below L.  Any other sequence of languages is scanned as a
    closure of no positions.
    """
    if isinstance(family_langs, Closure):
        inputs, positions = family_langs.inputs, family_langs.positions
    else:
        inputs, positions = family_langs, 0
    base, period, (vec, *vecs) = _window([lang, *inputs])
    witnesses: set[int] = set()
    for u in vecs:
        # the slots where u exceeds the language: a transposition below it moves each
        over = list(itertools.compress(itertools.count(), map(operator.gt, u, vec)))
        if len(over) > 2 or over and over[-1] >= positions:
            continue
        # where the language is finite past the base, u must not grow faster
        if not all(vec[i] == math.inf or u[i + period] - u[i] <= vec[i + period] - vec[i]
                   for i in range(base, base + period)):
            continue
        # a pair's two slots skip at most two of these, so three are enough
        below = sorted((pair_code(i, x), i) for i, (x, y) in enumerate(zip(u, vec)) if x < y)[:3]
        codes = [below[0][0]] if below and not over else []
        if len(over) == 2:
            pairs = [over]
        elif over:
            pairs = [sorted((over[0], x)) for x in range(positions) if x != over[0]]
        else:
            pairs = itertools.combinations(range(positions), 2)
        for a, b in pairs:
            if u[b] > vec[a] or u[a] > vec[b]:
                continue
            least = [c for c, i in below if i != a and i != b][:1]
            if u[b] < vec[a]:
                least.append(pair_code(a, u[b]))
            if u[a] < vec[b]:
                least.append(pair_code(b, u[a]))
            if least:
                codes.append(min(least))
        for found in codes:
            if found > bound:
                return None
            witnesses.add(found)
        if len(witnesses) > bound:
            return None
    return witnesses


# ---------------------------------------------------------------------------
# Language learning -> structure learning


class LanguageToStructLearner(SeparatorLearner):
    """Learns censuses from informants through the languages' slot demands.

    The conjecture is None on the empty prefix; otherwise the separator
    learner's conjecture; otherwise, while no separator is realized, the least
    minimal host: the decoded classes fit a finitely permuted slot layout of
    exactly the members that host them.  Members with infinite classes have
    no separator and are refused.
    """

    name = "lang-decode"

    def __init__(self, members: Sequence[Character]):
        super().__init__(members, enforce=False)

    def _recompute(self) -> None:
        super()._recompute()
        if self._state.n_mentioned == 0:
            self._cached = None
        elif self._cached is None and self._cached_index is not None:
            self._cached = self.members[self._cached_index]

