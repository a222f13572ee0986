"""Translation between structure learning and language learning.

A census translates to a size sequence g (slot index -> class size) and then
to the language { <i,j> : j < g(i) }.  Size sequences are finitely described
(explicit prefix, round-robin tail streams, finite overrides) and repeat
past a settle index, so `_window` reads them on finitely many slots, which
decide equality and inclusion of the induced languages exactly.  Finite
permutations of the slots give the language family a census maps to; they
change only the overrides, so `_window` settles and evaluates each slot
layout (prefix and streams) once, however many permutations share it.  Two
searches run over that family: `language_closure`, bounded to the
transpositions of the first slots, and `telltale_search`, which reads the
least separating codes off the sequences in closed form, bounded by the
largest code and set size it may report.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .learners import SeparatorLearner
from .presentations import PATTERN, pattern_size, slot_demand
from .structures import (
    OMEGA,
    ZERO,
    Character,
    ExtNat,
    RepresentationError,
    _plain,
    pair_code,
)


# ---------------------------------------------------------------------------
# Size sequences


@dataclass(frozen=True)
class _ConstStream:
    value: ExtNat

    def nth(self, n: int) -> ExtNat:
        return self.value

    def settle(self) -> int:
        return 1


@dataclass(frozen=True)
class _PatternStream:
    """The default count's sizes: `pattern_size` over the sorted `skip`."""

    per_size: int
    skip: tuple[int, ...]

    def nth(self, n: int) -> ExtNat:
        return ExtNat(pattern_size(n, self.per_size, self.skip))

    def settle(self) -> int:
        top = max(self.skip, default=0) + 2
        admissible = sum(1 for s in range(1, top + 1) if s not in self.skip)
        return self.per_size * (admissible + 1)


@dataclass(frozen=True)
class SizeSequence:
    """A finitely described total map slot index -> class size (0 = no class):
    an explicit prefix, then round-robin streams, with overrides, sorted by
    slot, in place of single values."""

    prefix: tuple[ExtNat, ...] = ()
    streams: tuple = ()
    overrides: tuple[tuple[int, ExtNat], ...] = ()

    def eval(self, i: int) -> ExtNat:
        for idx, value in self.overrides:
            if idx == i:
                return value
        if i < len(self.prefix):
            return self.prefix[i]
        return self.tail(i)

    def tail(self, i: int) -> ExtNat:
        """The streams' value at slot i past the prefix, overrides aside."""
        if not self.streams:
            return ZERO
        j = i - len(self.prefix)
        return self.streams[j % len(self.streams)].nth(j // len(self.streams))

    def settle_index(self) -> int:
        """Index past the prefix, overrides, and stream warm-up, from which the
        sequence is exactly periodic-affine."""
        return self.start() + self.warm_up()

    def start(self) -> int:
        """The first slot past the prefix and the overrides."""
        return max(len(self.prefix), self.overrides[-1][0] + 1) if self.overrides else len(self.prefix)

    def warm_up(self) -> int:
        """Slots past `start` until the streams repeat; it depends only on the streams."""
        S = max(1, len(self.streams))
        return S * (max((s.settle() for s in self.streams), default=1) + 1)

    def period(self) -> int:
        S = max(1, len(self.streams))
        ds = [s.per_size for s in self.streams if isinstance(s, _PatternStream)]
        return S * math.lcm(*ds) if ds else S


def size_sequence_of(char: Character) -> SizeSequence:
    """The canonical slot layout for a census: its `slot_demand`, the finite
    demands as the prefix and the sources as round-robin streams."""
    if char.default.is_omega:
        raise RepresentationError("size sequences for an infinite default are out of scope")
    finite, sources = slot_demand(char)

    def size(s) -> ExtNat:
        return OMEGA if s is None else ExtNat(s)

    streams = (_PatternStream(char.default.finite, char.sizes_of_interest) if s == PATTERN
               else _ConstStream(size(s)) for s in sources)
    return SizeSequence(tuple(map(size, finite)), tuple(streams))


# ---------------------------------------------------------------------------
# Pointwise comparison (exact, via eventual periodicity)


def _window(seqs: Sequence[SizeSequence]) -> tuple[int, int, list[tuple]]:
    """(base, period, values): past `base` every sequence repeats with `period`
    up to a fixed step per residue, so the values on [0, base + 2 * period)
    decide equality and, with those steps, inclusion.  Values are plain
    numbers (omega = math.inf).  Each layout (prefix and streams) is settled
    and evaluated once; a sequence adds only its overrides, to the base and
    onto a copy of its layout's values."""
    keys = [(seq.prefix, seq.streams) for seq in seqs]
    layouts = {key: SizeSequence(*key) for key in dict.fromkeys(keys)}
    warm = {key: layout.warm_up() for key, layout in layouts.items()}
    base = max((seq.start() + warm[key] for seq, key in zip(seqs, keys)), default=0)
    period = math.lcm(*(layout.period() for layout in layouts.values()))
    values = {key: tuple(map(_plain, map(layout.eval, range(base + 2 * period))))
              for key, layout in layouts.items()}
    out = []
    for seq, key in zip(seqs, keys):
        vec = values[key]
        if seq.overrides:
            vec = list(vec)
            for i, v in seq.overrides:
                vec[i] = _plain(v)
            vec = tuple(vec)
        out.append(vec)
    return base, period, out


def _vec_le(va: tuple, vb: tuple, base: int, period: int) -> bool:
    if any(x > y for x, y in zip(va, vb)):
        return False
    # where b is finite past the base, so is a (it is below b); a must not grow faster
    return all(vb[i] == math.inf or va[i + period] - va[i] <= vb[i + period] - vb[i]
               for i in range(base, base + period))


# ---------------------------------------------------------------------------
# Finite permutations


@dataclass(frozen=True)
class FinitePermutation:
    """A bijection on the naturals that moves only finitely many points."""

    moves: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        src = [a for a, _ in self.moves]
        dst = [b for _, b in self.moves]
        if sorted(src) != sorted(dst) or len(set(src)) != len(src):
            raise ValueError("not a permutation")
        if any(a == b for a, b in self.moves):
            raise ValueError("fixed points do not belong in the support")


def permuted(seq: SizeSequence, perm: FinitePermutation) -> SizeSequence:
    """The sequence i -> seq(perm(i)); equal outside the permutation's support."""
    if not perm.moves:
        return seq
    overrides = {i: v for i, v in seq.overrides}
    new_overrides = dict(overrides)
    for a, b in perm.moves:
        new_overrides[a] = seq.eval(b)
    return SizeSequence(seq.prefix, seq.streams, tuple(sorted(new_overrides.items())))


def language_closure(langs: Sequence[SizeSequence], positions: int) -> list[SizeSequence]:
    """The given languages together with all transposition variants over the
    first `positions` slots (a bounded stand-in for the full permutation closure).

    The input comes first, verbatim; each new language follows at the first
    transposition that yields it."""
    cands = [permuted(lang, FinitePermutation(((a, b), (b, a))))
             for lang in langs for a in range(positions) for b in range(a + 1, positions)]
    _, _, vecs = _window([*langs, *cands])
    seen = set(vecs[:len(langs)])
    out = list(langs)
    for cand, vec in zip(cands, vecs[len(langs):]):
        if vec not in seen:
            seen.add(vec)
            out.append(cand)
    return out


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
    That code lies in `_window`'s vectors: past their base each slot gains a
    fixed step per period, L' gains no more than L and neither loses, so a
    residue class whose gap opens at all opens within the window's two
    periods, and its later codes are larger.  Codes and the set size are
    capped by `bound`, so the bound must reach the largest separating code the
    family needs: over kron slices 7 and 8 at 12 positions that is 72, 84 and
    98, and the search fails at bound 64 though both slices are separable.
    """
    base, period, (vec, *vecs) = _window([lang, *family_langs])
    witnesses: set[int] = set()
    for other_vec in vecs:
        if other_vec == vec or not _vec_le(other_vec, vec, base, period):
            continue
        found = min(pair_code(i, b) for i, (a, b) in enumerate(zip(vec, other_vec)) if b < a)
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

