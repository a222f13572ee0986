"""Descriptions of countable equivalence structures and their embedding order.

An equivalence structure on the naturals is determined up to isomorphism by
how many classes of each size it has.  We describe that census finitely:
a default count that applies to all but finitely many finite sizes, explicit
exceptions, and a count of infinite classes.  All embedding questions between
two such descriptions reduce to comparing cumulative class counts at finitely
many threshold sizes, which keeps every operation here exact and total.

Each census caches those counts once as a plain-number step profile (its
sorted exception sizes and the suffix sums of their counts, with ``math.inf``
for omega), so an embedding test is one merge of two profiles
(``profile_le``).  A census given as plain size counts, such as a decoded
prefix, has its profile built by ``profile_of`` with no ``Character`` at
all; learners check their hosts that way.

``ExtNat`` is only what a census field, a component size and the JSON hold.
Every comparison of counts is made on plain numbers: ``Character.count``
takes a plain size (an ``int`` >= 1, or ``math.inf`` for the infinite
classes) and answers an ``int`` or ``math.inf``, and ``ExtNat`` has no
ordering of its own and equals only another ``ExtNat``.  The pointwise
comparisons of two censuses (``char_subset``, ``char_diff_min``) read counts
at one set of sizes: those either census lists, and the least size neither
lists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Union


class RepresentationError(ValueError):
    """A description violates a structural invariant (e.g. a size-0 class)."""


# ---------------------------------------------------------------------------
# Extended naturals


@dataclass(frozen=True)
class ExtNat:
    """A natural number or omega, as a census field and the JSON hold it.

    It has no ordering and equals only another ``ExtNat``: counts are
    compared as the plain numbers ``Character.count`` answers.
    """

    finite: Union[int, None] = None  # None encodes the infinite value

    def __post_init__(self):
        if self.finite is not None and (
            not isinstance(self.finite, int) or isinstance(self.finite, bool) or self.finite < 0
        ):
            raise RepresentationError(f"not an extended natural: {self.finite!r}")

    @property
    def is_omega(self) -> bool:
        return self.finite is None

    def __repr__(self) -> str:
        return "omega" if self.is_omega else str(self.finite)

    def to_json(self):
        return "omega" if self.is_omega else self.finite


OMEGA = ExtNat(None)
ZERO = ExtNat(0)


def ext(value: "ExtNat | int | str") -> ExtNat:
    """Coerce an int, ExtNat, or the string 'omega' to an ExtNat."""
    if isinstance(value, ExtNat):
        return value
    if value == "omega":
        return OMEGA
    if isinstance(value, int):
        return ExtNat(value)
    raise RepresentationError(f"cannot interpret {value!r} as an extended natural")


def _plain(value: ExtNat) -> float:
    """The count as a plain number, ``math.inf`` for omega."""
    return math.inf if value.finite is None else value.finite


# ---------------------------------------------------------------------------
# Pairing

def pair_code(x: int, y: int) -> int:
    """Cantor code of the ordered pair (x, y)."""
    return (x + y) * (x + y + 1) // 2 + y


def unpair_code(code: int) -> tuple[int, int]:
    w = (math.isqrt(8 * code + 1) - 1) // 2
    y = code - w * (w + 1) // 2
    return w - y, y


# ---------------------------------------------------------------------------
# Components


@dataclass(frozen=True)
class Component:
    """The claim "at least `index` classes of size `size`"."""

    size: ExtNat
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise RepresentationError("component index must be >= 1")
        if not self.size.is_omega and self.size.finite < 1:
            raise RepresentationError("component size must be >= 1")

    def sort_key(self) -> tuple[int, int]:
        # Finite-size components ordered by Cantor code; infinite-size ones
        # after all of them, by index.
        if self.size.is_omega:
            return (1, self.index)
        return (0, pair_code(self.size.finite, self.index))

    def __repr__(self) -> str:
        return f"<{self.size!r},{self.index}>"

    def to_json(self):
        return [self.size.to_json(), self.index]


# ---------------------------------------------------------------------------
# Characters


def _size(value: object) -> int:
    """A listed class size, which must be an integer (a float such as 2.5 or
    a string is refused, not truncated or parsed)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"a class size is an integer, not {value!r}")
    return value


@dataclass(frozen=True)
class Character:
    """Census of an equivalence structure: classes per size, finitely described.

    ``default`` is the count for every finite size not listed in
    ``exceptions``; ``omega_count`` is the number of infinite classes.
    Canonical form (no exception equal to the default) makes equality
    syntactic and equivalent to isomorphism of the described structures.
    """

    default: ExtNat = ZERO
    exceptions: tuple[tuple[int, ExtNat], ...] = ()
    omega_count: ExtNat = ZERO

    def __post_init__(self):
        # canonical form is checked by ExtNat equality, which no int meets
        if not (isinstance(self.default, ExtNat) and isinstance(self.omega_count, ExtNat)):
            raise RepresentationError("census counts are ExtNat values")
        seen = set()
        for size, count in self.exceptions:
            if not isinstance(size, int) or size < 1:
                raise RepresentationError(f"class size must be a finite integer >= 1, got {size!r}")
            if not isinstance(count, ExtNat):
                raise RepresentationError(f"census counts are ExtNat values, not {count!r}")
            if size in seen:
                raise RepresentationError(f"duplicate exception for size {size}")
            if count == self.default:
                raise RepresentationError(
                    f"non-canonical description: exception {size} equals the default count"
                )
            seen.add(size)
        if tuple(sorted(s for s, _ in self.exceptions)) != tuple(s for s, _ in self.exceptions):
            raise RepresentationError("exceptions must be sorted by size")

    @classmethod
    def make(
        cls,
        default: "ExtNat | int | str" = 0,
        exceptions: Mapping[int, "ExtNat | int | str"] | Iterable[tuple[int, object]] = (),
        omega_count: "ExtNat | int | str" = 0,
    ) -> "Character":
        default = ext(default)
        items = exceptions.items() if isinstance(exceptions, Mapping) else exceptions
        counts: dict[int, ExtNat] = {}
        for k, v in items:
            k = _size(k)
            # before defaults are dropped, so [[1, 0], [1, "omega"]] is refused too
            if k in counts:
                raise RepresentationError(f"duplicate exception for size {k}")
            counts[k] = ext(v)
        canon = tuple(sorted((k, v) for k, v in counts.items() if v != default))
        return cls(default, canon, ext(omega_count))

    @classmethod
    def of(cls, *pairs: tuple[object, object]) -> "Character":
        """Shorthand for a default-0 census, e.g. ``Character.of((5, OMEGA), (2, 1))``.

        A pair whose size slot is "omega"/OMEGA sets the infinite-class count.
        """
        omega: list[ExtNat] = []
        exc: list[tuple[int, ExtNat]] = []
        for size, count in pairs:
            if size == "omega" or (isinstance(size, ExtNat) and size.is_omega):
                omega.append(ext(count))
            else:
                exc.append((size, ext(count)))
        if len(omega) > 1:
            raise RepresentationError("duplicate exception for size omega")
        return cls.make(0, exc, omega[0] if omega else ZERO)

    @cached_property
    def exception_map(self) -> dict[int, ExtNat]:
        return dict(self.exceptions)

    @cached_property
    def sizes_of_interest(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.exceptions)

    def count(self, size: int | float) -> int | float:
        """Number of classes of exactly the given plain size (an ``int`` >= 1,
        or ``math.inf`` for the infinite classes), as a plain number: an
        ``int``, or ``math.inf`` for omega."""
        if size == math.inf:
            return _plain(self.omega_count)
        if _size(size) < 1:
            raise RepresentationError("class sizes start at 1")
        return _plain(self.exception_map.get(size, self.default))

    @cached_property
    def cumulative_profile(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """``(sizes, counts)``: the exception sizes in order, and the number
        of classes of size >= t (infinite classes included, ``math.inf`` for
        omega) on each step of t.  ``counts[i]`` holds for the thresholds
        above the first i sizes and at most ``sizes[i]``, so ``counts[-1]`` is
        the infinite-class count.  A nonzero default gives ``((), (inf,))``."""
        if self.default != ZERO:
            return (), (math.inf,)
        return profile_of({s: _plain(c) for s, c in self.exceptions}, _plain(self.omega_count))

    def has_component(self, comp: Component) -> bool:
        return self.count(_plain(comp.size)) >= comp.index

    @property
    def is_empty(self) -> bool:
        return self.default == ZERO and not self.exceptions and self.omega_count == ZERO

    @property
    def total_size_finite(self) -> bool:
        """True when the described structure has finitely many elements."""
        if self.default != ZERO or self.omega_count != ZERO:
            return False
        return all(not c.is_omega for _, c in self.exceptions)

    def finite_universe_size(self) -> int:
        if not self.total_size_finite:
            raise RepresentationError("structure has infinitely many elements")
        return sum(s * c.finite for s, c in self.exceptions)

    def __str__(self) -> str:
        parts = []
        if self.default != ZERO:
            parts.append(f"*:{self.default!r}")
        parts.extend(f"{s}:{c!r}" for s, c in self.exceptions)
        if self.omega_count != ZERO:
            parts.append(f"omega:{self.omega_count!r}")
        return "[" + ",".join(parts) + "]"

    def to_json(self):
        if self.default == ZERO and self.omega_count == ZERO:
            return [[s, c.to_json()] for s, c in self.exceptions]
        return {
            "default": self.default.to_json(),
            "exceptions": {str(s): c.to_json() for s, c in self.exceptions},
            "omega_count": self.omega_count.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "Character":
        if isinstance(data, list):
            # shorthand: [[size, count], ...] with default 0
            return cls.of(*[(s, c) for s, c in data])
        if not isinstance(data, dict):
            raise RepresentationError(f"cannot parse character from {data!r}")
        exceptions = data.get("exceptions", {})
        if not isinstance(exceptions, dict):
            raise TypeError(f"exceptions are a JSON object, not a {type(exceptions).__name__}")
        exc = [(int(k), v) for k, v in exceptions.items()]
        return cls.make(data.get("default", 0), exc, data.get("omega_count", 0))


# ---------------------------------------------------------------------------
# Embedding order on characters


def _deciding_sizes(a: Character, b: Character) -> set[int]:
    """The finite sizes that decide every pointwise comparison of the counts
    of `a` and `b`: those either census lists, and the least size neither
    lists, where both counts are their defaults."""
    sizes = {*a.sizes_of_interest, *b.sizes_of_interest}
    sizes.add(next(k for k in range(1, len(sizes) + 2) if k not in sizes))
    return sizes


def char_subset(a: Character, b: Character) -> bool:
    """Pointwise count comparison: every class demand of `a` is met exactly in `b`."""
    return all(a.count(size) <= b.count(size) for size in (*_deciding_sizes(a, b), math.inf))


def char_diff_min(c: Character, s: Character) -> Component | None:
    """Least component (canonical order) present in `c` but not in `s`.

    Only defined for censuses without infinite classes; exact on the finite
    descriptions.  Returns None when every component of `c` is in `s`.
    """
    if c.omega_count != ZERO or s.omega_count != ZERO:
        raise RepresentationError("component difference requires structures with finite classes")
    # where c has more classes than s, s's count is finite
    missing = [Component(ExtNat(size), s.count(size) + 1)
               for size in _deciding_sizes(c, s) if c.count(size) > s.count(size)]
    return min(missing, key=Component.sort_key, default=None)


def profile_of(counts: Mapping[int, float], infinite: float = 0) -> tuple[tuple[int, ...], tuple]:
    """The cumulative profile, as in ``Character.cumulative_profile``, of the
    census with `counts[size]` classes of each listed size, none of any other
    finite size, and `infinite` infinite classes (``math.inf`` for omega)."""
    sizes = sorted(counts)
    totals = [infinite]
    for size in reversed(sizes):
        totals.append(totals[-1] + counts[size])
    return tuple(sizes), tuple(reversed(totals))


def profile_le(pa: tuple, pb: tuple) -> bool:
    """The cumulative count of profile `pa` never exceeds that of `pb` at any
    finite threshold.

    Both counts are steps that fall just above each listed size, and `pa`'s
    only falls, so it suffices to check threshold 1 and the threshold just
    above each of `pb`'s sizes: one merge of the two profiles.
    """
    sizes_a, counts_a = pa
    sizes_b, counts_b = pb
    if counts_a[0] > counts_b[0]:
        return False
    i, n = 0, len(sizes_a)
    for j, size in enumerate(sizes_b, 1):
        while i < n and sizes_a[i] <= size:
            i += 1
        if counts_a[i] > counts_b[j]:
            return False
    return True


def fin_embeds(a: Character, b: Character) -> bool:
    """Every finite substructure of an `a`-structure embeds into a `b`-structure."""
    return profile_le(a.cumulative_profile, b.cumulative_profile)


def embeds(a: Character, b: Character) -> bool:
    """The whole class multiset of `a` matches injectively, size-monotonically,
    into that of `b` (infinite classes only into infinite classes)."""
    return _plain(a.omega_count) <= _plain(b.omega_count) and fin_embeds(a, b)


def biembeddable(a: Character, b: Character) -> bool:
    return embeds(a, b) and embeds(b, a)


def fin_biembeddable(a: Character, b: Character) -> bool:
    return fin_embeds(a, b) and fin_embeds(b, a)
