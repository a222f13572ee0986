"""Checks computed apart from the library.

Nothing here calls into ``limitlearn``: censuses are read off their public
fields into plain tuples, prefixes are decoded by a union-find of our own,
and embedding between finite censuses is decided by greedy class matching.
The workloads compare the library's verdicts against these.
"""
from __future__ import annotations

import math
from collections import Counter

INF = math.inf


class CheckError(AssertionError):
    """A library output disagrees with an independent computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Censuses as plain values: (default, {size: count}, infinite classes),
# with math.inf standing for omega.  Every function below takes plain values.


def _num(ext_nat) -> float:
    return INF if ext_nat.finite is None else ext_nat.finite


def plain(char) -> tuple:
    default = _num(char.default)
    exceptions = {size: _num(count) for size, count in char.exceptions}
    return default, {s: c for s, c in exceptions.items() if c != default}, _num(char.omega_count)


def count(census: tuple, size) -> float:
    default, exceptions, omega = census
    return omega if size is None else exceptions.get(size, default)


def _cumulative(census: tuple, threshold: int) -> float:
    default, exceptions, omega = census
    if default:
        return INF
    return omega + sum(c for s, c in exceptions.items() if s >= threshold)


def fin_embeds(a: tuple, b: tuple) -> bool:
    """Every finite part of `a` embeds into `b`: at no finite threshold does
    `a` have more classes of at least that size."""
    thresholds = {1} | {t for s in (*a[1], *b[1]) for t in (s, s + 1)}
    return all(_cumulative(a, t) <= _cumulative(b, t) for t in thresholds)


def embeds(a: tuple, b: tuple) -> bool:
    """Class-by-class embedding: infinite classes only into infinite ones."""
    return a[2] <= b[2] and fin_embeds(a, b)


def biembeddable(a: tuple, b: tuple) -> bool:
    return embeds(a, b) and embeds(b, a)


def is_limit(candidate: tuple, member: tuple) -> bool:
    """`member` imitates `candidate`: it differs, finitely embeds into it,
    and has at least as many classes of every size."""
    sizes = set(candidate[1]) | set(member[1])
    return (member != candidate and fin_embeds(member, candidate)
            and candidate[0] <= member[0] and candidate[2] <= member[2]
            and all(count(candidate, s) <= count(member, s) for s in sizes))


def greedy_embeds(a_sizes: list[int], b_sizes: list[int]) -> bool:
    """Finite structures given as class-size lists: match the largest class
    of `a` to the largest of `b`, and so on down."""
    if len(a_sizes) > len(b_sizes):
        return False
    return all(x <= y for x, y in zip(sorted(a_sizes, reverse=True), sorted(b_sizes, reverse=True)))


def class_sizes(census: dict[int, int]) -> list[int]:
    return [size for size, count in census.items() for _ in range(count)]


# ---------------------------------------------------------------------------
# Prefix decoding


def decode(items, text: bool = False) -> tuple[bool, tuple]:
    """Replay a prefix: returns whether it is consistent (no negative fact
    inside a positively connected block) and the census of its blocks."""
    if text:
        items = [(x, y, 1) for x, y in filter(None, items)]
    parent: dict[int, int] = {}
    for x, y, _label in items:
        parent[x] = x
        parent[y] = y

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y, label in items:
        if label:
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    root = {x: find(x) for x in parent}
    # the full positive closure must separate every negative pair; then so
    # does the closure of every shorter prefix
    consistent = all(label or root[x] != root[y] for x, y, label in items)
    census = Counter(Counter(root.values()).values())
    return consistent, (0, dict(census), 0)
