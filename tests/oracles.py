"""Brute-force embedding oracles, independent of the cumulative-count route.

Everything here works on explicit finite truncations of the censuses;
matchability is decided either by counting interchangeable uniform blocks or
by an augmenting-path search over the materialized host list.  Nothing reads
Character.cumulative_profile, so agreement with the package's embedding tests
is a genuine two-route check.  (The replaced forms kept at the end of this
module as differential references are not embedding oracles.)

The counting oracles saturate materialized per-size counts at SATURATE and
treat anything at or above it as infinite; they are exact for censuses whose
finite counts stay well below that cap (the oracle corpus keeps counts <= 3
over at most a handful of sizes).
"""
from __future__ import annotations

import math
import operator
import random
from collections import Counter, deque
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import lru_cache
from itertools import count, islice, repeat

from limitlearn import (
    AdversaryReport,
    ExtNat,
    FamilyError,
    OMEGA,
    ZERO,
    Character,
    Component,
    ConsistencyError,
    DiagonalizationReport,
    INFORMANT,
    PAUSE,
    RELATIONS,
    RepresentationError,
    SeparabilityResult,
    TEXT,
    Prefix,
    PrefixState,
    SimulationResult,
    Stream,
    Trace,
    conjectures_equal,
    embeds,
    ext,
    fair_informant,
    pair_code,
    profile_of,
    unpair_code,
)
from limitlearn.adversaries import (
    _EXHAUSTED,
    TWO_CLASSES,
    _census_of,
    _Labeling,
    _TargetBuilder,
    _TextBuilder,
)
from limitlearn.bridge import SizeSequence, _window
from limitlearn.separability import imitates
from limitlearn.presentations import (
    PATTERN,
    class_slots,
    pattern_sizes,
    reorder_items,
    slot_demand,
)
from limitlearn.learners import (
    Learner,
    MinEmbedLearner,
    SeparatorLearner,
    conjecture_str,
    minimal_hosts,
)

INF = None  # symbolic size of an infinite class
SATURATE = 50


def truncation(char: Character, copies_cap: int, top: int) -> tuple:
    """Explicit class-size list: per-size counts capped, sizes materialized
    up to `top`, infinite classes as symbolic INF entries."""
    sizes: list = []
    for size in range(1, top + 1):
        sizes.extend([size] * min(char.count(size), copies_cap))
    sizes.extend([INF] * min(char.count(math.inf), copies_cap))
    return tuple(sizes)


def _shared_top(a: Character, b: Character, slack: int) -> int:
    keys = list(a.sizes_of_interest) + list(b.sizes_of_interest) + [1]
    return max(keys) + slack


def brute_fin_embeds(a: Character, b: Character) -> bool:
    """Finite embedding via uniform witnesses.

    A violating finite substructure, if one exists, can be shrunk to m blocks
    of a single size t (cut every block at the threshold where the hosts run
    out and drop the rest), and uniform blocks are interchangeable, so
    counting hosts in deep truncations decides each witness.
    """
    top = _shared_top(a, b, SATURATE + 10)
    hosts_a = truncation(a, SATURATE + 5, top)
    hosts_b = truncation(b, SATURATE + 5, top)
    for t in range(1, max(list(a.sizes_of_interest) + list(b.sizes_of_interest) + [1]) + 3):
        realizable = sum(1 for h in hosts_a if h is INF or h >= t)
        available = sum(1 for h in hosts_b if h is INF or h >= t)
        if available >= SATURATE:
            continue  # infinitely many hosts at this threshold
        if min(realizable, SATURATE) > available:
            return False
    return True


def brute_embeds(a: Character, b: Character) -> bool:
    """Full embedding by counting: the finite-threshold checks of the finite
    oracle plus the requirement that infinite classes find infinite hosts."""
    if not brute_fin_embeds(a, b):
        return False
    top = _shared_top(a, b, SATURATE + 10)
    inf_a = sum(1 for h in truncation(a, SATURATE + 5, top) if h is INF)
    inf_b = sum(1 for h in truncation(b, SATURATE + 5, top) if h is INF)
    if inf_b >= SATURATE:
        return True
    return min(inf_a, SATURATE) <= inf_b


# ---------------------------------------------------------------------------
# Matching-based oracles (small censuses)


def _fits(block, host) -> bool:
    if block is INF:
        return host is INF
    if host is INF:
        return True
    return block <= host


def match_blocks(blocks: tuple, hosts: tuple) -> bool:
    """Can every block go to its own host of at least its size?  Augmenting
    path search (Kuhn's algorithm)."""
    owner = [None] * len(hosts)

    def augment(b, seen):
        for h, host in enumerate(hosts):
            if h in seen or not _fits(blocks[b], host):
                continue
            seen.add(h)
            if owner[h] is None or augment(owner[h], seen):
                owner[h] = b
                return True
        return False

    return all(augment(b, set()) for b in range(len(blocks)))


@lru_cache(maxsize=None)
def _matchable(profile: tuple, hosts: tuple) -> bool:
    return match_blocks(profile, hosts)


def all_profiles(max_total: int):
    """Descending block-size profiles with total size up to the bound."""
    out = []

    def rec(total, max_part, acc):
        if total == 0:
            out.append(tuple(acc))
            return
        for first in range(min(total, max_part), 0, -1):
            acc.append(first)
            rec(total - first, first, acc)
            acc.pop()

    for total in range(1, max_total + 1):
        rec(total, total, [])
    return out


def brute_fin_embeds_profiles(a: Character, b: Character, max_total: int = 10) -> bool:
    """Exhaustive small-profile oracle: every finite substructure of `a` up to
    the given total size must match into `b` (full matching search).  Sound
    for censuses with counts <= 2 over sizes <= 3, where any violation fits
    within total size 10."""
    top = _shared_top(a, b, 8)
    hosts_a = truncation(a, 12, top)
    hosts_b = truncation(b, 12, top)
    for profile in all_profiles(max_total):
        if _matchable(profile, hosts_a) and not _matchable(profile, hosts_b):
            return False
    return True


def brute_embeds_matching(a: Character, b: Character, copies_cap: int = 8) -> bool:
    """Full embedding by explicit matching of truncated class lists; sound for
    small censuses where violations appear within the caps."""
    top = _shared_top(a, b, 14)
    demands = list(truncation(a, copies_cap, top))
    hosts = truncation(b, 3 * copies_cap, top + 20)
    demands.sort(key=lambda s: -(10 ** 9) if s is INF else -s)
    return match_blocks(tuple(demands), hosts)


# ---------------------------------------------------------------------------
# Slot sizes straight from the census, and settled sequences read slot by slot


def census_slot_sizes(char, n):
    """The first n slot sizes of a census, straight from its `slot_demand`:
    the finite demands, then one size from each source in turn (the default
    count's from `pattern_sizes`), omega as math.inf, and 0 where nothing is
    demanded."""
    finite, sources = slot_demand(char)
    streams = [pattern_sizes(char) if s == PATTERN else repeat(s) for s in sources]
    sizes = list(finite)
    while len(sizes) < n and streams:
        sizes.extend(next(stream) for stream in streams)
    sizes = [math.inf if s is None else s for s in sizes[:n]]
    return sizes + [0] * (n - len(sizes))


def rescan_spawn_sizes(target, used, n):
    """The first n sizes the presentation builder spawns for `target` once
    `used` slots per size are planned, by the rescan it once ran on every
    draw: the first finite demand `used` leaves open, else the next source
    in turn, the default's pattern skipping sizes planned in full."""
    used = Counter(used)

    def avail(size):
        return used[size] < target.count(math.inf if size is None else size)

    finite, sources = slot_demand(target)
    pattern, turn, sizes = pattern_sizes(target), 0, []
    while len(sizes) < n:
        open_demands = [s for s in finite if avail(s)]
        if open_demands:
            size = open_demands[0]
        elif sources:
            size = sources[turn % len(sources)]
            turn += 1
            if size == PATTERN:
                size = next(s for s in pattern if avail(s))
        else:
            break
        used[size] += 1
        sizes.append(size)
    return sizes


def plain_sizes(seq, n):
    """The first n sizes of a settled size sequence, read off its `values` and
    continued past them slot by slot: a slot repeats the slot one period
    back, plus the step between the two slots a period apart before it."""
    sizes = list(seq.values[:n])
    for i in range(len(sizes), n):
        prev = sizes[i - seq.period]
        sizes.append(prev if prev == math.inf else 2 * prev - sizes[i - 2 * seq.period])
    return sizes


# ---------------------------------------------------------------------------
# Language closure by pairwise comparison


def pairwise_language_closure(langs, positions):
    """The bridge's closure as first written: each transposition candidate is
    kept unless it equals a language already kept.  A candidate swaps two of
    its language's sizes and moves the base past both.  Each pair is compared
    on its own window, from the larger base and the lcm of the periods, and a
    third period past the window checks that both sequences have settled
    where their bases say."""
    n = max([positions, *(lang.base for lang in langs)]) + 3 * math.lcm(*(lang.period for lang in langs))

    def steps(vals, base, period):
        out = []
        for rho in range(period):
            v0, v1, v2 = (vals[base + rho + k * period] for k in range(3))
            if v0 == math.inf:
                assert v1 == v2 == math.inf, "not settled"
                out.append(None)
            else:
                assert v1 < math.inf and v2 < math.inf, "not settled"
                assert v2 - v1 == v1 - v0 >= 0, "not settled"
                out.append(v1 - v0)
        return out

    def equal(x, y):
        (vx, bx, px), (vy, by, py) = x, y
        base, period = max(bx, by), math.lcm(px, py)
        return (vx[:base + 2 * period] == vy[:base + 2 * period]
                and steps(vx, base, period) == steps(vy, base, period))

    out = [(plain_sizes(lang, n), lang.base, lang.period) for lang in langs]
    for vals, base, period in out[:len(langs)]:
        for a in range(positions):
            for b in range(a + 1, positions):
                swapped = list(vals)
                swapped[a], swapped[b] = vals[b], vals[a]
                cand = (swapped, max(base, b + 1), period)
                if not any(equal(cand, seen) for seen in out):
                    out.append(cand)
    return [SizeSequence(tuple(vals[:base + 2 * period]), period) for vals, base, period in out]


# ---------------------------------------------------------------------------
# The diagonalizer with materialized prefixes


def full_labeling_extension(old_n, new_n, same_class):
    pairs = [
        (x, y)
        for x in range(new_n)
        for y in range(new_n)
        if x >= old_n or y >= old_n
    ]
    pairs.sort(key=lambda p: pair_code(p[0], p[1]))
    return [(x, y, 1 if same_class(x, y) else 0) for x, y in pairs]


def materialized_diagonalize(learner, class_size, stages):
    """The diagonalizer as first written: each stage scans the whole square
    of elements for the new pairs and sorts them by Cantor code, both
    prefixes are kept as item tuples, and the expansion test rescans every
    conjecture pair since the last expansion."""
    e = class_size
    learner.reset()
    lrn_sigma = learner.clone()
    lrn_tau = learner.clone()
    sigma_class = {i: i for i in range(e)}
    tau_class = {i: 0 for i in range(e)}
    next_class = e + 1
    sigma_items = full_labeling_extension(0, e, lambda x, y: sigma_class[x] == sigma_class[y])
    tau_items = full_labeling_extension(0, e, lambda x, y: tau_class[x] == tau_class[y])
    for it in sigma_items:
        lrn_sigma.consume(it)
    for it in tau_items:
        lrn_tau.consume(it)
    c_sigma = [lrn_sigma.conjecture()]
    c_tau = [lrn_tau.conjecture()]
    n = e
    last_exp = 0
    expansionary = []
    nu_marks = [len(sigma_items)]
    case2 = 0
    for s in range(stages):
        stage_no = s + 1
        z = n
        if any(
            not conjectures_equal(c_sigma[v], c_tau[v])
            for v in range(last_exp, len(c_sigma))
        ):
            expansionary.append(stage_no)
            last_exp = stage_no
            ids = [next_class, next_class + 1, next_class + 2]
            next_class += 3
            for k in range(3):
                for x in range(z + k * e, z + (k + 1) * e):
                    tau_class[x] = ids[k]
                    if k < 2:
                        sigma_class[x] = ids[k]
                    else:
                        sigma_class[x] = next_class
                        next_class += 1
            extra = z + 3 * e
            sigma_class[extra] = next_class
            tau_class[extra] = next_class + 1
            next_class += 2
            new_n = extra + 1
        else:
            case2 += 1
            sigma_class[z] = next_class
            tau_class[z] = next_class + 1
            next_class += 2
            new_n = z + 1
        ext_sigma = full_labeling_extension(n, new_n, lambda x, y: sigma_class[x] == sigma_class[y])
        ext_tau = full_labeling_extension(n, new_n, lambda x, y: tau_class[x] == tau_class[y])
        sigma_items.extend(ext_sigma)
        tau_items.extend(ext_tau)
        for it in ext_sigma:
            lrn_sigma.consume(it)
        for it in ext_tau:
            lrn_tau.consume(it)
        n = new_n
        c_sigma.append(lrn_sigma.conjecture())
        c_tau.append(lrn_tau.conjecture())
        if expansionary and expansionary[-1] == stage_no:
            nu_marks.append(len(sigma_items))

    m = len(expansionary)

    def census_of(assignment):
        sizes = {}
        for cid in assignment.values():
            sizes[cid] = sizes.get(cid, 0) + 1
        counts = {}
        for size in sizes.values():
            counts[size] = counts.get(size, 0) + 1
        return Character.make(0, counts, 0)

    sigma_char = census_of(sigma_class)
    tau_char = census_of(tau_class)
    e_counts_ok = sigma_char.count(e) == 2 * m and tau_char.count(e) == 1 + 3 * m
    singletons_ok = (
        sigma_char.count(1) == e + m * (e + 1) + case2
        and tau_char.count(1) == m + case2
    )
    nu_ok = all(
        not conjectures_equal(c_sigma[t1], c_sigma[t2])
        for t1, t2 in zip(expansionary, expansionary[1:])
    )
    distinct_ok = sigma_char != tau_char
    return DiagonalizationReport(
        e, stages, expansionary,
        Prefix(INFORMANT, tuple(sigma_items)), Prefix(INFORMANT, tuple(tau_items)),
        nu_marks, sigma_char, tau_char,
        e_counts_ok, singletons_ok, nu_ok, distinct_ok,
    )


# ---------------------------------------------------------------------------
# Default-pattern sizes by the counters stream generation first kept


def counter_pattern_sizes(per_size, skip, n):
    """The first n sizes of a finite default count: the next admissible size
    and how many copies of the current one are left."""
    out, next_size, left, size = [], 1, 0, None
    while len(out) < n:
        while left == 0:
            while next_size in skip:
                next_size += 1
            left, size = per_size, next_size
            next_size += 1
        left -= 1
        out.append(size)
    return out


def sweep_pattern_sizes(skip, n):
    """The first n sizes of an infinite default's triangular sweep, by a
    position that restarts at 1 each time it passes a growing limit."""
    out, pos, limit = [], 0, 0
    while len(out) < n:
        pos += 1
        if pos > limit:
            limit += 1
            pos = 1
        if pos not in skip:
            out.append(pos)
    return out


# ---------------------------------------------------------------------------
# The ExtNat census algebra the cumulative profile replaced


def _extnat_sum(a: ExtNat, b: ExtNat) -> ExtNat:
    return OMEGA if a.is_omega or b.is_omega else ExtNat(a.finite + b.finite)


def _extnat_le(a: ExtNat, b: ExtNat) -> bool:
    return b.is_omega or not a.is_omega and a.finite <= b.finite


def extnat_cumulative(char: Character, threshold):
    """Classes of size >= threshold, re-summed over the exceptions."""
    threshold = ext(threshold)
    if threshold.is_omega:
        return char.omega_count
    if char.default != ZERO:
        return OMEGA
    total = char.omega_count
    for size, cnt in char.exceptions:
        if size >= threshold.finite:
            total = _extnat_sum(total, cnt)
    return total


def _breakpoints(a: Character, b: Character) -> list[int]:
    pts = {1}
    for size in a.sizes_of_interest + b.sizes_of_interest:
        pts.add(size)
        pts.add(size + 1)
    return sorted(pts)


def extnat_fin_embeds(a: Character, b: Character) -> bool:
    return all(_extnat_le(extnat_cumulative(a, t), extnat_cumulative(b, t))
               for t in _breakpoints(a, b))


def extnat_embeds(a: Character, b: Character) -> bool:
    return _extnat_le(a.omega_count, b.omega_count) and extnat_fin_embeds(a, b)


# ---------------------------------------------------------------------------
# The pointwise relations by listing components class by class


def listed_components(char: Character, top: int, cap: int) -> set:
    """The components (size, index) of the census with a finite size up to
    `top`, or size None for the infinite classes, and index up to `cap`, read
    off the ExtNat fields with no count comparison.  Exact when every size
    above `top` counts as the default and `cap` exceeds every finite count."""
    listed = dict(char.exceptions)
    comps = set()
    for size in [*range(1, top + 1), None]:
        n = char.omega_count if size is None else listed.get(size, char.default)
        comps.update((size, i) for i in range(1, cap + 1) if n.is_omega or i <= n.finite)
    return comps


def listing_bounds(*chars: Character) -> tuple[int, int]:
    """A `top` and a `cap` for which `listed_components` is exact on all of
    `chars`: one past their largest listed size, one past their largest
    finite count."""
    sizes = [s for c in chars for s in c.sizes_of_interest]
    counts = [n.finite for c in chars
              for n in (c.default, c.omega_count, *(n for _, n in c.exceptions))
              if not n.is_omega]
    return max(sizes, default=0) + 1, max(counts, default=0) + 1


def listed_char_subset(a: Character, b: Character) -> bool:
    top, cap = listing_bounds(a, b)
    return listed_components(a, top, cap) <= listed_components(b, top, cap)


def listed_char_diff_min(c: Character, s: Character):
    """The least component of `c` missing from `s` in canonical order, or
    None.  Past `top` both counts are the defaults, so a missing component
    there is also missing, with a smaller code, at `top`."""
    top, cap = listing_bounds(c, s)
    missing = listed_components(c, top, cap) - listed_components(s, top, cap)
    if not missing:
        return None
    size, index = min(missing, key=lambda ki: pair_code(*ki))
    return Component(ExtNat(size), index)


# ---------------------------------------------------------------------------
# The queries the birth index and the change-point trace replaced


def scan_births_for_size(state, size: int) -> list[int]:
    """The birth stages of the blocks of one size, by a scan over every
    block, unsorted: the query the size-indexed births replaced."""
    return [state.birth[r] for r, m in state._members.items() if len(m) == size]


class ListTrace:
    """A run's conjecture sequence kept in full, one entry per stage, every
    judgement a scan of consecutive entries."""

    def __init__(self, conjectures: list):
        self.conjectures = conjectures

    @property
    def mind_changes_ex(self) -> list[int]:
        return [
            s for s in range(1, len(self.conjectures))
            if not conjectures_equal(self.conjectures[s], self.conjectures[s - 1])
        ]

    @property
    def mind_changes_fin(self) -> list[int]:
        return [
            s for s in range(1, len(self.conjectures))
            if self.conjectures[s - 1] is not None
            and not conjectures_equal(self.conjectures[s], self.conjectures[s - 1])
        ]

    def fin_shape(self, target: Character, relation: str = "iso") -> bool:
        rel = RELATIONS[relation]
        actual = [c for c in self.conjectures if c is not None]
        return bool(actual) and all(rel(c, target) and c == actual[0] for c in actual)

    def final(self):
        return self.conjectures[-1]

    def stable_from(self) -> int:
        last = len(self.conjectures) - 1
        start = last
        while start > 0 and conjectures_equal(self.conjectures[start - 1], self.conjectures[last]):
            start -= 1
        return start

    def lines(self) -> list[str]:
        out = []
        for s, c in enumerate(self.conjectures):
            changed = s > 0 and not conjectures_equal(c, self.conjectures[s - 1])
            out.append(f"stage {s}: {conjecture_str(c)}" + (" [MC]" if changed else ""))
        return out


# ---------------------------------------------------------------------------
# The negative-fact bookkeeping the per-block bitmasks replaced


class SetPrefixState:
    """The prefix decoder with negative facts kept as one set of enemy roots
    per block, rewired at every union: the bookkeeping the per-block
    bitmasks replaced.  Only blocks, negative facts and the two revision
    counters; same union order, same roots, same errors."""

    def __init__(self, kind: str = INFORMANT):
        self.kind = kind
        self.stage = 0
        self.struct_rev = 0
        self.neg_rev = 0
        self._parent: dict[int, int] = {}
        self._members: dict[int, list[int]] = {}
        self._enemies: dict[int, set[int]] = {}

    def find(self, x: int) -> int:
        while self._parent[x] != x:
            x = self._parent[x]
        return x

    def _root(self, x: int) -> int:
        if x in self._parent:
            return self.find(x)
        self._parent[x] = x
        self._members[x] = [x]
        self.struct_rev += 1
        return x

    def _union(self, a: int, b: int) -> None:
        if len(self._members[a]) < len(self._members[b]):
            a, b = b, a
        self._members[a].extend(self._members.pop(b))
        self._parent[b] = a
        for e in self._enemies.pop(b, ()):
            self._enemies[e].discard(b)
            self._enemies[e].add(a)
            self._enemies.setdefault(a, set()).add(e)
        self.struct_rev += 1

    def feed(self, item) -> None:
        index = self.stage
        self.stage += 1
        if self.kind == TEXT:
            if item is None:
                return
            (x, y), label = item, 1
        else:
            x, y, label = item
        ra, rb = self._root(x), self._root(y)
        if label:
            if ra != rb:
                if rb in self._enemies.get(ra, ()):
                    raise ConsistencyError(
                        f"item {index}: pair ({x},{y}) related but blocks separated", index)
                self._union(ra, rb)
        else:
            if ra == rb:
                raise ConsistencyError(
                    f"item {index}: pair ({x},{y}) unrelated but positively connected", index)
            if rb not in self._enemies.get(ra, ()):
                self._enemies.setdefault(ra, set()).add(rb)
                self._enemies.setdefault(rb, set()).add(ra)
                self.neg_rev += 1

    def block_roots(self) -> list[int]:
        return list(self._members)

    def separated(self, root_a: int, root_b: int) -> bool:
        return root_b in self._enemies.get(root_a, ())

    def copy(self) -> "SetPrefixState":
        dup = SetPrefixState(self.kind)
        dup.stage, dup.struct_rev, dup.neg_rev = self.stage, self.struct_rev, self.neg_rev
        dup._parent = dict(self._parent)
        dup._members = {r: list(m) for r, m in self._members.items()}
        dup._enemies = {r: set(e) for r, e in self._enemies.items()}
        return dup


# ---------------------------------------------------------------------------
# The recomputes the running census replaced, and the host computation the
# prefix's plain profile replaced


def char_minimal_hosts(state, members, strictly_below) -> list[int]:
    """The minimal hosts found by building the prefix's census and testing
    `embeds` against every member."""
    census = state.char()
    hosts = [i for i, m in enumerate(members) if embeds(census, m)]
    return [i for i in hosts if not any(strictly_below[i][j] for j in hosts)]


class ScratchMinEmbedLearner(MinEmbedLearner):
    """The min-embed learner recomputed from scratch at each structural
    revision: the clamped census rebuilt from every entry of
    ``births_by_size``, looked up in the host memo.  The reference for the
    library's running census, which reads only the sizes the decoder
    moved."""

    def _minimal_hosts(self) -> list[int]:
        top, cap, census = self._top, self._cap, {}
        for size, entries in self._state.births_by_size.items():
            if size > top:
                size = top
            n = census.get(size, 0) + len(entries)
            census[size] = n if n < cap else cap
        key = frozenset(census.items())
        hosts = self._hosts.get(key)
        if hosts is None:
            hosts = self._hosts[key] = minimal_hosts(
                profile_of(census), self._profiles, self._strictly_below)
        return hosts

    def _recompute(self) -> None:
        minimal = self._minimal_hosts()
        self._cached_index = min(minimal) if minimal else None
        self._cached = self.members[self._cached_index] if minimal else None


class ScratchSeparatorLearner(SeparatorLearner):
    """The separator learner recomputed from scratch: the hosts as in
    ``ScratchMinEmbedLearner``, and every age in the current class read
    again from ``births_by_size`` (`_realized_since`)."""

    _minimal_hosts = ScratchMinEmbedLearner._minimal_hosts

    def _realized_since(self, sep: tuple[tuple[int, int], ...]) -> int | None:
        """Earliest stage from which one fixed witness assignment for every
        component (size, index) of the separator `sep` has persisted; None
        when some component is unrealized."""
        by_size = self._state.births_by_size
        since = 0
        for size, index in sep:
            entries = by_size.get(size, ())
            if len(entries) < index:
                return None
            birth = entries[index - 1][0]
            if birth > since:
                since = birth
        return since

    def _recompute(self) -> None:
        ScratchMinEmbedLearner._recompute(self)
        if self._cached_index is not None:
            seps = self._separators
            ages = [(self._realized_since(seps[j]), j) for j in self._class_of[self._cached_index]]
            best = min((age for age in ages if age[0] is not None), default=None)
            self._cached = self.members[best[1]] if best else None


class CharMinEmbedLearner(ScratchMinEmbedLearner):
    """The from-scratch min-embed learner with its hosts from
    `char_minimal_hosts`."""

    def _minimal_hosts(self) -> list[int]:
        return char_minimal_hosts(self._state, self.members, self._strictly_below)


class CharSeparatorLearner(ScratchSeparatorLearner):
    """The from-scratch separator learner with its hosts from
    `char_minimal_hosts`."""

    _minimal_hosts = CharMinEmbedLearner._minimal_hosts


# ---------------------------------------------------------------------------
# The language-decoding learner as a composition of two host computations


class ComposedLanguageToStructLearner(Learner):
    """The language-decoding learner as it was first composed: its own
    strictly-below matrix over `embeds`, its own minimal hosts, and a whole
    separator learner as arbiter.  The conjecture is None on the empty
    prefix or with no minimal host; otherwise the arbiter's conjecture when
    it is one of the minimal hosts, else the least minimal host."""

    mode = INFORMANT
    name = "lang-decode-composed"
    _owned = ("_arbiter",)

    def __init__(self, members):
        self.members = tuple(members)
        self._profiles = tuple(m.cumulative_profile for m in self.members)
        n = len(self.members)
        self._strictly_below = [
            [embeds(self.members[j], self.members[i])
             and not embeds(self.members[i], self.members[j])
             for j in range(n)]
            for i in range(n)
        ]
        self._arbiter = SeparatorLearner(self.members, enforce=False)
        self.reset()

    def reset(self) -> None:
        self._arbiter.reset()
        self._rev = -1
        self._cached = None

    def consume(self, item) -> None:
        self._arbiter.consume(item)

    def conjecture(self):
        state = self._arbiter._state
        if self._rev == state.struct_rev:
            return self._cached
        self._rev = state.struct_rev
        if state.n_mentioned == 0:
            self._cached = None
            return None
        minimal = minimal_hosts(profile_of(state.size_counts), self._profiles, self._strictly_below)
        if not minimal:
            self._cached = None
            return None
        choice = min(minimal)
        refined = self._arbiter.conjecture()
        if refined is not None and any(self.members[i] == refined for i in minimal):
            self._cached = refined
        else:
            self._cached = self.members[choice]
        return self._cached


# ---------------------------------------------------------------------------
# Language membership and the slot count, read slot by slot off a size
# sequence


def lang_member(lang, code: int) -> bool:
    """Whether the code <i, j> lies in the language of the size sequence:
    j < g(i)."""
    i, j = unpair_code(code)
    value = lang.eval(i)
    return value.is_omega or j < value.finite


def slot_count(seq, size: int | float) -> int | float:
    """How many slots of the size sequence carry exactly the given plain size
    (``math.inf`` for infinite classes; the census count property): those
    below its base, and past it one for each residue class whose progression
    of sizes meets the size, or infinitely many (``math.inf``) where that
    progression stands still on it."""
    base, period = seq.base, seq.period
    total = seq.values[:base].count(size)
    for first, second in zip(seq.values[base:base + period], seq.values[base + period:]):
        step = 0 if first == math.inf else second - first
        if first == size and step == 0:
            return math.inf
        if first <= size < math.inf and step and (size - first) % step == 0:
            total += 1
    return total


# ---------------------------------------------------------------------------
# Finite permutations of a size sequence, one language at a time: the
# reference for `language_closure`, which swaps entries on one shared window


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
    """The sequence i -> seq(perm(i)); equal outside the permutation's support,
    so its base is past the support."""
    if not perm.moves:
        return seq
    held = seq.stretched(max(seq.base, max(a for a, _ in perm.moves) + 1), seq.period)
    values = list(held.values)
    for a, b in perm.moves:
        values[a] = held.values[b]
    return SizeSequence(tuple(values), seq.period)


# ---------------------------------------------------------------------------
# The tell-tale scan over every member and the probe loop, and the
# cumulative-count substructure search, which the closed forms replaced


def vec_le(va: tuple, vb: tuple, base: int, period: int) -> bool:
    """Inclusion of two languages held on one window: pointwise on its
    values, and past its base the included one grows no faster."""
    if not all(map(operator.le, va, vb)):
        return False
    # where b is finite past the base, so is a (it is below b); a must not grow faster
    return all(vb[i] == math.inf or va[i + period] - va[i] <= vb[i + period] - vb[i]
               for i in range(base, base + period))


def flat_telltale_search(lang, family_langs, bound: int):
    """`telltale_search` by ordering the language against every family
    language on their common window, one by one, and reading each least
    separating code off the two vectors."""
    base, period, (vec, *vecs) = _window([lang, *family_langs])
    witnesses: set[int] = set()
    for other_vec in vecs:
        if other_vec == vec or not vec_le(other_vec, vec, base, period):
            continue
        found = min(pair_code(i, b) for i, (a, b) in enumerate(zip(vec, other_vec)) if b < a)
        if found > bound:
            return None
        witnesses.add(found)
        if len(witnesses) > bound:
            return None
    return witnesses


def probe_telltale_search(lang, family_langs, bound: int):
    """`telltale_search` by probing codes 0..bound for membership in the
    language and not in each properly-included family language."""
    base, period, (vec, *vecs) = _window([lang, *family_langs])
    witnesses: set[int] = set()
    for other, other_vec in zip(family_langs, vecs):
        if other_vec == vec or not vec_le(other_vec, vec, base, period):
            continue
        found = None
        for code in range(bound + 1):
            if lang_member(lang, code) and not lang_member(other, code):
                found = code
                break
        if found is None:
            return None
        witnesses.add(found)
        if len(witnesses) > bound:
            return None
    return witnesses


def _partitions(total: int, max_part: int):
    """Descending partitions of `total` with parts bounded by `max_part`."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def cumulative_distinguishing_substructure(member: Character, others, cap: int = 200):
    """`distinguishing_substructure` by comparing the partition's count of
    parts >= t with `extnat_cumulative` at each part size t."""

    def parts_ge(profile, t):
        return ExtNat(sum(1 for p in profile if p >= t))

    max_part = 1
    for c in (member, *others):
        for size, _ in c.exceptions:
            max_part = max(max_part, size + 1)
    for total in range(1, cap + 1):
        for profile in sorted(_partitions(total, max_part)):
            thresholds = set(profile)
            if any(not _extnat_le(parts_ge(profile, t), extnat_cumulative(member, t))
                   for t in thresholds):
                continue  # not realizable inside member
            if all(
                any(not _extnat_le(parts_ge(profile, t), extnat_cumulative(other, t))
                    for t in thresholds)
                for other in others
            ):
                return profile
    raise FamilyError(f"no distinguishing substructure of {member} within size {cap}")


# ---------------------------------------------------------------------------
# The per-item streams and the per-item simulation the diagonal lists and
# `Learner.advance` replaced


def pair_walk(universe: int | None):
    """Every ordered pair of naturals once, in Cantor order; over a finite
    universe, the pairs of its square in that order, over and over."""
    if universe is None:
        for d in count():
            for y in range(d + 1):
                yield d - y, y
    else:
        while True:
            yield from cantor_new_pairs(0, universe)


def cantor_new_pairs(old_n: int, new_n: int):
    """A verbatim copy of `presentations._new_pairs`: the ordered pairs over
    range(new_n) outside the square range(old_n)², in Cantor order, one
    diagonal at a time.  The references that walk stages use it so that they
    share no code with the library; the independent check of its order is
    `full_labeling_extension`, which sorts the new square by Cantor code."""
    for d in range(old_n, 2 * new_n - 1):
        lo, hi = max(0, d - new_n + 1), min(d, new_n - 1)
        for y in range(lo, min(hi, d - old_n) + 1):  # x >= old_n
            yield d - y, y
        for y in range(max(lo, old_n, d - old_n + 1), hi + 1):  # y >= old_n
            yield d - y, y


def _slot_reader(char: Character, seed: int):
    """Element x's class slot from `class_slots`, drawn up to x on demand,
    and the size of a finite universe (None for an infinite one)."""
    slots, placed = class_slots(char, seed), []

    def slot(x):
        if x >= len(placed):
            placed.extend(islice(slots, x + 1 - len(placed)))
        return placed[x]

    return slot, char.finite_universe_size() if char.total_size_finite else None


def generator_fair_informant(char: Character, seed: int = 0) -> Stream:
    """`fair_informant` as a generator that labels one pair at a time."""
    slot, bound = _slot_reader(char, seed)

    def gen():
        for x, y in pair_walk(bound):
            yield (x, y, 1 if slot(x) == slot(y) else 0)

    return Stream(INFORMANT, char, gen())


def generator_fair_text(char: Character, seed: int = 0) -> Stream:
    """`fair_text` as a generator that decides one pair at a time."""
    slot, bound = _slot_reader(char, seed)

    def gen():
        for x, y in pair_walk(None):
            if bound is not None and (x >= bound or y >= bound):
                yield PAUSE
            else:
                yield (x, y) if slot(x) == slot(y) else PAUSE

    return Stream(TEXT, char, gen())


def next_call_reordered_head(char: Character, seed: int, strategy: str, window: int = 2000) -> list:
    """The head of `reordered_informant`, drawn by `window` calls to `next`
    and sorted on negated keys, as the stream first built it."""
    it = iter(fair_informant(char, seed))
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
    return head


class ClassAssignment:
    """The round-robin class assignment fair streams were first built on,
    kept as the reference for `class_slots`: element x's slot is
    ``slot_of(x)``, placed by running rounds until x is reached.

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


def per_item_simulation(learner: Learner, stream, stages: int, target=None,
                        relation: str = "iso", window: int = 200) -> SimulationResult:
    """`run_simulation` with the conjecture read after every item and the
    change points kept by a loop of its own."""
    learner.reset()
    last = learner.conjecture()
    changes, stage = [(0, last)], 0
    for stage, item in enumerate(islice(stream, stages), 1):
        c = learner.feed(item)
        if not conjectures_equal(c, last):
            changes.append((stage, c))
            last = c
    trace = Trace(changes, stage + 1)
    exhausted = trace.length <= stages
    stable = changes[-1][0]
    correct = target is None or (last is not None and RELATIONS[relation](last, target))
    converged = trace.length - stable > window and correct and not exhausted
    return SimulationResult(trace, converged, stable if converged else None,
                            target, relation, stages, window, exhausted)


# ---------------------------------------------------------------------------
# The per-item decoder and the per-item diagonalizer that eager roots and
# decoded runs replaced


class PathCompressingPrefixState:
    """The prefix decoder as it fed one item per call: a union points the
    smaller block's root at the larger's, and `find` walks the parent chain
    and compresses it.  Same union order, roots, births, negative masks and
    errors as `PrefixState`."""

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

    def find(self, x: int) -> int:
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _add_element(self, x: int) -> int:
        self._parent[x] = x
        self._members[x] = [x]
        self._bit[x] = self._mask[x] = 1 << len(self._bit)
        self._neg[x] = 0
        self.birth[x] = self.stage
        insort(self.births_by_size.setdefault(1, []), (self.stage, x))
        self.struct_rev += 1
        return x

    def _union(self, a: int, b: int) -> None:
        members, birth, by_size = self._members, self.birth, self.births_by_size
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for root in (a, b):
            size = len(members[root])
            entries = by_size[size]
            del entries[bisect_left(entries, (birth[root], root))]
            if not entries:
                del by_size[size]
        members[a].extend(members.pop(b))
        self._parent[b] = a
        self._mask[a] |= self._mask.pop(b)
        self._neg[a] |= self._neg.pop(b)
        del birth[b]
        birth[a] = self.stage
        insort(by_size.setdefault(len(members[a]), []), (self.stage, a))
        self.struct_rev += 1

    def feed(self, item) -> None:
        index = self.stage
        self.stage += 1
        if self.kind == TEXT:
            if item is None:
                return
            x, y = item
            label = 1
        else:
            x, y, label = item
        ra = self.find(x) if x in self._parent else self._add_element(x)
        rb = self.find(y) if y in self._parent else self._add_element(y)
        if label:
            if ra != rb:
                if self._neg[ra] & self._mask[rb]:
                    raise ConsistencyError(
                        f"item {index}: pair ({x},{y}) related but blocks separated", index)
                self._union(ra, rb)
        else:
            if ra == rb:
                raise ConsistencyError(
                    f"item {index}: pair ({x},{y}) unrelated but positively connected", index)
            if not self._neg[ra] & self._mask[rb]:
                self._neg[ra] |= self._bit[y]
                self._neg[rb] |= self._bit[x]
                self.neg_rev += 1

    def blocks(self) -> list[list[int]]:
        return [sorted(m) for m in self._members.values()]

    def block_roots(self) -> list[int]:
        return list(self._members)

    def separated(self, root_a: int, root_b: int) -> bool:
        return bool(self._neg[root_a] & self._mask[root_b])


class CantorLabeling(_Labeling):
    """`_Labeling` replayed through the per-diagonal walk."""

    def __iter__(self):
        cls, old_n = self._cls, 0
        for n in self._marks:
            for x, y in cantor_new_pairs(old_n, n):
                yield x, y, 1 if cls[x] == cls[y] else 0
            old_n = n


def per_item_diagonalize(learner, class_size, stages):
    """`diagonalize` with each stage's new pairs walked one diagonal at a
    time, labeled and consumed one item at a time, each side's conjecture
    read after the stage; its prefixes replay through the same walk."""
    e = class_size
    learner.reset()
    lrn_sigma = learner.clone()
    lrn_tau = learner.clone()
    sigma_class = list(range(e))
    tau_class = [0] * e
    next_class = e + 1
    marks = []

    def label_new_pairs(old_n):
        n = len(sigma_class)
        marks.append(n)
        for x, y in cantor_new_pairs(old_n, n):
            lrn_sigma.consume((x, y, 1 if sigma_class[x] == sigma_class[y] else 0))
            lrn_tau.consume((x, y, 1 if tau_class[x] == tau_class[y] else 0))
        return lrn_sigma.conjecture(), lrn_tau.conjecture()

    c_sigma, c_tau = label_new_pairs(0)
    expansionary = []
    nu_conjectures = []
    for stage_no in range(1, stages + 1):
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
        Prefix(INFORMANT, CantorLabeling(sigma_class, marks)),
        Prefix(INFORMANT, CantorLabeling(tau_class, marks)),
        nu_marks, sigma_char, tau_char,
        e_counts_ok, singletons_ok, nu_ok, distinct_ok,
    )


# ---------------------------------------------------------------------------
# The adversaries' per-item loops that `advance` runs replaced


def per_item_limit_adversary(adversary, stages: int) -> AdversaryReport:
    """`LimitAdversary.run` with the learner fed one item at a time, its
    conjecture compared with the current target after every item, and the
    change points kept by a loop of its own."""
    learner, limit, witnesses = adversary.learner, adversary.limit, adversary.witnesses
    learner.reset()
    builder = _TargetBuilder(limit)
    in_limit_phase, current, wit_idx = True, limit, 0
    switches, items = [], []
    last = learner.conjecture()
    pending = conjectures_equal(last, current)
    changes = [(0, last)]
    for step in range(stages):
        if pending and builder.clean:
            if in_limit_phase:
                current = witnesses[wit_idx % len(witnesses)]
                wit_idx += 1
                builder.retarget(current, freeze=True)
            else:
                current = limit
                builder.retarget(current, freeze=False)
            in_limit_phase = not in_limit_phase
            switches.append((step, str(current)))
            pending = False
        builder.finishing = pending
        item = builder.next_item()
        items.append(item)
        conj = learner.feed(item)
        if conjectures_equal(conj, current):
            pending = True
        if not conjectures_equal(conj, last):
            changes.append((step + 1, conj))
            last = conj
    try:
        PrefixState(INFORMANT).feed_all(items)
        consistent = True
    except ConsistencyError:
        consistent = False
    return AdversaryReport(Trace(changes, stages + 1), items, switches, current, consistent)


def per_item_two_class_phase(learner, sigma: Prefix, horizon: int):
    """The text adversary's second phase item by item: the stage at which a
    learner fed `sigma` moves off its conjecture there while the stream turns
    two-classed, or None when it stays through `horizon` items."""
    learner = learner.clone()
    learner.reset()
    for item in sigma.items:
        learner.consume(item)
    locked = learner.conjecture()
    state = PrefixState(TEXT)
    state.feed_all(sigma.items)
    merged = [x for block in state.blocks() for x in block]
    builder = _TextBuilder(TWO_CLASSES, [merged] if merged else [])
    for stage in range(1, horizon + 1):
        if not conjectures_equal(learner.feed(builder.next_item()), locked):
            return stage
    return None


def rewrite_text_conjecture(base: Learner, state: PrefixState):
    """The conjecture of the text-to-informant rewrite on a text prefix
    decoded to `state`: a fresh clone of the informant learner `base`, fed
    the decoded classes one at a time by ``reorder_items``, with a negative
    fact between every two of them: the reference for the text readings that
    ``learner_from_text`` gives, which read the text decoder directly."""
    fresh = base.clone()
    fresh.reset()
    fresh.consume_all(reorder_items(state.blocks()))
    return fresh.conjecture()


class ItemKeyedLockingNormalForm(Learner):
    """``LockingNormalForm`` as it was when its memo of probes that leave the
    conjecture alone was keyed by the item itself, so every new item is
    probed: the reference for the memo keyed by ``Learner.probe_key``.  It
    reads one item per call, and bounds sigma as the wrapper does: sigma
    moves only while it stays at most twice as long as the items read, and
    a drain that bound cuts short leaves its queue to the next item."""

    _owned = ("_history", "_sigma", "_shadow", "_no_flip", "_queue")

    def __init__(self, base: Learner):
        self._at_empty = base.clone()
        self._at_empty.reset()
        self.mode = base.mode
        self.name = f"item-keyed-locking-{base.name}"
        self.reset()

    def reset(self) -> None:
        self._history: list = []
        self._sigma: list = []
        self._at_sigma = self._at_empty
        self._conj = self._at_sigma.conjecture()
        self._shadow = self._at_sigma.clone()
        self._no_flip: set = set()
        self._queue: deque = deque()

    def _changed(self, new_at_sigma, appended: list) -> bool:
        if len(self._sigma) + len(appended) > 2 * len(self._history):
            return False
        self._sigma.extend(appended)
        self._at_sigma = new_at_sigma
        self._conj = new_at_sigma.conjecture()
        self._no_flip.clear()
        self._shadow = new_at_sigma.clone()
        self._shadow.consume_all(self._history)
        self._queue = deque(dict.fromkeys(self._history))
        return True

    def consume(self, item) -> None:
        self._history.append(item)
        self._shadow.consume(item)
        if item not in self._no_flip:
            self._queue.append(item)
        progress = True
        while progress:
            progress = False
            while self._queue:
                it = self._queue.popleft()
                if it in self._no_flip:
                    continue
                probe = self._at_sigma.clone()
                probe.consume(it)
                if conjectures_equal(probe.conjecture(), self._conj):
                    self._no_flip.add(it)
                elif self._changed(probe, [it]):
                    progress = True
                    break
                else:
                    self._queue.appendleft(it)
                    return
            if not progress and not conjectures_equal(self._shadow.conjecture(), self._conj):
                if not self._changed(self._shadow, list(self._history)):
                    return
                progress = True

    def conjecture(self):
        return self._conj

    def distilled(self) -> Prefix:
        return Prefix(self.mode, tuple(self._sigma))


# ---------------------------------------------------------------------------
# The completion builders' walks over Cantor codes that the diagonal walk
# replaced


class CodeWalkTargetBuilder(_TargetBuilder):
    """``_TargetBuilder`` emitting as it did before it walked diagonals: one
    Cantor code per step, a pair skipped when one of its elements finds no
    slot (that element is retried at its next pair), the end found by
    checking that a census with finitely many elements has all of them
    placed and the cursor past the last one's self-pair, and 100,000
    skipped codes in a row taken as misuse."""

    def _try_pair(self, x: int, y: int) -> bool:
        for e in dict.fromkeys((x, y)):
            if e not in self.slot_of and not self._place(e):
                return False
        return True

    def next_item(self):
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


def _pairs_ahead(cursor: int, out: list, n: int, known: int, keep) -> list:
    """`adversaries._pairs_ahead` as it was with a give-up bound: `out`
    extended to n items by the pairs of the Cantor walk from `cursor` that
    `keep` accepts; the walk gives up after 40 * (n + 1) * (known + 4)
    codes, `known` being the number of elements already placed."""
    for code in range(cursor, cursor + 40 * (n + 1) * (known + 4)):
        if len(out) >= n:
            break
        x, y = unpair_code(code)
        if keep(x, y):
            out.append((x, y))
    return out


class CodeWalkTextBuilder:
    """``_TextBuilder`` as it was before it walked diagonals: one Cantor code
    per step, every element up to the pair's larger one placed first
    (`_ensure`), from `_next_elem`, one past the largest element placed,
    which is also the fresh element the candidates name."""

    def __init__(self, target: Character, blocks):
        self.k = target.count(math.inf)
        self.class_of: dict[int, int] = {}
        ordered = sorted((sorted(b) for b in blocks), key=lambda b: b[0])
        for i, block in enumerate(ordered):
            for x in block:
                self.class_of[x] = i % self.k
        self._fresh_rot = len(ordered)
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

    def candidates(self, state, width: int) -> list:
        fresh, cls = self._next_elem, self.class_of
        pairs = _pairs_ahead(self.cursor, [(fresh, fresh)], max(1, width - 1), len(cls),
                             lambda x, y: x in cls and y in cls and cls[x] == cls[y])
        return [PAUSE, *pairs][:width]


# ---------------------------------------------------------------------------
# Finite separability over every ordered pair, as it was before the family's
# order confined the census comparisons to bi-embeddability classes


def pairwise_finitely_separable(members) -> SeparabilityResult:
    """No member is a limit of the others: the `imitates` scan over every
    ordered pair, limit-major, refusing infinite classes as the library does."""
    if any(m.count(math.inf) != 0 for m in members):
        raise FamilyError("finite separability is only defined for families without infinite classes")
    pair = next(((c, m) for c in members for m in members if imitates(m, c)), None)
    return SeparabilityResult(pair is None, pair)
