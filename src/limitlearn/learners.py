"""Learners over informant and text streams, traces, and bounded simulation.

A learner is a deterministic, resettable state machine from fed items to
conjectures.  A conjecture is either a census (Character) or None, printed as
"?".  Learners cache their conjecture between items that cannot change it, so
feeding a long stream is cheap; all of them are cloneable so adversaries can
probe hypothetical extensions.  A learner steps one way: ``advance`` consumes
a run of items over which the conjecture stays constant, and ``consume`` is a
run of one item.  A subclass defines either method, and each default calls
the other.  ``run_stages`` yields the stage each run reaches, so a
simulation or an adversary reads the conjecture only where it may change.
Where each learner's run stops:

- ``ConstantLearner``: never; it drains its input.
- ``SplitOnNegativeLearner``: at the first negative fact between distinct
  elements, and never once split.
- ``EchoLearner`` and the decoding learners that extend it (one decoder and
  one ``_recompute``, run once per structural revision; ``SeparatorLearner``
  and the bridge's ``LanguageToStructLearner`` refine ``MinEmbedLearner``'s
  host computation there, which is memoized by the prefix's block-size
  census clamped at the family's bounds; ``TextSplitLearner``, the split
  learner's text reading, counts the decoded blocks): at the item that moves
  ``struct_rev``, where ``PrefixState.advance`` stops.
- ``OneShotLearner``: before firing, at the next structural revision while
  no witness's largest block fits the largest decoded block, else after one
  item; once fired, never.
- any other learner: after one item.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, count, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .presentations import INFORMANT, TEXT, PrefixState, Stream
from .separability import FamilyError, Separator, fin_antichain, finitely_separable, separator_of
from .structures import (
    Character,
    biembeddable,
    fin_biembeddable,
    fin_embeds,
    profile_le,
    profile_of,
)

Conjecture = Optional[Character]


def conjectures_equal(a: Conjecture, b: Conjecture) -> bool:
    # learners hand back their cached conjecture objects, so identity
    # settles most comparisons before the fields are compared
    if a is b:
        return True
    if a is None or b is None:
        return False
    return a == b


def conjecture_str(c: Conjecture) -> str:
    return "?" if c is None else str(c)


class Learner:
    """Base interface: reset, step, report the current conjecture.

    ``advance(items)`` consumes items from an iterator until the conjecture
    may have changed and returns how many, 0 once the iterator is exhausted:
    the conjecture after all but the last of them is the one before the
    call.  ``consume(item)`` is ``advance`` over that one item, and the
    default ``advance`` consumes one item, so a subclass defines either
    method.  Neither forces the (possibly lazy) conjecture.

    A learner names in ``_owned`` the attributes it mutates in place;
    ``clone`` gives the copy its own of each (a learner is cloned, anything
    else copied) and shares everything else, which must be immutable or only
    ever replaced, never changed in place.  The one exception is a memo whose
    entries are derived only from immutable fields: a clone may share it and
    add to it, since either side would compute the same entries.
    """

    mode: str = INFORMANT
    name: str = "learner"
    _owned: tuple[str, ...] = ()

    def reset(self) -> None:
        raise NotImplementedError

    def consume(self, item) -> None:
        self.advance(iter((item,)))

    def feed(self, item) -> Conjecture:
        self.consume(item)
        return self.conjecture()

    def advance(self, items: Iterator) -> int:
        for item in items:
            self.consume(item)
            return 1
        return 0

    def consume_all(self, items: Iterable) -> None:
        """Consume every item, one ``advance`` run after another: the
        replay for a batch whose conjecture is read only after it."""
        items = iter(items)
        while self.advance(items):
            pass

    def conjecture(self) -> Conjecture:
        raise NotImplementedError

    def clone(self) -> "Learner":
        # attributes are set one by one: a clone given a whole __dict__ reads
        # its attributes through that dict, which slows every item it is fed
        dup, owned = object.__new__(type(self)), self._owned
        for attr, value in self.__dict__.items():
            if attr in owned:
                value = value.clone() if isinstance(value, Learner) else value.copy()
            setattr(dup, attr, value)
        return dup


def run_stages(learner: Learner, items: Iterator) -> Iterator[int]:
    """Step `learner` through `items` one ``advance`` run after another,
    yielding the stage each run reaches (counted from the learner's state on
    entry): the conjecture can differ from the one before only there."""
    return accumulate(iter(partial(learner.advance, items), 0))


def _drain(items: Iterator) -> int:
    """Exhaust `items`; returns how many there were."""
    fed = 0
    for fed, _ in enumerate(items, 1):
        pass
    return fed


class ConstantLearner(Learner):
    def __init__(self, char: Character, mode: str = INFORMANT):
        self.char = char
        self.mode = mode
        self.name = f"constant{char}"

    def reset(self) -> None:
        pass

    def advance(self, items: Iterator) -> int:
        return _drain(items)

    def conjecture(self) -> Conjecture:
        return self.char


class SplitOnNegativeLearner(Learner):
    """Conjectures one all-encompassing infinite class until any negative fact
    between distinct elements arrives, then two infinite classes forever."""

    ONE = Character.make(0, {}, 1)
    TWO = Character.make(0, {}, 2)

    name = "split-on-negative"

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._split = False

    def advance(self, items: Iterator) -> int:
        if self._split:
            return _drain(items)
        fed = 0
        for x, y, label in items:
            fed += 1
            if not label and x != y:
                self._split = True
                break
        return fed

    def conjecture(self) -> Conjecture:
        return self.TWO if self._split else self.ONE


class EchoLearner(Learner):
    """Conjectures the census of whatever finite structure the prefix decodes
    to; the base of the decoding learners, which override ``_recompute``.

    ``consume`` runs ``advance``, which feeds the decoder, so a subclass
    reads whatever it reads of the items in ``_recompute``.
    """

    name = "echo"
    _owned = ("_state",)

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._state = PrefixState(self.mode)
        self._rev = -1

    def _recompute(self) -> None:
        self._cached = self._state.char()

    def advance(self, items: Iterator) -> int:
        return self._state.advance(items)

    def conjecture(self) -> Conjecture:
        if self._rev != self._state.struct_rev:
            self._recompute()
            self._rev = self._state.struct_rev
        return self._cached


def minimal_hosts(profile: tuple, member_profiles: Sequence[tuple],
                  strictly_below: Sequence[Sequence[bool]]) -> list[int]:
    """Indices of the members whose cumulative profile hosts `profile` and
    that have no host strictly below them.

    A decoded prefix has no infinite classes, so a member hosts it exactly
    when the prefix's profile stays under the member's (``profile_le``).
    """
    hosts = [i for i, p in enumerate(member_profiles) if profile_le(profile, p)]
    return [i for i in hosts if not any(strictly_below[i][j] for j in hosts)]


class MinEmbedLearner(EchoLearner):
    """Conjectures the least-indexed family member that hosts the data and is
    minimal in the finite-embedding order among the hosts.

    Host checks read plain-number profiles against each member's, cached at
    construction, so no census is built per structural revision.  The minimal
    hosts are memoized by the prefix's block-size census clamped at the
    family's bounds: block sizes at ``_top``, one past the largest size any
    member lists, and block counts at ``_cap``, one past the largest finite
    cumulative count any member has.  Every member's profile is flat past
    the size bound, and a count at the count bound exceeds every finite one,
    so a clamped census is hosted by exactly the members that host the
    census itself.  The memo depends only on the members, so
    clones share it and ``reset`` keeps it; a merge can make a member a host
    again, so it is keyed by census rather than narrowed as the prefix grows.

    This learner stabilizes on the finite-bi-embeddability type of the target;
    when run on its own it should be judged up to that equivalence.
    """

    name = "min-embed"

    def __init__(self, members: Sequence[Character], enforce: bool = True):
        members = tuple(members)
        # `finitely_separable` raises FamilyError on infinite classes
        if enforce and not finitely_separable(members):
            raise FamilyError("this learner requires a finitely separable family")
        self.members = members
        self._profiles = tuple(m.cumulative_profile for m in members)
        self._top = 1 + max((s for sizes, _ in self._profiles for s in sizes), default=0)
        self._cap = 1 + max((c for _, counts in self._profiles for c in counts if c != math.inf),
                            default=0)
        self._hosts: dict[frozenset, list[int]] = {}
        n = len(members)
        self._strictly_below = [
            [fin_embeds(members[j], members[i]) and not fin_embeds(members[i], members[j])
             for j in range(n)]
            for i in range(n)
        ]
        self.reset()

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


class SeparatorLearner(MinEmbedLearner):
    """Refines MinEmbedLearner to the isomorphism type via realized separators.

    Within the current finite-bi-embeddability class, the conjecture is the
    member whose separator has been realized the longest by a fixed set of
    witness blocks.  Tracking witnesses (rather than bare realization) is what
    makes transient block sizes harmless: a block that is still growing keeps
    resetting the age of any separator it helped realize.
    """

    name = "separator"

    def __init__(self, members: Sequence[Character], enforce: bool = True):
        super().__init__(members, enforce)
        self._separators: list[Separator] = [
            separator_of(m, self.members) for m in self.members
        ]
        n = len(self.members)
        self._class_of: list[list[int]] = [
            [j for j in range(n) if fin_biembeddable(self.members[j], self.members[i])]
            for i in range(n)
        ]

    def _realized_since(self, sep: Separator) -> int | None:
        """Earliest stage from which one fixed witness assignment for every
        component has persisted; None when some component is unrealized."""
        by_size = self._state.births_by_size
        since = 0
        for comp in sep.components:
            entries = by_size.get(comp.size.finite, ())
            if len(entries) < comp.index:
                return None
            since = max(since, entries[comp.index - 1][0])
        return since

    def _recompute(self) -> None:
        super()._recompute()
        if self._cached_index is not None:
            seps = self._separators
            ages = [(self._realized_since(seps[j]), j) for j in self._class_of[self._cached_index]]
            best = min((age for age in ages if age[0] is not None), default=None)
            self._cached = self.members[best[1]] if best else None


def _partitions(total: int, max_part: int):
    """Descending partitions of `total` with parts bounded by `max_part`."""
    if total == 0:
        yield ()
        return
    for first in range(min(total, max_part), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def distinguishing_substructure(
    member: Character, others: Sequence[Character], cap: int = 200
) -> tuple[int, ...]:
    """Smallest finite substructure of `member` (by total size, then profile)
    embeddable into no other member, as its block sizes in descending order.

    One exists exactly when `member` finitely embeds into no other member, so
    that case raises ``FamilyError`` before any partition is tried.
    """
    if any(fin_embeds(member, other) for other in others):
        raise FamilyError(f"{member} finitely embeds into another member: "
                          "no finite substructure distinguishes it")
    own = member.cumulative_profile
    rivals = [other.cumulative_profile for other in others]
    max_part = 1
    for c in (member, *others):
        for size, _ in c.exceptions:
            max_part = max(max_part, size + 1)
    for total in range(1, cap + 1):
        for parts in sorted(_partitions(total, max_part)):
            profile = profile_of(Counter(parts))
            if profile_le(profile, own) and not any(profile_le(profile, r) for r in rivals):
                return parts
    raise FamilyError(f"no distinguishing substructure of {member} within size {cap}")


class OneShotLearner(Learner):
    """Stays silent until a distinguishing finite substructure of some member
    shows up in explicitly separated blocks, then commits to that member forever.

    Each member's witness is a tuple of block sizes, by default its
    ``distinguishing_substructure``.  Distinct witness blocks may only be
    used when the data has explicitly labeled them apart; blocks that merely
    look distinct could still merge.
    Block sizes move only with ``struct_rev``, so while no witness's largest
    block fits the largest decoded block, ``advance`` decodes up to the next
    structural revision and checks there.
    """

    _owned = ("_state",)

    def __init__(
        self,
        members: Sequence[Character],
        witnesses: Sequence[tuple[int, ...]] | None = None,
        enforce: bool = True,
    ):
        members = tuple(members)
        if enforce and not fin_antichain(members):
            raise FamilyError("one-shot learning requires a finite-embedding anti-chain")
        self.members = members
        self.name = "one-shot"
        if witnesses is None:
            witnesses = [
                distinguishing_substructure(m, [o for o in members if o is not m])
                for m in members
            ]
        self.witnesses = list(witnesses)
        self._profiles = [sorted(w, reverse=True) for w in self.witnesses]
        # no witness is present while the largest decoded block is smaller
        self._least_top = min((p[0] for p in self._profiles), default=0)
        self.reset()

    def reset(self) -> None:
        self._state = PrefixState(INFORMANT)
        self._fired: int | None = None
        self._rev = (-1, -1)

    def _witness_present(self, profile: list[int]) -> bool:
        state = self._state
        hosts = sorted(
            ((state.block_size(r), r) for r in state.block_roots() if state.block_size(r) >= profile[-1]),
        )
        chosen: list[int] = []

        def assign(i: int) -> bool:
            if i == len(profile):
                return True
            need = profile[i]
            for size, root in hosts:
                if size < need or root in chosen:
                    continue
                if all(state.separated(root, c) for c in chosen):
                    chosen.append(root)
                    if assign(i + 1):
                        return True
                    chosen.pop()
            return False

        return assign(0)

    def _check(self) -> None:
        rev = (self._state.struct_rev, self._state.neg_rev)
        if rev == self._rev:
            return
        self._rev = rev
        top = max(self._state.births_by_size, default=0)
        for i, profile in enumerate(self._profiles):
            if profile[0] <= top and self._witness_present(profile):
                self._fired = i
                return

    def advance(self, items: Iterator) -> int:
        state = self._state
        if self._fired is not None:
            start = state.stage
            state.feed_all(items)
            return state.stage - start
        # block sizes move only with `struct_rev`, where `state.advance` stops,
        # so only a witness that may fit already needs a check after each item
        if max(state.births_by_size, default=0) >= self._least_top:
            items = islice(items, 1)
        fed = state.advance(items)
        self._check()
        return fed

    def conjecture(self) -> Conjecture:
        return None if self._fired is None else self.members[self._fired]


class TextSplitLearner(EchoLearner):
    """The text reading of ``SplitOnNegativeLearner``: a text states no
    negative fact, so the split is read off the decoded blocks, two infinite
    classes while the prefix decodes to at least two, one before."""

    mode = TEXT
    name = "txt-split-on-negative"

    def _recompute(self) -> None:
        split = len(self._state.block_roots()) >= 2
        self._cached = SplitOnNegativeLearner.TWO if split else SplitOnNegativeLearner.ONE


def learner_from_text(base: Learner) -> Learner:
    """The text reading of the informant learner `base`, reset: for a
    constant or decoding learner, which reads only the decoded blocks, a
    clone that decodes a text; ``TextSplitLearner`` for the split learner;
    and ValueError for any other, such as the one-shot learner, which reads
    explicit separations that a text never states."""
    if base.mode != INFORMANT:
        raise ValueError("base learner must consume informants")
    if isinstance(base, SplitOnNegativeLearner):
        return TextSplitLearner()
    if not isinstance(base, (ConstantLearner, EchoLearner)):
        raise ValueError(f"learner {base.name!r} has no text reading")
    learner = base.clone()
    learner.mode = TEXT
    learner.name = f"txt-{base.name}"
    learner.reset()
    return learner


# ---------------------------------------------------------------------------
# Traces and simulation


@dataclass
class Trace:
    """The conjecture sequence of a run, kept as its change points.

    Stage 0 holds the empty-history conjecture and stage s the conjecture
    after s items.  `changes` lists (stage, conjecture) for stage 0 and for
    every later stage whose conjecture differs from the one before, and
    `length` counts the stages, stage 0 included, so a trace costs memory
    per mind change, not per item.  `conjectures` and `lines()` expand the
    full sequence.
    """

    changes: list[tuple[int, Conjecture]]
    length: int

    @classmethod
    def fold(cls, first: Conjecture, points: Iterable) -> "Trace":
        """The trace of a run that conjectures `first` at stage 0, recorded
        as it goes.  Each point (s, c) advances the run to stage s, one or
        more stages past the last, where it conjectures c; the conjecture
        before holds through the stages in between.  Learners hand back
        their cached conjecture objects, so an identity check settles nearly
        every point before fields are compared."""
        last, changes, stage = first, [(0, first)], 0
        for stage, c in points:
            if c is not last and not conjectures_equal(c, last):
                changes.append((stage, c))
                last = c
        return cls(changes, stage + 1)

    @property
    def conjectures(self) -> list[Conjecture]:
        """The full sequence, one conjecture per stage."""
        out: list[Conjecture] = []
        ends = [s for s, _ in self.changes[1:]] + [self.length]
        for (start, c), end in zip(self.changes, ends):
            out.extend([c] * (end - start))
        return out

    @property
    def mind_changes_ex(self) -> list[int]:
        return [s for s, _ in self.changes[1:]]

    @property
    def mind_changes_fin(self) -> list[int]:
        return [s for (s, _), (_, before) in zip(self.changes[1:], self.changes)
                if before is not None]

    def fin_shape(self, target: Character, relation: str = "iso") -> bool:
        """The one-shot success shape: some correct census is conjectured and
        nothing else (question marks aside) ever is."""
        rel = RELATIONS[relation]
        actual = [c for _, c in self.changes if c is not None]
        return bool(actual) and all(rel(c, target) and c == actual[0] for c in actual)

    def final(self) -> Conjecture:
        return self.changes[-1][1]

    def stable_from(self) -> int:
        """First stage from which the conjecture never changes again (-1 for
        a trace with no stage)."""
        return self.changes[-1][0] if self.changes else -1

    def lines(self) -> list[str]:
        starts = set(self.mind_changes_ex)
        return [f"stage {s}: {conjecture_str(c)}" + (" [MC]" if s in starts else "")
                for s, c in enumerate(self.conjectures)]


RELATIONS: dict[str, Callable[[Character, Character], bool]] = {
    "iso": operator.eq,
    "biembed": biembeddable,
}


@dataclass
class SimulationResult:
    trace: Trace
    converged: bool
    stage: int | None
    target: Character | None
    relation: str
    horizon: int
    window: int
    exhausted: bool = False

    @property
    def final(self) -> Conjecture:
        return self.trace.final()

    def summary(self) -> dict:
        return {
            "converged": self.converged,
            "stage": self.stage,
            "final": None if self.final is None else self.final.to_json(),
            "target": None if self.target is None else self.target.to_json(),
            "relation": self.relation,
            "horizon": self.horizon,
            "window": self.window,
            "mind_changes": len(self.trace.mind_changes_ex),
            "mind_change_stages": self.trace.mind_changes_ex,
            "exhausted": self.exhausted,
        }


def run_simulation(
    learner: Learner,
    stream,
    stages: int,
    target: Character | None = None,
    relation: str = "iso",
    window: int = 200,
) -> SimulationResult:
    """Feed `stages` items and judge bounded-horizon convergence.

    A ``Learner`` is stepped by ``advance``, so its conjecture is read once
    per step rather than once per item.

    Converged means: the conjecture is constant over the final `window` stages
    and, when a target is given, the final conjecture matches it under the
    chosen relation.  The reported stage is the first from which the
    conjecture never changed again.
    """
    if stages < 1:
        raise ValueError("stages must be >= 1")
    if window < 1 or window > stages:
        raise ValueError("window must satisfy 1 <= window <= stages")
    if isinstance(stream, Stream) and stream.kind != learner.mode:
        raise ValueError(f"{learner.mode} learner cannot read a {stream.kind} stream")
    learner.reset()
    items, conjecture = islice(stream, stages), learner.conjecture
    if isinstance(learner, Learner):
        points = ((s, conjecture()) for s in run_stages(learner, items))
    else:  # any object with reset, feed and conjecture is judged item by item
        points = zip(count(1), map(learner.feed, items))
    trace = Trace.fold(conjecture(), points)
    exhausted = trace.length <= stages
    stable = trace.stable_from()
    steady = trace.length - stable > window
    correct = True
    if target is not None:
        final = trace.final()
        correct = final is not None and RELATIONS[relation](final, target)
    converged = steady and correct and not exhausted
    return SimulationResult(
        trace, converged, stable if converged else None,
        target, relation, stages, window, exhausted,
    )
