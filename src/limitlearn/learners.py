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
  one ``_recompute``, run when the conjecture is read after a structural
  revision; ``SeparatorLearner`` and the bridge's ``LanguageToStructLearner``
  refine ``MinEmbedLearner``'s host computation there, which reads only the
  block sizes the decoder moved since the last recompute and is memoized by
  the prefix's block-size census clamped at the family's bounds;
  ``TextSplitLearner``, the split learner's text reading, counts the
  decoded blocks): at the item that moves ``struct_rev``, where
  ``PrefixState.advance`` stops.  On an unread planned stream, fair or
  reordered, their ``run_plan`` builds no item: it goes from one
  structural event to the next, a reordered head's included
  (``PrefixState.run_fair``).
- ``OneShotLearner``: before firing, at the next structural revision while
  no witness's largest block fits the largest decoded block, else after one
  item; once fired, never.
- ``adversaries.LockingNormalForm``: at the first item whose ``probe_key``
  at the distilled prefix has not been probed, or where the wrapped
  learner's own run stops.
- any other learner: after one item.

A learner is ``settled`` once no later item can change its conjecture: the
constant learner always, the split learner once split and the one-shot
learner once fired.  On an unread planned stream, which is consistent and
never ends, ``Learner.run_plan`` stops reading there, and the trace holds
the conjecture to the horizon.

The diagonalizer hands a learner a whole stage with ``consume_stage``: the
constant, split, decoding and one-shot learners read it without its items,
but for the one stage that fires the one-shot learner.

The locking normal form (``adversaries.LockingNormalForm``) keys its memo
of probes that leave the conjecture alone, ``_no_flip``, by ``probe_key``:
the item itself, but for a decoding learner, which reads a prefix only up to
a renaming of elements, the blocks the item touches, its label and whether
it names one element twice.
"""
from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain, count, islice
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .presentations import INFORMANT, TEXT, PrefixState, Stream, stage_items
from .separability import FamilyError, FamilyOrder
from .structures import (
    Character,
    biembeddable,
    fin_embeds,
    profile_le,
    profile_of,
)

Conjecture = Optional[Character]
ONE_CLASS = Character.make(0, {}, 1)
TWO_CLASSES = Character.make(0, {}, 2)


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

    def consume_stage(self, cls: Sequence[int], old_n: int, n: int) -> None:
        """Consume a diagonalizer stage: elements old_n..n-1 arrive, and
        `cls[x]` is element x's class.  Its items label the pairs of
        range(n)² outside range(old_n)² in Cantor order, 1 within a class,
        and the conjecture is read only after them.  By default
        ``consume_all`` replays them from `stage_items`; the constant,
        split, decoding and one-shot learners read less of a stage and
        override this."""
        self.consume_all(stage_items(cls, old_n, n))

    def conjecture(self) -> Conjecture:
        raise NotImplementedError

    @property
    def settled(self) -> bool:
        """True when no later item can change the conjecture, so a run on a
        stream that is consistent and never ends may stop reading: always
        for the constant learner, once split for the split learner, once
        fired for the one-shot learner, and never by default."""
        return False

    def probe_key(self, item):
        """A key for `item` such that every item with the same key leaves
        the same conjecture when fed to this learner next; by default the
        item itself."""
        return item

    def run_plan(self, stream: Stream, stop: int) -> Iterator[int]:
        """Read the first `stop` items of an unread planned `stream` from the
        reset state, yielding the stages where the conjecture may change.
        By default only until the learner is ``settled``: a planned stream
        never ends nor contradicts itself, so the conjecture then holds."""
        items = islice(stream, stop)
        return accumulate(iter(lambda: 0 if self.settled else self.advance(items), 0))

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
    settled = True

    def __init__(self, char: Character, mode: str = INFORMANT):
        self.char = char
        self.mode = mode
        self.name = f"constant{char}"

    def reset(self) -> None:
        pass

    def advance(self, items: Iterator) -> int:
        return _drain(items)

    def consume_stage(self, cls: Sequence[int], old_n: int, n: int) -> None:
        pass

    def conjecture(self) -> Conjecture:
        return self.char


class SplitOnNegativeLearner(Learner):
    """Conjectures one all-encompassing infinite class until any negative fact
    between distinct elements arrives, then two infinite classes forever."""

    name = "split-on-negative"

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._split = False

    @property
    def settled(self) -> bool:
        return self._split

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

    def consume_stage(self, cls: Sequence[int], old_n: int, n: int) -> None:
        # unsplit, every old element is in element 0's class, and the stage
        # pairs each new element with element 0
        if not self._split:
            self._split = any(cls[x] != cls[0] for x in range(old_n, n))

    def conjecture(self) -> Conjecture:
        return TWO_CLASSES if self._split else ONE_CLASS


class EchoLearner(Learner):
    """Conjectures the census of whatever finite structure the prefix decodes
    to; the base of the decoding learners, which override ``_recompute``.

    ``consume`` runs ``advance``, which feeds the decoder, so a subclass
    reads whatever it reads of the items in ``_recompute``.  It reads only
    the decoded blocks and their births, never the negatives or the stage,
    so ``run_simulation`` may move it through a planned stream, fair or
    reordered, from one structural event to the next.  It reads them only
    up to a renaming of elements: a prefix and its image under an
    injective renaming leave equal conjectures.  So the next item's effect is fixed by its
    ``probe_key``: the blocks its elements lie in (None for an element not
    yet mentioned), its label and whether it names one element twice.
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

    def consume_stage(self, cls: Sequence[int], old_n: int, n: int) -> None:
        self._state.decode_stage(cls, old_n, n)

    def run_plan(self, stream: Stream, stop: int) -> Iterator[int]:
        """The planned stream's structural events, reordered head and all,
        by ``PrefixState.run_fair``, with no item built: blocks and births
        are those of the item-by-item run."""
        return self._state.run_fair(stream.character, stream.plan, stop)

    def probe_key(self, item):
        if item is None:  # a text pause
            return None
        parent, x, y = self._state._parent, item[0], item[1]
        return parent.get(x), parent.get(y), item[2:], x == y

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
    construction, so no census is built per structural revision; the
    members' finite-embedding order is their ``FamilyOrder``, built once.
    The minimal hosts are memoized by the prefix's block-size census clamped
    at the family's bounds: block sizes at ``_top``, one past the largest
    size any member lists, and block counts at ``_cap``, one past the
    largest finite cumulative count any member has.  Every member's profile
    is flat past the size bound, and a count at the count bound exceeds
    every finite one, so a clamped census is hosted by exactly the members
    that host the census itself.  The memo depends only on the members, so
    clones share it and ``reset`` keeps it; a merge can make a member a host
    again, so it is keyed by census rather than narrowed as the prefix grows.

    A recompute reads only the sizes the decoder moved since the last one
    (``PrefixState.moved_sizes``, which it clears): ``_counts`` holds the
    block count of each size as last read and ``_buckets`` the raw count of
    each clamped size, each moved size folds in as a delta, and the memo key
    is built and looked up only when a clamped count changed.  The
    conjecture is chosen again only when ``_read`` says something it reads
    moved.

    This learner stabilizes on the finite-bi-embeddability type of the target;
    when run on its own it should be judged up to that equivalence.
    """

    name = "min-embed"
    _owned = ("_state", "_counts", "_buckets")

    def __init__(self, members: Sequence[Character], enforce: bool = True):
        # the family's finite-embedding order, built once; `separability`
        # raises FamilyError on infinite classes
        self._order = order = FamilyOrder(members)
        if enforce and not order.separability():
            raise FamilyError("this learner requires a finitely separable family")
        self.members = order.members
        self._profiles = order.profiles
        self._top = 1 + max((s for sizes, _ in self._profiles for s in sizes), default=0)
        self._cap = 1 + max((c for _, counts in self._profiles for c in counts if c != math.inf),
                            default=0)
        self._hosts: dict[frozenset, list[int]] = {}
        le, ns = order.le, range(len(self.members))
        self._strictly_below = [[le[j][i] and not le[i][j] for j in ns] for i in ns]
        self.reset()

    def reset(self) -> None:
        super().reset()
        self._counts: dict[int, int] = {}
        self._buckets: dict[int, int] = {}
        self._minimal: list[int] | None = None  # none read yet
        self._pick: int | None = None

    def _read(self, moved: set, by_size: dict) -> bool:
        """Fold the `moved` sizes of `by_size` into the running census;
        True when the minimal hosts changed."""
        counts, buckets, top, cap = self._counts, self._buckets, self._top, self._cap
        clamped = self._minimal is None
        for size in moved:
            n, old = len(by_size.get(size, ())), counts.get(size, 0)
            if n != old:
                counts[size] = n
                bucket = size if size < top else top
                was = buckets.get(bucket, 0)
                buckets[bucket] = now = was + n - old
                if was < cap or now < cap:  # the clamped count moved
                    clamped = True
        if not clamped:
            return False
        census = {size: min(n, cap) for size, n in buckets.items() if n}
        key = frozenset(census.items())
        hosts = self._hosts.get(key)
        if hosts is None:
            hosts = self._hosts[key] = minimal_hosts(
                profile_of(census), self._profiles, self._strictly_below)
        if hosts == self._minimal:
            return False
        self._minimal = hosts
        return True

    def _choose(self) -> None:
        minimal = self._minimal
        self._cached_index = self._pick = min(minimal) if minimal else None

    def _recompute(self) -> None:
        state = self._state
        if self._read(state.moved_sizes, state.births_by_size):
            self._choose()
        state.moved_sizes.clear()
        self._cached = None if self._pick is None else self.members[self._pick]


class SeparatorLearner(MinEmbedLearner):
    """Refines MinEmbedLearner to the isomorphism type via realized separators.

    Within the current finite-bi-embeddability class, the conjecture is the
    member whose separator has been realized the longest by a fixed set of
    witness blocks.  Tracking witnesses (rather than bare realization) is what
    makes transient block sizes harmless: a block that is still growing keeps
    resetting the age of any separator it helped realize.  Each member's
    separator is held as plain (size, index) pairs, one per component.

    ``_named`` holds, for each (size, index) some separator names, the birth
    of the index-th oldest block of that size, None while there is none; a
    recompute re-reads only the entries at moved sizes.  A newly born block
    goes to the end of its size's list, so a moved size seldom changes a
    named entry, and the ages are computed again only when the minimal hosts
    or a named birth changed.
    """

    name = "separator"
    _owned = ("_state", "_counts", "_buckets", "_named")

    def __init__(self, members: Sequence[Character], enforce: bool = True):
        super().__init__(members, enforce)
        order = self._order
        self._separators: list[tuple[tuple[int, int], ...]] = [
            tuple(order.separator(i).pairs) for i in range(len(self.members))]
        self._indices: dict[int, set[int]] = {}  # the named indices of each size
        for size, index in chain.from_iterable(self._separators):
            self._indices.setdefault(size, set()).add(index)
        self._class_of = order.classes

    def reset(self) -> None:
        super().reset()
        self._named: dict[tuple[int, int], int | None] = {}

    def _read(self, moved: set, by_size: dict) -> bool:
        hosts = super()._read(moved, by_size)
        named, changed = self._named, False
        for size in moved:
            entries = by_size.get(size, ())
            for index in self._indices.get(size, ()):
                birth = entries[index - 1][0] if index <= len(entries) else None
                if named.get((size, index)) != birth:
                    named[size, index] = birth
                    changed = True
        return hosts or changed

    def _choose(self) -> None:
        # a separator's age is the latest birth among its named entries
        super()._choose()
        if self._pick is not None:
            ages = []
            for j in self._class_of[self._pick]:
                births = [self._named.get(c) for c in self._separators[j]]
                if None not in births:
                    ages.append((max(births, default=0), j))
            self._pick = min(ages)[1] if ages else None


def distinguishing_substructure(
    member: Character, others: Sequence[Character], cap: int = 200
) -> tuple[int, ...]:
    """Smallest finite substructure of `member` (by total size, then profile)
    embeddable into no other member, as its block sizes in descending order.

    One exists exactly when `member` finitely embeds into no other member, so
    that case raises ``FamilyError`` before any partition is tried.

    Each total's partitions are searched depth first, each next part taken
    in ascending order, which visits them in ascending tuple order.  A
    prefix of k parts whose smallest is q holds k blocks of size >= p for
    every p <= q; so it leaves `member` once k exceeds the member's count
    of blocks of size >= q, and beats a rival once k exceeds the rival's.
    Both facts only grow with the prefix: a prefix that leaves `member` is
    pruned, and a bitmask keeps the rivals it beats.  A prefix is pruned as
    well once some rival it has not beaten cannot be beaten by the parts
    left.
    """
    if any(fin_embeds(member, other) for other in others):
        raise FamilyError(f"{member} finitely embeds into another member: "
                          "no finite substructure distinguishes it")
    max_part = 1
    for c in (member, *others):
        for size, _ in c.exceptions:
            max_part = max(max_part, size + 1)

    def at_least(c: Character) -> list:
        # the census's count of blocks of size >= p, for p = 0..max_part
        sizes, counts = c.cumulative_profile
        return [counts[bisect_left(sizes, p)] for p in range(max_part + 1)]

    own = at_least(member)
    rivals = list(enumerate(at_least(o) for o in others))
    everyone = (1 << len(rivals)) - 1

    def search(rest: int, largest: int, k: int, beaten: int) -> tuple[int, ...] | None:
        # the first completion of a prefix of k parts, the last `largest`
        if rest == 0:
            return () if beaten == everyone else None
        top = min(rest, largest)
        for j, ge in rivals:
            # the parts left, each at most `top`, give at most k + rest // q
            # blocks of size >= q, so rival j is beaten only if that exceeds
            # its count at some q
            if not beaten >> j & 1 and all(k + rest // q <= ge[q] for q in range(1, top + 1)):
                return None
        k += 1
        for q in range(1, top + 1):
            if k > own[q]:  # so for every larger q too
                break
            now = beaten
            for j, ge in rivals:
                if k > ge[q]:
                    now |= 1 << j
            found = search(rest - q, q, k, now)
            if found is not None:
                return (q,) + found
        return None

    for total in range(1, cap + 1):
        found = search(total, max_part, 0, 0)
        if found is not None:
            return found
    raise FamilyError(f"no distinguishing substructure of {member} within size {cap}")


class OneShotLearner(Learner):
    """Stays silent until a distinguishing finite substructure of some member
    shows up in explicitly separated blocks, then commits to that member forever.

    Each member's witness is its ``distinguishing_substructure`` against the
    other members, a tuple of block sizes in descending order.  So the family
    alone decides the witnesses and the refusal: a member that finitely
    embeds into another has no witness, and a family that is not a
    finite-embedding anti-chain raises ``FamilyError`` naming it.  Distinct
    witness blocks may only be used when the data has explicitly labeled
    them apart; blocks that merely look distinct could still merge.
    Block sizes move only with ``struct_rev``, so while no witness's largest
    block fits the largest decoded block, ``advance`` decodes up to the next
    structural revision and checks there.  Once fired it is ``settled``, and
    a run on a planned stream reads no further.

    A witness, once present, stays: unions only grow blocks and keep their
    separations.  So ``consume_stage`` decodes a diagonalizer stage whole
    and checks its end state, and only a stage that fires the learner is
    replayed item by item.  A stage whose new elements cannot bring the
    largest block to a witness's largest is decoded with no check, and
    once fired the learner only decodes.
    """

    name = "one-shot"
    _owned = ("_state",)

    def __init__(self, members: Sequence[Character]):
        self.members = members = tuple(members)
        self.witnesses = [distinguishing_substructure(m, members[:i] + members[i + 1:])
                          for i, m in enumerate(members)]
        # no witness is present while the largest decoded block is smaller
        # (none ever, with no witness)
        self._least_top = min((w[0] for w in self.witnesses), default=math.inf)
        self.reset()

    def reset(self) -> None:
        self._state = PrefixState(INFORMANT)
        self._fired: int | None = None
        self._rev = (-1, -1)

    def _witness_present(self, profile: tuple[int, ...]) -> bool:
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
        for i, witness in enumerate(self.witnesses):
            if witness[0] <= top and self._witness_present(witness):
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

    def consume_stage(self, cls: Sequence[int], old_n: int, n: int) -> None:
        state = self._state
        if (self._fired is not None
                or max(state.births_by_size, default=0) + n - old_n < self._least_top):
            state.decode_stage(cls, old_n, n)  # no witness can appear
            return
        before, rev = state.copy(), self._rev
        state.decode_stage(cls, old_n, n)
        self._check()
        if self._fired is not None:  # replayed to find the item and the member
            self._state, self._fired, self._rev = before, None, rev
            super().consume_stage(cls, old_n, n)

    @property
    def settled(self) -> bool:
        return self._fired is not None

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
        self._cached = TWO_CLASSES if split else ONE_CLASS


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

    A ``Learner`` reads a ``Stream`` that still holds its fair plan by its
    own ``run_plan``, and anything else by ``advance`` runs, so its
    conjecture is read once per stage where it may change, not once per
    item, and once at the horizon.  Either way the trace is the item-by-item
    one.  A stream already read and a plain iterator (``simulate`` and
    ``replay`` pass items) are read to the end, so a run on them still
    reports exhaustion and inconsistency.

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
    conjecture = learner.conjecture
    if not isinstance(learner, Learner):  # reset, feed and conjecture only: item by item
        points = zip(count(1), map(learner.feed, islice(stream, stages)))
    elif isinstance(stream, Stream) and stream.plan is not None:
        points = ((s, conjecture()) for s in chain(learner.run_plan(stream, stages), (stages,)))
    else:
        points = ((s, conjecture()) for s in run_stages(learner, islice(stream, stages)))
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
