"""Limits, finite separability, separators, and the anti-chain test.

A structure is a limit of a family when arbitrarily long finite fragments of
it can masquerade as family members, which blocks convergence of any learner
aiming at isomorphism.  For finite families the subfamily quantifier collapses
to pairwise checks; for generated infinite families we give bounded verdicts,
certified where the generator registry supplies a closed-form statement about
which components recur infinitely often.

A finite family's order is built once, by ``FamilyOrder``: separability,
separators, the min-embed and separator learners and ``check`` read it.  A
census whose counts sit pointwise under another's also finitely embeds into
it, so a member imitates only members of its class, and separability
compares censuses only there.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

from .structures import (
    OMEGA,
    ZERO,
    Character,
    Component,
    ExtNat,
    RepresentationError,
    char_diff_min,
    char_subset,
    fin_biembeddable,
    fin_embeds,
    pair_code,
    profile_le,
)


class FamilyError(ValueError):
    """A family violates a precondition of the requested operation."""


def _require_finite_classes(chars: Iterable[Character], what: str) -> None:
    for c in chars:
        if c.omega_count != ZERO:
            raise FamilyError(f"{what} is only defined for families without infinite classes")


# ---------------------------------------------------------------------------
# Generators


@dataclass(frozen=True)
class GeneratorSpec:
    """A registered total map index -> Character, injective up to isomorphism.

    ``component_recurs`` decides, in closed form, whether a component occurs
    in infinitely many generated members; None means unknown for purposes of
    bounded limit verdicts.  A spec builds each member once, on first use, and
    keeps it.
    """

    name: str
    produce: Callable[[int], Character]
    component_recurs: Optional[Callable[[Component], bool]] = None
    companion_limit: Optional[Character] = None
    _built: list[Character] = field(default_factory=list, init=False, repr=False, compare=False)

    def members(self, n: int) -> list[Character]:
        """The first `n` generated members, in order."""
        self._built.extend(map(self.produce, range(len(self._built), n)))
        return self._built[:n]


def _five_n_tail(n: int) -> Character:
    # n classes of size 5 plus unboundedly many singletons
    return Character.make(0, {5: n, 1: OMEGA}, 0)


def _five_n_tail_recurs(comp: Component) -> bool:
    return not comp.size.is_omega and comp.size.finite in (1, 5)


def _kronecker(i: int) -> Character:
    # one class of every finite size except i+1
    return Character.make(1, {i + 1: 0}, 0)


def _kronecker_recurs(comp: Component) -> bool:
    return not comp.size.is_omega and comp.index == 1


GENERATORS: dict[str, GeneratorSpec] = {
    "five_n_tail": GeneratorSpec(
        "five_n_tail", _five_n_tail, _five_n_tail_recurs,
        companion_limit=Character.make(0, {5: OMEGA}, 0),
    ),
    "kronecker": GeneratorSpec("kronecker", _kronecker, _kronecker_recurs),
}


@dataclass(frozen=True)
class Family:
    """A finite list of pairwise non-isomorphic censuses, optionally extended
    by a registered generator."""

    members: tuple[Character, ...] = ()
    generator: Optional[str] = None

    def __post_init__(self):
        for i, a in enumerate(self.members):
            for b in self.members[i + 1:]:
                if a == b:
                    raise RepresentationError(f"family members {a} and {b} are isomorphic")
        if self.generator is not None and self.generator not in GENERATORS:
            raise FamilyError(f"unknown generator {self.generator!r}")

    @classmethod
    def of(cls, *members: Character) -> "Family":
        return cls(tuple(members))

    def spec(self) -> Optional[GeneratorSpec]:
        return GENERATORS[self.generator] if self.generator else None

    @classmethod
    def from_json(cls, data) -> "Family":
        if not isinstance(data, dict):
            raise TypeError(f"a family is a JSON object, not a {type(data).__name__}")
        members = data.get("members", [])
        if not isinstance(members, list):
            raise TypeError(f"members are a JSON list, not a {type(members).__name__}")
        members = tuple(map(Character.from_json, members))
        gen = data.get("generator")
        if gen is None:
            return cls(members)
        if not isinstance(gen, dict):
            raise TypeError(f"a generator is a JSON object, not a {type(gen).__name__}")
        if not isinstance(gen.get("name"), str):
            raise TypeError("a generator's name is a JSON string")
        return cls(members, gen["name"])


# ---------------------------------------------------------------------------
# Limits


def imitates(member: Character, candidate: Character) -> bool:
    """Whether the candidate cannot be separated from the member: the two are
    not isomorphic, the member finitely embeds into the candidate, and it
    realizes every component of the candidate."""
    return member != candidate and fin_embeds(member, candidate) and char_subset(candidate, member)


def limit_witness(candidate: Character, members: Sequence[Character]) -> Character | None:
    """Some member that `imitates` the candidate, or None when no member does."""
    _require_finite_classes([candidate, *members], "the limit test")
    return next((m for m in members if imitates(m, candidate)), None)


@dataclass(frozen=True)
class LimitVerdict:
    kind: str  # "limit" | "not-limit" | "unknown"
    bound: int
    detail: str = ""
    certified: bool = False


def generated_limit_verdict(candidate: Character, family: Family, bound: int) -> LimitVerdict:
    """Bounded limit test against a generated family (members isomorphic to the
    candidate are skipped).

    The membership clause is refutable from the first `bound` members; the
    recurrence clause is certified by the generator's closed-form component
    predicate when available, otherwise judged heuristically (a component must
    occur in at least half of the first `bound` members with the count still
    growing) and the verdict stays uncertified.
    """
    spec = family.spec()
    if spec is None:
        raise FamilyError("bounded limit verdicts require a generator")
    if bound < 1:
        raise ValueError(f"a limit verdict needs a bound >= 1, got {bound}")
    if candidate.omega_count != ZERO:
        raise FamilyError("the limit test is only defined without infinite classes")
    members = spec.members(bound)
    _require_finite_classes(members, "the limit test")
    for i, member in enumerate(members):
        if member == candidate:
            continue
        if not fin_embeds(member, candidate):
            return LimitVerdict(
                "not-limit", bound,
                f"member {i} ({member}) does not finitely embed into the candidate",
                certified=True,
            )
    # every component of the candidate's census with canonical code <= bound
    components: list[Component] = []
    size = 1
    while pair_code(size, 1) <= bound:
        count = candidate.count(size)
        idx = 1
        while count >= idx and pair_code(size, idx) <= bound:
            components.append(Component(ExtNat(size), idx))
            idx += 1
        size += 1
    heuristic_used = False
    for comp in components:
        if spec.component_recurs is not None:
            if spec.component_recurs(comp):
                continue
            return LimitVerdict(
                "not-limit", bound,
                f"component {comp} certified to occur in only finitely many members",
                certified=True,
            )
        heuristic_used = True
        half = [m for m in members[: max(1, bound // 2)] if m.has_component(comp)]
        full = [m for m in members if m.has_component(comp)]
        if len(full) < (bound + 1) // 2 or len(full) <= len(half):
            return LimitVerdict(
                "unknown", bound,
                f"component {comp} lacks a recurrence witness at this bound",
            )
    return LimitVerdict("limit", bound, certified=not heuristic_used)


# ---------------------------------------------------------------------------
# Finite separability


@dataclass(frozen=True)
class SeparabilityResult:
    separable: bool
    counterexample: tuple[Character, Character] | None = None  # (limit, witness)

    def __bool__(self) -> bool:
        return self.separable


def finitely_separable(members: Sequence[Character]) -> SeparabilityResult:
    """No member is a limit of the others.  For a finite family the subfamily
    quantifier collapses to pairwise checks, read off the family's order."""
    return FamilyOrder(members).separability()


@dataclass(frozen=True)
class Separator:
    owner: Character
    components: frozenset[Component]

    def sorted_components(self) -> list[Component]:
        return sorted(self.components, key=Component.sort_key)

    def to_json(self):
        return [c.to_json() for c in self.sorted_components()]


def _separator(member: Character, companions: Iterable[Character]) -> Separator:
    """The separator of a member against its companions: the members other
    than it that are finitely bi-embeddable with it."""
    comps = set()
    for other in companions:
        diff = char_diff_min(member, other)
        if diff is not None:  # always present when the family is finitely separable
            comps.add(diff)
    return Separator(member, frozenset(comps))


class FamilyOrder:
    """The finite-embedding order of a family's members, built once.

    ``le[i][j]`` when member i finitely embeds into member j, from one
    ``profile_le`` per ordered pair; ``strictly_below[i][j]`` when member j
    embeds into member i and not back; ``classes[i]`` the members finitely
    bi-embeddable with member i, itself included, in order.
    """

    def __init__(self, members: Sequence[Character]):
        self.members = members = tuple(members)
        self.profiles = profiles = tuple(m.cumulative_profile for m in members)
        self.le = le = [[profile_le(p, q) for q in profiles] for p in profiles]
        ns = range(len(members))
        self.strictly_below = [[le[j][i] and not le[i][j] for j in ns] for i in ns]
        self.classes = [[j for j in ns if le[i][j] and le[j][i]] for i in ns]

    def separability(self) -> SeparabilityResult:
        """No member is a limit of the others; the counterexample is the
        first (limit, witness) pair in row-major order where the witness
        `imitates` the limit, which only a member of the limit's class can."""
        members = self.members
        _require_finite_classes(members, "finite separability")
        for limit, cls in zip(members, self.classes):
            for j in cls:
                if members[j] != limit and char_subset(limit, members[j]):
                    return SeparabilityResult(False, (limit, members[j]))
        return SeparabilityResult(True)

    def separator(self, i: int) -> Separator:
        """Member i's separator (`separator_of`), read against its class."""
        members = self.members
        _require_finite_classes(members, "a member's separator")
        return _separator(members[i], (members[j] for j in self.classes[i] if j != i))


def separator_of(member: Character, members: Sequence[Character]) -> Separator:
    """The finite component set distinguishing a member from every
    non-isomorphic, finitely bi-embeddable companion in the family."""
    _require_finite_classes(members, "a member's separator")
    if member not in members:
        raise FamilyError("separator owner must belong to the family")
    return _separator(member, (other for other in members
                               if other != member and fin_biembeddable(other, member)))


def fin_antichain(members: Sequence[Character]) -> bool:
    """Pairwise incomparability under finite embedding; for finite families
    this is exactly one-shot (first-conjecture) learnability."""
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a == b:
                raise FamilyError("anti-chain test expects pairwise non-isomorphic members")
            if fin_embeds(a, b) or fin_embeds(b, a):
                return False
    return True
