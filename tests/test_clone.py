"""Clone differential tests: a clone and its original evolve independently.

For every learner class in the package: feed a prefix A, clone, then feed B
to the clone and C to the original.  Conjecture by conjecture, each must
match a fresh learner fed A+B or A+C.  A learner that forgets to name an
attribute it mutates in place (``Learner._owned``) shares it with its clone,
and one side's items then leak into the other's conjectures.
"""
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import limitlearn
from limitlearn import (
    INFORMANT,
    PAUSE,
    Learner,
    conjectures_equal,
    fair_informant,
    finitely_separable,
    fin_antichain,
    learner_constant,
    learner_echo,
    learner_from_text,
    learner_min_embed,
    learner_one_shot,
    learner_separator,
    learner_split_on_negative,
    locking_transform,
)
from limitlearn.adversaries import LockingNormalForm
from limitlearn.bridge import LanguageToStructLearner
from limitlearn.learners import (
    ConstantLearner,
    EchoLearner,
    MinEmbedLearner,
    OneShotLearner,
    SeparatorLearner,
    SplitOnNegativeLearner,
    TextSplitLearner,
)

from families import C56, C57, EXAMPLE1, FIVE_OMEGA, census

OM = "omega"

# families whose conjectures move on structures of a few elements
CHAIN = (census(0, {1: OM}), census(0, {2: 1, 1: OM}), census(0, {3: 1, 1: OM}))
ANTICHAIN = (census(0, {3: 1, 1: OM}), census(0, {2: 2, 1: OM}))

ROSTER = {
    ConstantLearner: [("constant", lambda: learner_constant(FIVE_OMEGA))],
    SplitOnNegativeLearner: [("split", learner_split_on_negative)],
    TextSplitLearner: [("txt-split", lambda: learner_from_text(learner_split_on_negative()))],
    EchoLearner: [("echo", learner_echo), ("txt-echo", lambda: learner_from_text(learner_echo()))],
    MinEmbedLearner: [("min-embed", lambda: learner_min_embed(CHAIN))],
    SeparatorLearner: [
        ("separator", lambda: learner_separator(CHAIN)),
        ("txt-separator", lambda: learner_from_text(learner_separator(CHAIN))),
    ],
    OneShotLearner: [("one-shot", lambda: learner_one_shot(ANTICHAIN))],
    LockingNormalForm: [
        ("locking-echo", lambda: locking_transform(learner_echo())),
        ("locking-separator", lambda: locking_transform(learner_separator(CHAIN))),
    ],
    LanguageToStructLearner: [("lang-decode", lambda: LanguageToStructLearner(CHAIN))],
}
CASES = [case for cases in ROSTER.values() for case in cases]


def _learner_classes(cls=Learner):
    for sub in cls.__subclasses__():
        yield sub
        yield from _learner_classes(sub)


def test_roster_covers_every_learner_class():
    defined = {c for c in _learner_classes() if c.__module__.startswith(limitlearn.__name__ + ".")}
    assert defined == set(ROSTER)


def test_roster_families_meet_their_preconditions():
    assert finitely_separable(CHAIN)
    assert fin_antichain(ANTICHAIN)


@st.composite
def histories(draw):
    """A structure on a few elements (a class label per element) and three
    lists of pairs, read as items of A, B and C."""
    n = draw(st.integers(1, 6))
    classes = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return (classes, *(draw(st.lists(pair, max_size=8)) for _ in range(3)))


def items(mode: str, classes: list[int], pairs) -> list:
    """The pairs as items of the mode's presentation of the structure: labeled
    facts, or positive facts with pauses."""
    out = []
    for x, y in pairs:
        same = classes[x] == classes[y]
        if mode == INFORMANT:
            out.append((x, y, int(same)))
        else:
            out.append((x, y) if same else PAUSE)
    return out


@pytest.mark.parametrize("make", [make for _, make in CASES], ids=[name for name, _ in CASES])
@settings(max_examples=40, deadline=None)
@given(histories())
# the clone grows a 3-block at slot 3 while the original grows a 2-block at slot 0
@example(([0, 0, 0, 0], [], [(3, 0), (3, 1)], [(0, 0), (0, 1)]))
# the clone marks (0, 1, 0) as no flip after moving its distilled prefix;
# the original must still probe it
@example(([0, 1], [(0, 0)], [(1, 1), (0, 1)], [(0, 1)]))
# the clone and the original each give a different fact about one class
@example(([0, 0], [], [(0, 0)], [(0, 1)]))
def test_clone_evolves_like_a_fresh_learner(make, history):
    classes, *prefixes = history
    original = make()
    a, b, c = (items(original.mode, classes, p) for p in prefixes)
    for it in a:
        original.feed(it)
    dup = original.clone()
    for learner, tail in ((dup, b), (original, c)):
        fresh = make()
        for it in a:
            fresh.feed(it)
        for stage, it in enumerate(tail):
            got, want = learner.feed(it), fresh.feed(it)
            assert conjectures_equal(got, want), (learner.name, stage, it, got, want)
            if isinstance(learner, LockingNormalForm):
                assert learner.distilled() == fresh.distilled(), (learner.name, stage, it)


@pytest.mark.parametrize("make", [MinEmbedLearner, SeparatorLearner, LanguageToStructLearner])
def test_a_clone_and_its_original_fill_one_host_memo_apart(make):
    """A clone shares its original's memo of minimal hosts, and each side
    adds the censuses it meets: fed different suffixes, a fair informant of
    C56 on one side and one of C57 on fresh elements on the other, each still
    agrees after every item with a fresh learner fed the same items."""
    prefix = list(islice(fair_informant(C56, 0), 200))
    suffixes = (
        [(x + 10**6, y + 10**6, label) for x, y, label in islice(fair_informant(C57, 1), 600)],
        list(islice(fair_informant(C56, 0), 200, 800)),
    )
    original = make(EXAMPLE1)
    original.consume_all(prefix)
    dup = original.clone()
    assert dup._hosts is original._hosts
    for learner, tail in zip((dup, original), suffixes):
        fresh = make(EXAMPLE1)
        fresh.consume_all(prefix)
        for stage, item in enumerate(tail):
            got, want = learner.feed(item), fresh.feed(item)
            assert conjectures_equal(got, want), (learner.name, stage, got, want)
