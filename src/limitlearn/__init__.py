"""Learning equivalence structures in the limit.

Censuses of class sizes stand in for isomorphism types; learners read
informants or texts and must stabilize on the census of the presented
structure.  The package provides the census algebra, fair and adversarial
presentations, the learners characterized by finite separability, bounded
refutation machinery, and the translation into language learning.
"""

from .structures import (
    OMEGA,
    ZERO,
    Character,
    Component,
    ExtNat,
    RepresentationError,
    biembeddable,
    char_diff_min,
    char_subset,
    embeds,
    ext,
    fin_biembeddable,
    fin_embeds,
    pair_code,
    profile_le,
    profile_of,
    unpair_code,
)
from .presentations import (
    INFORMANT,
    PAUSE,
    TEXT,
    ConsistencyError,
    Prefix,
    PrefixState,
    Stream,
    fair_informant,
    fair_text,
    informant_prefix,
    read_trace,
    reordered_informant,
    REORDER_STRATEGIES,
    write_trace,
)
from .separability import (
    Family,
    FamilyError,
    FamilyOrder,
    GENERATORS,
    LimitVerdict,
    SeparabilityResult,
    Separator,
    fin_antichain,
    finitely_separable,
    generated_limit_verdict,
    limit_witness,
    separator_of,
)
from .learners import (
    ConstantLearner,
    EchoLearner,
    Learner,
    MinEmbedLearner,
    OneShotLearner,
    RELATIONS,
    SeparatorLearner,
    SimulationResult,
    SplitOnNegativeLearner,
    TextSplitLearner,
    Trace,
    conjectures_equal,
    distinguishing_substructure,
    learner_from_text,
    run_simulation,
)
from .adversaries import (
    AdversaryReport,
    DiagonalizationReport,
    LimitAdversary,
    LockingNormalForm,
    LockingSearchResult,
    TextAdversaryReport,
    diagonalize,
    text_adversary,
    weak_locking_search,
)
from .bridge import (
    SizeSequence,
    language_closure,
    size_sequence_of,
    telltale_search,
)

# The names the benchmark in perfbench/ calls the classes by.
learner_constant = ConstantLearner
learner_split_on_negative = SplitOnNegativeLearner
learner_echo = EchoLearner
learner_min_embed = MinEmbedLearner
learner_separator = SeparatorLearner
learner_one_shot = OneShotLearner
limit_adversary = LimitAdversary
locking_transform = LockingNormalForm

__all__ = [name for name in dir() if not name.startswith("_")]
