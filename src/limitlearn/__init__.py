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
    Learner,
    RELATIONS,
    SimulationResult,
    Trace,
    conjectures_equal,
    distinguishing_substructure,
    learner_constant,
    learner_echo,
    learner_from_text,
    learner_min_embed,
    learner_one_shot,
    learner_separator,
    learner_split_on_negative,
    run_simulation,
)
from .adversaries import (
    AdversaryReport,
    DiagonalizationReport,
    LockingSearchResult,
    TextAdversaryReport,
    diagonalize,
    limit_adversary,
    locking_transform,
    text_adversary,
    weak_locking_search,
)
from .bridge import (
    FinitePermutation,
    SizeSequence,
    language_closure,
    permuted,
    size_sequence_of,
    telltale_search,
)

__all__ = [name for name in dir() if not name.startswith("_")]
