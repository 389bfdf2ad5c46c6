"""pollsim: synchronized iterative Approval Voting as a dynamical system.

Discrete poll-response dynamics over (winner, runner-up) states with
cycle/basin classification, Monte Carlo experiments over random voter
cultures, a continuous-state generalization with perturbed and
opportunity-driven voter behaviors, and entropy estimation for the
resulting winners words.
"""

from .model import (
    Ballot,
    CandidateSet,
    Electorate,
    Outcome,
    Preference,
    Tally,
    VoterType,
    is_sincere,
    outcome_from_tally,
    tally,
)
from .strategies import Strategy, ballot_for, leader_rule, modified_leader_rule
from .majority import (
    CondorcetReport,
    PositionalModel,
    condorcet_analysis,
    median_candidate,
)
from .dynamics import (
    DynamicsReport,
    PollState,
    PollingGraph,
    build_polling_graph,
    classify,
    polling_step,
)
from .cultures import CultureKind, CultureSpec, sample_electorate, sample_spatial_electorate
from .experiments import ConditionResult, run_condition, run_table, table_csv, wilson_interval
from .continuous import (
    ContinuousDynamics,
    Fallback,
    MarginGate,
    SimplexPoint,
    TwoShareView,
    embed_discrete,
    find_periodic_orbit,
    orbit_rows,
    perturbed_dynamics,
    sup_distance,
)
from .behaviors import (
    BScoreRule,
    LinearClamped,
    Normalization,
    PlanarReluctanceMap,
    RationalDecay,
    ReluctanceConfig,
    SafetyFunction,
    SafetyKind,
    TentModel,
    build_planar_map,
    build_tent_model,
    safety,
)
from .wordstats import (
    Census,
    EntropyFit,
    EntropyProfile,
    WinnersWord,
    detect_eventual_period,
    ks_entropy_estimate,
    ks_profile,
    subword_census,
    winners_word,
)
from .electorate_io import (
    ParseError,
    export_dot,
    parse_electorate,
    preference_notation,
    serialize_electorate,
)

__version__ = "0.1.0"
