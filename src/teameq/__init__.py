"""teameq: equilibrium toolkit for two-team zero-sum games.

Builds deviation policy spaces under four team-correlation classes,
verifies and computes equilibria (Nash, correlated-team maxmin and its
budget-restricted variants), runs the PSRO family with pluggable
best-response oracles, and evaluates exploitability against opponents of
differing correlation ability.
"""

__version__ = "0.1.0"

from .core import (
    EvalConfig,
    IndividualPolicy,
    JointMixPolicy,
    NormalFormTeamGame,
    ProductPolicy,
    SharedPolicy,
    StochasticTeamGame,
    evaluate,
    mixture_value,
    product_to_joint,
    team_value,
)
from .deviation import (
    DeviationSpec,
    Joint,
    NoCorrelation,
    PivotFollowers,
    SampleFactor,
    Sequential,
    build_deviation_spec,
    sample_budget,
    verify_equilibrium,
)
from .evaluation import (
    Candidate,
    ExploitReport,
    MatchLedger,
    elo_ratings,
    exploitability_profile,
    rpp,
)
from .games import (
    SadConfig,
    SkirmishConfig,
    anti_coordination,
    example1,
    grid_skirmish,
    random_team_game,
    sad,
)
from .oracles import (
    MaxminSolution,
    advantage_decompose,
    best_response_individual,
    best_response_joint,
    best_response_shared,
    sebr,
    solve_matrix_maxmin,
)
from .psro import (
    Population,
    PsroConfig,
    PsroResult,
    extend_population,
    initial_population,
    meta_solve,
    run_psro,
)
