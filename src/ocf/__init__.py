"""Exact solvers for discrete overlapping-coalition-formation games.

Agents split integer resource endowments across simultaneous coalitions; the
library computes optimal coalition structures, best deviation values under
arbitration rules, core membership and stabilizing imputations.  Three solver
lanes cover every question: a brute-force oracle for ground truth at desk
scale, pseudo-polynomial dynamic programs for pairwise games on trees, and
their treewidth-parameterized generalizations.  A fourth lane handles linear
bottleneck games through exact rational linear programming.
"""

from .arbitration import (
    CONSERVATIVE,
    OPTIMISTIC,
    OPTIMISTIC_CLAMPED,
    REFINED,
    SENSITIVE,
    CoreViolation,
    Deviation,
    deviation_total,
    local_payoff,
    rule_from_name,
    sensitive_payoffs,
)
from .core import (
    BudgetExceededError,
    CharacteristicFunction,
    Coalition,
    CoalitionStructure,
    GameDef,
    Imputation,
    InteractionGraph,
    Outcome,
    evaluate,
    make_charfun,
    myerson_restrict,
    payoff_to_set,
    reduce_structure,
    validate_outcome,
)
from .lbg import (
    LbgInstance,
    LbgOutcome,
    LbgSolution,
    gen_bipartite_market,
    gen_multicommodity_flow,
    gen_routing,
    lbg_best_deviation,
    lbg_core_outcome,
    lbg_optimal,
    lbg_verify_core,
    make_lbg_instance,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .oracle import (
    EnumerationBudget,
    brute_arbval,
    brute_checkcore,
    brute_is_stable,
    enumerate_structures,
    superadditive_cover,
)
from .tree import (
    arbval_local,
    arbval_tree,
    checkcore_tree,
    is_stable_tree,
    optval_tree,
)
from .treewidth import (
    TreeDecomposition,
    arbval_tw,
    checkcore_tw,
    heuristic_decomposition,
    is_stable_tw,
    optval_tw,
    validate_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "CONSERVATIVE",
    "OPTIMISTIC",
    "OPTIMISTIC_CLAMPED",
    "REFINED",
    "SENSITIVE",
    "BudgetExceededError",
    "CharacteristicFunction",
    "Coalition",
    "CoalitionStructure",
    "CoreViolation",
    "Deviation",
    "EnumerationBudget",
    "GameDef",
    "Imputation",
    "InteractionGraph",
    "LbgInstance",
    "LbgOutcome",
    "LbgSolution",
    "LinearProgram",
    "LpSolution",
    "Outcome",
    "TreeDecomposition",
    "arbval_local",
    "arbval_tree",
    "arbval_tw",
    "brute_arbval",
    "brute_checkcore",
    "brute_is_stable",
    "checkcore_tree",
    "checkcore_tw",
    "deviation_total",
    "enumerate_structures",
    "evaluate",
    "gen_bipartite_market",
    "gen_multicommodity_flow",
    "gen_routing",
    "heuristic_decomposition",
    "is_stable_tree",
    "is_stable_tw",
    "lbg_best_deviation",
    "lbg_core_outcome",
    "lbg_optimal",
    "lbg_verify_core",
    "local_payoff",
    "make_charfun",
    "make_lbg_instance",
    "myerson_restrict",
    "optval_tree",
    "optval_tw",
    "payoff_to_set",
    "reduce_structure",
    "rule_from_name",
    "sensitive_payoffs",
    "solve_lp",
    "superadditive_cover",
    "validate_decomposition",
    "validate_outcome",
]
