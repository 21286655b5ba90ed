"""Team-belief-DAG equilibrium solver for timeable zero-sum games.

The package turns an extensive-form game with (possibly imperfect-recall)
teams into a DAG-shaped decision problem per side, runs regret-minimization
dynamics directly on the DAG, and recovers an equilibrium of the original
game.  Sub-modules:

- ``game``:       arena-indexed game trees, JSON parsing/serialization.
- ``analysis``:   connectivity components, belief splitting, recall metrics.
- ``transforms``: action binarization and infoset inflation.
- ``zoo``:        parametric game families and their named presets.
- ``belief``:     the explicit belief-game tree construction.
- ``dag``:        DAG decision problems, flows, regret dynamics.
- ``build``:      the team-belief-DAG constructor and its reductions.
- ``solve``:      self-play equilibrium loop and exact oracles.
- ``cli``:        the ``tbdag`` command-line entry point.
"""

from .game import (
    CHANCE,
    MAX,
    MIN,
    PLAYER,
    TERMINAL,
    BudgetExceededError,
    ExtensiveFormGame,
    GameValidationError,
    Infoset,
    parse_game,
    pure_strategy_value,
    serialize_game,
)
from .analysis import (
    CoordinatorView,
    GameAnalysis,
    analyze,
    coordinator_view,
    imperfect_recall_at,
    split_observation,
    split_public,
)
from .transforms import binarize_actions, inflate
from .zoo import ZooSpec, generate, list_presets
from .belief import (
    BeliefGame,
    belief_game_to_doc,
    make_belief_game,
    map_pure_strategy,
)
from .dag import (
    DagDecisionProblem,
    FlowVector,
    LocalRegretBank,
    best_response,
    dag_cfr_strategy,
    dag_cfr_utility,
    expand_to_tree,
    sequence_form,
)
from .build import (
    TbDag,
    build_tbdag,
    check_size_bounds,
    count_tbdag,
    dag_signature,
    tbdag_to_doc,
)
from .solve import (
    LogPoint,
    SolveConfig,
    SolveReport,
    assemble_utility,
    check_realization,
    enumeration_oracle,
    gap,
    payoffs_from_realization,
    solve,
    terminal_realization,
)

__version__ = "0.1.0"

__all__ = [
    "BeliefGame",
    "BudgetExceededError",
    "CHANCE",
    "CoordinatorView",
    "DagDecisionProblem",
    "ExtensiveFormGame",
    "FlowVector",
    "GameAnalysis",
    "GameValidationError",
    "Infoset",
    "LocalRegretBank",
    "LogPoint",
    "MAX",
    "MIN",
    "PLAYER",
    "SolveConfig",
    "SolveReport",
    "TERMINAL",
    "TbDag",
    "ZooSpec",
    "analyze",
    "assemble_utility",
    "belief_game_to_doc",
    "best_response",
    "binarize_actions",
    "build_tbdag",
    "check_realization",
    "check_size_bounds",
    "coordinator_view",
    "count_tbdag",
    "dag_cfr_strategy",
    "dag_cfr_utility",
    "dag_signature",
    "enumeration_oracle",
    "expand_to_tree",
    "gap",
    "generate",
    "imperfect_recall_at",
    "inflate",
    "list_presets",
    "make_belief_game",
    "map_pure_strategy",
    "parse_game",
    "payoffs_from_realization",
    "pure_strategy_value",
    "sequence_form",
    "serialize_game",
    "solve",
    "split_observation",
    "split_public",
    "tbdag_to_doc",
    "terminal_realization",
]
