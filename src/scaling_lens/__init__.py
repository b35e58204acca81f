"""Scaling laws for concept learning on random bipartite graphs.

Submodules
----------
degree     generating functions of the text/concept degree ensemble
threshold  density-evolution thresholds and finite-size scaling constants
peeling    exact peeling decoder and Monte Carlo harness
optimizer  compute-optimal (model size, data size) allocation
loss       training-error and excess-entropy lower bounds
emergence  hierarchical skill graphs, emergence steps, plateau detection
cli        config-driven experiment runner
"""

__version__ = "0.1.0"

from .degree import DegreeModel, PolynomialPair
from .threshold import (
    NonPositiveRadicand,
    SolverWarning,
    ThresholdSolution,
    bit_erasure_rate,
    de_bit_erasure,
    de_fixed_point,
    de_map,
    find_threshold,
    matching_upper_bound,
    prob_concept_unlearned,
    scaling_alpha,
)
from .peeling import (
    BipartiteGraph,
    BudgetExceeded,
    MCStats,
    PeelingOutcome,
    dump_graph,
    is_stopping_set,
    mc_expected_learned,
    mc_parent_graph_erasure,
    peel,
    sample_graph,
)
from .optimizer import (
    BudgetSpec,
    EmptyGrid,
    InsufficientPoints,
    IsoflopCurve,
    OptimumPoint,
    ScalingFit,
    expected_learned,
    isoflop_curve,
    optimize_budget,
    scaling_exponents,
)
from .loss import (
    APPROX_CONSTANT_DISCREPANCY,
    FrontierRow,
    LossPoint,
    excess_entropy_lb,
    frontier_loss_curve,
    loss_point,
    training_error_approx,
    training_error_exact,
)
from .emergence import (
    DegenerateBound,
    EmergenceCurve,
    Segment,
    SkillHierarchy,
    TaskSpec,
    TooFewPoints,
    accuracy_vs_compute,
    concept_pair_prob,
    detect_plateaus,
    gcc_fraction,
    lambert_w0,
    level_recursion,
    skill_link_prob,
    task_accuracy,
    task_mixture_binomial,
)
