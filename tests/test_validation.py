"""One range check for every public numeric input.

Each probed hole below once returned a plausible number, or raised a
TypeError, for an input outside its range.  The fuzz tests feed every
numeric argument of the public functions nan, +-inf, +-0.0, a negative
value and the edges of its documented interval.  A value outside the
interval must raise ValueError; otherwise the call raises ValueError
(two arguments can constrain each other) or returns a finite result in
its documented range.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scaling_lens import degree, emergence, loss, optimizer, peeling, threshold
from scaling_lens.degree import DegreeModel, PolynomialPair
from scaling_lens.emergence import (
    DegenerateBound,
    EmergenceCurve,
    SkillHierarchy,
    TaskSpec,
    accuracy_vs_compute,
    concept_pair_prob,
    lambert_w0,
    skill_link_prob,
    task_accuracy,
    task_mixture_binomial,
)
from scaling_lens.loss import loss_point, training_error_approx
from scaling_lens.optimizer import BudgetSpec, isoflop_curve
from scaling_lens.threshold import (
    de_bit_erasure,
    de_fixed_point,
    find_threshold,
    prob_concept_unlearned,
)

nan, inf = math.nan, math.inf
MODEL = DegreeModel(R=1000, T=4500, d_t=6.0)
TASK = TaskSpec.homogeneous(1, 2)

PROBED = {
    "skill_link_prob_nan_R": lambda: skill_link_prob(nan, 1e-3, 5.0, 1.0, 0.5),
    "skill_link_prob_nan_eta": lambda: skill_link_prob(1000, 1e-3, nan, 1.0, 0.5),
    "skill_link_prob_nan_sigma": lambda: skill_link_prob(1000, 1e-3, 5.0, nan, 0.5),
    "hierarchy_nan_size": lambda: SkillHierarchy(S=(nan,), eta=(1.0,), sigma=(0.0,)),
    "hierarchy_inf_size": lambda: SkillHierarchy(S=(inf,), eta=(1.0,), sigma=(0.0,)),
    "concept_pair_prob_inf_skills": lambda: concept_pair_prob(1000, 4500, 6.0, inf),
    "lambert_w0_nan": lambda: lambert_w0(nan),
    "lambert_w0_inf": lambda: lambert_w0(inf),
    "task_accuracy_nan_gamma": lambda: task_accuracy([nan], TASK),
    "approx_nan_d_t": lambda: training_error_approx(nan, 0.1, 0.5),
    "approx_nan_rate": lambda: training_error_approx(6.0, nan, 0.5),
    "approx_nan_epsilon": lambda: training_error_approx(6.0, 0.1, nan),
    "approx_inf_epsilon": lambda: training_error_approx(6.0, 0.1, inf),
    "loss_point_inf_epsilon": lambda: loss_point(0.1, 100, 6.0, inf),
    "de_bit_erasure_nan_eps": lambda: de_bit_erasure(MODEL, nan),
    "de_fixed_point_inf_eps": lambda: de_fixed_point(MODEL, inf),
    "task_mixture_nan_levels": lambda: task_mixture_binomial(nan, 0.5),
    "unlearned_nan_rate": lambda: prob_concept_unlearned(
        MODEL, dataclasses.replace(find_threshold(MODEL), nu_star=nan)
    ),
    "isoflop_one_point_per_decade": lambda: isoflop_curve(BudgetSpec(C=1e5), 1),
    "resolve_threads_nan": lambda: peeling.resolve_threads(nan),
    # a fractional count was truncated, passed through or failed later
    "sample_graph_fractional_seed": lambda: peeling.sample_graph(40, 60, 0.1, 5.7),
    "expected_learned_fractional_counts": lambda: optimizer.expected_learned(
        100.7, 200.2, SPECS[0]
    ),
    "resolve_threads_fractional": lambda: peeling.resolve_threads(1.5),
    "task_spec_fractional_level": lambda: TaskSpec(weights={(1.5, 1): 1.0}),
    "sample_graph_integral_float_texts": lambda: peeling.sample_graph(40, 0.0, 0.1, 5),
}


@pytest.mark.parametrize("name", PROBED)
def test_probed_hole_raises_value_error(name):
    with pytest.raises(ValueError):
        PROBED[name]()


def test_numpy_integer_counts_pass():
    graph = peeling.sample_graph(np.int64(GRAPH_R), np.int32(GRAPH_T), 0.1, np.uint64(5))
    want = peeling.sample_graph(GRAPH_R, GRAPH_T, 0.1, 5)
    assert graph.indices.tobytes() == want.indices.tobytes()
    assert DegreeModel(R=np.int64(1000), T=np.int64(4500), d_t=6.0) == MODEL
    assert peeling.resolve_threads(np.int64(1)) == 1
    assert TaskSpec(weights={(np.int64(1), np.int8(2)): 1.0}).max_level() == 1


def test_task_above_hierarchy_fails_before_any_solve(monkeypatch):
    def no_solve(spec):
        raise AssertionError("optimize_budget ran")

    monkeypatch.setattr(emergence, "optimize_budget", no_solve)
    h = SkillHierarchy.exponential_thresholds(3, 20)
    with pytest.raises(ValueError, match="level 9"):
        accuracy_vs_compute([BudgetSpec(C=1e6)], h, TaskSpec.homogeneous(9, 1))


# --- fuzz test over the public API -----------------------------------------

SPECIAL = (nan, inf, -inf, 0.0, -0.0, -1.0)
SPECS = [BudgetSpec(C=c) for c in (1e4, 3e4, 1e5, 3e5, 1e6)]
CURVE_C = np.geomspace(1e4, 1e8, 9)
GRAPH_R, GRAPH_T = 40, 60


@dataclasses.dataclass(frozen=True)
class Arg:
    """One argument: its documented interval from lo to hi, with brackets
    ends, and the values it is fuzzed with, its default first."""

    lo: float
    hi: float
    ends: str
    values: tuple
    integer: bool = False

    def outside(self, v) -> bool:
        above = self.lo < v if self.ends[0] == "(" else self.lo <= v
        below = v < self.hi if self.ends[1] == ")" else v <= self.hi
        fractional = self.integer and not isinstance(v, (int, np.integer))
        return not (above and below) or fractional  # NaN is outside every interval


def real(default, lo, hi, ends="[]", *extra):
    """A real argument: fuzzed with SPECIAL, the finite ends, one past a
    finite upper end and extra values."""
    edges = [e for e in (lo, hi, hi + 1.0) if math.isfinite(e)]
    return Arg(lo, hi, ends, (default, *SPECIAL, *edges, *extra))


def count(default, lo, *extra, hi=inf):
    """A count, an int in [lo, hi): fuzzed with 0 for +-0.0, -1, lo, the
    fraction 2.5 and extra values."""
    return Arg(lo, hi, "[)", (default, nan, inf, -inf, 0, -1, lo, 2.5, *extra), integer=True)


def _unit(x):
    return math.isfinite(x) and 0.0 <= x <= 1.0


def _finite(*xs):
    return all(math.isfinite(x) for x in xs)


def _model(R, T, d_t, epsilon):
    return DegreeModel(R=R, T=T, d_t=d_t, epsilon=epsilon)


def _solution(s):
    """Documented ranges of a ThresholdSolution: alpha is NaN where
    scaling_alpha fails, and x_star, nu_star NaN without a tangency."""
    return (
        _unit(s.eps_star)
        and (math.isnan(s.x_star) or _unit(s.x_star))
        and (math.isnan(s.nu_star) or _unit(s.nu_star))
        and (math.isnan(s.alpha) or 0.0 < s.alpha < inf)
    )


def _curve(accuracy):
    n = len(CURVE_C)
    return EmergenceCurve(
        C=CURVE_C, N_star=CURVE_C, R_star=np.ones(n, dtype=np.int64),
        T_star=np.ones(n, dtype=np.int64), accuracy=np.asarray(accuracy),
        gamma=np.zeros((n, 1)),
    )


# d_t < R and the like tie two arguments; each interval below is the
# widest a value can lie in, so a value outside it must always fail
MODEL_ARGS = {
    "R": count(1000, 1, 7),
    "T": count(4500, 1),
    "d_t": real(6.0, 0, inf, "()", 1e-9, 999.0, 1000.0),
    "epsilon": real(0.5, 0, 1, "(]", 0.01),
}
SPEC_ARGS = {
    "C": real(1e5, 0, inf, "()", 6.0, 100.0),
    "varsigma": real(1.0, 0, inf, "()", 10.0),
    "tau": real(1.0, 0, inf, "()", 10.0),
    "d_t": real(6.0, 0, inf, "()", 1e-9, 20.0),
    "epsilon": real(0.5, 0, 1, "()", 0.01, 0.99),
}


def _spec(C, varsigma, tau, d_t, epsilon):
    return BudgetSpec(C=C, varsigma=varsigma, tau=tau, d_t=d_t, epsilon=epsilon)


def _hierarchy(S, eta, sigma):
    return SkillHierarchy(S=(20, S), eta=(1.0, eta), sigma=(0.0, sigma))


HIERARCHY_ARGS = {
    "S": count(20, 2, 1),
    "eta": real(2.0, 0, inf, "()"),
    "sigma": real(1.0, 0, inf, "[)"),
}
UNIT = real(0.5, 0, 1)
SIZES = {"R": count(1000, 1), "T": count(4500, 0), "d_t": real(6.0, 0, inf, "[)", 1000.0)}
SEED = count(5, 0, 2**64 - 1, 2**64, hi=2**64)

# name -> (call taking the fuzzed arguments by keyword, {argument: Arg},
#          the documented range of the result)
CASES = {
    # degree
    "DegreeModel": (_model, MODEL_ARGS, lambda m: 0.0 < m.p < 1.0),
    "PolynomialPair": (
        lambda c: PolynomialPair(lam_coeffs=(0.0, c, 1.0 - c), rho_coeffs=(0.0, 1.0)),
        {"c": UNIT},
        lambda pp: 0.0 < pp.integral("lam") <= 1.0,
    ),
    # threshold
    "qfunc": (threshold.qfunc, {"z": real(1.0, -inf, inf)}, _unit),
    "de_fixed_point": (
        lambda eps, **m: de_fixed_point(_model(**m), eps),
        {"eps": UNIT, **MODEL_ARGS},
        _unit,
    ),
    "de_bit_erasure": (
        lambda eps, **m: de_bit_erasure(_model(**m), eps),
        {"eps": UNIT, **MODEL_ARGS},
        _unit,
    ),
    "find_threshold": (lambda **m: find_threshold(_model(**m)), MODEL_ARGS, _solution),
    "matching_upper_bound": (
        lambda **m: threshold.matching_upper_bound(_model(**m)),
        MODEL_ARGS,
        lambda u: 0.0 < u < inf,
    ),
    "scaling_alpha": (
        lambda x_star, eps_star: threshold.scaling_alpha(MODEL, x_star, eps_star),
        {"x_star": real(0.3, 0, 1), "eps_star": real(0.6, 0, 1)},
        lambda a: 0.0 < a < inf,
    ),
    "bit_erasure_rate": (
        lambda **m: threshold.bit_erasure_rate(_model(**m), find_threshold(_model(**m))),
        MODEL_ARGS,
        _unit,
    ),
    "prob_concept_unlearned": (
        lambda **m: prob_concept_unlearned(_model(**m), find_threshold(_model(**m))),
        MODEL_ARGS,
        _unit,
    ),
    # optimizer
    "BudgetSpec": (_spec, SPEC_ARGS, lambda s: 1.0 < s.C_prime < inf),
    "expected_learned": (
        lambda R, T: optimizer.expected_learned(R, T, SPECS[0]),
        {"R": count(1000, 1), "T": count(4500, 1)},
        lambda v: math.isfinite(v) and v >= 0.0,
    ),
    "interior_maxima": (
        lambda tol: optimizer.interior_maxima(np.array([0.0, 1.0, 0.5, 2.0, 0.0]), tol),
        {"tol": real(0.1, 0, inf, "[)", 1.0)},
        lambda k: k in (0, 1, 2),
    ),
    "isoflop_curve": (
        lambda ppd, **s: isoflop_curve(_spec(**s), ppd),
        {"ppd": count(4, 2, 1), **SPEC_ARGS},
        lambda c: _finite(*c.objective, *c.eps_star) and all(map(_unit, c.eps_star)),
    ),
    "optimize_budget": (
        lambda **s: optimizer.optimize_budget(_spec(**s)),
        SPEC_ARGS,
        lambda o: 0.0 <= o.objective <= o.R_star and _solution(o.solution),
    ),
    "scaling_exponents": (
        lambda C: optimizer.scaling_exponents(SPECS[:4] + [BudgetSpec(C=C)]),
        {"C": real(3e6, 0, inf, "()", 6.0)},
        lambda f: _finite(f.a, f.b, f.r2),
    ),
    # loss
    "training_error_exact": (
        loss.training_error_exact,
        {"R": count(100, 1), "d_t": real(6.0, 0, inf, "[)"), "P_b": UNIT},
        _unit,
    ),
    "training_error_approx": (
        training_error_approx,
        {"d_t": real(6.0, 0, inf, "[)"), "P_b_raw": UNIT, "epsilon": real(0.5, 0, 1, "(]")},
        lambda v: math.isfinite(v) and v >= 0.0,
    ),
    "excess_entropy_lb": (loss.excess_entropy_lb, {"P_e_train": UNIT}, _unit),
    "loss_point": (
        loss_point,
        {"P_b_raw": UNIT, "R": count(100, 1), "d_t": real(6.0, 0, inf, "[)"),
         "epsilon": real(0.5, 0, 1, "(]")},
        lambda p: _unit(p.P_b) and _unit(p.P_e_train_exact) and _unit(p.excess_entropy_lb)
        and _finite(p.P_e_train_approx),
    ),
    "frontier_loss_curve": (
        lambda **s: loss.frontier_loss_curve([_spec(**s)]),
        SPEC_ARGS,
        lambda rows: all(_unit(r.P_b) and _unit(r.excess_entropy_lb) for r in rows),
    ),
    # emergence
    "SkillHierarchy": (_hierarchy, HIERARCHY_ARGS, lambda h: h.L == 2),
    "TaskSpec": (
        lambda l, m, q: TaskSpec(weights={(1, 1): 1.0 - q, (l, m): q}),
        {"l": count(2, 1), "m": count(2, 1), "q": UNIT},
        lambda t: math.fsum(t.weights.values()) == pytest.approx(1.0),
    ),
    "accuracy_vs_compute": (
        lambda level, **s: accuracy_vs_compute(
            [_spec(**s)], SkillHierarchy.exponential_thresholds(3, 20),
            TaskSpec.homogeneous(level, 1),
        ),
        {"level": count(2, 1, 3, 4), **SPEC_ARGS},
        lambda c: all(map(_unit, c.accuracy)),
    ),
    "concept_pair_prob": (
        concept_pair_prob,
        {**SIZES, "S_l": count(10, 1)},
        _unit,
    ),
    "detect_plateaus": (
        lambda slope_tol, width: emergence.detect_plateaus(
            _curve([0, 0, 0, 0.5, 1, 1, 1, 1, 1]), slope_tol, width
        ),
        {"slope_tol": real(0.1, 0, inf, "[)"), "width": real(1.0, 0, inf, "[)")},
        lambda segs: all(math.isfinite(s.width_decades) for s in segs),
    ),
    "gcc_fraction": (emergence.gcc_fraction, {"mean_degree": real(2.0, 0, inf, "[]", 1.0)}, _unit),
    "lambert_w0": (
        lambert_w0,
        {"z": real(1.0, -math.exp(-1.0) - 1e-12, inf, "[)", -math.exp(-1.0), -0.4)},
        lambda w: math.isfinite(w) and w >= -1.0,
    ),
    "level_recursion": (
        lambda R, T, d_t, **h: emergence.level_recursion(_hierarchy(**h), R, T, d_t),
        {**SIZES, **HIERARCHY_ARGS},
        lambda g: all(map(_unit, g)),
    ),
    "level_recursion_detail": (
        lambda R, T, d_t: emergence.level_recursion_detail(
            SkillHierarchy.exponential_thresholds(3, 20), R, T, d_t
        ),
        SIZES,
        lambda out: all(_unit(r.p_link) and _unit(r.gamma) for r in out[1]),
    ),
    "skill_link_prob": (
        skill_link_prob,
        {"R": count(1000, 1), "p_rr": real(1e-3, 0, 1, "()"), "eta_l": real(5.0, 0, inf, "()"),
         "sigma_l": real(1.0, 0, inf, "[)"), "gamma_prev": UNIT},
        _unit,
    ),
    "task_accuracy": (
        lambda g1, g2: task_accuracy([g1, g2], TaskSpec.product({1: 0.5, 2: 0.5}, {2: 1.0})),
        {"g1": UNIT, "g2": UNIT},
        _unit,
    ),
    "task_mixture_binomial": (
        lambda L, pi, w: task_mixture_binomial(L, (pi, 0.5), (w, 1.0 - w)),
        {"L": count(5, 1), "pi": real(0.3, 0, 1, "()"), "w": UNIT},
        lambda t: math.fsum(t.weights.values()) == pytest.approx(1.0),
    ),
    # peeling: small graphs, at most 2 trials, one thread
    "mc_expected_learned": (
        lambda R, T, d_t, trials, seed: peeling.mc_expected_learned(
            R, T, d_t, trials, seed, threads=1
        ),
        {"R": count(GRAPH_R, 1), "T": count(GRAPH_T, 0), "d_t": real(3.0, 0, inf, "[)", GRAPH_R),
         "trials": count(2, 1), "seed": SEED},
        lambda s: 0.0 <= s.mean <= GRAPH_R and math.isfinite(s.stderr),
    ),
    "mc_parent_graph_erasure": (
        lambda trials, seed, **m: peeling.mc_parent_graph_erasure(
            _model(**m), trials, seed, threads=1
        ),
        {"R": count(GRAPH_R, 1), "T": count(GRAPH_T, 1), "d_t": real(3.0, 0, inf, "()"),
         "epsilon": real(0.5, 0, 1, "(]"), "trials": count(2, 1), "seed": SEED},
        lambda s: _unit(s.mean) and math.isfinite(s.stderr),
    ),
    "sample_graph": (
        peeling.sample_graph,
        {"R": count(GRAPH_R, 1), "T": count(GRAPH_T, 0), "p": real(0.1, 0, 1), "seed": SEED},
        lambda g: 0 <= g.n_edges <= g.n_concepts * g.n_texts,
    ),
}

# Public names with no numeric argument to fuzz: classes of results and
# errors, constants, and kernels that map arrays elementwise, where NaN
# propagates as it does through a numpy ufunc.  The thread count is not
# fuzzed either: every fuzzed call runs on one thread.
NOT_FUZZED = {
    "BinomialRows", "binomial_gen", "log_gen",  # array kernels, unchecked by design
    "ThresholdSolution", "NonPositiveRadicand", "SolverWarning", "de_map",
    "EmptyGrid", "InsufficientPoints", "IsoflopCurve", "OptimumPoint", "ScalingFit",
    "smooth3",
    "APPROX_CONSTANT_DISCREPANCY", "FrontierRow", "LossPoint",
    "DegenerateBound", "EmergenceCurve", "LevelRow", "Segment", "TooFewPoints",
    "THREADS_ENV", "MAX_EXPECTED_EDGES", "BipartiteGraph", "BudgetExceeded", "MCStats",
    "PeelingOutcome", "dump_graph", "is_stopping_set", "peel", "resolve_threads",
}


def test_every_public_name_is_fuzzed_or_exempt():
    public = {
        name
        for module in (degree, threshold, optimizer, loss, emergence, peeling)
        for name in module.__all__
    }
    assert public == set(CASES) | NOT_FUZZED
    assert not set(CASES) & NOT_FUZZED


def _check_contract(name, kwargs):
    """ValueError (EmptyGrid included) or a finite result in its documented
    range, and always ValueError for a value outside its argument's
    interval; with every value inside, scaling_alpha may also raise
    NonPositiveRadicand, its documented failure."""
    call, args, documented = CASES[name]
    outside = [arg for arg, v in kwargs.items() if args[arg].outside(v)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateBound)
            result = call(**kwargs)
    except ValueError:
        return
    except threshold.NonPositiveRadicand:
        assert name == "scaling_alpha" and not outside, kwargs
        return
    assert not outside, (name, kwargs, result)
    assert documented(result), (name, kwargs, result)


@pytest.mark.parametrize("name", CASES)
def test_each_fuzz_value_alone(name):
    """Every fuzz value of every argument, the others at their defaults."""
    args = CASES[name][1]
    defaults = {arg: a.values[0] for arg, a in args.items()}
    for arg, a in args.items():
        for value in a.values[1:]:
            _check_contract(name, {**defaults, arg: value})


@pytest.mark.parametrize("name", CASES)
@settings(
    max_examples=40,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_fuzz_values_together(name, data):
    """Fuzz values drawn for several arguments at once."""
    args = CASES[name][1]
    _check_contract(
        name, {arg: data.draw(st.sampled_from(a.values), label=arg) for arg, a in args.items()}
    )
