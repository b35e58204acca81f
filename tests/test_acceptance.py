"""End-to-end acceptance gate: one test per shipped criterion.

Every test re-derives its pass condition from scratch in this module
(fresh solver runs, independent oracles, fixed seeds) and enforces the
stated wall-clock budget on a single core.  Run with -s or -rA to see
the per-criterion PASS lines; a failed assert is the FAIL line.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from scaling_lens import cli
from scaling_lens.degree import DegreeModel, PolynomialPair
from scaling_lens.emergence import (
    SkillHierarchy,
    TaskSpec,
    accuracy_vs_compute,
    detect_plateaus,
    gcc_fraction,
    task_mixture_binomial,
)
from scaling_lens.loss import frontier_loss_curve, training_error_exact
from scaling_lens.optimizer import (
    BudgetSpec,
    interior_maxima,
    isoflop_curve,
    optimize_budget,
    scaling_exponents,
    smooth3,
)
from scaling_lens.peeling import mc_parent_graph_erasure, peel, sample_graph
from scaling_lens.threshold import (
    bit_erasure_rate,
    find_threshold,
    matching_upper_bound,
)


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _report(criterion, elapsed, limit):
    budget = "no stated limit" if limit is None else f"limit {limit:.0f}s"
    print(f"[acceptance] criterion {criterion}: PASS ({elapsed:.1f}s, {budget})", flush=True)


# ---------------------------------------------------------------------------
# criterion 1: compute-optimal allocation reproduces equal scaling exponents


def test_criterion_1_allocation_exponents_and_marker_budget():
    t0 = time.time()
    budgets = np.geomspace(1e21, 1e25, 9)
    specs = [
        BudgetSpec(C=float(c), varsigma=2e5, tau=8e5, d_t=6.0, epsilon=0.5)
        for c in budgets
    ]
    opts = [optimize_budget(s) for s in specs]
    fit = scaling_exponents(specs, opts)
    assert abs(fit.a - 0.5) <= 0.05
    assert abs(fit.b - 0.5) <= 0.05
    assert abs(fit.a + fit.b - 1.0) <= 0.02

    marker = BudgetSpec(C=5.76e23, varsigma=2e5, tau=8e5, d_t=6.0, epsilon=0.5)
    opt = optimize_budget(marker)
    used = 6.0 * opt.N_star * opt.D_star
    assert used <= marker.C * (1.0 + 1e-12)
    # exhausted up to grid resolution: the leftover buys less than one
    # more text column at the chosen model size
    assert marker.C - used < 6.0 * opt.N_star * marker.tau
    assert 1e10 <= opt.N_star <= 1e11
    assert 1e12 <= opt.D_star <= 1e13

    elapsed = time.time() - t0
    assert elapsed < 120.0
    _report(1, elapsed, 120)


# ---------------------------------------------------------------------------
# criterion 2: isoFLOP curves have a single interior optimum past threshold


def test_criterion_2_isoflop_single_interior_peak():
    t0 = time.time()
    for c_prime in (1e5, 1e6, 1e7):
        curve = isoflop_curve(BudgetSpec(C=6.0 * c_prime, varsigma=1.0, tau=1.0, d_t=6.0))
        smoothed = smooth3(curve.objective)
        assert interior_maxima(smoothed, tol=1e-6 * float(smoothed.max())) == 1
        peak = int(np.argmax(smoothed))
        assert curve.eps_star[peak] > 0.5

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(2, elapsed, 60)


# ---------------------------------------------------------------------------
# criterion 3: finite-length erasure law against the Monte-Carlo oracle


def test_criterion_3_erasure_law_matches_monte_carlo():
    t0 = time.time()
    for T, near in ((4500, True), (6500, False), (8000, False)):
        model = DegreeModel(R=1000, T=T, d_t=6.0, epsilon=0.5)
        sol = find_threshold(model)
        law = bit_erasure_rate(model, sol)
        mc = mc_parent_graph_erasure(model, trials=1000, seed=11)
        if near:
            assert law <= 2.0 * mc.mean
            assert mc.mean <= 2.0 * law
        else:
            assert abs(law - mc.mean) <= 3.0 * max(mc.stderr, 1.0 / mc.trials)

    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(3, elapsed, 300)


# ---------------------------------------------------------------------------
# criterion 4: peeling equals the exhaustive fixpoint, any order


def _exhaustive_fixpoint(graph):
    """Order-free reference: rescan every text until nothing changes."""
    live = set(range(graph.n_concepts))
    texts = [set(graph.text_neighbors(t).tolist()) for t in range(graph.n_texts)]
    changed = True
    while changed:
        changed = False
        for members in texts:
            hit = members & live
            if len(hit) == 1:
                live -= hit
                changed = True
    return live


def _random_order_peel(graph, rng):
    """Peel by picking a uniformly random eligible text each step."""
    live = set(range(graph.n_concepts))
    texts = [set(graph.text_neighbors(t).tolist()) for t in range(graph.n_texts)]
    while True:
        eligible = [t for t, members in enumerate(texts) if len(members & live) == 1]
        if not eligible:
            return live
        t = eligible[int(rng.integers(len(eligible)))]
        live -= texts[t] & live


def test_criterion_4_peel_equals_fixpoint_and_order_free():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    for _ in range(100):
        p = float(rng.uniform(0.05, 0.35))
        graph = sample_graph(R=12, T=18, p=p, seed=int(rng.integers(2**31)))
        stopped = _exhaustive_fixpoint(graph)
        out = peel(graph)
        assert set(range(12)) - set(out.learned) == stopped
        for _ in range(20):
            assert _random_order_peel(graph, rng) == stopped

    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(4, elapsed, 10)


# ---------------------------------------------------------------------------
# criterion 5: threshold accuracy and the matching upper bound


def _dense_grid_threshold(pair, dx=1e-6):
    """Independent oracle: min over x of x / lam(1 - rho(1 - x))."""
    x = np.arange(dx, 1.0 + dx / 2, dx)
    denom = pair.lam(1.0 - pair.rho(1.0 - x))
    ratio = np.where(denom > 0, x / np.where(denom > 0, denom, 1.0), np.inf)
    return float(ratio.min())


def _orbits_split(model, eps):
    """Independent oracle: do the DE orbits from x = 0 and x = 1 end apart?

    They end on the smallest and the largest fixed point, so they split
    exactly where a non-trivial fixed point exists.
    """

    def end(x, stop_below):
        for _ in range(10**7):
            x_next = eps * model.g(x)
            if x_next <= stop_below or abs(x_next - x) <= 1e-15 + 1e-12 * x_next:
                return x_next
            x = x_next
        raise AssertionError(f"DE orbit did not settle at eps={eps!r}")

    meet = end(0.0, -1.0) * (1.0 + 1e-6) + 1e-15
    return end(1.0, meet) > meet


def test_criterion_5_regular_pair_threshold_and_bound():
    t0 = time.time()
    pair = PolynomialPair(
        lam_coeffs=(0.0, 0.0, 1.0),
        rho_coeffs=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
    )
    sol = find_threshold(pair)
    assert abs(sol.eps_star - 0.4294) <= 1e-3
    assert abs(sol.eps_star - _dense_grid_threshold(pair)) <= 1e-6

    # a threshold lies below the matching bound; a crossover has no jump
    rng = np.random.default_rng(7)
    crossovers = 0
    for _ in range(50):
        R = int(rng.integers(20, 3000))
        d_t = float(rng.uniform(1.2, 9.0))
        T = int(rng.integers(R // 2, 5 * R))
        eps = float(rng.uniform(0.2, 0.9))
        model = DegreeModel(R=R, T=max(T, 2), d_t=d_t, epsilon=eps)
        sol = find_threshold(model)
        if sol.no_transition:
            crossovers += 1
            assert not any(_orbits_split(model, e) for e in np.linspace(0.01, 1.0, 100))
        else:
            assert sol.eps_star <= matching_upper_bound(model) + 1e-6
    assert 0 < crossovers < 50

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(5, elapsed, 60)


# ---------------------------------------------------------------------------
# criterion 6: giant-component fraction solves its fixed point


def _bisect_gcc(c, tol=1e-13):
    lo, hi = 1e-15, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 1.0 - math.exp(-c * mid) - mid > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return 0.5 * (lo + hi)


def test_criterion_6_giant_component_fixed_point():
    t0 = time.time()
    for c in np.linspace(0.0, 1.0, 1000):
        assert gcc_fraction(float(c)) == 0.0
    g2 = gcc_fraction(2.0)
    assert abs(g2 - 0.796812) <= 1e-3
    assert abs(g2 - _bisect_gcc(2.0)) <= 1e-9
    for c in np.geomspace(1.0 + 1e-6, 100.0, 1000):
        g = gcc_fraction(float(c))
        assert abs(1.0 - math.exp(-float(c) * g) - g) < 1e-10

    elapsed = time.time() - t0
    assert elapsed < 5.0
    _report(6, elapsed, 5)


# ---------------------------------------------------------------------------
# criterion 7: emergence shapes on the hundred-level hierarchy


def _transition_width(curve, lo=0.01, hi=0.99):
    """Decades between the last point below lo and the first above hi."""
    log_c = np.log10(curve.C)
    above = np.flatnonzero(curve.accuracy > hi)
    assert above.size, "curve never reaches the high mark"
    j = int(above[0])
    below = np.flatnonzero(curve.accuracy[:j] < lo)
    assert below.size, "curve never sits below the low mark"
    return float(log_c[j] - log_c[int(below[-1])])


def test_criterion_7_emergence_and_plateau_shapes():
    t0 = time.time()
    specs = [
        BudgetSpec(C=float(c), varsigma=1.0, tau=1.0, d_t=6.0, epsilon=0.5)
        for c in np.geomspace(1e6, 1e16, 121)
    ]
    # the allocation sweep dominates the runtime; share it across tasks
    allocations = [optimize_budget(s) for s in specs]
    hierarchy = SkillHierarchy.exponential_thresholds(100, 1000, eta_scale=7.0)
    arity = {m: 1.0 / 6.0 for m in range(2, 8)}

    # (a) single-level task: sharp emergence, well under half a decade
    curve_a = accuracy_vs_compute(
        specs, hierarchy, TaskSpec.homogeneous(level=50, m=5), allocations=allocations
    )
    assert _transition_width(curve_a) < 0.5

    # (c) broad binomial mixture: one monotone S-curve at least a decade wide
    task_c = task_mixture_binomial(100, 0.5).with_arity(arity)
    curve_c = accuracy_vs_compute(specs, hierarchy, task_c, allocations=allocations)
    assert np.all(np.diff(curve_c.accuracy) >= -1e-12)
    assert _transition_width(curve_c) >= 1.0
    segments_c = detect_plateaus(curve_c, 0.02, 0.3)
    assert sum(1 for s in segments_c if s.kind == "rise") == 1
    assert not [s for s in segments_c[1:-1] if s.kind == "plateau"]

    # (d) trimodal mixture: staircase with interior plateaus between rises
    task_d = task_mixture_binomial(
        100, (0.2, 0.6, 0.95), (0.4, 0.4, 0.2)
    ).with_arity(arity)
    curve_d = accuracy_vs_compute(specs, hierarchy, task_d, allocations=allocations)
    segments_d = detect_plateaus(curve_d, 0.02, 0.3)
    assert len([s for s in segments_d[1:-1] if s.kind == "plateau"]) >= 2
    assert sum(1 for s in segments_d if s.kind == "rise") >= 2

    # the shipped staircase config carries exactly the setup used in (d)
    params = cli.parse_config(
        str(CONFIG_DIR / "emergence_multimodal_plateaus.txt"), "plateaus"
    )
    assert params["budget_min"] == 1e6
    assert params["budget_max"] == 1e16
    assert params["budget_count"] == 121
    assert params["varsigma"] == 1.0 and params["tau"] == 1.0
    assert params["d_t"] == 6.0 and params["epsilon"] == 0.5
    assert params["levels"] == 100 and params["skills_per_level"] == 1000
    assert params["eta_scale"] == 7.0
    assert params["task"] == "binomial-mixture"
    assert tuple(params["task_pis"]) == (0.2, 0.6, 0.95)
    assert tuple(params["task_weights"]) == (0.4, 0.4, 0.2)
    assert (params["arity_min"], params["arity_max"]) == (2, 7)
    assert params["slope_tol"] == 0.02
    assert params["min_width_decades"] == 0.3

    elapsed = time.time() - t0
    assert elapsed < 180.0
    _report(7, elapsed, 180)


# ---------------------------------------------------------------------------
# criterion 8: exact training error and the frontier lower bound


def _degree_sum_oracle(R, d_t, P_b):
    """Binomial text-degree average of the per-degree stuck probability."""
    q = d_t / R
    if q == 0.0 or P_b == 0.0:
        return 0.0
    terms = []
    for k in range(2, R + 1):
        log_bin = math.lgamma(R + 1) - math.lgamma(k + 1) - math.lgamma(R - k + 1)
        log_deg = log_bin + k * math.log(q) + (R - k) * math.log1p(-q)
        inner = 1.0 - (1.0 - P_b) ** k - k * P_b * (1.0 - P_b) ** (k - 1)
        terms.append(math.exp(log_deg) * inner)
    return math.fsum(terms)


def test_criterion_8_training_error_and_frontier_bound(tmp_path, monkeypatch):
    t0 = time.time()
    rng = np.random.default_rng(4321)
    for _ in range(50):
        R = int(rng.integers(2, 201))
        # the degree-sum decomposition needs d_t <= R
        d_t = float(rng.uniform(0.1, 0.99 * R))
        P_b = float(rng.uniform(0.0, 1.0))
        exact = training_error_exact(R, d_t, P_b)
        assert abs(exact - _degree_sum_oracle(R, d_t, P_b)) <= 1e-10

    specs = [
        BudgetSpec(C=float(c), varsigma=1.0, tau=1.0, d_t=6.0, epsilon=0.5)
        for c in np.geomspace(6e4, 6e7, 7)
    ]
    rows = frontier_loss_curve(specs)
    sizes = np.array([r.N_star for r in rows])
    bounds = np.array([r.excess_entropy_lb for r in rows])
    assert np.all(np.diff(sizes) > 0)
    assert np.all(np.diff(bounds) <= 1e-12)

    # the CLI records the approximation-constant discrepancy in metadata
    cfg = tmp_path / "loss.txt"
    cfg.write_text(
        "budget_min = 6e4\nbudget_max = 6e6\nbudget_count = 3\nd_t = 6\n",
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    assert cli.main(["loss", "--config", str(cfg), "--out", "loss.csv"]) == 0
    meta = json.loads((tmp_path / "loss.csv.meta.json").read_text(encoding="utf-8"))
    flag = meta["approx_constant_discrepancy"]
    assert flag["flag"] == "training-error-approx-constant-discrepancy"
    assert flag["approx_over_exact_ratio"] == 8.0

    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report(8, elapsed, 30)


# ---------------------------------------------------------------------------
# criterion 9: byte-identical simulator output across thread counts


def test_criterion_9_byte_identical_across_threads(tmp_path):
    t0 = time.time()
    cases = [
        ("parent-erasure", 1000, 4500, 6.0, 1000, 11),
        ("parent-erasure", 1000, 6500, 6.0, 1000, 11),
        ("parent-erasure", 1000, 8000, 6.0, 1000, 11),
        ("learned", 12, 18, 2.4, 100, 2024),
    ]
    for i, (mode, R, T, d_t, trials, seed) in enumerate(cases):
        cfg = tmp_path / f"case{i}.txt"
        cfg.write_text(
            f"R = {R}\nT = {T}\nd_t = {d_t}\nepsilon = 0.5\n"
            f"mode = {mode}\ntrials = {trials}\nseed = {seed}\n",
            encoding="utf-8",
        )
        blobs = []
        for threads in (1, 8):
            out = tmp_path / f"case{i}_threads{threads}.csv"
            rc = cli.main(
                [
                    "peel-sim",
                    "--config",
                    str(cfg),
                    "--out",
                    str(out),
                    "--threads",
                    str(threads),
                ]
            )
            assert rc == 0
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1], f"thread count changed bytes for {mode} T={T}"

    _report(9, time.time() - t0, None)
