"""The benchmark's workloads: inputs from a seed, one pass, output checks.

Each workload is a closed loop: one single-threaded caller issues
library calls back to back.  Every call goes through ``Recorder.call``
with a label, so results can be checked and hashed per call, and always
through the module attribute (``optimizer.optimize_budget``), so the
tracer's wrappers see it.

- ``frontier``: the analytic path at paper scale.  Threshold solves
  inside ``optimize_budget`` do nearly all the work; no peeling.
- ``mc-small``: hundreds of small Monte-Carlo graphs through the thread
  pool, where per-trial overhead (sampling, reverse CSR, kernel call)
  dominates and threshold solves are negligible, plus one small graph
  sampled and peeled directly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from scaling_lens import degree, emergence, loss, optimizer, peeling, threshold

REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"

# reference outputs are recorded for input seeds 0 .. REFERENCE_SEEDS - 1;
# the workload seed picks one of them
REFERENCE_SEEDS = 64

ORACLE_POINTS = 1 << 22
ORACLE_CHUNK = 1 << 17


class Recorder:
    """Labels each library call of a pass and collects its result.

    A pass counts one operation per call.  An operation fails when its
    call raises or when a check on its result fails.  Each call's wall
    and CPU time (the whole process's, so pool threads count) are kept
    in ``times``.
    """

    def __init__(self, pause: Callable[[], None] | None = None):
        # called before each call, outside its timing
        self.pause = pause
        self.results: dict[str, object] = {}
        self.failed: dict[str, str] = {}
        self.times: dict[str, tuple[float, float]] = {}

    def call(self, label: str, fn: Callable, *args, **kwargs):
        self.results[label] = None
        if self.pause is not None:
            self.pause()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.failed[label] = f"raised {exc!r}"
            raise
        self.times[label] = (time.perf_counter() - wall0, time.process_time() - cpu0)
        self.results[label] = result
        return result

    def fail(self, label: str, why: str) -> None:
        self.failed.setdefault(label, why)

    def check(self, ok: bool, label: str, why: str) -> None:
        if not ok:
            self.fail(label, why)


# -- output digests ---------------------------------------------------------


def _feed(h, obj) -> None:
    if dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[%d" % len(obj))
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (bool, np.bool_)):
        h.update(b"T" if obj else b"F")
    elif isinstance(obj, (int, np.integer)):
        # numpy and Python integers of equal value hash alike
        h.update(b"i%d" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(struct.pack("<d", float(obj)))
    else:
        h.update(repr(obj).encode())


def digest(obj) -> str:
    """SHA-256 over every field, array byte and float bit of a result."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE) as f:
        return json.load(f)


# -- threshold oracle -------------------------------------------------------


def oracle_eps_star(model) -> float:
    """Dense geometric minimum of x / g(x) on [1e-9, 1], g(x) = lam(1 - rho(1 - x)).

    This is eps* by the direct characterization of the BP threshold;
    it is capped at 1, the solver's no-transition sentinel.  Evaluated
    in chunks so that it adds little to the process's peak memory.
    """
    log_lo = math.log(1e-9)
    step = -log_lo / (ORACLE_POINTS - 1)
    best = math.inf
    for start in range(0, ORACLE_POINTS, ORACLE_CHUNK):
        x = np.exp(log_lo + step * np.arange(start, min(start + ORACLE_CHUNK, ORACLE_POINTS)))
        g = np.asarray(model.lam(1.0 - model.rho(1.0 - x)))
        with np.errstate(divide="ignore"):
            best = min(best, float(np.min(x / g)))
    return min(1.0, best)


# -- frontier -----------------------------------------------------------------


@dataclass(frozen=True)
class FrontierInputs:
    specs: tuple
    hierarchy: emergence.SkillHierarchy
    tasks: dict


def frontier_setup(seed: int) -> FrontierInputs:
    # configs/frontier_paper_scale.txt at one budget per decade, the fewest
    # that scaling_exponents fits, so that a run times each call several
    # times; the seed is unused (deterministic)
    specs = tuple(
        optimizer.BudgetSpec(C=float(c), varsigma=2e5, tau=8e5, d_t=6.0, epsilon=0.5)
        for c in np.geomspace(1e21, 1e25, 5)
    )
    # the hierarchy and task shapes of the three shipped emergence configs
    arity = {m: 1.0 / 6 for m in range(2, 8)}
    tasks = {
        "step": emergence.TaskSpec.homogeneous(50, 5),
        "scurve": emergence.task_mixture_binomial(100, 0.5).with_arity(arity),
        "plateaus": emergence.task_mixture_binomial(
            100, (0.2, 0.6, 0.95), weights=(0.4, 0.4, 0.2)
        ).with_arity(arity),
    }
    hierarchy = emergence.SkillHierarchy.exponential_thresholds(100, 1000, eta_scale=7.0)
    return FrontierInputs(specs=specs, hierarchy=hierarchy, tasks=tasks)


def _optimum_model(spec, opt):
    return degree.DegreeModel(R=opt.R_star, T=opt.T_star, d_t=spec.d_t, epsilon=spec.epsilon)


def frontier_run(rec: Recorder, inp: FrontierInputs) -> None:
    opts = [
        rec.call(f"optimize_budget[{i}]", optimizer.optimize_budget, spec)
        for i, spec in enumerate(inp.specs)
    ]
    rec.call("scaling_exponents", optimizer.scaling_exponents, list(inp.specs), allocations=opts)
    for i, (spec, opt) in enumerate(zip(inp.specs, opts)):
        model = _optimum_model(spec, opt)
        sol = rec.call(f"find_threshold[{i}]", threshold.find_threshold, model)
        p_raw = rec.call(
            f"effective_bit_erasure[{i}]", optimizer.effective_bit_erasure, model, sol
        )
        rec.call(f"loss_point[{i}]", loss.loss_point, p_raw, opt.R_star, spec.d_t, spec.epsilon)
    # detect_plateaus is left out: it needs 8 or more budgets
    for name, task in inp.tasks.items():
        rec.call(
            f"accuracy_vs_compute[{name}]", emergence.accuracy_vs_compute,
            list(inp.specs), inp.hierarchy, task, allocations=opts,
        )


def frontier_check(rec: Recorder, inp: FrontierInputs) -> list:
    r = rec.results
    fit = r["scaling_exponents"]
    rec.check(
        abs(fit.a - 0.5) <= 0.05 and abs(fit.b - 0.5) <= 0.05,
        "scaling_exponents", f"exponents a={fit.a} b={fit.b} not within 0.05 of 0.5",
    )
    solved = []
    for i, spec in enumerate(inp.specs):
        opt = r[f"optimize_budget[{i}]"]
        model = _optimum_model(spec, opt)
        rec.check(
            6.0 * opt.N_star * opt.D_star <= spec.C,
            f"optimize_budget[{i}]", f"6 N* D* exceeds C = {spec.C:g}",
        )
        rec.check(
            opt.eps_star_at_opt <= threshold.matching_upper_bound(model),
            f"optimize_budget[{i}]", "eps* above the matching upper bound",
        )
        point = r[f"loss_point[{i}]"]
        rec.check(
            0.0 <= point.excess_entropy_lb <= 0.5 * point.P_e_train_exact <= 0.5,
            f"loss_point[{i}]", "excess-entropy bound outside [0, P_e/2]",
        )
        solved.append((model, opt.eps_star_at_opt))
        solved.append((model, r[f"find_threshold[{i}]"].eps_star))
    for name in inp.tasks:
        acc = r[f"accuracy_vs_compute[{name}]"].accuracy
        rec.check(
            bool(np.all((acc >= 0.0) & (acc <= 1.0))),
            f"accuracy_vs_compute[{name}]", "accuracy outside [0, 1]",
        )
    return solved


# -- mc-small -----------------------------------------------------------------

# criterion-3 models, the learned-count ensemble of configs/peel_sim_small.txt,
# and one graph of the first model's size peeled outside the thread pool
MC_SMALL = {
    "R": 1000, "T": [4500, 6500, 8000], "d_t": 6.0, "epsilon": 0.5, "trials": 100,
    "learned": {"R": 500, "T": 1000, "d_t": 6.0, "trials": 100},
    "graph": {"R": 1000, "T": 4500, "p": 0.006},
    "threads": 2,
}


@dataclass(frozen=True)
class McSmallInputs:
    models: tuple
    seed: int


def mc_small_setup(seed: int) -> McSmallInputs:
    models = tuple(
        degree.DegreeModel(R=MC_SMALL["R"], T=t, d_t=MC_SMALL["d_t"], epsilon=MC_SMALL["epsilon"])
        for t in MC_SMALL["T"]
    )
    return McSmallInputs(models=models, seed=seed % REFERENCE_SEEDS)


def mc_small_run(rec: Recorder, inp: McSmallInputs) -> None:
    g = MC_SMALL["graph"]
    graph = rec.call("sample_graph", peeling.sample_graph, g["R"], g["T"], g["p"], inp.seed)
    outcome = rec.call("peel", peeling.peel, graph)
    rec.call("is_stopping_set", peeling.is_stopping_set, graph, outcome.learned_mask == 0)
    threads, trials = MC_SMALL["threads"], MC_SMALL["trials"]
    for i, model in enumerate(inp.models):
        sol = rec.call(f"find_threshold[{i}]", threshold.find_threshold, model)
        rec.call(f"bit_erasure_rate[{i}]", threshold.bit_erasure_rate, model, sol)
        rec.call(
            f"mc_parent_graph_erasure[{i}]", peeling.mc_parent_graph_erasure,
            model, trials=trials, seed=inp.seed, threads=threads,
        )
    lp = MC_SMALL["learned"]
    rec.call(
        "mc_expected_learned", peeling.mc_expected_learned,
        lp["R"], lp["T"], lp["d_t"], trials=lp["trials"], seed=inp.seed, threads=threads,
    )


def mc_small_check(rec: Recorder, inp: McSmallInputs) -> list:
    r = rec.results
    outcome = r["peel"]
    rec.check(r["is_stopping_set"] is True, "is_stopping_set", "residual is not a stopping set")
    rec.check(
        int(np.count_nonzero(outcome.learned_mask)) == outcome.iterations,
        "peel", "learned count differs from the kernel's return value",
    )
    solved = []
    for i, model in enumerate(inp.models):
        values = r[f"mc_parent_graph_erasure[{i}]"].values
        rec.check(
            bool(np.all((values >= 0.0) & (values <= model.epsilon))),
            f"mc_parent_graph_erasure[{i}]", "stuck fraction outside [0, eps]",
        )
        law = r[f"bit_erasure_rate[{i}]"]
        rec.check(0.0 <= law <= 1.0, f"bit_erasure_rate[{i}]", "rate outside [0, 1]")
        solved.append((model, r[f"find_threshold[{i}]"].eps_star))
    learned = r["mc_expected_learned"].values
    rec.check(
        bool(np.all((learned >= 0) & (learned <= MC_SMALL["learned"]["R"]))),
        "mc_expected_learned", "learned count outside [0, R]",
    )
    return solved


# -- registry -----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int], object]
    run: Callable[[Recorder, object], None]
    # workload-specific checks; returns (model, eps*) for each threshold result
    check: Callable[[Recorder, object], list]
    threads: int
    # the sizes the reference outputs were recorded at
    sizes: dict | None = None
    # labels whose results must match the reference byte for byte
    reference: tuple[str, ...] = ()


WORKLOADS = {
    "frontier": Workload(frontier_setup, frontier_run, frontier_check, threads=1),
    "mc-small": Workload(
        mc_small_setup, mc_small_run, mc_small_check, threads=MC_SMALL["threads"],
        sizes=MC_SMALL,
        reference=("sample_graph", "peel", "is_stopping_set")
        + tuple(f"mc_parent_graph_erasure[{i}]" for i in range(3)) + ("mc_expected_learned",),
    ),
}


def check_reference(rec: Recorder, name: str, seed: int, reference: dict) -> None:
    """Fail each reference-checked call whose digest differs from the record."""
    wl = WORKLOADS[name]
    entry = reference.get(name, {})
    recorded = entry.get("digests", {}).get(str(seed % REFERENCE_SEEDS), {})
    for label in wl.reference:
        if entry.get("sizes") != json.loads(json.dumps(wl.sizes)):
            rec.fail(label, "reference recorded at other sizes")
        elif label in rec.results and digest(rec.results[label]) != recorded.get(label):
            rec.fail(label, "output differs from the recorded reference")
