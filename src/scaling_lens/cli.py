"""Experiment runner: config-driven subcommands with CSV/JSON artifacts.

Each subcommand reads a flat `key = value` config (strict: unknown keys
are rejected with the offending line number), runs one pipeline, and
writes a data file plus a `<out>.meta.json` sidecar recording the fully
resolved parameters, package version, wall time, and for Monte Carlo the
seed and trial count.  A `--<key>` flag overrides a key and is checked
as a config line is.  Data files are byte-identical for identical
(config, seed) regardless of thread count; the sidecar is not (it
carries wall time).

Diagnostics travel as Python warnings only: the library's SolverWarning
and DegenerateBound, emergence's undersampling note and the commands'
own notes.  `run` catches every warning a command raises and lists the
messages in the sidecar's `warnings`, in the order raised.

Exit codes: 0 success; 1 invalid configuration: a bad key, value or
parameter combination, reported with its config line where there is one,
or a numeric input the library's range checks (scaling_lens._check) reject;
2 numeric failure: no feasible grid, too few points, an instance over the
Monte-Carlo edge budget or a non-finite output, reported with the
command's parameters that were set, beyond the common keys.  `run` maps
exceptions to these codes in one place; on 1 or 2 nothing is written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import warnings as _warnings

import numpy as np

from . import __version__
from .degree import DegreeModel
from .threshold import bit_erasure_rate, find_threshold, matching_upper_bound
from .peeling import (
    BudgetExceeded,
    mc_expected_learned,
    mc_parent_graph_erasure,
    resolve_threads,
)
from .optimizer import (
    BudgetSpec,
    EmptyGrid,
    interior_maxima,
    isoflop_curve,
    optimize_budget,
    scaling_exponents,
    smooth3,
)
from .loss import APPROX_CONSTANT_DISCREPANCY, frontier_loss_curve
from .emergence import (
    SkillHierarchy,
    TaskSpec,
    TooFewPoints,
    accuracy_vs_compute,
    detect_plateaus,
    level_recursion_detail,
    task_mixture_binomial,
)

_REQUIRED = object()

# (type, default); _REQUIRED means the config must provide the key.
# Types: int, float, str, bool, floats (comma list), enum:a|b.
_COMMON_KEYS = {
    "out": ("str", None),
    "format": ("enum:csv|json", "csv"),
}
_MC_KEYS = {  # only peel-sim samples graphs
    "seed": ("int", 0),
    "trials": ("int", 1000),
    "threads": ("int", None),
}
# a --<key> flag overrides these keys, in the commands that have them
_FLAG_KEYS = _COMMON_KEYS.keys() | _MC_KEYS.keys()

_BUDGET_KEYS = {
    "budgets": ("floats", None),
    "budget_min": ("float", None),
    "budget_max": ("float", None),
    "budget_count": ("int", None),
    "varsigma": ("float", 1.0),
    "tau": ("float", 1.0),
    "d_t": ("float", 6.0),
    "epsilon": ("float", 0.5),
}

_EMERGENCE_KEYS = {
    **_BUDGET_KEYS,
    "levels": ("int", 100),
    "skills_per_level": ("int", 1000),
    "eta_scale": ("float", 7.0),
    "task": ("enum:homogeneous|binomial|binomial-mixture", _REQUIRED),
    "task_level": ("int", None),
    "task_m": ("int", None),
    "task_pi": ("float", None),
    "task_pis": ("floats", None),
    "task_weights": ("floats", None),
    "arity_min": ("int", 2),
    "arity_max": ("int", 7),
}

SCHEMAS: dict[str, dict[str, tuple[str, object]]] = {
    "threshold": {
        "R": ("int", _REQUIRED),
        "T": ("int", _REQUIRED),
        "d_t": ("float", _REQUIRED),
        "epsilon": ("float", 0.5),
        "eval_mode": ("enum:exact_log|poisson_limit", "exact_log"),
    },
    "peel-sim": {
        "R": ("int", _REQUIRED),
        "T": ("int", _REQUIRED),
        "d_t": ("float", _REQUIRED),
        "epsilon": ("float", 0.5),
        "mode": ("enum:learned|parent-erasure", "learned"),
        **_MC_KEYS,
    },
    "isoflop": {
        **_BUDGET_KEYS,
        "points_per_decade": ("int", 64),
    },
    "frontier": dict(_BUDGET_KEYS),
    "loss": dict(_BUDGET_KEYS),
    "emergence": {
        **_EMERGENCE_KEYS,
        "per_level": ("bool", False),
        "slope_tol": ("float", None),
        "min_width_decades": ("float", None),
    },
    "plateaus": {
        **_EMERGENCE_KEYS,
        "slope_tol": ("float", _REQUIRED),
        "min_width_decades": ("float", _REQUIRED),
    },
}
for _schema in SCHEMAS.values():
    _schema.update(_COMMON_KEYS)


class ConfigError(ValueError):
    """Validation failure; line is None when not tied to a config line."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class NumericFailure(Exception):
    """A non-finite value reached the output."""


def _convert(kind: str, raw: str, key: str, line: int):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "str":
            return raw
        if kind == "bool":
            low = raw.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "floats":
            vals = [float(x) for x in raw.split(",") if x.strip()]
            if not vals:
                raise ValueError(raw)
            return vals
        if kind.startswith("enum:"):
            options = kind[5:].split("|")
            if raw in options:
                return raw
            raise ValueError(f"one of {options}")
    except ValueError:
        raise ConfigError(
            f"invalid value {raw!r} for key '{key}' (expected {kind})", line
        ) from None
    raise AssertionError(f"unhandled schema kind {kind}")


def parse_config(path: str, command: str) -> dict:
    """Read flat key = value lines against the command's schema."""
    schema = SCHEMAS[command]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None

    params: dict = {}
    seen: dict[str, int] = {}
    for lineno, text in enumerate(lines, start=1):
        stripped = text.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(
                f"expected 'key = value', got {stripped!r}", lineno
            )
        key, _, raw = stripped.partition("=")
        key = key.strip()
        raw = raw.split("#", 1)[0].strip()
        if key not in schema:
            raise ConfigError(
                f"unknown key '{key}' for command '{command}'", lineno
            )
        if key in seen:
            raise ConfigError(
                f"duplicate key '{key}' (first on line {seen[key]})", lineno
            )
        seen[key] = lineno
        kind, _ = schema[key]
        params[key] = _convert(kind, raw, key, lineno)

    for key, (kind, default) in schema.items():
        if key in params:
            continue
        if default is _REQUIRED:
            raise ConfigError(
                f"missing required key '{key}' for command '{command}'"
            )
        params[key] = default
    return params


def _resolve_budget_specs(params: dict) -> list[BudgetSpec]:
    explicit = params["budgets"]
    range_keys = [params["budget_min"], params["budget_max"], params["budget_count"]]
    have_range = any(v is not None for v in range_keys)
    if explicit is not None and have_range:
        raise ConfigError("give either 'budgets' or budget_min/max/count, not both")
    if explicit is not None:
        cs = [float(c) for c in explicit]
    elif all(v is not None for v in range_keys):
        lo, hi, count = range_keys
        if not (0 < lo < hi) or count < 2:
            raise ConfigError(
                "budget range needs 0 < budget_min < budget_max and budget_count >= 2"
            )
        cs = np.geomspace(lo, hi, int(count)).tolist()
    else:
        raise ConfigError(
            "budgets missing: set 'budgets' or all of budget_min/budget_max/budget_count"
        )
    return [
        BudgetSpec(
            C=c,
            varsigma=params["varsigma"],
            tau=params["tau"],
            d_t=params["d_t"],
            epsilon=params["epsilon"],
        )
        for c in cs
    ]


def _build_task(params: dict) -> TaskSpec:
    kind = params["task"]
    a_lo, a_hi = params["arity_min"], params["arity_max"]
    if not 1 <= a_lo <= a_hi:
        raise ConfigError("need 1 <= arity_min <= arity_max")
    arity = {m: 1.0 / (a_hi - a_lo + 1) for m in range(a_lo, a_hi + 1)}
    if kind == "homogeneous":
        if params["task_level"] is None or params["task_m"] is None:
            raise ConfigError("task = homogeneous needs task_level and task_m")
        return TaskSpec.homogeneous(params["task_level"], params["task_m"])
    if kind == "binomial":
        if params["task_pi"] is None:
            raise ConfigError("task = binomial needs task_pi")
        marginal = task_mixture_binomial(params["levels"], params["task_pi"])
        return marginal.with_arity(arity)
    if params["task_pis"] is None or params["task_weights"] is None:
        raise ConfigError("task = binomial-mixture needs task_pis and task_weights")
    marginal = task_mixture_binomial(
        params["levels"],
        tuple(params["task_pis"]),
        weights=tuple(params["task_weights"]),
    )
    return marginal.with_arity(arity)


def _cell(value):
    """One output cell as a Python None, bool, int, str or finite float.

    None marks an undefined quantity (e.g. scaling constants of a
    no-transition solution): an empty cell, never a NaN.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    f = float(value)
    if not math.isfinite(f):
        raise NumericFailure(f"non-finite value {f!r} in output")
    return f


def _csv_text(cell) -> str:
    if cell is None:
        return ""
    if isinstance(cell, bool):
        return "1" if cell else "0"
    if isinstance(cell, float):
        return "%.17g" % cell
    return str(cell)


def _render_data(columns: list[str], rows: list[list], fmt: str) -> bytes:
    cells = [[_cell(v) for v in row] for row in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        writer.writerows([_csv_text(c) for c in row] for row in cells)
        return buf.getvalue().encode("utf-8")
    records = [dict(zip(columns, row)) for row in cells]
    text = json.dumps({"columns": columns, "rows": records}, indent=2)
    return (text + "\n").encode("utf-8")


def _run_threshold(params: dict, extras: dict):
    model = DegreeModel(
        R=params["R"], T=params["T"], d_t=params["d_t"],
        epsilon=params["epsilon"], eval_mode=params["eval_mode"],
    )
    sol = find_threshold(model)
    ub = matching_upper_bound(model)
    p_b = bit_erasure_rate(model, sol)
    if sol.no_transition:
        _warnings.warn("NoTransition: no decoding transition for eps up to 1")
    # the fixed point and scaling constants are undefined for a
    # no-transition sentinel, and alpha alone can be undefined when its
    # radicand is nonpositive: empty cells, never NaN
    x_cell = sol.x_star if math.isfinite(sol.x_star) else None
    nu_cell = sol.nu_star if math.isfinite(sol.nu_star) else None
    alpha_cell = sol.alpha if math.isfinite(sol.alpha) else None
    if alpha_cell is None and not sol.no_transition:
        _warnings.warn("alpha undefined: nonpositive radicand at the threshold")
    columns = [
        "R", "T", "d_t", "epsilon", "eps_star", "x_star", "nu_star",
        "alpha", "no_transition", "matching_upper_bound", "bit_erasure_rate",
    ]
    rows = [[
        model.R, model.T, model.d_t, model.epsilon, sol.eps_star, x_cell,
        nu_cell, alpha_cell, sol.no_transition, ub, p_b,
    ]]
    return columns, rows


def _run_peel_sim(params: dict, extras: dict):
    threads = resolve_threads(params["threads"])
    # the sidecar records the count the run used
    params["threads"] = threads
    if params["mode"] == "learned":
        if params["d_t"] <= 0 or params["R"] < 1 or params["T"] < 1:
            raise ConfigError("peel-sim needs R >= 1, T >= 1, d_t > 0")
        stats = mc_expected_learned(
            params["R"], params["T"], params["d_t"],
            trials=params["trials"], seed=params["seed"], threads=threads,
        )
    else:
        model = DegreeModel(
            R=params["R"], T=params["T"], d_t=params["d_t"],
            epsilon=params["epsilon"],
        )
        stats = mc_parent_graph_erasure(
            model, trials=params["trials"], seed=params["seed"],
            threads=threads,
        )
    extras["mean"] = stats.mean
    extras["stderr"] = stats.stderr
    columns = ["trial", "value"]
    rows = [[i, float(v)] for i, v in enumerate(stats.values)]
    return columns, rows


def _run_isoflop(params: dict, extras: dict):
    specs = _resolve_budget_specs(params)
    columns = ["C", "R", "T", "objective", "eps_star"]
    rows: list[list] = []
    maxima: dict[str, int] = {}
    for spec in specs:
        curve = isoflop_curve(spec, points_per_decade=params["points_per_decade"])
        for r, t, obj, eps in zip(curve.R, curve.T, curve.objective, curve.eps_star):
            rows.append([spec.C, int(r), int(t), float(obj), float(eps)])
        smoothed = smooth3(curve.objective)
        maxima["%.6g" % spec.C] = interior_maxima(
            smoothed, tol=1e-6 * float(np.max(smoothed))
        )
    extras["interior_maxima_after_smoothing"] = maxima
    return columns, rows


def _run_frontier(params: dict, extras: dict):
    specs = _resolve_budget_specs(params)
    opts = [optimize_budget(s) for s in specs]
    columns = [
        "C", "R_star", "T_star", "N_star", "D_star", "objective",
        "eps_star_at_opt",
    ]
    rows = [
        [s.C, o.R_star, o.T_star, o.N_star, o.D_star, o.objective,
         o.eps_star_at_opt]
        for s, o in zip(specs, opts)
    ]
    if len(specs) >= 5:
        fit = scaling_exponents(specs, allocations=opts)
        extras["scaling_fit"] = {"a": fit.a, "b": fit.b, "r2": fit.r2}
    else:
        _warnings.warn("fewer than 5 budgets: no scaling-exponent fit")
    return columns, rows


def _run_loss(params: dict, extras: dict):
    specs = _resolve_budget_specs(params)
    frontier = frontier_loss_curve(specs)
    columns = [
        "C", "R_star", "N_star", "P_b", "P_e_train_exact",
        "P_e_train_approx", "excess_entropy_lb",
    ]
    rows = [
        [f.C, f.R_star, f.N_star, f.P_b, f.P_e_train_exact,
         f.P_e_train_approx, f.excess_entropy_lb]
        for f in frontier
    ]
    extras["approx_constant_discrepancy"] = dict(APPROX_CONSTANT_DISCREPANCY)
    return columns, rows


def _emergence_curve(params: dict):
    specs = _resolve_budget_specs(params)
    h = SkillHierarchy.exponential_thresholds(
        params["levels"], params["skills_per_level"], params["eta_scale"]
    )
    task = _build_task(params)
    curve = accuracy_vs_compute(specs, h, task)
    return specs, h, curve


def _run_emergence(params: dict, extras: dict):
    specs, h, curve = _emergence_curve(params)
    if params["per_level"]:
        columns = ["C", "l", "p_rr", "p_l", "mean_degree", "gamma_l"]
        rows = []
        for spec, r_star, t_star in zip(specs, curve.R_star, curve.T_star):
            _, detail = level_recursion_detail(
                h, int(r_star), int(t_star), spec.d_t
            )
            for row in detail:
                rows.append([
                    spec.C, row.level, row.p_rr, row.p_link,
                    row.mean_degree, row.gamma,
                ])
    else:
        columns = ["C", "N_star", "accuracy_lower_bound"]
        rows = [
            [c, n, a]
            for c, n, a in zip(curve.C, curve.N_star, curve.accuracy)
        ]
    if (
        params["slope_tol"] is not None
        and params["min_width_decades"] is not None
    ):
        segments = detect_plateaus(
            curve, params["slope_tol"], params["min_width_decades"]
        )
        extras["plateau_report"] = _segment_report(curve, segments)
    return columns, rows


def _segment_report(curve, segments) -> dict:
    interior = [s for s in segments[1:-1] if s.kind == "plateau"]
    rises = [s for s in segments if s.kind == "rise"]
    return {
        "segments": [
            {
                "kind": s.kind,
                "start_C": float(curve.C[s.start]),
                "end_C": float(curve.C[s.end]),
                "width_decades": s.width_decades,
            }
            for s in segments
        ],
        "interior_plateaus": len(interior),
        "rises": len(rises),
    }


def _run_plateaus(params: dict, extras: dict):
    _, _, curve = _emergence_curve(params)
    segments = detect_plateaus(
        curve, params["slope_tol"], params["min_width_decades"]
    )
    extras["plateau_report"] = _segment_report(curve, segments)
    columns = [
        "start_C", "end_C", "kind", "width_decades",
        "start_accuracy", "end_accuracy",
    ]
    rows = [
        [float(curve.C[s.start]), float(curve.C[s.end]), s.kind,
         s.width_decades, float(curve.accuracy[s.start]),
         float(curve.accuracy[s.end])]
        for s in segments
    ]
    return columns, rows


_RUNNERS = {
    "threshold": _run_threshold,
    "peel-sim": _run_peel_sim,
    "isoflop": _run_isoflop,
    "frontier": _run_frontier,
    "loss": _run_loss,
    "emergence": _run_emergence,
    "plateaus": _run_plateaus,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad arguments; 2 is reserved for numeric
    # failures here, so downgrade argument errors to the validation code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="scaling-lens", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, schema in SCHEMAS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", required=True)
        for key in [k for k in schema if k in _FLAG_KEYS]:
            p.add_argument(f"--{key}")  # a string, which main converts
    return parser


def run(command: str, params: dict) -> int:
    """Execute one resolved config; returns the process exit code."""
    extras: dict = {}
    started = time.time()
    try:
        with _warnings.catch_warnings(record=True) as caught:
            _warnings.simplefilter("always")
            columns, rows = _RUNNERS[command](params, extras)
        out_path = params["out"] or f"{command.replace('-', '_')}.{params['format']}"
        data = _render_data(columns, rows, params["format"])
    # EmptyGrid and TooFewPoints are ValueErrors, so they go first
    except (NumericFailure, EmptyGrid, TooFewPoints, BudgetExceeded) as exc:
        shown = {
            k: params[k] for k in SCHEMAS[command]
            if k not in _COMMON_KEYS and params[k] is not None
        }
        print(f"scaling-lens {command}: numeric failure: {exc}; "
              f"parameters: {shown}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"scaling-lens {command}: invalid configuration: {exc}",
              file=sys.stderr)
        return 1

    meta = {
        "command": command,
        "artifact_version": __version__,
        "resolved_params": {
            k: params[k] for k in sorted(params) if k != "out"
        },
        "out": out_path,
        "rows": len(rows),
        "wall_time_s": round(time.time() - started, 6),
        "warnings": [str(w.message) for w in caught],
        **extras,
    }
    if "seed" in params:  # a Monte-Carlo run
        meta.update(seed=params["seed"], trials=params["trials"])
    try:
        with open(out_path, "wb") as fh:
            fh.write(data)
        with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")
    except OSError as exc:
        print(f"scaling-lens {command}: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    schema = SCHEMAS[args.command]
    where = args.config
    try:
        params = parse_config(args.config, args.command)
        where = "command line"
        for key, raw in vars(args).items():
            if key in schema and raw is not None:
                params[key] = _convert(schema[key][0], raw, key, None)
    except ConfigError as exc:
        loc = f"{where}:{exc.line}: " if exc.line else f"{where}: "
        print(f"scaling-lens {args.command}: {loc}{exc}", file=sys.stderr)
        return 1
    return run(args.command, params)


if __name__ == "__main__":
    sys.exit(main())
