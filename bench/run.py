#!/usr/bin/env python3
"""Benchmark for scaling-lens: one workload per process, metrics as JSON.

    python3 bench/run.py --workload frontier --seed 0 --seconds 55 --trace 0

Runs from the repository root against the sources in ``src/``; nothing
needs to be built or installed.  The workload's inputs are generated
from ``--seed``; passes over them repeat back to back until
``--seconds`` have elapsed, and every pass is checked (see
``workloads.py``).  The last line of standard output is one JSON object
with keys ``correct``, ``attempted``, ``failed`` and ``metrics``:

- ``--trace 0``: the end-to-end metrics of END_TO_END.  ``wall_s`` and
  ``cpu_s`` are the time of a typical pass: the sum, over the calls of
  a pass, of each call's median over the timed passes, scaled to a
  reference host speed (see ``HostSpeed``).  The first pass warms up
  and is not timed.
- ``--trace 1``: each untraced pass is followed by a traced one, and the
  metrics are the per-layer metrics of ``tracer.PER_LAYER``, medians
  over the traced passes.

The line before it records the run environment.  Both, and the spans of
a traced run, are also written to ``.bench_out/`` under the root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path

from tracer import LAYER_MEDIANS, PER_LAYER, ROOT_SPAN, Tracer, instrumented, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# set-up runs in fresh processes, so imports are paid each time
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60

# host speed probe: a fixed pure-Python loop, timed in units of
# CAL_LOOPS iterations; CAL_REF_S is its time on the reference host
CAL_LOOPS = 200_000
CAL_REF_S = 0.016
CAL_UNITS = 3
CAL_EVERY_S = 0.1

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("eps_star_err", "1"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: build the inputs, print the monotonic clock and exit
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def setup_seconds(args) -> float:
    """Process start to inputs ready, in a fresh interpreter."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    start = time.monotonic()
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True
    )
    return float(done.stdout.split()[-1]) - start


class HostSpeed:
    """Samples the host's speed through a run, to scale times by.

    A shared host's speed drifts by up to 1.6x over seconds to minutes
    (other guests on the same cores), and every part of a run slows
    alike.  A fixed loop, timed between library calls, tracks that
    drift: the ratio of a run's times to the loop's median time varies
    far less from run to run than the times do.  ``scale`` turns times
    into seconds on the reference host, where one unit takes CAL_REF_S.
    """

    def __init__(self):
        self.units: list[float] = []
        self.last = -math.inf

    def sample(self) -> None:
        for _ in range(CAL_UNITS):
            start = time.perf_counter()
            total = 0
            for i in range(CAL_LOOPS):
                total += i * i
            self.units.append(time.perf_counter() - start)
        self.last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()

    def scale(self) -> float:
        return CAL_REF_S / statistics.median(self.units)


@contextmanager
def env_var(name, value):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = old


def backends(peeling):
    """(active kernel backend, other buildable backends); ("n/a", []) if gone."""
    active = getattr(peeling, "active_backend", None)
    env_name = getattr(peeling, "BACKEND_ENV", None)
    if active is None or env_name is None:
        return "n/a", [], None
    current = active()
    others = []
    for name in ("python", "ext"):
        if name == current:
            continue
        with env_var(env_name, name):
            try:
                active()
            except RuntimeError:
                continue
        others.append(name)
    return current, others, env_name


def cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def git_commit() -> str:
    # the ceiling keeps git from reporting an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


class Runner:
    """Runs passes of one workload and tallies operations and failures."""

    def __init__(self, wls, name, inputs, seed, host=None):
        self.wls = wls
        self.name = name
        self.wl = wls.WORKLOADS[name]
        self.inputs = inputs
        self.seed = seed
        # samples the host's speed between the calls of timed passes
        self.host = host
        self.attempted = 0
        self.failed = 0
        self.first: dict[str, str] | None = None
        self.eps_star_err = 1.0
        # label -> [(wall, cpu) of each timed pass]
        self.times: dict[str, list[tuple[float, float]]] = {}

    def one_pass(self, tracer=None, what="output", timed=False):
        """Run, check and tally one pass; returns its wall time.

        A ``timed`` pass also keeps each call's wall and CPU time.
        """
        rec = self.wls.Recorder(self.host.sample_if_due if timed and self.host else None)
        raised = False
        wall0 = time.perf_counter()
        try:
            if tracer is None:
                self.wl.run(rec, self.inputs)
            else:
                with instrumented(tracer), tracer.span(ROOT_SPAN):
                    self.wl.run(rec, self.inputs)
        except Exception:
            traceback.print_exc()
            raised = True
        wall = time.perf_counter() - wall0

        digests = {label: self.wls.digest(v) for label, v in rec.results.items()}
        if self.first is None:
            self.first = digests
            if not raised:
                self.full_check(rec)
        else:
            for label, d in digests.items():
                if d != self.first.get(label):
                    rec.fail(label, f"{what} differs from the first pass")
        for label, why in rec.failed.items():
            print(f"[{self.name}] {label}: {why}", file=sys.stderr)
        self.attempted += len(rec.results)
        self.failed += len(rec.failed)
        if timed:
            for label, times in rec.times.items():
                self.times.setdefault(label, []).append(times)
        return wall

    def full_check(self, rec):
        solved = self.wl.check(rec, self.inputs)
        self.wls.check_reference(rec, self.name, self.seed, self.wls.load_reference())
        oracle = {}
        errs = []
        for model, eps_star in solved:
            if model not in oracle:
                oracle[model] = self.wls.oracle_eps_star(model)
            errs.append(abs(eps_star - oracle[model]))
        self.eps_star_err = max(errs)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "scaling_lens" / "__init__.py").is_file():
        print(f"bench: no scaling_lens sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads as wls
    from scaling_lens import peeling

    if args.workload not in wls.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = wls.WORKLOADS[args.workload]
    if args.setup_only:
        wl.setup(args.seed)
        print(time.monotonic())
        return 0

    setup_s = host = None
    if not args.trace:
        setup_s = statistics.median(setup_seconds(args) for _ in range(SETUP_REPEATS))
        # traced passes are not scaled, and probing would add to the
        # untraced pass walls that trace.overhead_s compares them with
        host = HostSpeed()
    runner = Runner(wls, args.workload, wl.setup(args.seed), args.seed, host)

    walls, trace_walls, layers, spans = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    runner.one_pass()  # warm-up, with the full output check
    while True:
        started = time.perf_counter()
        walls.append(runner.one_pass(timed=True))
        if args.trace:
            tracer = Tracer(run_id=f"{args.workload}-seed{args.seed}-pass{len(walls)}")
            trace_walls.append(runner.one_pass(tracer, what="traced output"))
            layers.append(layer_metrics(tracer))
            spans.extend(asdict(s) for s in tracer.spans)
        # stop at the pass boundary nearest the deadline
        now = time.perf_counter()
        if now + (now - started) / 2 >= deadline:
            break

    # outputs must not depend on the kernel backend
    backend, others, env_name = backends(peeling)
    if wl.reference:
        for other in others:
            with env_var(env_name, other):
                runner.one_pass(what=f"output under the {other} backend")

    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = {name: statistics.median(m[name] for m in layers) for name in LAYER_MEDIANS}
        values["trace.overhead_s"] = statistics.median(trace_walls) - statistics.median(walls)
    else:
        units = dict(END_TO_END)
        wall = sum(statistics.median(w for w, _ in t) for t in runner.times.values())
        cpu = sum(statistics.median(c for _, c in t) for t in runner.times.values())
        values = {
            "setup_s": setup_s,
            "wall_s": wall * host.scale(),
            "cpu_s": cpu * host.scale(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "eps_star_err": runner.eps_star_err,
        }
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": args.seed % wls.REFERENCE_SEEDS,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(walls),
        "pass_wall_s": walls,
        "traced_pass_wall_s": trace_walls,
        "backend": backend,
        "threads": wl.threads,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cache": cache_sizes(),
        "commit": git_commit(),
    }
    if not args.trace:
        env.update({
            "unscaled_wall_s": wall,
            "unscaled_cpu_s": cpu,
            "host_unit_s": statistics.median(host.units),
            "host_units": len(host.units),
        })
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as f:
        json.dump({"env": env, "result": result, "spans": spans}, f)
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
