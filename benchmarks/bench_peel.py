#!/usr/bin/env python3
"""Compare the compiled peeling kernel against the numpy fallback.

Runs the same Monte-Carlo workload under both kernels (selected through
SCALING_LENS_PEEL_BACKEND), checks that per-trial outputs are identical,
and reports wall time per backend with the resulting speedup.
"""

import argparse
import os
import time

import numpy as np

from scaling_lens.peeling import BACKEND_ENV, active_backend, mc_expected_learned


def timed_run(args, backend):
    os.environ[BACKEND_ENV] = backend
    assert active_backend() == backend
    start = time.perf_counter()
    stats = mc_expected_learned(
        R=args.concepts,
        T=args.texts,
        d_t=args.mean_degree,
        trials=args.trials,
        seed=args.seed,
        threads=1,
    )
    return time.perf_counter() - start, stats


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--concepts", type=int, default=100000)
    parser.add_argument("--texts", type=int, default=500000)
    parser.add_argument("--mean-degree", type=float, default=3.0)
    parser.add_argument("--trials", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    os.environ[BACKEND_ENV] = "auto"
    backends = ["python"]
    if active_backend() == "ext":
        backends.append("ext")
    else:
        print("compiled kernel not built; timing the fallback only")

    edges = args.texts * args.mean_degree
    print(
        f"graphs: {args.concepts} concepts x {args.texts} texts, "
        f"~{edges:.0f} edges, {args.trials} trials"
    )
    results = {}
    for backend in backends:
        elapsed, stats = timed_run(args, backend)
        results[backend] = (elapsed, stats)
        print(
            f"{backend:>6}: {elapsed:8.3f}s  "
            f"{args.trials / elapsed:8.2f} trials/s  mean={stats.mean:.3f}"
        )

    if len(results) == 2:
        py_time, py_stats = results["python"]
        ext_time, ext_stats = results["ext"]
        if not np.array_equal(py_stats.values, ext_stats.values):
            raise SystemExit("per-trial outputs differ between backends")
        print(f"outputs identical across backends; speedup {py_time / ext_time:.1f}x")
    os.environ.pop(BACKEND_ENV, None)


if __name__ == "__main__":
    main()
