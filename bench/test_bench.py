"""Self-tests of the benchmark code: python3 -m pytest bench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402
from scaling_lens import peeling, threshold  # noqa: E402
from scaling_lens.degree import DegreeModel, PolynomialPair  # noqa: E402

MC_SMALL = wls.WORKLOADS["mc-small"]


def tiny_pass(rec, seed=1):
    """A single-threaded pass through every peeling layer, on small inputs."""
    graph = rec.call("sample_graph", peeling.sample_graph, 2000, 10000, 1.5e-3, seed)
    outcome = rec.call("peel", peeling.peel, graph)
    rec.call("is_stopping_set", peeling.is_stopping_set, graph, outcome.learned_mask == 0)
    model = DegreeModel(R=1000, T=4500, d_t=6.0, epsilon=0.5)
    rec.call("find_threshold", threshold.find_threshold, model)
    rec.call(
        "mc_parent_graph_erasure", peeling.mc_parent_graph_erasure,
        model, trials=2, seed=seed, threads=1,
    )


def traced_pass(targets=tr.TARGETS):
    rec = wls.Recorder()
    tracer = tr.Tracer("test")
    with tr.instrumented(tracer, targets), tracer.span(tr.ROOT_SPAN):
        tiny_pass(rec)
    return rec, tracer


def test_self_times_sum_to_traced_wall():
    _, tracer = traced_pass()
    wall = tracer.spans[0].duration
    assert tracer.spans[0].name == tr.ROOT_SPAN
    assert {"peeling.peel", "kernel.peel_kernel", "peeling.mc"} <= {s.name for s in tracer.spans}
    assert abs(sum(tracer.self_times().values()) - wall) <= 0.01 * wall


def test_pool_trials_count_as_busy_mc_self_time():
    model = DegreeModel(R=200, T=900, d_t=6.0, epsilon=0.5)
    tracer = tr.Tracer("test")
    with tr.instrumented(tracer), tracer.span(tr.ROOT_SPAN):
        peeling.mc_parent_graph_erasure(model, trials=8, seed=5, threads=2)
    mc = [s for s in tracer.spans if s.name == "peeling.mc"]
    outer, trials = mc[0], mc[1:]
    assert len(trials) == 8
    assert all(t.parent == outer.id and t.thread != outer.thread for t in trials)
    by_id = {s.id: s for s in tracer.spans}
    kernels = [s for s in tracer.spans if s.name == "kernel.peel_kernel"]
    assert len(kernels) == 8
    assert all(by_id[k.parent] in trials and by_id[k.parent].thread == k.thread for k in kernels)
    # each trial's sampling and counter setup counts, not the caller's wait
    self_t = tracer.self_times()
    trial_self = sum(self_t[t.id] for t in trials)
    assert tr.layer_metrics(tracer)["peeling.mc.self_s"] == pytest.approx(
        self_t[outer.id] + trial_self
    )
    assert self_t[outer.id] < outer.duration - max(t.duration for t in trials)


def test_covered_merges_overlapping_children():
    assert tr._covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert tr._covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0


def test_traced_outputs_hash_like_untraced_and_wrappers_are_removed():
    plain = wls.Recorder()
    tiny_pass(plain)
    traced, _ = traced_pass()
    assert {k: wls.digest(v) for k, v in plain.results.items()} == {
        k: wls.digest(v) for k, v in traced.results.items()
    }
    assert not hasattr(peeling.peel, "__wrapped__")
    assert not hasattr(peeling.BipartiteGraph.reverse_csr, "__wrapped__")


def test_missing_target_reads_zero_calls():
    gone = (
        tr.Target("kernel.peel_kernel", "scaling_lens._no_such_kernel", "peel_kernel"),
        tr.Target("threshold.find_threshold", "scaling_lens.optimizer", "no_such_solver"),
        tr.Target("degree.gen", "scaling_lens.degree", "NoSuchModel.gen", count_only=True),
    )
    _, tracer = traced_pass(targets=gone)
    metrics = tr.layer_metrics(tracer)
    assert set(metrics) == set(tr.LAYER_MEDIANS)
    assert metrics["kernel.peel_kernel.calls"] == 0
    assert metrics["threshold.find_threshold.calls"] == 0
    assert metrics["degree.gen.calls"] == 0
    assert metrics["kernel.edges_per_s"] == 0


def test_oracle_reproduces_regular_pair_threshold():
    pair = PolynomialPair(lam_coeffs=(0.0, 0.0, 1.0), rho_coeffs=(0.0,) * 5 + (1.0,))
    assert abs(wls.oracle_eps_star(pair) - 0.4294) <= 1e-4


def test_perturbed_trial_value_fails_the_hash_check():
    model = DegreeModel(R=200, T=900, d_t=6.0, epsilon=0.5)
    label = "mc_parent_graph_erasure[0]"
    stats = peeling.mc_parent_graph_erasure(model, trials=8, seed=5, threads=1)
    reference = {
        "mc-small": {
            "sizes": MC_SMALL.sizes,
            "digests": {"5": {label: wls.digest(stats)}},
        }
    }
    rec = wls.Recorder()
    rec.results[label] = stats
    wls.check_reference(rec, "mc-small", 5, reference)
    assert label not in rec.failed

    stats.values[3] = np.nextafter(stats.values[3], 1.0)
    wls.check_reference(rec, "mc-small", 5, reference)
    assert label in rec.failed


def test_digest_ignores_scalar_type_but_not_value():
    assert wls.digest((np.int64(7), np.float64(0.5), np.bool_(True))) == wls.digest((7, 0.5, True))
    assert wls.digest(True) != wls.digest(1)
    assert wls.digest(np.arange(3)) != wls.digest(np.arange(3, dtype=np.int32))


def test_reference_covers_every_seed_and_label():
    reference = wls.load_reference()
    for name, wl in wls.WORKLOADS.items():
        if not wl.reference:
            continue
        assert reference[name]["sizes"] == json.loads(json.dumps(wl.sizes))
        digests = reference[name]["digests"]
        assert set(digests) == {str(s) for s in range(wls.REFERENCE_SEEDS)}
        assert all(set(d) == set(wl.reference) for d in digests.values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wls.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tr.PER_LAYER)


@pytest.mark.parametrize("argv", [["--workload", "nope"], ["--workload", "frontier", "--seed", "-1"]])
def test_bad_arguments_exit_nonzero(argv):
    try:
        code = run.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code != 0
