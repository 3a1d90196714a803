"""Tests of the benchmark's own code: tracer, comparator and workload sizes.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The traced-workload tests run the real CLI in child processes (about 30 s).
"""

import copy
import json
import shutil

import pytest

import compare
from compare import REFERENCE, compare_decay, compare_validate
from run import (END_TO_END, PROBE_NOMINAL_S, ROOT, WORK, WORKLOADS, end_to_end,
                 per_layer_metrics, raw_end_to_end, run_child, tail_percentile, workload_argv)
from tracer import Span, Tracer, self_times


def test_self_time_of_nested_spans():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 1, "a.child", 2.0, 3.5),
        Span(3, 0, "b", 5.0, 6.0),
        Span(4, 0, "c", 6.0, 9.5),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 10.0 - 3.0 - 1.0 - 3.5, 1: 3.0 - 1.5, 2: 1.5, 3: 1.0, 4: 3.5})


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, None, "root", 0.0, 4.0), Span(1, 0, "x", 1.0, 3.0), Span(2, 0, "y", 2.0, 3.5)]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5)


def _load(workload, artifact):
    return json.loads((REFERENCE / workload / artifact).read_text())


@pytest.mark.parametrize("workload", ["decay_default", "harmonic_long"])
def test_decay_comparator_accepts_reference_and_rejects_1e9_perturbation(workload):
    ref = _load(workload, "decay.json")
    assert compare_decay(ref, copy.deepcopy(ref)) == []
    bumped = copy.deepcopy(ref)
    bumped["slope"] *= 1.0 + 1e-9
    problems = compare_decay(ref, bumped)
    assert len(problems) == 1 and problems[0].startswith("slope: relative deviation")
    # Deviations are scaled by the field's largest magnitude, so perturb that entry.
    bumped = copy.deepcopy(ref)
    largest = max(range(len(ref["tail_slope"])), key=lambda i: abs(ref["tail_slope"][i][1]))
    bumped["tail_slope"][largest][1] *= 1.0 + 1e-9
    assert [p.split(":")[0] for p in compare_decay(ref, bumped)] == ["tail_slope"]


def test_decay_comparator_rejects_shape_and_flag_changes():
    ref = _load("decay_default", "decay.json")
    shorter = copy.deepcopy(ref)
    shorter["envelope"].pop()
    flipped = copy.deepcopy(ref)
    flipped["decays"] = not ref["decays"]
    assert compare_decay(ref, shorter) and compare_decay(ref, flipped)


def test_validate_comparator_checks_verdicts_only():
    ref = _load("validate_default", "validate.json")
    noisy = copy.deepcopy(ref)
    for check in noisy["checks"]:
        check["measured"] = (check["measured"] or 0.0) * (1.0 + 1e-3)
    assert compare_validate(ref, noisy) == []
    flipped = copy.deepcopy(ref)
    flipped["checks"][3]["passed"] = not flipped["checks"][3]["passed"]
    assert compare_validate(ref, flipped) == [
        f"{ref['checks'][3]['name']}: passed={flipped['checks'][3]['passed']!r} != reference {ref['checks'][3]['passed']!r}"
    ]


def test_tracer_reports_a_removed_callable_and_restores_bindings():
    import phasemix.cli
    import phasemix.transport

    original = phasemix.transport.evaluate_f_actionangle
    tracer = Tracer(targets=(("transport", "evaluate_f_actionangle", ("x", "v")),
                             ("cli", "no_such_callable", None)))
    tracer.install()
    try:
        assert phasemix.cli.evaluate_f_actionangle is not original
        assert phasemix.transport.evaluate_f_actionangle is phasemix.cli.evaluate_f_actionangle
    finally:
        tracer.remove()
    assert phasemix.cli.evaluate_f_actionangle is original
    assert phasemix.transport.evaluate_f_actionangle is original
    assert tracer.missing == ["cli.no_such_callable"]
    assert list(tracer.stats()) == ["transport.evaluate_f_actionangle"]


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert tail_percentile([1.0] * 10) is None
    assert tail_percentile(list(range(20)))[0] == 50.0
    assert tail_percentile(list(range(1000)))[0] == 99.0


def test_end_to_end_scales_each_invocation_by_its_own_probe():
    n = PROBE_NOMINAL_S
    runs = ((2.0, [2.0 * n]), (3.0, [1.0 * n, 2.0 * n]), (9.0, [3.0 * n]))
    m = {"plain": [{"wall_s": w, "cpu_s": w - 0.5, "peak_rss_mb": 100.0, "probe": p} for w, p in runs],
         "setup": [0.5, 0.6, 0.4], "probe": [2.0 * n, 1.0 * n, 2.0 * n, 3.0 * n]}
    assert raw_end_to_end(m) == pytest.approx(
        {"wall_s": 3.0, "cpu_s": 2.5, "setup_s": 0.5, "peak_rss_mb": 100.0})
    # Scaled walls 1.0, 2.0, 3.0; cpus 0.75, 2.5 / 1.5, 8.5 / 3; setup by the run mean 2.0.
    assert end_to_end(m) == pytest.approx(
        {"wall_s": 2.0, "cpu_s": 2.5 / 1.5, "setup_s": 0.25, "peak_rss_mb": 100.0})


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # harmonic_long is runnable by hand but not part of the gated set.
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) - {"harmonic_long"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_metrics()


def _traced(workload, index):
    run_dir = WORK / "tests" / workload
    if index == 0:
        shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True, exist_ok=True)
    out_dir = run_dir / f"out-{index}"
    result = run_child(workload_argv(workload, 0, out_dir), True, run_dir, index)
    assert "error" not in result, result["error"]
    assert compare.check_run(workload, result["exit_code"], out_dir) == []
    return result["layers"]


@pytest.fixture(scope="module")
def decay_traces():
    return [_traced("decay_default", i) for i in range(2)]


def test_decay_default_schedule_and_pullback_counts_repeat(decay_traces):
    for layers in decay_traces:
        assert layers["mixing.sup_phi_t"]["points"] == 292
        assert layers["action_angle.OrbitChart.q_from_chi"]["points"] == 292 * 21_678 == 6_329_976
    counts = [{k: (v["calls"], v["points"]) for k, v in layers.items()} for layers in decay_traces]
    assert counts[0] == counts[1]


def test_harmonic_long_schedule_size():
    layers = _traced("harmonic_long", 0)
    assert layers["mixing.sup_phi_t"]["points"] == 2547
