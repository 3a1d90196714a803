"""End-to-end and per-layer benchmark of the phasemix CLI pipelines.

Usage (from the repository root)::

    python3 perfbench/run.py --workload decay_default --seed 1 --seconds 60 --trace 0

Closed loop, one client: each invocation of ``phasemix.cli.main(argv)``
runs in a fresh child interpreter, and the next starts only after the
previous one has ended.  Every invocation's exit code and artifact are
checked against ``reference/``.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` alternates untraced and traced invocations and
reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  See
README.md for the metrics and why each workload was chosen.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from compare import check_run
from tracer import STATS, TARGETS, target_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

WORKLOADS = {
    # Headline experiment: 292 sample times x 21,678 support nodes pulled
    # back through the chart at every time.
    "decay_default": {"argv": ["decay"], "seeded": False},
    # The 11 invariants: few times on 16x more nodes, 8 chart builds and
    # the DOP853 oracle.  The seed picks the cross-solver sample points.
    "validate_default": {"argv": ["validate"], "seeded": True},
    # Harmonic control over a 10x longer horizon: 2,547 sample times with
    # a trivial chart, so per-time transport and quadrature dominate.
    "harmonic_long": {
        "argv": ["decay", "--set", "epsilon=0", "--set", "t_max=2000",
                 "--set", "fit_window=[20, 2000]"],
        "seeded": False,
    },
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "points": "count"}
# Callables that some workload never calls.  Their times would read 0.0 on
# every run of that workload, so the result line carries only their counts;
# the printed table still shows their times.
COUNT_ONLY = {
    "action_angle.OrbitChart.chi_from_q",
    "transport.evaluate_f_characteristic",
    "flow.flow_map",
    "flow.orbit_period",
    "moments.MomentCalculator.density",
    "mixing.sup_phi_t",
    "mixing.fit_decay",
}
POINTS = {f"{module}.{qualname}" for module, qualname, args in TARGETS if args}
SETUP_PROBES = 2        # import-only children per run, besides each CLI child's own import
# Host-speed probe.  On a shared host the same code runs up to twice as
# slow for minutes at a time, so raw times of runs made minutes apart differ
# by more than any bound worth having.  After each untraced invocation the
# run times a fixed unit of work that does not touch phasemix, for
# PROBE_SHARE of that invocation's duration, and scales the invocation's
# times by PROBE_NOMINAL_S / (mean probe-unit time): they are seconds on a
# host where one probe unit takes PROBE_NOMINAL_S.  The raw times are
# printed beside them and kept in result.json.
PROBE_SHARE = 0.12
PROBE_NOMINAL_S = 0.02
_PROBE_RNG = np.random.default_rng(0)
_PROBE_X = 2.0 * np.pi * _PROBE_RNG.random(21_678)
_PROBE_MODES = np.arange(1, 13)
_PROBE_B = 0.01 * _PROBE_RNG.random((21_678, 12))
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("PHASEMIX_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def per_layer_metrics() -> dict[str, str]:
    """Name -> unit of every metric a ``--trace 1`` run reports."""
    out = {}
    for name in target_names():
        for stat in STATS:
            if stat == "points" and name not in POINTS:
                continue
            if stat.endswith("_s") and name in COUNT_ONLY:
                continue
            out[f"{name}.{stat}"] = UNITS[stat]
    out["trace.overhead_s"] = "s"
    return out


def workload_argv(workload: str, seed: int, out_dir: Path) -> list[str]:
    spec = WORKLOADS[workload]
    argv = [*spec["argv"], "--out", str(out_dir.relative_to(ROOT))]
    if spec["seeded"]:
        argv += ["--set", f"seed={seed}"]
    return argv


def tail_percentile(samples: list[float]):
    """Highest of p50..p99.9 with at least ten samples beyond it, or None."""
    n = len(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p, sorted(samples)[math.ceil(p / 100.0 * n) - 1]
    return None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PHASEMIX_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def probe_unit() -> float:
    """Time one fixed unit of work of the pipelines' kind (about 20 ms).

    Half of it is a sine series on 21,678 points (the shape of the chart
    pull-back), half an interpreted loop; together they tracked the host's
    slowdowns of ``decay_default`` better than either alone.
    """
    t0 = time.perf_counter()
    for _ in range(2):
        _PROBE_X + np.sum(np.sin(_PROBE_X[:, None] * _PROBE_MODES) * _PROBE_B, axis=-1)
    total = 0
    for i in range(190_000):
        total += i * i
    return time.perf_counter() - t0


def probe(seconds: float) -> list[float]:
    """Probe-unit times over ``seconds`` (at least one unit)."""
    end = time.perf_counter() + seconds
    out = [probe_unit()]
    while time.perf_counter() < end:
        out.append(probe_unit())
    return out


def run_child(argv, trace: bool, run_dir: Path, index: int) -> dict:
    """Run one child; returns its result dict, or one with an ``error``."""
    request = {
        "argv": argv,
        "trace": trace,
        "result": str(run_dir / f"result-{index}.json"),
        "spans": str(run_dir / f"spans-{index}.json"),
    }
    request_path = run_dir / f"request-{index}.json"
    request_path.write_text(json.dumps(request))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(request_path)],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S} s", "elapsed": CHILD_TIMEOUT_S}
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"child exited {proc.returncode}: {tail[0]}", "elapsed": elapsed}
    result = json.loads(Path(request["result"]).read_text())
    result["elapsed"] = elapsed
    return result


def provenance(workload: str, seed: int, argv: list[str], runs: int, versions: dict) -> dict:
    def git(*args):
        # A checkout without its own .git may sit inside another repository.
        if not (ROOT / ".git").exists():
            return None
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "workload": workload,
        "argv": argv,
        "seed": seed,
        "runs": runs,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = WORK / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    out_dir = run_dir / "out"
    argv = workload_argv(workload, seed, out_dir)
    deadline = time.perf_counter() + seconds
    index = 0

    def child(cli_argv, traced=False):
        nonlocal index
        index += 1
        return run_child(cli_argv, traced, run_dir, index)

    child(None)  # warm-up: compiles bytecode and fills the page cache
    probes = [child(None) for _ in range(SETUP_PROBES)]
    setup = [p["setup_s"] for p in probes if "error" not in p]
    plain, traced, failures, speed = [], [], [], []
    durations = {False: [], True: []}
    while True:
        kind = trace and len(traced) < len(plain)
        shutil.rmtree(out_dir, ignore_errors=True)
        result = child(argv, kind)
        durations[kind].append(result["elapsed"])
        if not trace:
            result["probe"] = probe(PROBE_SHARE * result["elapsed"])
            speed += result["probe"]
        if "error" in result:
            failures.append(result["error"])
        else:
            setup.append(result["setup_s"])
            problems = check_run(workload, result["exit_code"], out_dir)
            if problems:
                failures.append("; ".join(problems))
            else:
                (traced if kind else plain).append(result)
        attempted = len(durations[False]) + len(durations[True])
        enough = attempted >= (2 if trace else 1)
        next_kind = trace and len(traced) < len(plain)
        expected = statistics.median(durations[next_kind] or durations[not next_kind])
        expected *= 1.0 if trace else 1.0 + PROBE_SHARE
        if failures and not (plain or traced):
            break
        if enough and time.perf_counter() + expected > deadline:
            break
    versions = (plain or traced or [{}])[0].get("versions", {})
    return {
        "workload": workload, "seed": seed, "argv": argv, "setup": setup,
        "plain": plain, "traced": traced, "probe": speed, "failures": failures, "attempted": attempted,
        "provenance": provenance(workload, seed, argv, attempted, versions),
    }


def raw_end_to_end(m: dict) -> dict[str, float]:
    """Medians over the run, times as measured on this host."""
    plain = m["plain"]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "cpu_s": statistics.median(r["cpu_s"] for r in plain),
        "setup_s": statistics.median(m["setup"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def end_to_end(m: dict) -> dict[str, float]:
    """The reported metrics, times scaled to the nominal host.

    Each invocation's times are scaled by the probe units that followed
    it; ``setup_s`` also covers the import-only children, so it is scaled
    by the mean over the whole run.
    """
    plain = m["plain"]
    speeds = [PROBE_NOMINAL_S / statistics.fmean(r["probe"]) for r in plain]
    raw = raw_end_to_end(m)
    return {
        "wall_s": statistics.median(r["wall_s"] * k for r, k in zip(plain, speeds)),
        "cpu_s": statistics.median(r["cpu_s"] * k for r, k in zip(plain, speeds)),
        "setup_s": raw["setup_s"] * PROBE_NOMINAL_S / statistics.fmean(m["probe"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def layers(m: dict) -> tuple[dict[str, float], list[str]]:
    """Per-layer values (counts from one traced run, times as medians)."""
    traced = m["traced"]
    values, notes = {}, []
    missing = sorted(set(traced[0]["missing"]))
    for name in target_names():
        for stat in STATS:
            key = f"{name}.{stat}"
            if stat == "points" and name not in POINTS:
                continue
            if name in missing:
                values[key] = 0
                continue
            samples = [r["layers"][name][stat] for r in traced]
            if stat in ("calls", "points"):
                if len(set(samples)) > 1:
                    notes.append(f"{key} differs between traced runs: {samples}")
                values[key] = samples[0]
            else:
                values[key] = statistics.median(samples)
    values["trace.overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in m["plain"])
    )
    notes += [f"{name}: missing in this revision" for name in missing]
    return values, notes


def report(m: dict, trace: bool) -> dict:
    """Print the human-readable table; return the result line."""
    prov = m["provenance"]
    print(f"workload {m['workload']}: argv {' '.join(m['argv'])}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for failure in m["failures"]:
        print(f"FAILED: {failure}")
    attempted, failed = m["attempted"], len(m["failures"])
    raw = raw_end_to_end(m)
    e2e = end_to_end(m) if m["probe"] else None
    walls = [r["wall_s"] for r in m["plain"]]
    tail = tail_percentile(walls)
    print(f"  {'':<14} {'reported':>12} {'raw':>12}")
    for name, unit in END_TO_END.items():
        shown = f"{e2e[name]:12.4f}" if e2e else f"{'-':>12}"
        print(f"  {name:<14} {shown} {raw[name]:12.4f} {unit}")
    if e2e:
        print(f"  host speed     {PROBE_NOMINAL_S / statistics.fmean(m['probe']):12.4f} "
              f"(nominal / mean of {len(m['probe'])} probe units)")
    print(f"  wall_s samples n={len(walls)}, raw "
          + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no percentile above the median has ten samples beyond it"))
    print(f"  setup_s samples n={len(m['setup'])}")
    print(f"  failure_ratio  {failed / attempted:12.4f} ({failed}/{attempted})")
    if trace:
        values, notes = layers(m)
        for key, value in values.items():
            print(f"  {key:<52} {value:14.6g}")
        for note in notes:
            print(f"  NOTE: {note}")
        wanted = per_layer_metrics()
    else:
        values, wanted = e2e, END_TO_END
    results = {"result": m, "values": values}
    (WORK / m["workload"] / "result.json").write_text(json.dumps(results, indent=1, default=str))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "phasemix" / "cli.py").is_file():
        print(f"error: no phasemix sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    m = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not m["plain"] or (args.trace and not m["traced"]):
        print(f"error: no invocation of {args.workload} succeeded: {m['failures']}", file=sys.stderr)
        return 1
    print(json.dumps(report(m, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
