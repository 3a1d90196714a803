"""Capture the reference artifacts that every benchmark run is checked against.

Usage (from the repository root): ``python3 perfbench/capture_reference.py``.
Runs each workload once, untraced, with seed 0 and stores its exit code,
argv and artifact under ``perfbench/reference/<workload>/``.  Capture only
on a revision whose outputs are known to be right: later runs fail on any
deviation from what is stored here.
"""

import json
import shutil
import sys

from run import WORK, WORKLOADS, provenance, run_child, workload_argv
from compare import REFERENCE

ARTIFACTS = {"decay": "decay.json", "validate": "validate.json"}


def main() -> int:
    for workload in WORKLOADS:
        run_dir = WORK / "capture" / workload
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        argv = workload_argv(workload, 0, run_dir / "out")
        result = run_child(argv, False, run_dir, 0)
        if "error" in result:
            print(f"{workload}: {result['error']}", file=sys.stderr)
            return 1
        artifact = ARTIFACTS[argv[0]]
        ref_dir = REFERENCE / workload
        ref_dir.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(run_dir / "out" / artifact, ref_dir / artifact)
        prov = provenance(workload, 0, argv, 1, result["versions"])
        run = {"exit_code": result["exit_code"], "artifact": artifact,
               "argv": WORKLOADS[workload]["argv"], "provenance": prov}
        (ref_dir / "run.json").write_text(json.dumps(run, indent=2, sort_keys=True) + "\n")
        print(f"{workload}: exit {result['exit_code']}, {artifact} captured")
    return 0


if __name__ == "__main__":
    sys.exit(main())
