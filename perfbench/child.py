"""One measured invocation of ``phasemix.cli.main`` in a fresh interpreter.

Usage: ``python3 child.py REQUEST.json``.  The request names the CLI
argv, whether to trace, and where to write the result.  With no argv the
child only times the import.  Only the standard library is imported
before the timed import, so ``setup_s`` holds the whole import cost.
"""

import json
import resource
import sys
import time


def main() -> None:
    with open(sys.argv[1]) as fh:
        request = json.load(fh)

    t0 = time.perf_counter()
    import phasemix.cli

    result = {"setup_s": time.perf_counter() - t0}
    argv = request["argv"]
    if argv is not None:
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            exit_code = phasemix.cli.main(argv)
        finally:
            wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if tracer is not None:
                tracer.remove()
        result.update(exit_code=exit_code, wall_s=wall, cpu_s=cpu)
        if tracer is not None:
            result["layers"] = tracer.stats()
            result["missing"] = tracer.missing
            with open(request["spans"], "w") as fh:
                json.dump([s._asdict() for s in tracer.spans if s is not None], fh)
    # ru_maxrss is in KiB on Linux.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    with open(request["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
