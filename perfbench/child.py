"""One measured pass of a workload, in a fresh process.

    python3 perfbench/child.py <workload> <seed> <setup|plain|traced> <workdir>

``setup`` only imports the engine and builds the inputs.  ``plain`` also
runs one pass untraced; ``traced`` runs it with every public pathwise
function wrapped in a span.  The last stdout line is one JSON object:
``setup_s``, and for a pass ``wall_s``, ``cpu_s``, ``peak_rss_mib``,
``failures``, the library versions and, in traced mode, the per-layer
figures.  Nothing but the standard library is imported before set-up is
timed, so ``setup_s`` includes importing numpy and scipy.
"""

import json
import resource
import sys
import time


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def main(workload: str, seed: int, mode: str, workdir: str) -> dict:
    t0 = time.perf_counter()
    from workloads import WORKLOADS  # imports numpy, scipy and pathwise

    wl = WORKLOADS[workload](seed, workdir)
    out = {"setup_s": time.perf_counter() - t0}

    import numpy
    import scipy
    import pathwise

    out["versions"] = {"pathwise": pathwise.__version__, "numpy": numpy.__version__,
                       "scipy": scipy.__version__, "pathwise_file": pathwise.__file__}
    if mode == "setup":
        return out
    tracer = None
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.instrument()
    cpu0, w0 = _cpu_seconds(), time.perf_counter()
    result = wl.run()
    out["wall_s"] = time.perf_counter() - w0
    out["cpu_s"] = _cpu_seconds() - cpu0
    out["peak_rss_mib"] = _peak_rss_mib()
    if tracer is not None:  # before the checks, which call traced functions too
        out["layer"] = tracer.summary()
        out["layer"]["trace.wall_s"] = out["wall_s"]
    out["failures"] = wl.check(result)
    if tracer is not None:
        out["layer"].update(wl.layer_metrics(result))
    return out


if __name__ == "__main__":
    workload, seed, mode, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
    print(json.dumps(main(workload, seed, mode, workdir)))
