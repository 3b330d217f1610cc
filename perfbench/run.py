"""Benchmark of the pathwise engine.

    python3 perfbench/run.py --workload <acceptance|run-field> \
        --seed N --seconds S --trace <0|1>

Run from the root of a source checkout; the engine is imported from its
``src`` directory.  Every pass runs in a fresh child process with
``PATHWISE_WORKERS=1`` and the BLAS/OpenMP pools pinned to one thread, and
its output is checked; passes repeat until ``--seconds`` have gone.
Each child times its set-up (importing the engine and building the
inputs); children that do only that follow the passes until there are
SETUP_SAMPLES set-up times for the median.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over the passes.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics: medians over the traced passes, and
``trace.overhead_s``, the traced minus the untraced median wall time.
The last stdout line is the JSON result; the lines before it give the
environment and each metric in words.  Scratch files live under
``.perfbench_work/`` in the checkout and are removed at exit.
"""

import argparse
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _environment() -> dict:
    info = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "cpu_model": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu_model"] = models[0] if models else info["cpu_model"]
    except OSError:
        pass
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            info[f"L{level}"] = size
    info["commit"] = "unknown"
    try:  # the ceiling stops git from finding a repository above the checkout
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        if git.returncode == 0:
            info["commit"] = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return info


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str, deadline: float):
        self.workload, self.seed, self.workdir, self.deadline = workload, seed, workdir, deadline
        self.env = dict(os.environ, PATHWISE_WORKERS="1", PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
        self.count = 0

    def child(self, mode: str):
        """Run one child; returns its JSON result, or None if it crashed or ran out of time."""
        self.count += 1
        workdir = os.path.join(self.workdir, f"pass{self.count}")
        tmp = os.path.join(workdir, "tmp")
        os.makedirs(tmp)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.workload, str(self.seed), mode, workdir]
        try:
            proc = subprocess.run(cmd, env=dict(self.env, TMPDIR=tmp), capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            print(f"perfbench: {mode} child timed out", file=sys.stderr)
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            print(f"perfbench: {mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        where = out["versions"]["pathwise_file"]
        if not os.path.abspath(where).startswith(os.path.join(ROOT, "src") + os.sep):
            print(f"perfbench: imported pathwise from {where}, not from this checkout", file=sys.stderr)
            return None
        for failure in out.get("failures", []):
            print(f"perfbench: check failed: {failure}", file=sys.stderr)
        return out


def main(argv=None) -> int:
    start = time.perf_counter()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "pathwise", "__init__.py")):
        print(f"perfbench: no pathwise sources under {ROOT}/src", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    runner = Runner(args.workload, args.seed, workdir, start + DEADLINE_S)
    try:
        modes = ("plain", "traced") if args.trace else ("plain",)
        passes = {m: [] for m in modes}
        attempted = failed = 0
        longest = 0.0
        while True:
            mode = modes[attempted % len(modes)]
            t0 = time.perf_counter()
            out = runner.child(mode)
            longest = max(longest, time.perf_counter() - t0)
            attempted += 1
            if out is None or out["failures"]:
                failed += 1
            if out is not None:
                passes[mode].append(out)
            now = time.perf_counter()
            if attempted >= len(modes) and (now - start >= args.seconds or now + longest > start + DEADLINE_S):
                break
        setups = [o["setup_s"] for runs in passes.values() for o in runs]
        while not args.trace and len(setups) < SETUP_SAMPLES and time.perf_counter() + 5.0 < start + DEADLINE_S:
            out = runner.child("setup")
            if out is not None:
                setups.append(out["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if any(not runs for runs in passes.values()):
        print("perfbench: no pass completed; nothing to report", file=sys.stderr)
        return 1
    plain = passes["plain"]
    values = {
        "wall_s": statistics.median([o["wall_s"] for o in plain]),
        "cpu_s": statistics.median([o["cpu_s"] for o in plain]),
        "peak_rss_mib": statistics.median([o["peak_rss_mib"] for o in plain]),
        "setup_s": statistics.median(setups),
        "pass_ratio": (attempted - failed) / attempted,
    }
    if args.trace:
        traced = passes["traced"]
        values = {name: statistics.median([o["layer"][name] for o in traced])
                  for name in traced[0]["layer"]}
        values["trace.overhead_s"] = statistics.median([o["layer"]["trace.wall_s"] for o in traced]) - statistics.median(
            [o["wall_s"] for o in plain])

    env = dict(_environment(), **{k: v for k, v in plain[0]["versions"].items() if k != "pathwise_file"})
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {attempted} attempted, {failed} failed (fail_ratio {failed / attempted:g}); "
          f"{len(plain)} untraced" + (f", {len(passes['traced'])} traced" if args.trace else ""))
    for mode, runs in passes.items():
        print(f"{mode} pass wall_s: " + ", ".join(f"{o['wall_s']:.4f}" for o in runs))
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            print(f"perfbench: {m['name']} not produced by workload {args.workload}; reporting 0", file=sys.stderr)
            value = 0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} {value:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
