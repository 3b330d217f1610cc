"""The benchmark workloads, run through the engine's public entry points.

Each workload class builds its inputs in ``__init__`` (part of the measured
set-up), runs one pass in ``run``, verifies that pass's output in
``check`` (a list of failure messages, empty when correct) and reports its
workload-specific per-layer figures in ``layer_metrics`` (traced runs
only).

Why these two:

- ``acceptance`` is the release gate users run.  It is dominated by
  hundreds of small fBM generations and point local-time evaluations, and
  never builds a local-time field, so it is the bypass case for work on
  that layer.
- ``run-field`` is ``pathwise run`` on one large path: the dense
  local-time field over many cells, and the pure-Python Lebesgue
  hierarchy.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import pathwise
from pathwise import acceptance, cli

P = 4
HURST = 1.0 / P


class Acceptance:
    """``acceptance.run_all`` on the pinned ``DEFAULT_CONFIG`` with CSV artifacts.

    ``seed`` is not used: the suite's Monte Carlo gates are calibrated on
    the seeds pinned in ``DEFAULT_CONFIG``, so re-seeding would change what
    is being gated.
    """

    def __init__(self, seed: int, workdir: str):
        self.out_dir = os.path.join(workdir, "acceptance")

    def run(self):
        return acceptance.run_all(out_dir=self.out_dir)

    def _summary(self) -> dict:
        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            return json.load(fh)

    def check(self, results) -> list:
        failures = [f"{r.key} failed" for r in results if r.gated and not r.passed]
        keys = [r.key for r in results]
        if keys != [f"C{i}" for i in range(1, 11)]:
            failures.append(f"criteria ran were {keys}, not C1..C10")
        if not self._summary()["all_passed"]:
            failures.append("summary.json all_passed is false")
        return failures

    def layer_metrics(self, results) -> dict:
        return {f"acceptance.{c['key']}_s": c["seconds"] for c in self._summary()["criteria"]}


class RunField:
    """``cli.run`` on one fBM path (H = 1/4, p = 4, n_max = 18): (a) all 18
    dyadic levels with variation and a 128-cell local-time field, (b) 8
    Lebesgue levels with variation."""

    N_MAX = 18
    CELLS = 128
    LT_SAMPLES = 4

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        spec = {"kind": "fbm", "hurst": HURST, "n_max": self.N_MAX, "seed": seed}
        self.dyadic_dir = os.path.join(workdir, "dyadic")
        self.lebesgue_dir = os.path.join(workdir, "lebesgue")
        self.configs = [
            {"paths": [spec], "p": P, "partition": "dyadic", "levels": self.N_MAX,
             "analyses": ["variation", "local-time"], "grid_cells": self.CELLS,
             "output_dir": self.dyadic_dir},
            {"paths": [spec], "p": P, "partition": "lebesgue", "levels": 8,
             "analyses": ["variation"], "output_dir": self.lebesgue_dir},
        ]

    def run(self):
        return [cli.run(cfg) for cfg in self.configs]

    def _rows(self, out_dir: str, prefix: str) -> list:
        with open(os.path.join(out_dir, f"{prefix}_p0_s{self.seed}.csv")) as fh:
            return list(csv.DictReader(fh))

    def check(self, statuses) -> list:
        failures = []
        for cfg, status in zip(self.configs, statuses):
            with open(os.path.join(cfg["output_dir"], "summary.json")) as fh:
                ok = json.load(fh)["ok"]
            if status != 0 or not ok:
                failures.append(f"{cfg['partition']} run: exit status {status}, summary ok {ok}")
        if any(not math.isfinite(float(r["value"])) for r in self._rows(self.lebesgue_dir, "variation")):
            failures.append("lebesgue variation has non-finite values")

        path = pathwise.generate(pathwise.PathSpec(kind="fbm", hurst=HURST, n_max=self.N_MAX, seed=self.seed))
        finest = [r for r in self._rows(self.dyadic_dir, "variation")
                  if int(r["level"]) == self.N_MAX and float(r["t"]) == 1.0]
        expected = float(np.sum(np.abs(np.diff(path.values)) ** P))
        if len(finest) != 1 or abs(float(finest[0]["value"]) - expected) > 1e-12 * expected:
            failures.append(f"finest variation {finest} differs from numpy sum {expected!r}")

        hier = pathwise.dyadic_hierarchy(path, self.N_MAX)
        final = [r for r in self._rows(self.dyadic_dir, "localtime")
                 if float(r["t"]) == 1.0 and float(r["value"]) > 0.0]
        rng = np.random.default_rng(self.seed)
        picks = rng.choice(len(final), size=min(self.LT_SAMPLES, len(final)), replace=False)
        if picks.size < 3:
            failures.append(f"only {picks.size} non-zero local-time entries to sample")
        for i in picks:
            level, x, got = int(final[i]["level"]), float(final[i]["x"]), float(final[i]["value"])
            want = pathwise.discrete_local_time_point(path, hier.level(level), P, x, 1.0)
            if abs(got - want) > 1e-9 * abs(want):
                failures.append(f"local time at level {level}, x={x!r}: {got!r} vs point {want!r}")
        return failures

    def layer_metrics(self, statuses) -> dict:
        total = 0
        for out_dir in (self.dyadic_dir, self.lebesgue_dir):
            total += sum(os.path.getsize(os.path.join(out_dir, n))
                         for n in os.listdir(out_dir) if n.endswith(".csv"))
        return {"cli.csv_bytes": total}


WORKLOADS = {"acceptance": Acceptance, "run-field": RunField}
