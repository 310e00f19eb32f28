"""Workload definitions and helpers shared by run.py and its worker processes.

Every workload is a closed loop with a single caller: each op starts after the
previous one ends.  The cases below are the only place the workloads' inputs
are defined; run.py turns them into seeded inputs before any timer starts.
"""

from __future__ import annotations

import math
import re
import statistics
import time

# OpenBLAS threads for every process the benchmark starts.  The 2-core machines
# this was sized on gave the same spread at 1 and 2 threads; 1 keeps a run from
# competing with itself.
BLAS_THREADS = "1"
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "OMP_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}

RIGID = {"kind": "rigid-linear", "omega": 1.0}
SYMTOP = {"kind": "symmetric-top", "omega": 1.0, "omega2": 0.4, "k": 1, "m": 1}
CENTRIFUGAL = {"kind": "centrifugal-linear", "omega": 1.0, "d_cd": 1e-4}

# name -> (spec fields, j_max, n_periods)
CLI_RIGID_CASES = {
    "rigid-j6-m2": (dict(RIGID, m=2), 6, 1),
    "rigid-j10-m1": (dict(RIGID, m=1), 10, 1),
    "rigid-j14-m0": (dict(RIGID, m=0), 14, 1),
    "symtop-j8-k1m1": (SYMTOP, 8, 1),
}
# Attempted once per run, outside the timing samples: it crashes as of commit
# c8c1104 (J = 207 outside supported range), and a fix must not read as a slowdown.
CLI_RIGID_KNOWN_FAILURE = {"rigid-j15-m0": (dict(RIGID, m=0), 15, 1)}
CLI_CENTRIFUGAL_CASES = {
    "centrifugal-j5": (CENTRIFUGAL, 5, 64),
    "centrifugal-j10": (CENTRIFUGAL, 10, 64),
}
BOOTSTRAP_CASES = {"rigid-j3-kicked": (dict(RIGID, m=0), 3, 1)}
BOOTSTRAP_KICK = 1.2
BOOTSTRAP_RESAMPLES = 40
BOOTSTRAP_SAMPLES = 10**6
# The CLI's subcommands called in one process with warm caches: short ops, so
# the fastest pass is steady where fresh CLI processes are not (README.md).
WARM_CLI_CASES = {
    "rigid-j10-m1": (dict(RIGID, m=1), 10, 1),
    "symtop-j8-k1m1": (SYMTOP, 8, 1),
    "centrifugal-j5-p16": (CENTRIFUGAL, 5, 16),
}
WARM_SWEEP_CASES = {
    "rigid-j14-m0": (dict(RIGID, m=0), 14, 1),
    "rigid-j10-m1": (dict(RIGID, m=1), 10, 1),
    "symtop-j12-k1m1": (SYMTOP, 12, 1),
}

WORKLOADS = ("cli-rigid", "cli-centrifugal", "warm-cli", "bootstrap", "warm-sweep")

# Acceptance tolerances (tests/test_acceptance.py criteria 2-4 and 8).
MAX_ERR = {"rigid-linear": 1e-8, "symmetric-top": 1e-8, "centrifugal-linear": 1e-6}
MAX_RESIDUAL = 1e-9
COVERAGE_SE = 5.0
COVERAGE_MIN = 0.95
COVERAGE_ELEMENT_MIN = 0.05

# The residual `rotortomo reconstruct` prints.
RESIDUAL = re.compile(r"residual sup norm = (\S+?),")

# Fixed work of a traced run, so its counts repeat exactly between runs.
TRACE_PASSES = {
    "cli-rigid": 2, "cli-centrifugal": 2, "warm-cli": 10, "bootstrap": 20, "warm-sweep": 20,
}


# About the fastest time of one SpeedProbe.run() on the machine the benchmark
# was sized on (2-core VM, Intel Xeon, Python 3.11, numpy 2.4).  Timings are
# scaled to this speed (README.md, "Machine speed").
PROBE_NOMINAL_NS = 2_600_000


class SpeedProbe:
    """Fixed reference work that calls no rotortomo code, timed between ops.

    The machines the benchmark was sized on are shared: other tenants' load
    makes every instruction slower for seconds to whole runs, with no steal
    time to show for it.  The probe's fastest run over a benchmark run says
    how fast the machine was during that run's quietest moments, just as the
    workload's fastest passes do, so their ratio cancels most of it.  It mixes
    interpreter work with small numpy calls, as rotortomo's ops do.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.matrix = np.random.default_rng(0).standard_normal((48, 48))
        self.vector = np.linspace(0.0, 1.0, 512)
        self.samples: list[int] = []

    def run(self) -> int:
        np, matrix, vector = self.np, self.matrix, self.vector
        start = time.perf_counter_ns()
        total = 0
        for i in range(30000):
            total += i * i % 7
        acc = 0.0
        for i in range(100):
            acc += float(np.cos(vector * i).sum()) + float((matrix @ matrix[:, i % 48]).sum())
        ns = time.perf_counter_ns() - start
        self.samples.append(ns)
        return ns


def speed_factor(probe_samples) -> float:
    """Nominal over measured probe speed: scales a run's timings to the nominal machine."""
    return PROBE_NOMINAL_NS / min(probe_samples)


def derive_seed(seed: int, *keys: int) -> int:
    """Deterministic 32-bit seed for one state or noise draw of a workload seed."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def distribution(samples) -> dict:
    """Count, minimum, mean, median, quartiles and the highest percentile with >= 10 samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return {"n": 0}
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive") if n > 1 else (med, med, med)
    out = {"n": n, "min": xs[0], "mean": statistics.fmean(xs), "median": med, "q1": q1, "q3": q3,
           "tail": None}
    for p in (99.99, 99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            rank = (n - 1) * p / 100.0
            lo = math.floor(rank)
            hi = min(lo + 1, n - 1)
            out["tail"] = {"p": p, "value": xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)}
            break
    return out


def format_distribution(d: dict, scale: float = 1.0, unit: str = "s") -> str:
    if not d.get("n"):
        return "n=0"
    tail = d["tail"]
    tail_txt = (
        f" p{tail['p']:g}={tail['value'] * scale:.4g}" if tail else " tail: n too small"
    )
    return (
        f"n={d['n']} median={d['median'] * scale:.4g} q1={d['q1'] * scale:.4g} "
        f"q3={d['q3'] * scale:.4g}{tail_txt} {unit}"
    )
