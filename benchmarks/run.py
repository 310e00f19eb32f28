#!/usr/bin/env python3
"""rotortomo benchmark: closed-loop workloads, end-to-end metrics, traced per-layer split.

Run from the repository root:

    python3 benchmarks/run.py --workload warm-cli --seed 1 --seconds 40 --trace 0

Workloads: cli-rigid, cli-centrifugal, warm-cli, bootstrap, warm-sweep (see
benchmarks/README.md for why each exists).  With ``--trace 0`` the run times
the workload for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it runs a fixed number of passes untraced and traced and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary and a ``# detail`` JSON record (environment,
distributions, per-case errors).  The program is run from ``src/`` of the
checkout the script sits in; the run writes only under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from common import (  # noqa: E402
    BLAS_ENV,
    BOOTSTRAP_CASES,
    BOOTSTRAP_KICK,
    BOOTSTRAP_RESAMPLES,
    BOOTSTRAP_SAMPLES,
    CLI_CENTRIFUGAL_CASES,
    CLI_RIGID_CASES,
    CLI_RIGID_KNOWN_FAILURE,
    COVERAGE_ELEMENT_MIN,
    COVERAGE_MIN,
    COVERAGE_SE,
    MAX_ERR,
    MAX_RESIDUAL,
    PROBE_NOMINAL_NS,
    RESIDUAL,
    TRACE_PASSES,
    SpeedProbe,
    WARM_CLI_CASES,
    WARM_SWEEP_CASES,
    WORKLOADS,
    derive_seed,
    distribution,
    format_distribution,
    speed_factor,
)
from tracing import EXTRA_COUNTS, TRACED, span_name, span_stats  # noqa: E402

os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS in this process

CLI_SETUP_PROBES = 10  # at least; two run before every timed pass
INPROC_SEGMENTS = 11  # fresh workers the timed loop is split over; each gives a set-up sample
CHILD_TIMEOUT_S = 150
clock = time.perf_counter_ns


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken child)."""


def _import_program():
    if not (SRC / "rotortomo" / "__init__.py").is_file():
        raise BenchError(f"no rotortomo package under {SRC}")
    sys.path.insert(0, str(SRC))
    import rotortomo

    if Path(rotortomo.__file__).resolve().parent != SRC / "rotortomo":
        raise BenchError(f"imported rotortomo from {rotortomo.__file__}, not from {SRC}")
    return rotortomo


CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)


def run_child(args, workdir: Path) -> dict:
    """Run ``python args...`` to completion; wall time, exit code, peak RSS and output."""
    out, err = workdir / "child.out", workdir / "child.err"
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start = clock()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=fo, stderr=fe, env=CHILD_ENV, cwd=workdir
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = clock() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_ns": wall,
        "rc": proc.returncode,
        "maxrss_kb": usage.ru_maxrss,
        "stdout": out.read_text(),
        "stderr": err.read_text(),
    }


# --------------------------------------------------------------------------- inputs


def _truth(rt, workload, seed, index, spec, j_max):
    if workload == "bootstrap":
        return rt.make_test_state("cos2-kicked", spec.k, spec.m, j_max, kick_strength=BOOTSTRAP_KICK)
    return rt.make_test_state("random-mixed", spec.k, spec.m, j_max, seed=derive_seed(seed, index))


def write_cli_case(rt, name, fields, j_max, periods, truth, workdir) -> dict:
    """Config YAML and state JSON of one case; returns the paths the CLI reads and writes."""
    import yaml

    base = workdir / name
    rt.save_block(truth, f"{base}.state.json")
    config = {
        "spec": dict(fields),
        "j_max": j_max,
        "sampling": {"n_periods": periods},
        "paths": {
            "state": f"{base}.state.json",
            "data": f"{base}.csv",
            "out": f"{base}.out.json",
            "report": f"{base}.report.txt",
        },
    }
    Path(f"{base}.yaml").write_text(yaml.safe_dump(config))
    return {"config": f"{base}.yaml", "out": f"{base}.out.json"}


def cli_inputs(rt, workload, seed, workdir):
    """Config and state per case; the grids come from the timed `simulate` calls."""
    cases = dict(CLI_RIGID_CASES if workload == "cli-rigid" else CLI_CENTRIFUGAL_CASES)
    known = CLI_RIGID_KNOWN_FAILURE if workload == "cli-rigid" else {}
    out = []
    for index, (name, (fields, j_max, periods)) in enumerate({**cases, **known}.items()):
        spec = rt.RotorSpec(**fields)
        truth = _truth(rt, workload, seed, index, spec, j_max)
        out.append({
            "name": name,
            **write_cli_case(rt, name, fields, j_max, periods, truth, workdir),
            "truth": truth,
            "max_err": MAX_ERR[fields["kind"]],
            "known_failure": name in known,
        })
    return out


def inproc_manifest(rt, workload, seed, workdir) -> Path:
    cases = {
        "warm-cli": WARM_CLI_CASES, "bootstrap": BOOTSTRAP_CASES, "warm-sweep": WARM_SWEEP_CASES,
    }[workload]
    entries = []
    for index, (name, (fields, j_max, periods)) in enumerate(cases.items()):
        spec = rt.RotorSpec(**fields)
        plan = rt.SamplingPlan.derive(spec, j_max, n_periods=periods)
        truth = _truth(rt, workload, seed, index, spec, j_max)
        entries.append({
            "name": name,
            "spec": dict(fields),
            "j_max": j_max,
            "n_periods": periods,
            "n_t": plan.n_t,
            "n_x": plan.n_x,
            "truth": [[[z.real, z.imag] for z in row] for row in truth.elements.tolist()],
            "max_err": MAX_ERR[fields["kind"]],
        })
        if workload == "warm-cli":
            entries[-1].update(write_cli_case(rt, name, fields, j_max, periods, truth, workdir))
    manifest = {"workload": workload, "seed": seed, "cases": entries, "max_residual": MAX_RESIDUAL}
    if workload == "bootstrap":
        manifest["bootstrap"] = {
            "samples": BOOTSTRAP_SAMPLES,
            "resamples": BOOTSTRAP_RESAMPLES,
            "se": COVERAGE_SE,
            "element_min": COVERAGE_ELEMENT_MIN,
        }
    path = workdir / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


# --------------------------------------------------------------------------- runs

class Run:
    """Counts, timings and checks of one benchmark run."""

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.errors: list[str] = []  # benchmark-level problems: trace and bootstrap coverage
        self.checks: dict = {}
        self.setup_ns: list[int] = []
        self.setup_probe_ns: list[int] = []  # fastest SpeedProbe right after each set-up
        self.maxrss_kb: list[int] = []
        self.passes: list[dict] = []  # "<op> <case>" -> summed ns, per timed pass
        self.op_ns: dict = {}  # "<op> <case>" -> [ns]
        self.known_failures: list[dict] = []
        self.coverage = (0, 0)  # bootstrap: element checks within 5 SE, element checks
        self.trace_sources: list[dict] = []  # {"trace": ..., "op_walls": {...}}
        self.pass_walls = {"untraced": [], "traced": []}
        self.probe_ns: list[int] = []  # SpeedProbe times over the timed loop
        self.wall: dict = {}  # end-to-end timings as measured, before scaling

    def record_op(self, ok: bool, detail: str = ""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(detail)

    def record_check(self, case, max_err, residual):
        rec = self.checks.setdefault(case, {"max_err": 0.0, "residual": 0.0})
        rec["max_err"] = max(rec["max_err"], max_err)
        rec["residual"] = max(rec["residual"], residual)


def _cli_op(run, case, command, workdir, trace_op=None):
    args = ["-m", "rotortomo.cli", command, "--config", case["config"]]
    if trace_op is not None:
        spans = workdir / f"spans-{len(run.trace_sources)}.json"
        args = [str(HERE / "worker.py"), "cli", str(spans), trace_op, "--", *args[2:]]
    child = run_child(args, workdir)
    if trace_op is not None and spans.exists():
        run.trace_sources.append({
            "trace": json.loads(spans.read_text()),
            "op_walls": {trace_op: child["wall_ns"]},
        })
    return child


def _check_cli_reconstruct(run, rt, case, child) -> tuple[bool, str]:
    if child["rc"] != 0:
        return False, f"{case['name']} reconstruct: exit {child['rc']}: {child['stderr'].strip()}"
    match = RESIDUAL.search(child["stdout"])
    if match is None:
        return False, f"{case['name']} reconstruct: no residual in output"
    residual = float(match.group(1))
    block = rt.load_block(case["out"])
    err = float(abs(block.elements - case["truth"].elements).max())
    run.record_check(case["name"], err, residual)
    ok = err < case["max_err"] and residual < MAX_RESIDUAL
    return ok, f"{case['name']}: max_err {err:.3g} residual {residual:.3g}"


def cli_pass(run, rt, cases, workdir, pass_no, traced=False, probe=None):
    totals: dict = {}
    for i, case in enumerate(cases):
        if case["known_failure"]:
            continue
        for command in ("simulate", "reconstruct"):
            op_id = f"{pass_no}:{i}:{command}" if traced else None
            child = _cli_op(run, case, command, workdir, trace_op=op_id)
            run.maxrss_kb.append(child["maxrss_kb"])
            key = f"{command} {case['name']}"
            totals[key] = totals.get(key, 0) + child["wall_ns"]
            if command == "simulate":
                ok = child["rc"] == 0
                detail = f"{case['name']} simulate: exit {child['rc']}: {child['stderr'].strip()}"
            else:
                ok, detail = _check_cli_reconstruct(run, rt, case, child)
            run.record_op(ok, detail)
            if not traced:
                run.op_ns.setdefault(key, []).append(child["wall_ns"])
            if probe is not None:
                run.probe_ns.append(probe.run())
    return totals


def run_cli_workload(run, rt, seed, seconds, workdir):
    cases = cli_inputs(rt, run.workload, seed, workdir)
    if run.trace:
        for pass_no in range(TRACE_PASSES[run.workload]):
            untraced = cli_pass(run, rt, cases, workdir, pass_no)
            traced = cli_pass(run, rt, cases, workdir, pass_no, traced=True)
            run.pass_walls["untraced"].append(sum(untraced.values()))
            run.pass_walls["traced"].append(sum(traced.values()))
    else:
        # two set-up probes before each pass, so the probes see the whole run
        deadline = clock() + int(seconds * 1e9)
        probe = SpeedProbe()
        pass_no = 0
        while clock() < deadline:
            cli_setup_probe(run, workdir)
            cli_setup_probe(run, workdir)
            run.passes.append(cli_pass(run, rt, cases, workdir, pass_no, probe=probe))
            pass_no += 1
        while len(run.setup_ns) < CLI_SETUP_PROBES:
            cli_setup_probe(run, workdir)
    for case in cases:
        if case["known_failure"]:
            run.known_failures.append(known_failure(run, rt, case, workdir))


def cli_setup_probe(run, workdir):
    """Interpreter start plus ``import rotortomo.cli`` in a fresh process."""
    spawn = time.monotonic_ns()
    child = run_child(["-c", "import time, rotortomo.cli; print(time.monotonic_ns())"], workdir)
    if child["rc"] != 0:
        raise BenchError(f"import rotortomo.cli failed: {child['stderr'].strip()}")
    run.setup_ns.append(int(child["stdout"].split()[-1]) - spawn)
    run.maxrss_kb.append(child["maxrss_kb"])


def known_failure(run, rt, case, workdir) -> dict:
    """Attempt a case known to fail, outside every timing sample."""
    child = _cli_op(run, case, "simulate", workdir)
    op, ok = "simulate", False
    if child["rc"] == 0:
        op = "reconstruct"
        child = _cli_op(run, case, "reconstruct", workdir)
        ok, _ = _check_cli_reconstruct(run, rt, case, child)
    lines = child["stderr"].strip().splitlines()
    return {
        "case": case["name"],
        "op": op,
        "exit": child["rc"],
        "passes_gate": ok,
        "error": lines[-1] if lines else "",
    }


def _worker(args, workdir):
    spawn = str(time.monotonic_ns())
    child = run_child([str(HERE / "worker.py"), "inproc", *args[:2], spawn, *args[2:]], workdir)
    if child["rc"] != 0:
        raise BenchError(f"worker failed (exit {child['rc']}): {child['stderr'].strip()[-2000:]}")
    return child


def run_inproc_workload(run, rt, seed, seconds, workdir):
    manifest = inproc_manifest(rt, run.workload, seed, workdir)
    result_path = workdir / "worker.json"
    if run.trace:
        segments = [["0", "--trace-passes", str(TRACE_PASSES[run.workload])]]
    else:
        # The run is split over fresh workers, one after another, so that their
        # set-ups sample the whole run; each works until the end of its share of
        # the run, set-up included.  Passes keep their numbers across workers,
        # and with them their noise seeds.
        start, share = time.monotonic_ns(), seconds * 1e9 / INPROC_SEGMENTS
        segments = [[str(start + int(share * (k + 1)))] for k in range(INPROC_SEGMENTS)]
    for extra in segments:
        child = _worker([str(manifest), str(result_path), *extra, "--first-pass",
                         str(len(run.passes))], workdir)
        run.maxrss_kb.append(child["maxrss_kb"])
        collect_worker(run, json.loads(result_path.read_text()))
    if run.workload == "bootstrap":
        hits, total = run.coverage
        if not total or hits / total < COVERAGE_MIN:
            run.errors.append(f"bootstrap coverage {hits}/{total} below {COVERAGE_MIN:.0%} within 5 SE")


def collect_worker(run, out):
    """Add one in-process worker's ops, checks and set-up time to the run."""
    if not run.trace:
        run.setup_ns.append(out["setup_ns"])
        run.setup_probe_ns.append(out["setup_probe_ns"])
        run.probe_ns.extend(out["probe_ns"])
    for pass_no, case, sim_ns, rec_ns, ok in out["ops"]:
        run.attempted += 1
        run.failed += not ok
        if pass_no == "setup" or run.trace:
            continue
        if len(run.passes) <= pass_no:
            run.passes.append({})
        totals = run.passes[pass_no]
        for key, ns in ((f"simulate {case}", sim_ns), (f"reconstruct {case}", rec_ns)):
            totals[key] = totals.get(key, 0) + ns
        run.op_ns.setdefault(f"simulate {case}", []).append(sim_ns)
        run.op_ns.setdefault(f"reconstruct {case}", []).append(rec_ns)
        run.op_ns.setdefault(f"op {case}", []).append(sim_ns + rec_ns)
    run.failures.extend(out["failures"][: 20 - len(run.failures)])
    for case, rec in out["checks"].items():
        run.record_check(case, rec["max_err"], rec["residual"])
    hits, total = out["coverage"]
    run.coverage = (run.coverage[0] + hits, run.coverage[1] + total)
    if run.trace:
        run.trace_sources.append({"trace": out["trace"], "op_walls": out["op_walls"]})
        run.pass_walls = out["pass_walls"]


# --------------------------------------------------------------------------- metrics


def pass_sum(totals: dict, op: str) -> int:
    """Summed time of one pass's ``op`` ops ("simulate" or "reconstruct"), in ns."""
    return sum(ns for key, ns in totals.items() if key.startswith(op + " "))


def fastest(run, op: str) -> int:
    """Summed over cases, each case's ``op`` time in its fastest pass, in ns."""
    keys = {key for totals in run.passes for key in totals if key.startswith(op + " ")}
    return sum(min(totals[key] for totals in run.passes) for key in keys)


def end_to_end(run) -> dict:
    if not run.passes:
        raise BenchError("no complete pass in the timed loop")
    # The machines this was sized on are shared: other tenants' load slows all
    # work by up to ~1.8x for 2-60 s at a time, sometimes for a whole run.
    # Contention only adds time, and every pass (and every set-up) does the
    # same work (README.md, "Spread").  In-process runs have hundreds of
    # passes, and their fastest is the steadiest; CLI runs have under ten,
    # too few for the fastest to be steady, so they report the mean pass.  A
    # run that is slow from end to end still reads slow, so every timing is
    # scaled to the nominal machine speed by the SpeedProbe (README.md,
    # "Machine speed"): pass times by its fastest time over the run, and each
    # in-process set-up by its fastest time right after that set-up.
    n_recon = sum(len(v) for k, v in run.op_ns.items() if k.startswith("reconstruct "))
    factor = speed_factor(run.probe_ns)
    if run.workload.startswith("cli-"):
        recon = statistics.fmean(pass_sum(p, "reconstruct") for p in run.passes)
        sim = statistics.fmean(pass_sum(p, "simulate") for p in run.passes)
        setup = statistics.median(run.setup_ns) * factor
    else:
        recon = fastest(run, "reconstruct")
        sim = fastest(run, "simulate")
        setup = statistics.median(
            ns * speed_factor([probe]) for ns, probe in zip(run.setup_ns, run.setup_probe_ns)
        )
    run.wall = {"setup_s": statistics.median(run.setup_ns) / 1e9,
                "reconstruct_s": recon / 1e9, "simulate_s": sim / 1e9}
    recon_s, sim_s = recon * factor / 1e9, sim * factor / 1e9
    return {
        "setup_s": {"value": setup / 1e9, "unit": "s"},
        "reconstruct_s": {"value": recon_s, "unit": "s"},
        "simulate_s": {"value": sim_s, "unit": "s"},
        "recon_per_s": {"value": n_recon / len(run.passes) / recon_s, "unit": "1/s"},
        "peak_rss_mb": {"value": max(run.maxrss_kb) / 1024.0, "unit": "MB"},
    }


def _count_unit(name: str) -> str:
    return "bytes" if name.endswith(".bytes") else "count"


def per_layer_names() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in output order."""
    out = []
    for layer, func, _ in TRACED:
        name = span_name(layer, func)
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out += [(name, _count_unit(name), "lower") for name in EXTRA_COUNTS]
    out.append(("angular.assoc_legendre_norm.useful_row_share", "ratio", "higher"))
    out.append(("trace.overhead", "ratio", "lower"))
    out.append(("trace.uncovered_share", "ratio", "lower"))
    return out


def per_layer(run) -> tuple[dict, dict]:
    calls: dict = {}
    self_ns: dict = {}
    counts: dict = {}
    absent: set = set()
    wall_total = covered_total = 0
    for source in run.trace_sources:
        trace = source["trace"]
        absent.update(trace["absent"])
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        by_name, covered = span_stats(trace["spans"])
        for name, entry in by_name.items():
            calls[name] = calls.get(name, 0) + entry["calls"]
            self_ns[name] = self_ns.get(name, 0) + entry["self_ns"]
        for op, wall in source["op_walls"].items():
            wall_total += wall
            covered_total += covered.get(op, 0)
    metrics = {}
    notes = {"absent": sorted(absent), "idle": []}
    for layer, func, workloads in TRACED:
        name = span_name(layer, func)
        n = calls.get(name, 0)
        if n == 0 and name not in absent:
            if run.workload in workloads:
                run.errors.append(f"trace coverage: {name} recorded no call on {run.workload}")
            else:
                notes["idle"].append(name)
        metrics[f"{name}.calls"] = {"value": n, "unit": "count"}
        metrics[f"{name}.self_s"] = {"value": self_ns.get(name, 0) / 1e9, "unit": "s"}
    for name in EXTRA_COUNTS:
        metrics[name] = {"value": counts.get(name, 0), "unit": _count_unit(name)}
    rows = counts.get("angular.assoc_legendre_norm.rows", 0)
    share = calls.get("angular.assoc_legendre_norm", 0) / rows if rows else 0.0
    metrics["angular.assoc_legendre_norm.useful_row_share"] = {"value": share, "unit": "ratio"}
    untraced, traced = run.pass_walls["untraced"], run.pass_walls["traced"]
    metrics["trace.overhead"] = {"value": sum(traced) / sum(untraced), "unit": "ratio"}
    uncovered = (wall_total - covered_total) / wall_total if wall_total else 0.0
    metrics["trace.uncovered_share"] = {"value": uncovered, "unit": "ratio"}
    return metrics, notes


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "commit": _commit(),
    }


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def summarize(run, metrics, notes, seed) -> None:
    print(f"workload {run.workload}  seed {seed}  trace {int(run.trace)}  "
          "closed loop, one caller, one op at a time")
    env = environment()
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in metrics.items():
        print(f"  {name:48s} {metric['value']:.6g} {metric['unit']}")
    if not run.trace:
        if run.workload == "bootstrap":
            ops = run.op_ns[f"op {next(iter(BOOTSTRAP_CASES))}"]
            trial_ns = min(sum(p.values()) for p in run.passes)
            rate = len(ops) / len(run.passes) / (trial_ns * speed_factor(run.probe_ns) / 1e9)
            print(f"  {'bootstrap_per_s':48s} {rate:.6g} 1/s  "
                  "(resample-and-reconstruct ops, fastest trial)")
        passes = len(run.passes)
        stat = "the mean pass" if run.workload.startswith("cli-") else "each case's fastest pass"
        print(f"timed passes: {passes}; reconstruct_s and simulate_s are from {stat}")
        print(f"machine speed: fastest probe {min(run.probe_ns) / 1e6:.4g} ms, nominal "
              f"{PROBE_NOMINAL_NS / 1e6:.4g} ms; timings above are scaled by "
              f"{speed_factor(run.probe_ns):.4f}; as measured: "
              + " ".join(f"{k}={v:.6g} s" for k, v in run.wall.items()))
        for key, samples in sorted(run.op_ns.items()):
            print(f"  latency {key:40s} {format_distribution(distribution(samples), 1e-6, 'ms')}")
        print(f"  setup   {'':40s} {format_distribution(distribution(run.setup_ns), 1e-9, 's')}")
        print(f"  probe   {'':40s} {format_distribution(distribution(run.probe_ns), 1e-6, 'ms')}")
    else:
        print("waiting time: none -- one thread, one caller and no queues, so no layer waits")
        if notes["absent"]:
            print("absent (no longer in the package): " + ", ".join(notes["absent"]))
        if notes["idle"]:
            print("not called on this workload: " + ", ".join(notes["idle"]))
    for case, rec in sorted(run.checks.items()):
        print(f"  case {case:24s} max_err {rec['max_err']:.3e}  residual {rec['residual']:.3e}")
    if run.workload == "bootstrap":
        hits, total = run.coverage
        print(f"  coverage {hits}/{total} elements within {COVERAGE_SE:g} SE")
    for known in run.known_failures:
        print(f"  known failure {known['case']} {known['op']}: exit {known['exit']} {known['error']}")
    for line in run.failures + run.errors:
        print(f"  FAILED: {line}")
    detail = {
        "workload": run.workload,
        "seed": seed,
        "trace": run.trace,
        "environment": env,
        "passes": len(run.passes),
        "distributions_ns": {k: distribution(v) for k, v in run.op_ns.items()},
        "setup_ns": distribution(run.setup_ns),
        "setup_samples": {"setup_ns": run.setup_ns, "probe_ns": run.setup_probe_ns},
        "probe_ns": distribution(run.probe_ns),
        "speed_factor": speed_factor(run.probe_ns) if run.probe_ns else None,
        "wall_s": run.wall,
        "pass_ns": {
            op: distribution([pass_sum(p, op) for p in run.passes])
            for op in ("simulate", "reconstruct")
        } if run.passes else {},
        "checks": run.checks,
        "known_failures": run.known_failures,
        "failures": run.failures,
        "errors": run.errors,
        "notes": notes,
    }
    print("# detail " + json.dumps(detail))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rt = _import_program()
    except (BenchError, ImportError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC / "rotortomo"), quiet=1)

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(args.workload, bool(args.trace))
    try:
        if args.workload.startswith("cli-"):
            run_cli_workload(run, rt, args.seed, args.seconds, workdir)
        else:
            run_inproc_workload(run, rt, args.seed, args.seconds, workdir)
        if run.trace:
            metrics, notes = per_layer(run)
        else:
            metrics, notes = end_to_end(run), {}
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    summarize(run, metrics, notes, args.seed)
    correct = run.failed == 0 and not run.errors
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
