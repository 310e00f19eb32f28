"""Child process of the benchmark: in-process workloads and traced CLI calls.

    worker.py inproc MANIFEST OUT SPAWN_NS DEADLINE_NS [--first-pass N] [--trace-passes P]
    worker.py cli SPANS OP_ID -- <rotortomo CLI arguments>

``inproc`` imports rotortomo, warms it up with one untimed op per case and
reports how long that took from process start (SPAWN_NS, the parent's
``time.monotonic_ns()`` just before it started this process, which Linux
shares between processes).  It then runs passes, numbered from N, until
``time.monotonic_ns()`` reaches DEADLINE_NS (at least one pass), or with
``--trace-passes`` a fixed number of untraced and then traced passes.
Untraced, it also times the SpeedProbe (common.py) 10 times right after
set-up and once after every pass, so that run.py can scale its timings to
the nominal machine speed.
``cli`` runs one ``rotortomo`` command with the tracer installed.  Both write
their results as JSON; rotortomo must be importable (run.py sets
PYTHONPATH to the checkout's ``src``).
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import numpy as np

from common import RESIDUAL, SpeedProbe, derive_seed

clock = time.perf_counter_ns
SETUP_PROBES = 10  # SpeedProbe runs right after set-up, to gauge the machine's speed then


def _load_cases(manifest, rt):
    cases = []
    for case in manifest["cases"]:
        spec = rt.RotorSpec(**case["spec"])
        elements = [[complex(re, im) for re, im in row] for row in case["truth"]]
        truth = rt.DensityBlock(k=spec.k, m=spec.m, j_max=case["j_max"], elements=elements)
        cases.append({**case, "spec_obj": spec, "truth_obj": truth})
    return cases


class InProc:
    """State and ops of the warm-cli, bootstrap and warm-sweep workloads."""

    def __init__(self, manifest, rt):
        self.rt = rt
        self.workload = manifest["workload"]
        self.seed = manifest["seed"]
        self.cases = _load_cases(manifest, rt)
        self.max_err = {c["name"]: c["max_err"] for c in manifest["cases"]}
        self.max_residual = manifest["max_residual"]
        self.bootstrap = manifest.get("bootstrap")
        self.ops: list[list] = []  # [pass, case, simulate_ns, reconstruct_ns, ok]
        self.checks: dict = {}
        self.failures: list[str] = []
        self.tracer = None
        self.op_walls: dict = {}
        self.coverage = [0, 0]  # hits, checks
        self.cli = None  # rotortomo.cli on warm-cli
        self.load_block = rt.load_block  # the checks' own reads stay out of the trace

    def _record(self, name, err, res) -> bool:
        rec = self.checks.setdefault(name, {"max_err": 0.0, "residual": 0.0})
        rec["max_err"] = max(rec["max_err"], err)
        rec["residual"] = max(rec["residual"], res)
        ok = err < self.max_err[name] and res < self.max_residual
        if not ok and len(self.failures) < 20:
            self.failures.append(f"{name}: max_err {err:.3g} residual {res:.3g}")
        return ok

    def _check(self, name, result, truth) -> bool:
        """Noise-free data: the block must match the truth and the data its resimulation."""
        err = float(np.abs(result.block.elements - truth.elements).max())
        return self._record(name, err, float(result.residual_inf))

    def _begin(self, op_id):
        if self.tracer is not None:
            self.tracer.op = op_id
        return clock()

    def _end(self, op_id, start):
        end = clock()
        if self.tracer is not None:
            self.op_walls[op_id] = end - start
        return end

    def setup(self):
        """One untimed simulate-and-reconstruct per case: grids, tables and caches warm up."""
        rt = self.rt
        for i, case in enumerate(self.cases):
            op_id = f"setup:{i}"
            if self.cli is not None:
                *_, ok = self._cli_case(op_id, case)
                self.ops.append(["setup", case["name"], 0, 0, ok])
                continue
            start = self._begin(op_id)
            case["x_grid"] = rt.gauss_legendre_grid(case["n_x"])
            grid = rt.simulate_pr(
                case["truth_obj"], case["spec_obj"], case["x_grid"], case["n_t"], case["n_periods"]
            )
            result = rt.reconstruct_block(grid, case["spec_obj"], case["j_max"])
            self._end(op_id, start)
            case["exact"] = grid
            ok = self._check(case["name"], result, case["truth_obj"])
            self.ops.append(["setup", case["name"], 0, 0, ok])

    def run_pass(self, pass_no):
        if self.workload == "bootstrap":
            self._bootstrap_trial(pass_no)
        elif self.cli is not None:
            for i, case in enumerate(self.cases):
                sim_ns, rec_ns, ok = self._cli_case(f"{pass_no}:{i}", case)
                self.ops.append([pass_no, case["name"], sim_ns, rec_ns, ok])
        else:
            self._sweep_round(pass_no)

    def _cli_case(self, op_id, case):
        """`rotortomo simulate` then `rotortomo reconstruct` of one case, in this process."""
        main, config = self.cli.main, ["--config", case["config"]]
        t0 = self._begin(op_id)
        with contextlib.redirect_stdout(io.StringIO()):
            sim_rc = main(["simulate", *config])
        t1 = clock()
        with contextlib.redirect_stdout(io.StringIO()) as out:
            rec_rc = main(["reconstruct", *config])
        t2 = self._end(op_id, t0)
        match = RESIDUAL.search(out.getvalue())
        if sim_rc != 0 or rec_rc != 0 or match is None:
            if len(self.failures) < 20:
                self.failures.append(f"{case['name']}: exit {sim_rc}/{rec_rc}, {out.getvalue()!r}")
            return t1 - t0, t2 - t1, False
        block = self.load_block(case["out"])
        err = float(np.abs(block.elements - case["truth_obj"].elements).max())
        return t1 - t0, t2 - t1, self._record(case["name"], err, float(match.group(1)))

    def _sweep_round(self, pass_no):
        rt = self.rt
        for i, case in enumerate(self.cases):
            op_id = f"{pass_no}:{i}"
            t0 = self._begin(op_id)
            grid = rt.simulate_pr(
                case["truth_obj"], case["spec_obj"], case["x_grid"], case["n_t"], case["n_periods"]
            )
            t1 = clock()
            result = rt.reconstruct_block(grid, case["spec_obj"], case["j_max"])
            t2 = self._end(op_id, t0)
            ok = self._check(case["name"], result, case["truth_obj"])
            self.ops.append([pass_no, case["name"], t1 - t0, t2 - t1, ok])

    def _bootstrap_trial(self, trial):
        """Criterion 8's shape: one noisy draw, 40 resamples of it, each reconstructed."""
        rt, boot = self.rt, self.bootstrap
        case = self.cases[0]
        spec, j_max = case["spec_obj"], case["j_max"]
        samples = boot["samples"]
        seeds = [derive_seed(self.seed, trial, b) for b in range(boot["resamples"] + 1)]
        boots = []
        rec = None
        for b, noise_seed in enumerate(seeds):
            source = case["exact"] if b == 0 else noisy
            op_id = f"{trial}:{b}"
            t0 = self._begin(op_id)
            drawn = rt.add_shot_noise(source, samples, noise_seed)
            t1 = clock()
            result = rt.reconstruct_block(drawn, spec, j_max)
            t2 = self._end(op_id, t0)
            ok = bool(np.isfinite(result.block.elements).all())
            if not ok and len(self.failures) < 20:
                self.failures.append(f"{case['name']} trial {trial}: non-finite block")
            self.ops.append([trial, case["name"], t1 - t0, t2 - t1, ok])
            if b == 0:
                noisy, rec = drawn, result.block.elements
            else:
                boots.append(result.block.elements)
        boots = np.array(boots)
        se = np.sqrt(np.var(boots.real, axis=0) + np.var(boots.imag, axis=0))
        truth = case["truth_obj"].elements
        big = np.abs(truth) > boot["element_min"]
        hits = np.abs(rec - truth)[big] <= boot["se"] * se[big]
        self.coverage[0] += int(hits.sum())
        self.coverage[1] += int(hits.size)


def run_inproc(argv) -> int:
    manifest_path, out_path, spawn_ns, deadline_ns = argv[:4]
    first_pass = int(argv[argv.index("--first-pass") + 1]) if "--first-pass" in argv else 0
    trace_passes = int(argv[argv.index("--trace-passes") + 1]) if "--trace-passes" in argv else 0

    import rotortomo as rt

    load_start = time.monotonic_ns()
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    state = InProc(manifest, rt)
    load_ns = time.monotonic_ns() - load_start
    if state.workload == "warm-cli":
        import rotortomo.cli

        state.cli = rotortomo.cli

    tracer = None
    if trace_passes:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        state.tracer = tracer
    state.setup()
    if tracer is not None:
        tracer.uninstall()
        state.tracer = None
    setup_ns = time.monotonic_ns() - int(spawn_ns) - load_ns

    out = {"setup_ns": setup_ns, "load_ns": load_ns}
    pass_walls: dict = {"untraced": [], "traced": []}
    if trace_passes:
        for pass_no in range(trace_passes):
            start = clock()
            state.run_pass(pass_no)
            pass_walls["untraced"].append(clock() - start)
        tracer.install()
        state.tracer = tracer
        for pass_no in range(trace_passes, 2 * trace_passes):
            start = clock()
            state.run_pass(pass_no)
            pass_walls["traced"].append(clock() - start)
        tracer.uninstall()
    else:
        probe = SpeedProbe()
        out["setup_probe_ns"] = min(probe.run() for _ in range(SETUP_PROBES))
        probe.samples.clear()
        pass_no = first_pass
        while pass_no == first_pass or time.monotonic_ns() < int(deadline_ns):
            state.run_pass(pass_no)
            probe.run()
            pass_no += 1
        out["probe_ns"] = probe.samples
    out.update(
        ops=state.ops,
        checks=state.checks,
        failures=state.failures,
        coverage=state.coverage,
        pass_walls=pass_walls,
    )
    if tracer is not None:
        out["trace"] = tracer.to_json()
        out["op_walls"] = state.op_walls
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


def run_cli(argv) -> int:
    spans_path, op_id = argv[0], argv[1]
    cli_args = argv[argv.index("--") + 1:]

    import rotortomo.cli
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = op_id
    try:
        code = rotortomo.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    sys.exit(run_inproc(rest) if mode == "inproc" else run_cli(rest))
