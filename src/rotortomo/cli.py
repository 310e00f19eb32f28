"""Command-line workbench around the simulator and the reconstruction engine.

Four subcommands share one YAML config:

* ``simulate``    evolve a stored block, write Pr(x, t) as CSV
* ``reconstruct`` invert a Pr(x, t) CSV back into a block, write a report
* ``coeffs``      tabulate the block's product-basis coefficients c_L
* ``roundtrip``   simulate a seeded reference state, reconstruct, compare

Exit codes: 0 success, 1 a requested error threshold was exceeded,
2 invalid input (config, file format, channel mismatch, or sampling).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .angular import coefficient_table, gauss_legendre_grid
from .fileio import (
    ExperimentConfig,
    FileFormatError,
    load_block,
    load_config,
    load_grid,
    save_block,
    save_grid,
)
from .rotor import add_shot_noise, make_test_state, simulate_pr
from .tomography import (
    ReconstructionResult,
    SamplingError,
    SamplingPlan,
    reconstruct_block,
)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_INVALID = 2


def _resolve(flag_value: str | None, cfg: ExperimentConfig, key: str) -> Path:
    path = flag_value or cfg.paths.get(key)
    if path is None:
        raise FileFormatError(f"no {key} file: pass --{key} or set paths.{key} in the config")
    return Path(path)


def _load_state(args, cfg: ExperimentConfig):
    block = load_block(_resolve(args.state, cfg, "state"))
    if (block.k, block.m) != (cfg.spec.k, cfg.spec.m):
        raise FileFormatError(
            f"state channel (k={block.k}, m={block.m}) does not match config "
            f"channel (k={cfg.spec.k}, m={cfg.spec.m})"
        )
    if block.j_max > cfg.j_max:
        raise FileFormatError(f"state j_max={block.j_max} exceeds config j_max={cfg.j_max}")
    return block


def _simulate(cfg: ExperimentConfig, plan: SamplingPlan, block, seed: int | None):
    grid = simulate_pr(
        block, cfg.spec, gauss_legendre_grid(plan.n_x), plan.n_t, cfg.n_periods
    )
    if cfg.noise.samples_per_time:
        noise_seed = seed if seed is not None else cfg.noise.seed
        grid = add_shot_noise(grid, cfg.noise.samples_per_time, noise_seed)
    return grid


def _write_alignment(grid, path: Path) -> None:
    lines = ["# t, cos2_theta"]
    for t, a in zip(grid.times, grid.alignment_trace()):
        lines.append(f"{t:.17g}, {a:.17g}")
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    # size the grids for the config's j_max, and reject one they cannot carry, before the read
    plan = SamplingPlan.derive(cfg.spec, cfg.j_max, cfg.n_periods, cfg.n_t, cfg.n_x)
    block = _load_state(args, cfg)
    grid = _simulate(cfg, plan, block, args.seed)
    data_path = _resolve(args.data, cfg, "data")
    save_grid(grid, data_path)
    print(
        f"simulated kind={cfg.spec.kind.value} k={cfg.spec.k} m={cfg.spec.m} "
        f"j_max={cfg.j_max}: n_t={grid.n_t} n_x={grid.n_x} n_periods={grid.n_periods}"
    )
    print(f"trace = {block.trace():.12g}, period T = {grid.period:.12g}")
    if cfg.noise.samples_per_time:
        print(f"shot noise: {cfg.noise.samples_per_time} samples per time slice")
    print(f"wrote {data_path}")
    align = cfg.paths.get("alignment")
    if align:
        _write_alignment(grid, Path(align))
        print(f"wrote {align}")
    return EXIT_OK


def _pairs_str(pairs) -> str:
    return " ".join(f"({s},{d:+d})" for s, d in pairs) if pairs else "-"


def _render_report(result: ReconstructionResult, cfg: ExperimentConfig) -> str:
    block = result.block
    plan = result.diagnostics["plan"]
    lines = [
        "reconstruction report",
        f"channel: kind={cfg.spec.kind.value} k={block.k} m={block.m} j_max={block.j_max}",
        f"method: {result.method}",
        f"operator: {result.diagnostics['n_unknowns']} unknowns, "
        f"{result.diagnostics['n_rows']} rows, cond {result.diagnostics['cond']:.6g}",
        f"trace: {block.trace():.12g}",
        f"min eigenvalue: {block.min_eigenvalue():.6g}",
        f"residual sup norm: {result.residual_inf:.6g}",
        f"sampling: n_t={plan.n_t} n_x={plan.n_x} n_periods={plan.n_periods} "
        f"tau_max={plan.tau_max} alpha_max={plan.alpha_max}",
    ]
    if result.flags:
        lines.append(
            f"flagged elements: {len(result.flags)} "
            "(chain members outside the block were taken as zero)"
        )
    lines += ["", "(J1, J2)  value  |  chain members (S, dJ)  |  neglected"]
    for j1 in block.j_values:
        for j2 in range(block.j_min, j1 + 1):
            val = block.element(j1, j2)
            chain = result.chains.get((j1, j2), [])
            negl = result.flags.get((j1, j2), [])
            lines.append(
                f"({j1}, {j2})  {val.real:+.12e} {val.imag:+.12e}j  |  "
                f"{_pairs_str(chain)}  |  {_pairs_str(negl)}"
            )
    return "\n".join(lines) + "\n"


def cmd_reconstruct(args) -> int:
    cfg = load_config(args.config)
    grid = load_grid(_resolve(args.data, cfg, "data"))
    result = reconstruct_block(grid, cfg.spec, cfg.j_max)
    out_path = _resolve(args.out, cfg, "out")
    save_block(result.block, out_path)
    report_path = Path(cfg.paths.get("report", f"{out_path}.report.txt"))
    report_path.write_text(_render_report(result, cfg))
    print(f"reconstructed j_max={cfg.j_max} block via {result.method}")
    print(
        f"trace = {result.block.trace():.12g}, "
        f"residual sup norm = {result.residual_inf:.6g}, "
        f"flagged elements = {len(result.flags)}"
    )
    print(f"wrote {out_path}")
    print(f"wrote {report_path}")
    threshold = _gate(args, cfg)
    if threshold and result.residual_inf > threshold:
        print(f"FAIL: residual {result.residual_inf:.6g} exceeds threshold {threshold:.6g}")
        return EXIT_THRESHOLD
    return EXIT_OK


def cmd_coeffs(args) -> int:
    cfg = load_config(args.config)
    m_min = cfg.spec.m_min
    tensor = coefficient_table(cfg.spec.k, cfg.spec.m, cfg.j_max)
    # the non-zero entries J2 <= J1, by S = J1 + J2, then dJ = J1 - J2, then L
    a, b, L = np.nonzero(np.where(np.tri(len(tensor), dtype=bool)[:, :, None], tensor, 0.0))
    j1, j2 = a + m_min, b + m_min
    order = np.lexsort((L, j1 - j2, j1 + j2))
    lines = [f"# c_L for channel k={cfg.spec.k} m={cfg.spec.m}, pairs J2 <= J1 <= {cfg.j_max}"]
    lines.append("# S, dJ, J1, J2, L, c")
    for u, v, l_, c in zip(*(x[order].tolist() for x in (j1, j2, L, tensor[a, b, L]))):
        lines.append(f"{u + v}, {u - v}, {u}, {v}, {l_}, {c:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({len(lines) - 2} rows)")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.noise.seed
    # reject a block the grids cannot carry before its state is built
    plan = SamplingPlan.derive(cfg.spec, cfg.j_max, cfg.n_periods, cfg.n_t, cfg.n_x)
    truth = make_test_state(
        cfg.state_kind,
        cfg.spec.k,
        cfg.spec.m,
        cfg.j_max,
        seed=seed,
        kick_strength=cfg.kick_strength,
    )
    grid = _simulate(cfg, plan, truth, seed)
    result = reconstruct_block(grid, cfg.spec, cfg.j_max)
    err = float(np.max(np.abs(result.block.elements - truth.elements)))
    trace_err = abs(result.block.trace() - truth.trace())
    threshold = _gate(args, cfg, unset=1e-8)
    passed = not threshold or err <= threshold

    elements = []
    js = truth.j_values
    for a, j1 in enumerate(js):
        for b in range(a, len(js)):
            rec, tru = result.block.elements[b, a], truth.elements[b, a]
            elements.append(
                [int(js[b]), int(j1), rec.real, rec.imag, tru.real, tru.imag,
                 abs(rec - tru)]
            )
    metrics = {
        "kind": cfg.spec.kind.value,
        "k": cfg.spec.k,
        "m": cfg.spec.m,
        "j_max": cfg.j_max,
        "state_kind": cfg.state_kind,
        "seed": seed,
        "samples_per_time": cfg.noise.samples_per_time,
        "n_t": grid.n_t,
        "n_x": grid.n_x,
        "n_periods": grid.n_periods,
        "method": result.method,
        "max_abs_error": err,
        "residual_sup_norm": result.residual_inf,
        "trace_error": trace_err,
        "threshold": threshold,
        "passed": passed,
        "flags": {f"{j1},{j2}": pairs for (j1, j2), pairs in result.flags.items()},
        "elements": elements,
    }
    out_path = Path(args.out or cfg.paths.get("metrics", "roundtrip_metrics.json"))
    out_path.write_text(json.dumps(metrics, indent=1) + "\n")
    print(
        f"roundtrip kind={cfg.spec.kind.value} k={cfg.spec.k} m={cfg.spec.m} "
        f"j_max={cfg.j_max} state={cfg.state_kind} seed={seed}"
    )
    print(
        f"max |error| = {err:.6g}, residual sup norm = {result.residual_inf:.6g}, "
        f"trace error = {trace_err:.6g}"
    )
    print(f"wrote {out_path}")
    print(f"{'PASS' if passed else 'FAIL'}: threshold {threshold:.6g}")
    return EXIT_OK if passed else EXIT_THRESHOLD


def _gate(args, cfg: ExperimentConfig, unset: float = 0.0) -> float:
    """The error gate: --threshold, else the config's, else ``unset``; 0 is no gate."""
    if args.threshold is not None:
        return args.threshold
    return unset if cfg.threshold is None else cfg.threshold


def _threshold(text: str) -> float:
    """A --threshold value: a finite number >= 0, as the config's threshold."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotortomo",
        description=(
            "Workbench for rotational density-matrix blocks: forward simulation "
            "of Pr(x, t) and tomographic reconstruction from it."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str, func) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True, help="YAML run config")
        p.set_defaults(func=func)
        return p

    seed = {"type": int, "help": "override the config seed"}
    threshold = {"type": _threshold, "help": "override the config error gate"}

    p = add("simulate", "evolve a stored block and write Pr(x, t) CSV", cmd_simulate)
    p.add_argument("--state", help="input block JSON (default: paths.state)")
    p.add_argument("--data", help="output CSV (default: paths.data)")
    p.add_argument("--seed", **seed)

    p = add("reconstruct", "invert a Pr(x, t) CSV into a block JSON + report", cmd_reconstruct)
    p.add_argument("--data", help="input CSV (default: paths.data)")
    p.add_argument("--out", help="output block JSON (default: paths.out)")
    p.add_argument("--threshold", **threshold)

    p = add("coeffs", "tabulate the block's non-zero c_L coefficients", cmd_coeffs)
    p.add_argument("--out", help="write the table to this file instead of stdout")

    p = add("roundtrip", "simulate a seeded state, reconstruct it, compare", cmd_roundtrip)
    p.add_argument("--out", help="metrics JSON (default: paths.metrics)")
    p.add_argument("--seed", **seed)
    p.add_argument("--threshold", **threshold)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SamplingError as exc:
        print(f"sampling error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
