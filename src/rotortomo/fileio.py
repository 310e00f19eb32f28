"""Disk formats: density blocks (JSON), measurement grids (CSV), run configs (YAML).

Blocks store the upper triangle only and are completed Hermitianly on load.
They are written by one %-format whose text is byte for byte
``json.dumps(payload, indent=1)``.  Grids store one row per (t, x) sample
with the quadrature weight alongside, so a file is self-contained: header
metadata plus rows rebuild the exact measurement object (floats are written
with %.17g and survive the round trip bit for bit).  The writer formats t
once per time slice and x, w once per node, and the whole body in one
%-format.  The reader checks each block of lines against that same
`t, x, w, ` prefix text in one call and parses only the pr column; a file
that fails the check is read line by line, and that scan names the faulty
line.  Configs are YAML with a fixed key set; anything unknown or ill-typed
is rejected with a message naming the offending field.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .angular import J_CAP, N_X_CAP, QuadratureGrid, gauss_legendre_grid
from .rotor import DensityBlock, MeasurementGrid, RotorSpec, rotor_kind


class FileFormatError(ValueError):
    """A data or config file failed structural validation."""


# ---------------------------------------------------------------------------
# density blocks (JSON)


def save_block(block: DensityBlock, path: str | Path) -> None:
    """Write a block as JSON: channel labels plus upper-triangle entries.

    The text is byte for byte ``json.dumps(payload, indent=1)`` with the
    entries ``[J1, J2, re, im]`` in row-major upper-triangle order.  It is
    written by one %-format, ints with ``%d`` and floats with ``%r``: the
    reprs json uses, without json's pure-Python ``indent`` encoder.  Block
    elements are finite, so json's ``NaN``/``Infinity`` never arise.
    """
    rows, cols = np.triu_indices(block.elements.shape[0])
    values = block.elements[rows, cols]
    args = [None] * (4 * len(values))
    args[0::4] = (rows + block.j_min).tolist()
    args[1::4] = (cols + block.j_min).tolist()
    args[2::4] = values.real.tolist()
    args[3::4] = values.imag.tolist()
    entries = ",\n".join(["  [\n   %d,\n   %d,\n   %r,\n   %r\n  ]"] * len(values))
    Path(path).write_text(
        f'{{\n "k": {block.k},\n "m": {block.m},\n "j_max": {block.j_max},\n'
        f' "entries": [\n{entries % tuple(args)}\n ]\n}}\n'
    )


def load_block(path: str | Path) -> DensityBlock:
    """Read a block written by :func:`save_block`, completing the lower triangle.

    Entries may be sparse (missing pairs are zero) but must stay in the upper
    triangle and inside the channel's J range.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FileFormatError(f"{path}: top level must be an object")
    for key in ("k", "m", "j_max", "entries"):
        if key not in payload:
            raise FileFormatError(f"{path}: missing key '{key}'")
    extra = set(payload) - {"k", "m", "j_max", "entries"}
    if extra:
        raise FileFormatError(f"{path}: unknown key '{sorted(extra)[0]}'")
    k, m, j_max = payload["k"], payload["m"], payload["j_max"]
    for name, val in (("k", k), ("m", m), ("j_max", j_max)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise FileFormatError(f"{path}: '{name}' must be an integer, got {val!r}")
    j_min = max(abs(k), abs(m))
    if j_max < j_min:
        raise FileFormatError(f"{path}: j_max={j_max} below channel minimum J={j_min}")
    if j_max > J_CAP:
        raise FileFormatError(f"{path}: j_max={j_max} above the supported J={J_CAP}")
    if not isinstance(payload["entries"], list):
        raise FileFormatError(f"{path}: 'entries' must be a list, got {payload['entries']!r}")
    n = j_max - j_min + 1
    mat = np.zeros((n, n), dtype=complex)
    seen = set()
    for i, entry in enumerate(payload["entries"]):
        if not (isinstance(entry, list) and len(entry) == 4):
            raise FileFormatError(f"{path}: entries[{i}] must be [J1, J2, re, im]")
        j1, j2, re_, im_ = entry
        if not all(isinstance(j, int) and not isinstance(j, bool) for j in (j1, j2)):
            raise FileFormatError(f"{path}: entries[{i}] J labels must be integers")
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (re_, im_)):
            raise FileFormatError(f"{path}: entries[{i}] values must be numbers")
        if not all(abs(v) <= sys.float_info.max for v in (re_, im_)):
            raise FileFormatError(f"{path}: entries[{i}] values must be finite")
        if not (j_min <= j1 <= j2 <= j_max):
            raise FileFormatError(
                f"{path}: entries[{i}] pair ({j1}, {j2}) outside upper triangle "
                f"of J range [{j_min}, {j_max}]"
            )
        if (j1, j2) in seen:
            raise FileFormatError(f"{path}: duplicate entry for pair ({j1}, {j2})")
        seen.add((j1, j2))
        a, b = j1 - j_min, j2 - j_min
        mat[a, b] = complex(re_, im_)
        if a != b:
            mat[b, a] = mat[a, b].conjugate()
    try:
        return DensityBlock(k=k, m=m, j_max=j_max, elements=mat)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# measurement grids (CSV)

_GRID_HEADER = re.compile(
    r"^#\s*omega=(?P<omega>[^,\s]+), kind=(?P<kind>[^,\s]+), k=(?P<k>-?\d+), "
    r"m=(?P<m>-?\d+), n_t=(?P<n_t>\d+), n_x=(?P<n_x>\d+), n_periods=(?P<n_periods>\d+)\s*$"
)


def _row_prefixes(times: np.ndarray, x_grid: QuadratureGrid) -> tuple[list[str], list[str]]:
    """The `t, ` text of each time slice and the `x, w, ` text of each node."""
    t_text = [f"{t:.17g}, " for t in times.tolist()]
    xw_text = [
        f"{x:.17g}, {w:.17g}, " for x, w in zip(x_grid.nodes.tolist(), x_grid.weights.tolist())
    ]
    return t_text, xw_text


def save_grid(grid: MeasurementGrid, path: str | Path) -> None:
    """Write Pr(x, t) as CSV: metadata header, then `t, x, weight, pr` rows.

    Each row reads `f"{t:.17g}, {x:.17g}, {w:.17g}, {pr:.17g}"`.  t is
    formatted once per slice and x, w once per node; the body is one
    %-format over all rows with those texts and the pr values interleaved.
    """
    t_text, xw_text = _row_prefixes(grid.times, grid.x_grid)
    args = [None] * (3 * grid.values.size)
    args[0::3] = [t for t in t_text for _ in xw_text]
    args[1::3] = xw_text * grid.n_t
    args[2::3] = grid.values.ravel().tolist()
    Path(path).write_text(
        f"# omega={grid.omega:.17g}, kind={grid.kind.value}, k={grid.k}, "
        f"m={grid.m}, n_t={grid.n_t}, n_x={grid.n_x}, n_periods={grid.n_periods}\n"
        + ("%s%s%.17g\n" * grid.values.size) % tuple(args)
    )


# rows per bulk prefix check: bounds the prefix text held at once
_BLOCK_ROWS = 1024


def _match_rows(raw: list[str], times: np.ndarray, x_grid: QuadratureGrid) -> np.ndarray | None:
    """The (n_t, n_x, 4) rows of data lines that are each the writer's text, or None.

    ``raw[1:]`` must hold exactly one line per row.  Lines go in blocks of
    whole time slices: each block's `t, x, w, ` prefixes are checked in one
    call, and each line's remainder is parsed with ``float``.  None when any
    line differs from its prefix or its pr does not parse.
    """
    t_text, xw_text = _row_prefixes(times, x_grid)
    n_x = len(xw_text)
    data = np.empty((len(t_text), n_x, 4))
    pr = data.reshape(-1, 4)[:, 3]
    slices = max(1, _BLOCK_ROWS // n_x)
    for i in range(0, len(t_text), slices):
        prefixes = [t + xw for t in t_text[i:i + slices] for xw in xw_text]
        lo = i * n_x
        lines = raw[1 + lo:1 + lo + len(prefixes)]
        if not all(map(str.startswith, lines, prefixes)):
            return None
        try:
            pr[lo:lo + len(prefixes)] = list(map(float, map(str.removeprefix, lines, prefixes)))
        except ValueError:
            return None
    # a matched prefix is the %.17g text of these very floats
    data[:, :, 0] = times[:, None]
    data[:, :, 1] = x_grid.nodes
    data[:, :, 2] = x_grid.weights
    return data


def _scan_rows(path: Path, raw: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Every data line's `t, x, w, pr` fields, one (rows, 4) array, and its file line number.

    Blank lines are skipped but counted; the first line that is not four
    numbers is named in the error.
    """
    rows, linenos, n = np.empty((len(raw) - 1, 4)), np.empty(len(raw) - 1, dtype=np.intp), 0
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise FileFormatError(
                f"{path}: line {lineno}: expected 4 fields `t, x, weight, pr`, "
                f"got {len(parts)}"
            )
        try:
            rows[n], linenos[n] = [float(p) for p in parts], lineno
        except ValueError:
            raise FileFormatError(f"{path}: line {lineno}: non-numeric field in {line!r}")
        n += 1
    return rows[:n], linenos[:n]


def load_grid(path: str | Path) -> MeasurementGrid:
    """Read a grid written by :func:`save_grid`.

    The x column must hold the n_x-point Gauss-Legendre nodes and weights
    (to 1e-12); the grid returned carries the shared
    :func:`~rotortomo.angular.gauss_legendre_grid` rule.  A file with one
    line per row, each starting with the `t, x, w, ` text :func:`save_grid`
    writes for its (t_i, x_j), has only its pr column parsed.  Any other file
    is read field by field and checked line by line, so other spacing, blank
    lines and times within the 1e-9 tolerance still load, and a fault is
    named with its file line (blank lines counted).
    """
    path = Path(path)
    raw = path.read_text().splitlines()
    if not raw:
        raise FileFormatError(f"{path}: empty file")
    header = _GRID_HEADER.match(raw[0])
    if header is None:
        raise FileFormatError(f"{path}: line 1: malformed header: {raw[0]!r}")
    try:
        omega = float(header["omega"])
    except ValueError:
        raise FileFormatError(f"{path}: line 1: omega={header['omega']!r} is not a number")
    try:
        kind = rotor_kind(header["kind"])
    except ValueError as exc:
        raise FileFormatError(f"{path}: line 1: {exc}") from None
    k, m = int(header["k"]), int(header["m"])
    n_t, n_x, n_periods = int(header["n_t"]), int(header["n_x"]), int(header["n_periods"])
    if not 0 < omega < math.inf:
        raise FileFormatError(f"{path}: line 1: omega must be finite and positive, got {omega}")
    if n_t < 1 or n_x < 1 or n_periods < 1:
        raise FileFormatError(f"{path}: line 1: n_t, n_x, n_periods must be >= 1")
    if n_x > N_X_CAP:
        raise FileFormatError(f"{path}: line 1: n_x = {n_x} exceeds the supported {N_X_CAP}")

    period = math.pi / omega
    n_rows = n_t * n_x
    # every x integral is exact only on the Gauss-Legendre rule
    x_grid = gauss_legendre_grid(n_x)
    # one row per line at most: a header promising more fails the row count
    times = np.arange(n_t) * (n_periods * period / n_t) if len(raw) > n_rows else None
    data = _match_rows(raw, times, x_grid) if len(raw) == n_rows + 1 else None
    if data is None:
        rows, linenos = _scan_rows(path, raw)
        if len(rows) != n_rows:
            raise FileFormatError(
                f"{path}: found {len(rows)} data rows, header promises n_t*n_x = {n_rows}"
            )
        data = np.reshape(rows, (n_t, n_x, 4))
    else:
        linenos = range(2, n_rows + 2)
    if not np.isfinite(data).all():
        t, x = np.argwhere(~np.isfinite(data))[0, :2]
        raise FileFormatError(f"{path}: line {linenos[t * n_x + x]}: non-finite field")

    nodes, weights = data[0, :, 1], data[0, :, 2]
    if (np.max(np.abs(nodes - x_grid.nodes)) > 1e-12
            or np.max(np.abs(weights - x_grid.weights)) > 1e-12):
        raise FileFormatError(
            f"{path}: x nodes and weights are not the {n_x}-point Gauss-Legendre rule"
        )
    if np.any(data[:, :, 1] != nodes) or np.any(data[:, :, 2] != weights):
        t, x = np.argwhere((data[:, :, 1] != nodes) | (data[:, :, 2] != weights))[0]
        raise FileFormatError(
            f"{path}: line {linenos[t * n_x + x]}: x grid differs from the "
            f"first time slice"
        )
    off = np.abs(data[:, :, 0] - times[:, None]) > 1e-9 * period
    if off.any():
        t, x = np.argwhere(off)[0]
        raise FileFormatError(
            f"{path}: line {linenos[t * n_x + x]}: time column is not uniform over "
            f"{n_periods} period(s) of T = pi/omega, first at (t, x) = ({t}, {x})"
        )
    return MeasurementGrid(x_grid=x_grid, n_periods=n_periods, values=data[:, :, 3],
                           omega=omega, kind=kind, k=k, m=m)


# ---------------------------------------------------------------------------
# run configuration (YAML)


@dataclass(frozen=True)
class NoiseConfig:
    samples_per_time: int = 0  # 0 = noiseless
    seed: int = 0


@dataclass(frozen=True)
class ExperimentConfig:
    """One workbench run: rotor, block size, grids, noise, file locations."""

    spec: RotorSpec
    j_max: int
    n_periods: int = 1
    n_t: int = 0  # 0 = derive from the block
    n_x: int = 0
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    state_kind: str = "random-mixed"
    kick_strength: float = 1.0
    threshold: float | None = None  # None = not set, 0 = no gate
    paths: dict = field(default_factory=dict)


_SPEC_KEYS = {"kind", "omega", "omega2", "d_cd", "k", "m"}
_SAMPLING_KEYS = {"n_periods", "n_t", "n_x"}
_NOISE_KEYS = {"samples_per_time", "seed"}
_PATH_KEYS = {"state", "data", "out", "report", "metrics", "alignment"}
_TOP_KEYS = {"spec", "j_max", "sampling", "noise", "state", "paths", "threshold"}
_STATE_KEYS = {"kind", "kick_strength"}


def _section(cfg: dict, name: str, allowed: set) -> dict:
    sub = cfg.get(name, {})
    if sub is None:
        sub = {}
    if not isinstance(sub, dict):
        raise FileFormatError(f"config: '{name}' must be a mapping")
    for key in sub:
        if key not in allowed:
            raise FileFormatError(f"config: unknown key '{name}.{key}'")
    return sub


def _get_int(sub: dict, where: str, key: str, default: int, minimum=0, maximum=math.inf) -> int:
    val = sub.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool):
        raise FileFormatError(f"config: '{where}.{key}' must be an integer, got {val!r}")
    if not minimum <= val <= maximum:
        bound = f">= {minimum}" if val < minimum else f"<= {maximum}"
        raise FileFormatError(f"config: '{where}.{key}' must be {bound}, got {val}")
    return val


def _get_float(
    sub: dict, where: str, key: str, default: float, minimum: float = -math.inf
) -> float:
    val = sub.get(key, default)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise FileFormatError(f"config: '{where}.{key}' must be a number, got {val!r}")
    # false for nan and inf, and for integers too large for a float
    if not abs(val) <= sys.float_info.max:
        raise FileFormatError(f"config: '{where}.{key}' must be finite, got {val!r}")
    if val < minimum:
        raise FileFormatError(f"config: '{where}.{key}' must be >= {minimum}, got {val!r}")
    return float(val)


def _yaml_loader():
    """libyaml's parser where PyYAML was built with it, else the Python one.

    Both have the same safe constructors and YAMLError subclasses; libyaml is
    several times faster.  PyYAML is imported here, on the first config
    read, so ``import rotortomo`` does not pay for it.
    """
    import yaml

    return getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a YAML run config."""
    import yaml

    path = Path(path)
    try:
        cfg = yaml.load(path.read_text(), Loader=_yaml_loader())
    except yaml.YAMLError as exc:
        raise FileFormatError(f"{path}: not valid YAML ({exc})") from exc
    if not isinstance(cfg, dict):
        raise FileFormatError(f"{path}: top level must be a mapping")
    for key in cfg:
        if key not in _TOP_KEYS:
            raise FileFormatError(f"config: unknown key '{key}'")

    spec_cfg = _section(cfg, "spec", _SPEC_KEYS)
    if "kind" not in spec_cfg:
        raise FileFormatError("config: 'spec.kind' is required")
    try:
        spec = RotorSpec(
            kind=rotor_kind(spec_cfg["kind"]),
            omega=_get_float(spec_cfg, "spec", "omega", 1.0),
            omega2=_get_float(spec_cfg, "spec", "omega2", 0.0),
            d_cd=_get_float(spec_cfg, "spec", "d_cd", 0.0),
            k=_get_int(spec_cfg, "spec", "k", 0, minimum=-10**6),
            m=_get_int(spec_cfg, "spec", "m", 0, minimum=-10**6),
        )
    except FileFormatError:
        raise
    except ValueError as exc:
        raise FileFormatError(f"config: spec: {exc}") from exc

    if "j_max" not in cfg:
        raise FileFormatError("config: 'j_max' is required")
    j_max = _get_int(cfg, "config", "j_max", 0, minimum=0)
    if j_max < max(abs(spec.k), abs(spec.m)):
        raise FileFormatError(
            f"config: j_max={j_max} below channel minimum "
            f"J={max(abs(spec.k), abs(spec.m))}"
        )

    sampling = _section(cfg, "sampling", _SAMPLING_KEYS)
    noise_cfg = _section(cfg, "noise", _NOISE_KEYS)
    state_cfg = _section(cfg, "state", _STATE_KEYS)
    state_kind = state_cfg.get("kind", "random-mixed")
    if state_kind not in ("random-pure", "random-mixed", "cos2-kicked"):
        raise FileFormatError(f"config: 'state.kind' unknown: {state_kind!r}")

    paths = _section(cfg, "paths", _PATH_KEYS)
    for key, val in paths.items():
        if not isinstance(val, str) or not val:
            raise FileFormatError(f"config: 'paths.{key}' must be a non-empty string")

    threshold = None  # not set: each subcommand has its own default
    if "threshold" in cfg:
        threshold = _get_float(cfg, "config", "threshold", 0.0, minimum=0.0)

    return ExperimentConfig(
        spec=spec,
        j_max=j_max,
        n_periods=_get_int(sampling, "sampling", "n_periods", 1, minimum=1),
        n_t=_get_int(sampling, "sampling", "n_t", 0),
        n_x=_get_int(sampling, "sampling", "n_x", 0),
        noise=NoiseConfig(
            samples_per_time=_get_int(noise_cfg, "noise", "samples_per_time", 0, maximum=2**63 - 1),
            seed=_get_int(noise_cfg, "noise", "seed", 0),
        ),
        state_kind=state_kind,
        kick_strength=_get_float(state_cfg, "state", "kick_strength", 1.0),
        threshold=threshold,
        paths=dict(paths),
    )
