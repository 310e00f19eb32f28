"""Disk formats and the command-line workbench."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rotortomo
from rotortomo import cli
from rotortomo.angular import N_X_CAP, gauss_legendre_grid
from rotortomo.cli import main
from rotortomo.fileio import (
    FileFormatError,
    load_block,
    load_config,
    load_grid,
    save_block,
    save_grid,
)
from rotortomo.rotor import (
    DensityBlock,
    MeasurementGrid,
    RotorKind,
    RotorSpec,
    make_test_state,
    simulate_pr,
)

RIGID = RotorSpec(kind=RotorKind.RIGID, omega=1.0)


# ------------------------------------------------------------------ block JSON


def test_block_json_round_trip_is_bit_identical(tmp_path):
    blk = make_test_state("random-mixed", 1, -1, 5, seed=7)
    path = tmp_path / "b.json"
    save_block(blk, path)
    back = load_block(path)
    assert (back.k, back.m, back.j_max) == (1, -1, 5)
    iu = np.triu_indices(blk.elements.shape[0])
    assert np.array_equal(blk.elements[iu], back.elements[iu])
    # stored diagonals keep their (tiny) imaginary residue bit-for-bit, so the
    # completed matrix is Hermitian only to that residue, not exactly
    assert back.hermiticity_defect() < 1e-15


def test_block_json_sparse_entries_default_to_zero(tmp_path):
    path = tmp_path / "b.json"
    path.write_text('{"k": 0, "m": 0, "j_max": 2, "entries": [[0, 2, 0.25, -0.5]]}')
    blk = load_block(path)
    assert blk.element(0, 2) == 0.25 - 0.5j
    assert blk.element(2, 0) == 0.25 + 0.5j
    assert blk.element(1, 1) == 0.0


@pytest.mark.parametrize(
    "payload,needle",
    [
        ('{"k": 0, "m": 0, "entries": []}', "j_max"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": [], "extra": 1}', "extra"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": [[2, 0, 1.0, 0.0]]}', "triangle"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": [[0, 3, 1.0, 0.0]]}', "triangle"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": [[0, 0, NaN, 0.0]]}', "finite"),
        (
            '{"k": 0, "m": 0, "j_max": 2, "entries": [[0, 0, true, false]]}',
            r"entries\[0\] values must be numbers",
        ),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": [[0, 0, 1.0, 0.0], [0, 0, 1.0, 0.0]]}', "duplicate"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": [[0, 0, 1.0]]}', "entries"),
        ('{"k": 0, "m": 2, "j_max": 1, "entries": []}', "channel minimum"),
        ('{"k": 0, "m": 0, "j_max": 1000000, "entries": []}', r"j_max = 1000000 outside supported range \[0, 200\]"),
        ("not json", "JSON"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": null}', "'entries' must be a list, got None"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": 3}', "'entries' must be a list, got 3"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": true}', "'entries' must be a list, got True"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": {"0": 1}}', "'entries' must be a list"),
        ("[1, 2]", "top level must be an object"),
        ('{"k": 0.5, "m": 0, "j_max": 2, "entries": []}', "k must be an integer, got 0.5"),
        ('{"k": 0, "m": 0, "j_max": 2, "entries": [[0, 1.0, 1.0, 0.0]]}', "J labels must be integers"),
    ],
)
def test_block_json_malformed_inputs(tmp_path, payload, needle):
    path = tmp_path / "bad.json"
    path.write_text(payload)
    with pytest.raises(FileFormatError, match=needle):
        load_block(path)


def _json_dumps_block(block):
    # the writer's text as json itself renders it
    entries = []
    js = block.j_values
    for a, j1 in enumerate(js):
        for b in range(a, len(js)):
            v = complex(block.elements[a, b])
            entries.append([int(j1), int(js[b]), v.real, v.imag])
    payload = {"k": block.k, "m": block.m, "j_max": block.j_max, "entries": entries}
    return json.dumps(payload, indent=1) + "\n"


def _negative_zero_parts():
    blk = make_test_state("random-mixed", 0, 1, 4, seed=2)
    elements = blk.elements.copy()
    elements.imag[np.diag_indices(4)] = -0.0
    elements[0, 2], elements[2, 0] = complex(0.25, -0.0), complex(0.25, 0.0)
    elements[1, 3], elements[3, 1] = complex(-0.0, -0.0), complex(-0.0, 0.0)
    return DensityBlock(k=0, m=1, j_max=4, elements=elements)


@pytest.mark.parametrize(
    "block",
    [
        make_test_state("random-mixed", 2, -1, 7, seed=5),
        DensityBlock(k=-3, m=1, j_max=3, elements=[[1.0]]),
        _negative_zero_parts(),
    ],
    ids=["k2-m-1-j7", "one-level", "negative-zero-parts"],
)
def test_block_json_bytes_are_those_of_json_dumps(tmp_path, block):
    path = tmp_path / "b.json"
    save_block(block, path)
    assert path.read_bytes() == _json_dumps_block(block).encode()


def test_block_json_rejects_complex_diagonal(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 0, "m": 0, "j_max": 1, "entries": [[0, 0, 0.5, 0.5]]}')
    with pytest.raises(FileFormatError):
        load_block(path)


# -------------------------------------------------------------------- grid CSV


def _grid(n_periods=1, kind=RotorKind.RIGID, d_cd=0.0):
    spec = RotorSpec(kind=kind, omega=2.0, d_cd=d_cd, m=1)
    blk = make_test_state("random-mixed", 0, 1, 4, seed=3)
    return simulate_pr(blk, spec, gauss_legendre_grid(9), n_t=21, n_periods=n_periods)


def test_grid_csv_round_trip_is_bit_identical(tmp_path):
    grid = _grid(n_periods=2)
    path = tmp_path / "g.csv"
    save_grid(grid, path)
    back = load_grid(path)
    assert np.array_equal(grid.values, back.values)
    assert np.array_equal(grid.x_grid.nodes, back.x_grid.nodes)
    assert np.array_equal(grid.x_grid.weights, back.x_grid.weights)
    assert back.x_grid is gauss_legendre_grid(9)
    assert back.period == grid.period and back.n_periods == 2
    assert (back.kind, back.k, back.m, back.omega) == (RotorKind.RIGID, 0, 1, 2.0)


def test_grid_csv_rows_are_formatted_as_one_17g_line_each(tmp_path):
    grid = _grid(n_periods=3)
    path = tmp_path / "g.csv"
    save_grid(grid, path)
    header = path.read_text().splitlines()[0]
    rows = [
        f"{t:.17g}, {x:.17g}, {w:.17g}, {pr:.17g}"
        for t, row in zip(grid.times, grid.values)
        for x, w, pr in zip(grid.x_grid.nodes, grid.x_grid.weights, row)
    ]
    assert path.read_bytes() == ("\n".join([header, *rows]) + "\n").encode()


def test_grid_csv_reads_rows_written_another_way(tmp_path):
    # lines that differ from the writer's text are parsed field by field
    grid = _grid(n_periods=2)
    path = tmp_path / "g.csv"
    save_grid(grid, path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header, *(row.replace(" ", "") for row in rows)]) + "\n")
    back = load_grid(path)
    assert np.array_equal(back.values, grid.values)
    assert back.x_grid is gauss_legendre_grid(9)

    # times off the writer's by far less than the 1e-9 * period tolerance
    shifted = []
    for row in rows:
        t, rest = row.split(",", 1)
        shifted.append(f"{float(t) + 1e-13!r},{rest}")
    path.write_text("\n".join([header, *shifted]) + "\n")
    back = load_grid(path)
    assert np.array_equal(back.values, grid.values)
    assert np.array_equal(back.times, grid.times)


def test_grid_csv_header_format(tmp_path):
    path = tmp_path / "g.csv"
    save_grid(_grid(), path)
    header = path.read_text().splitlines()[0]
    assert header == "# omega=2, kind=rigid-linear, k=0, m=1, n_t=21, n_x=9, n_periods=1"


def test_grid_csv_malformed_inputs(tmp_path):
    path = tmp_path / "g.csv"
    save_grid(_grid(), path)
    lines = path.read_text().splitlines()

    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(["nonsense"] + lines[1:]))
    with pytest.raises(FileFormatError, match="header"):
        load_grid(bad)

    bad.write_text("\n".join(lines[:5] + ["1.0, 2.0, 3.0"] + lines[6:]))
    with pytest.raises(FileFormatError, match="line 6"):
        load_grid(bad)

    bad.write_text("\n".join(lines[:5] + ["1.0, 2.0, x, 4.0"] + lines[6:]))
    with pytest.raises(FileFormatError, match="line 6"):
        load_grid(bad)

    bad.write_text("\n".join(lines[:-3]))
    with pytest.raises(FileFormatError, match="rows"):
        load_grid(bad)


def test_grid_csv_header_promising_more_rows_than_lines_fails_on_the_count(tmp_path):
    path = tmp_path / "g.csv"
    save_grid(_grid(), path)
    header, *rows = path.read_text().splitlines()
    path.write_text("\n".join([header.replace("n_t=21", "n_t=1000000000000"), *rows]))
    with pytest.raises(FileFormatError, match="found 189 data rows"):
        load_grid(path)


def test_grid_csv_detects_inconsistent_x_grid(tmp_path):
    path = tmp_path / "g.csv"
    save_grid(_grid(), path)
    lines = path.read_text().splitlines()
    t, x, w, pr = [p.strip() for p in lines[12].split(",")]
    lines[12] = f"{t}, 0.123, {w}, {pr}"
    path.write_text("\n".join(lines))
    with pytest.raises(FileFormatError, match="first time slice"):
        load_grid(path)


def test_grid_csv_rejects_more_nodes_than_supported_before_building_a_rule(tmp_path):
    # the header alone decides: no n_x-point rule is built for an oversized n_x
    path = tmp_path / "g.csv"
    path.write_text(
        f"# omega=1, kind=rigid-linear, k=0, m=0, n_t=1, n_x={N_X_CAP + 1}, n_periods=1\n"
    )
    built = gauss_legendre_grid.cache_info().misses
    with pytest.raises(FileFormatError, match=f"n_x = {N_X_CAP + 1} exceeds"):
        load_grid(path)
    assert gauss_legendre_grid.cache_info().misses == built


def test_grid_csv_rejects_nodes_that_are_not_gauss_legendre(tmp_path):
    # evenly spaced nodes with positive weights summing to 2 break the
    # quadrature's exactness without any other symptom
    path = tmp_path / "g.csv"
    save_grid(_grid(), path)
    header, *rows = path.read_text().splitlines()
    nodes = np.linspace(-1.0, 1.0, 11)[1:-1]
    lines = [header]
    for i, row in enumerate(rows):
        t, _, _, pr = [p.strip() for p in row.split(",")]
        lines.append(f"{t}, {nodes[i % 9]:.17g}, {2.0 / 9:.17g}, {pr}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="Gauss-Legendre"):
        load_grid(path)


def _set_pr(lines, i, text):
    lines[i] = lines[i].rsplit(", ", 1)[0] + ", " + text


def _append(lines, i, text):
    lines[i] += text


def _set_header(lines, old, new):
    lines[0] = lines[0].replace(old, new)


# _grid() on 21 x 9 nodes: lines[5] is file line 6, data row 4 (slice 0, node 4)
@pytest.mark.parametrize(
    "edit,newline,expected",
    [
        (lambda lines: _set_pr(lines, 5, "1_0"), "\n", {4: 10.0}),
        (lambda lines: _append(lines, 5, "   "), "\n", {}),
        (lambda lines: _append(lines, 5, " # c"), "\n", "line 6: non-numeric field in"),
        (lambda lines: _append(lines, 5, ", 5"), "\n", "line 6: expected 4 fields"),
        (lambda lines: _set_pr(lines, 5, "nan"), "\n", "line 6: non-finite field"),
        (lambda lines: None, "\r\n", {}),
        (lambda lines: lines.insert(100, ""), "\n", {}),
        (
            lambda lines: (lines.insert(100, ""), _set_pr(lines, 150, "inf")),
            "\n",
            "line 151: non-finite field",
        ),
        (lambda lines: lines.clear(), "", "empty file"),
        (lambda lines: _set_header(lines, "omega=2", "omega=fast"), "\n",
         "line 1: omega='fast' is not a number"),
        (lambda lines: _set_header(lines, "rigid-linear", "oblate-top"), "\n",
         "line 1: unknown rotor kind 'oblate-top'"),
        (lambda lines: _set_header(lines, "n_t=21", "n_t=0"), "\n",
         "line 1: n_t, n_x, n_periods must be >= 1"),
    ],
    ids=[
        "pr-underscore", "trailing-spaces", "trailing-comment", "fifth-field", "pr-nan",
        "crlf", "blank-line", "blank-line-then-inf", "empty-file", "omega-text", "unknown-kind",
        "n_t-0",
    ],
)
def test_grid_csv_edited_lines_read_as_the_line_scan_reads_them(tmp_path, edit, newline, expected):
    # a file with one line per row, each the writer's text, is read in bulk;
    # one edited line sends it to the line scan, which gives these results
    grid = _grid()
    path = tmp_path / "g.csv"
    save_grid(grid, path)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_bytes((newline.join(lines) + newline).encode())
    if isinstance(expected, str):
        with pytest.raises(FileFormatError, match=re.escape(f"{path}: {expected}")):
            load_grid(path)
        return
    want = grid.values.copy()
    for row, value in expected.items():
        want[divmod(row, 9)] = value
    back = load_grid(path)
    assert back.values.tobytes() == want.tobytes()
    assert back.times.tobytes() == grid.times.tobytes()
    assert back.x_grid is gauss_legendre_grid(9)


def test_grid_csv_writes_the_17g_text_of_extreme_values(tmp_path):
    # signed zero, the smallest subnormal, a huge value and values that need
    # all 17 digits, against one f-string per row
    grid = _grid(n_periods=2)
    values = grid.values.copy()
    values.flat[:6] = [-0.0, 5e-324, 1e300, 0.1 + 0.2, 1 / 3, 1 + 2**-52]
    grid = MeasurementGrid(x_grid=grid.x_grid, n_periods=2, values=values,
                           omega=grid.omega, kind=grid.kind, k=grid.k, m=grid.m)
    path = tmp_path / "g.csv"
    save_grid(grid, path)
    header = path.read_text().splitlines()[0]
    rows = [
        f"{t:.17g}, {x:.17g}, {w:.17g}, {pr:.17g}"
        for t, row in zip(grid.times, grid.values)
        for x, w, pr in zip(grid.x_grid.nodes, grid.x_grid.weights, row)
    ]
    assert path.read_bytes() == ("\n".join([header, *rows]) + "\n").encode()
    assert load_grid(path).values.tobytes() == values.tobytes()


def test_grid_csv_read_peaks_under_three_times_the_file(tmp_path):
    # centrifugal d_cd = 1e-4, j_max = 10 over 16 periods: 1776 x 21 rows,
    # 2.9 MiB of text.  The text and its lines peak at 2.69 times the file;
    # a reader that also keeps a per-row list of floats and of line numbers
    # peaks at 3.18.  The same grid with its spaces stripped takes the line
    # scan, which peaked at 5.46 times its file with a 4-float list per row
    # and at 2.72 with one (rows, 4) array.  Bound: 2.9 times the file, +8%
    spec = RotorSpec(kind=RotorKind.CENTRIFUGAL, omega=1.0, d_cd=1e-4)
    blk = make_test_state("random-mixed", 0, 0, 10, seed=1)
    plan = rotortomo.SamplingPlan.derive(spec, 10, 16)
    grid = simulate_pr(blk, spec, gauss_legendre_grid(plan.n_x), n_t=plan.n_t, n_periods=16)
    path, stripped = tmp_path / "g.csv", tmp_path / "stripped.csv"
    save_grid(grid, path)
    header, body = path.read_text().split("\n", 1)
    stripped.write_text(header + "\n" + body.replace(" ", ""))
    for source in (path, stripped):
        load_grid(source)
        tracemalloc.start()
        try:
            back = load_grid(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.tobytes() == grid.values.tobytes()
        assert peak <= 2.9 * source.stat().st_size


def test_importing_the_cli_loads_no_scipy():
    src = str(Path(rotortomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, rotortomo.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


def test_importing_the_package_loads_no_yaml():
    # PyYAML is imported on the first config read, not with the package
    src = str(Path(rotortomo.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, rotortomo; print(sorted(m for m in sys.modules if 'yaml' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"


# ---------------------------------------------------------------------- config


FULL_CONFIG = (
    "spec: {kind: centrifugal-linear, omega: 2.0, d_cd: 1.0e-3, m: 1}\n"
    "j_max: 5\n"
    "sampling: {n_periods: 64, n_t: 0, n_x: 12}\n"
    "noise: {samples_per_time: 1000, seed: 9}\n"
    "state: {kind: cos2-kicked, kick_strength: 0.8}\n"
    "threshold: 1.0e-6\n"
    "paths: {data: d.csv, out: o.json}\n"
)


def test_config_full_parse(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(FULL_CONFIG)
    cfg = load_config(path)
    assert cfg.spec.kind is RotorKind.CENTRIFUGAL and cfg.spec.d_cd == 1e-3
    assert (cfg.j_max, cfg.n_periods, cfg.n_x) == (5, 64, 12)
    assert (cfg.noise.samples_per_time, cfg.noise.seed) == (1000, 9)
    assert (cfg.state_kind, cfg.kick_strength) == ("cos2-kicked", 0.8)
    assert cfg.threshold == 1e-6
    assert cfg.paths == {"data": "d.csv", "out": "o.json"}


def test_config_reads_alike_with_the_libyaml_and_the_python_loader(tmp_path, monkeypatch):
    import yaml

    from rotortomo import fileio

    assert fileio._yaml_loader() is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    path, bad = tmp_path / "c.yaml", tmp_path / "bad.yaml"
    path.write_text(FULL_CONFIG)
    bad.write_text("spec: {kind: rigid-linear\nj_max: [3\n")
    configs = []
    for loader in (fileio._yaml_loader(), yaml.SafeLoader):
        monkeypatch.setattr(fileio, "_yaml_loader", lambda: loader)
        configs.append(load_config(path))
        with pytest.raises(FileFormatError, match=re.escape(f"{bad}: not valid YAML")):
            load_config(bad)
    assert configs[0] == configs[1]


def test_config_minimal_defaults(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("spec: {kind: rigid-linear}\nj_max: 3\n")
    cfg = load_config(path)
    assert cfg.spec.omega == 1.0 and cfg.spec.kind is RotorKind.RIGID
    assert (cfg.n_periods, cfg.n_t, cfg.n_x) == (1, 0, 0)
    assert cfg.noise.samples_per_time == 0 and cfg.threshold is None


def test_config_null_sections_read_as_empty(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text("spec: {kind: rigid-linear}\nj_max: 3\n")
    minimal = load_config(path)
    path.write_text("spec: {kind: rigid-linear}\nj_max: 3\nsampling:\nnoise:\nstate:\npaths:\n")
    assert load_config(path) == minimal


@pytest.mark.parametrize(
    "text,needle",
    [
        ("j_max: 3\n", "spec.kind"),
        ("spec: {kind: rigid-linear}\n", "j_max"),
        ("spec: {kind: oblate-top}\nj_max: 3\n", "oblate-top"),
        ("spec: {kind: rigid-linear}\nj_max: 3\nsampling: {n_T: 4}\n", "n_T"),
        ("spec: {kind: rigid-linear}\nj_max: 3\nsampling: {search_cap: 20}\n", "search_cap"),
        ("spec: {kind: rigid-linear}\nj_max: 3\nfoo: 1\n", "foo"),
        ("spec: {kind: rigid-linear, omega: -1}\nj_max: 3\n", "omega"),
        ("spec: {kind: rigid-linear}\nj_max: 3.5\n", "j_max"),
        ("spec: {kind: rigid-linear, m: 2}\nj_max: 1\n", "channel minimum"),
        ("spec: {kind: rigid-linear}\nj_max: 3\nstate: {kind: thermal}\n", "thermal"),
        ("spec: {kind: rigid-linear}\nj_max: 3\nnoise: {samples_per_time: -5}\n", "samples_per_time"),
        (
            "spec: {kind: rigid-linear}\nj_max: 3\nnoise: {samples_per_time: 9223372036854775808}\n",
            "noise.samples_per_time' must be <= 9223372036854775807",
        ),
        ("spec: {kind: rigid-linear}\nj_max: 3\npaths: {data: 7}\n", "paths.data"),
        ("- spec\n- j_max\n", "top level must be a mapping"),
        ("spec: {kind: rigid-linear}\nj_max: 3\nsampling: 5\n", "'sampling' must be a mapping"),
        ("spec: {kind: rigid-linear, omega: fast}\nj_max: 3\n", "'spec.omega' must be a number"),
    ],
)
def test_config_named_validation_errors(tmp_path, text, needle):
    path = tmp_path / "c.yaml"
    path.write_text(text)
    with pytest.raises(FileFormatError, match=needle):
        load_config(path)


# ------------------------------------------------------------------------- CLI


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _write_config(path, body):
    path.write_text(body)
    return str(path)


def test_cli_simulate_reconstruct_cycle(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 4\n"
        "paths: {state: state.json, data: data.csv, out: rec.json,\n"
        "        report: rec.report.txt, alignment: align.csv}\n",
    )
    truth = make_test_state("random-mixed", 0, 0, 4, seed=21)
    save_block(truth, workdir / "state.json")

    assert main(["simulate", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "trace = 1" in out and "period" in out
    assert (workdir / "align.csv").read_text().startswith("# t, cos2_theta")

    assert main(["reconstruct", "--config", cfg]) == 0
    rec = load_block(workdir / "rec.json")
    assert np.max(np.abs(rec.elements - truth.elements)) < 1e-11
    report = (workdir / "rec.report.txt").read_text()
    assert "method: probe-least-squares" in report
    assert re.search(r"operator: 25 unknowns, \d+ rows, cond \d", report)
    assert "(4, 4)" in report and "residual sup norm" in report
    # the block's own trace and least eigenvalue, read from the block written
    lines = report.splitlines()
    assert f"trace: {rec.trace():.12g}" in lines
    assert f"min eigenvalue: {rec.min_eigenvalue():.6g}" in lines
    assert f"trace = {rec.trace():.12g}, residual sup norm = " in capsys.readouterr().out


def test_cli_runs_simulate_then_reconstruct_through_one_parser(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 1}\n"
        "j_max: 3\n"
        "paths: {state: state.json, data: data.csv, out: rec.json}\n",
    )
    truth = make_test_state("random-mixed", 0, 1, 3, seed=4)
    save_block(truth, workdir / "state.json")
    cli._build_parser.cache_clear()
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["reconstruct", "--config", cfg, "--out", "other.json"]) == 0
    assert main(["reconstruct", "--config", cfg]) == 0  # no --out left over from the last call
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    for name in ("other.json", "rec.json"):
        rec = load_block(workdir / name)
        assert np.max(np.abs(rec.elements - truth.elements)) < 1e-11


def test_cli_simulate_runs_no_chain_scan(workdir, capsys, monkeypatch):
    from rotortomo import tomography

    def scan(*args, **kwargs):
        raise AssertionError("simulate enumerated the degeneracy chains")

    monkeypatch.setattr(tomography, "_chains", scan)
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: centrifugal-linear, omega: 1.0, d_cd: 1.0e-4}\n"
        "j_max: 4\n"
        "sampling: {n_periods: 16}\n"
        "paths: {state: state.json, data: data.csv}\n",
    )
    save_block(make_test_state("random-mixed", 0, 0, 4, seed=3), workdir / "state.json")
    assert main(["simulate", "--config", cfg]) == 0
    assert "n_x=9" in capsys.readouterr().out


def test_cli_reconstruct_report_shows_truncated_chain(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 5\n"
        "paths: {state: state.json, data: data.csv, out: rec.json}\n",
    )
    save_block(make_test_state("random-mixed", 0, 0, 5, seed=2), workdir / "state.json")
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["reconstruct", "--config", cfg]) == 0
    capsys.readouterr()
    report = (workdir / "rec.json.report.txt").read_text()
    assert "flagged elements: 4" in report
    # the (5, 0) chain runs through levels (6, 3) and (15, 14), outside the block
    assert "(5, 0)" in report and "(9,+3) (29,+1)" in report


def test_cli_simulate_embeds_smaller_state(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 5\n"
        "paths: {state: state.json, data: data.csv, out: rec.json}\n",
    )
    small = make_test_state("random-pure", 0, 0, 3, seed=4)
    save_block(small, workdir / "state.json")
    assert main(["simulate", "--config", cfg]) == 0
    assert main(["reconstruct", "--config", cfg]) == 0
    capsys.readouterr()
    rec = load_block(workdir / "rec.json")
    assert rec.j_max == 5
    assert np.max(np.abs(rec.elements[:4, :4] - small.elements)) < 1e-11
    assert abs(rec.element(5, 5)) < 1e-11


def test_cli_simulate_reads_a_smaller_state_as_its_padded_block(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: centrifugal-linear, omega: 1.0, d_cd: 1.0e-4}\n"
        "j_max: 5\n"
        "sampling: {n_periods: 4}\n"
        "paths: {state: state.json, data: data.csv}\n",
    )
    small = make_test_state("random-pure", 0, 0, 3, seed=4)
    save_block(small, workdir / "state.json")
    assert main(["simulate", "--config", cfg]) == 0
    assert "j_max=5: n_t=" in capsys.readouterr().out
    grid = load_grid(workdir / "data.csv")
    run = load_config(cfg)
    padded = simulate_pr(small.embedded(5), run.spec, grid.x_grid, grid.n_t, grid.n_periods)
    assert np.max(np.abs(grid.values - padded.values)) <= 1e-15


def _noisy_run(workdir, samples):
    noise = f"noise: {{samples_per_time: {samples}, seed: 3}}\n" if samples else ""
    cfg = _write_config(
        workdir / f"run{samples}.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 1}\n"
        "j_max: 3\n" + noise + "paths: {state: state.json, data: data.csv, out: rec.json}\n",
    )
    save_block(make_test_state("random-mixed", 0, 1, 3, seed=8), workdir / "state.json")
    return cfg


def test_cli_simulate_adds_shot_noise_that_keeps_the_trace(workdir, capsys):
    exact = _noisy_run(workdir, 0)
    assert main(["simulate", "--config", exact, "--data", "exact.csv"]) == 0
    assert "shot noise" not in capsys.readouterr().out
    noisy = _noisy_run(workdir, 500)
    assert main(["simulate", "--config", noisy]) == 0
    assert "shot noise: 500 samples per time slice\n" in capsys.readouterr().out
    a, b = load_grid(workdir / "exact.csv"), load_grid(workdir / "data.csv")
    assert not np.allclose(a.values, b.values)
    assert np.allclose(b.values @ b.x_grid.weights, a.trace_estimate(), rtol=0, atol=1e-12)


def test_cli_simulate_seed_sets_the_noise(workdir, capsys):
    cfg = _noisy_run(workdir, 500)
    texts = []
    for seed in ("1", "1", "2"):
        assert main(["simulate", "--config", cfg, "--seed", seed]) == 0
        texts.append((workdir / "data.csv").read_bytes())
    capsys.readouterr()
    assert texts[0] == texts[1] != texts[2]
    assert main(["simulate", "--config", cfg]) == 0  # the config's seed, 3
    assert (workdir / "data.csv").read_bytes() not in texts


def test_cli_reconstruct_gate_fails_after_writing_its_outputs(workdir, capsys):
    cfg = _noisy_run(workdir, 500)
    assert main(["simulate", "--config", cfg]) == 0
    capsys.readouterr()
    assert main(["reconstruct", "--config", cfg, "--threshold", "1e-6"]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^FAIL: residual \S+ exceeds threshold 1e-06$", out, re.MULTILINE)
    assert load_block(workdir / "rec.json").j_max == 3
    assert (workdir / "rec.json.report.txt").read_text().startswith("reconstruction report\n")
    assert main(["reconstruct", "--config", cfg, "--threshold", "10"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_cli_roundtrip_writes_metrics_and_gates(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: symmetric-top, omega: 1.0, omega2: 0.5, k: 1, m: 1}\n"
        "j_max: 4\n"
        "paths: {metrics: met.json}\n",
    )
    assert main(["roundtrip", "--config", cfg, "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    metrics = json.loads((workdir / "met.json").read_text())
    assert metrics["passed"] is True
    assert metrics["max_abs_error"] < 1e-10
    assert metrics["method"] == "probe-least-squares"
    assert len(metrics["elements"]) == 4 * 5 // 2  # upper triangle of a 4-level block


def test_cli_roundtrip_deterministic_for_fixed_seed(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 3\n"
        "noise: {samples_per_time: 5000}\n"
        "threshold: 1.0\n",
    )
    assert main(["roundtrip", "--config", cfg, "--seed", "9", "--out", "a.json"]) == 0
    assert main(["roundtrip", "--config", cfg, "--seed", "9", "--out", "b.json"]) == 0
    capsys.readouterr()
    a = json.loads((workdir / "a.json").read_text())
    b = json.loads((workdir / "b.json").read_text())
    assert a["max_abs_error"] == b["max_abs_error"]
    assert a["elements"] == b["elements"]


def test_cli_roundtrip_threshold_failure_exit(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 3\n"
        "noise: {samples_per_time: 2000}\n",
    )
    # noisy data cannot hit the default 1e-8 gate
    assert main(["roundtrip", "--config", cfg, "--seed", "1"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["roundtrip", "--config", cfg, "--seed", "1", "--threshold", "0.9"]) == 0
    capsys.readouterr()
    # 0 turns the gate off, from the flag and from the config alike
    assert main(["roundtrip", "--config", cfg, "--seed", "1", "--threshold", "0",
                 "--out", "a.json"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert json.loads((workdir / "a.json").read_text())["threshold"] == 0.0
    off = _write_config(workdir / "off.yaml", (workdir / "run.yaml").read_text() + "threshold: 0\n")
    assert main(["roundtrip", "--config", off, "--seed", "1"]) == 0
    capsys.readouterr()


def test_cli_roundtrip_rejects_an_oversized_block_before_building_its_state(
    workdir, capsys, monkeypatch
):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0}\n"
        "j_max: 1000000\n"
        "state: {kind: cos2-kicked}\n",
    )

    def refuse(*args, **kwargs):
        raise AssertionError("built a state for a block no plan takes")

    monkeypatch.setattr(cli, "make_test_state", refuse)
    assert main(["roundtrip", "--config", cfg]) == 2
    assert "need j_max <= 100" in capsys.readouterr().err


def test_cli_simulate_rejects_an_oversized_block_before_reading_its_state(
    workdir, capsys, monkeypatch
):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0}\n"
        "j_max: 1000000\n"
        "paths: {state: state.json, data: data.csv}\n",
    )
    save_block(make_test_state("random-mixed", 0, 0, 3, seed=1), workdir / "state.json")

    def refuse(*args, **kwargs):
        raise AssertionError("read a state for a block no plan takes")

    monkeypatch.setattr(cli, "load_block", refuse)
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sampling error:") and "need j_max <= 100" in err


def test_cli_simulate_rejects_an_oversized_state_file_by_name(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0}\n"
        "j_max: 3\n"
        "paths: {state: state.json, data: data.csv}\n",
    )
    (workdir / "state.json").write_text('{"k": 0, "m": 0, "j_max": 1000000, "entries": []}')
    assert main(["simulate", "--config", cfg]) == 2
    assert "j_max = 1000000 outside supported range [0, 200]" in capsys.readouterr().err


def test_cli_coeffs_names_the_supported_range(workdir, capsys):
    cfg = _write_config(workdir / "run.yaml", "spec: {kind: rigid-linear, omega: 1.0}\nj_max: 201\n")
    assert main(["coeffs", "--config", cfg]) == 2
    assert "j_max = 201 outside supported range [0, 200]" in capsys.readouterr().err


def test_cli_coeffs_lists_channel_table(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: symmetric-top, omega: 1.0, omega2: 0.5, k: 1, m: 1}\nj_max: 2\n",
    )
    assert main(["coeffs", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "2, 0, 1, 1, 0, 0.707106781186547" in out
    assert "2, 0, 1, 1, 1, 0.61237243569579" in out  # odd L survives for k != 0
    assert main(["coeffs", "--config", cfg, "--out", "table.csv"]) == 0
    capsys.readouterr()
    assert (workdir / "table.csv").exists()


def test_cli_validation_failures_exit_two(workdir, capsys):
    assert main(["reconstruct", "--config", "missing.yaml"]) == 2

    cfg = _write_config(
        workdir / "bad.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 4\n"
        "sampling: {n_t: 5}\n"
        "paths: {state: state.json, data: data.csv}\n",
    )
    save_block(make_test_state("random-mixed", 0, 0, 4, seed=0), workdir / "state.json")
    assert main(["simulate", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "n_t" in err

    # channel mismatch between data header and config
    good = _write_config(
        workdir / "good.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 4\n"
        "paths: {state: state.json, data: data.csv, out: rec.json}\n",
    )
    assert main(["simulate", "--config", good]) == 0
    other = _write_config(
        workdir / "other.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 1}\n"
        "j_max: 4\n"
        "paths: {data: data.csv, out: rec.json}\n",
    )
    assert main(["reconstruct", "--config", other]) == 2
    assert "does not match spec" in capsys.readouterr().err
    faster = _write_config(
        workdir / "faster.yaml",
        "spec: {kind: rigid-linear, omega: 2.0, m: 0}\n"
        "j_max: 4\n"
        "paths: {data: data.csv, out: rec.json}\n",
    )
    assert main(["reconstruct", "--config", faster]) == 2
    assert "omega" in capsys.readouterr().err

    # state bigger than the simulation cap
    big = _write_config(
        workdir / "big.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\n"
        "j_max: 3\n"
        "paths: {state: state.json, data: data.csv}\n",
    )
    assert main(["simulate", "--config", big]) == 2
    assert "exceeds" in capsys.readouterr().err

    # state of another channel than the config's
    tilted = _write_config(
        workdir / "tilted.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 1}\n"
        "j_max: 4\n"
        "paths: {state: state.json, data: data.csv}\n",
    )
    assert main(["simulate", "--config", tilted]) == 2
    assert "state channel (k=0, m=0) does not match config channel (k=0, m=1)" in (
        capsys.readouterr().err
    )

    # entries that are not a list
    (workdir / "state.json").write_text('{"k": 0, "m": 0, "j_max": 4, "entries": null}')
    assert main(["simulate", "--config", good]) == 2
    assert "'entries' must be a list, got None" in capsys.readouterr().err


_RIGID_RUN = (
    "spec: {kind: rigid-linear, omega: 1.0}\nj_max: 3\n"
    "paths: {state: state.json, data: data.csv, out: rec.json, metrics: m.json}\n"
)


def _spec_run(field):
    return f"spec: {{kind: rigid-linear, {field}}}\nj_max: 3\n"


def _nan_header(lines):
    lines[0] = re.sub(r"omega=[^,]+", "omega=nan", lines[0])


def _nan_value(lines):
    lines[4] = lines[4].rsplit(",", 1)[0] + ", nan"


# rigid m=1, j_max 4 on 21 x 9 nodes: file line 50 is slice 5, node 3
_RIGID_M1_RUN = (
    "spec: {kind: rigid-linear, omega: 1.0, m: 1}\nj_max: 4\nsampling: {n_t: 21}\n"
    "paths: {state: state.json, data: data.csv, out: rec.json}\n"
)


def _blank_lines_then_nan(lines):
    lines[1:1] = ["", "   "]
    lines[11] = lines[11].rsplit(",", 1)[0] + ", nan"


def _shifted_time(lines):
    t, rest = lines[49].split(",", 1)
    lines[49] = f"{float(t) + 1e-3!r},{rest}"


@pytest.mark.parametrize(
    "command,config,edit,flags,needle",
    [
        ("reconstruct", _RIGID_RUN, _nan_header, [], "line 1: omega must be finite"),
        ("reconstruct", _RIGID_RUN, _nan_value, [], "line 5: non-finite"),
        ("reconstruct", _RIGID_RUN, None, ["--threshold", "-1"], "--threshold"),
        ("roundtrip", _spec_run("omega: .nan"), None, [], "spec.omega"),
        ("roundtrip", _spec_run("omega: .inf"), None, [], "spec.omega"),
        ("roundtrip", _spec_run("omega2: .nan"), None, [], "spec.omega2"),
        ("roundtrip", _spec_run("d_cd: .nan"), None, [], "spec.d_cd"),
        (
            "roundtrip",
            _RIGID_RUN + "state: {kind: cos2-kicked, kick_strength: .nan}\n",
            None, [], "state.kick_strength",
        ),
        ("roundtrip", _RIGID_RUN + "threshold: .nan\n", None, [], "threshold"),
        ("roundtrip", _RIGID_RUN + "threshold: -1.0e-3\n", None, [], "threshold' must be >= 0"),
        ("roundtrip", _RIGID_RUN, None, ["--threshold", "nan"], "--threshold"),
        (
            "roundtrip",
            _RIGID_RUN + "noise: {samples_per_time: 9223372036854775808}\n",
            None, [], "noise.samples_per_time",
        ),
        ("reconstruct", _RIGID_M1_RUN, _blank_lines_then_nan, [], "line 12: non-finite"),
        ("reconstruct", _RIGID_M1_RUN, _shifted_time, [], "line 50: time column"),
        ("simulate", _RIGID_RUN, None, ["--threshold", "1"], "unrecognized arguments"),
        ("reconstruct", _RIGID_RUN, None, ["--seed", "1"], "unrecognized arguments"),
        ("coeffs", _RIGID_RUN, None, ["--seed", "1"], "unrecognized arguments"),
        ("coeffs", _RIGID_RUN, None, ["--threshold", "1"], "unrecognized arguments"),
        ("reconstruct", _RIGID_RUN, None, ["--threshold", "abc"], "got 'abc'"),
        ("reconstruct", _spec_run("omega: 1.0"), None, [], "no data file: pass --data or set"),
    ],
    ids=[
        "csv-omega-nan", "csv-pr-nan", "flag-threshold-negative", "omega-nan", "omega-inf",
        "omega2-nan", "d_cd-nan", "kick-nan", "threshold-nan", "threshold-negative",
        "flag-threshold-nan", "samples-per-time-2**63", "csv-pr-nan-after-blank-lines",
        "csv-time-off-at-node-3", "simulate-threshold", "reconstruct-seed", "coeffs-seed", "coeffs-threshold",
        "flag-threshold-text", "data-path-missing",
    ],
)
def test_cli_non_finite_or_negative_inputs_exit_two(
    workdir, capsys, command, config, edit, flags, needle
):
    cfg = _write_config(workdir / "run.yaml", config)
    if edit is not None:
        run = load_config(cfg)
        state = make_test_state("random-mixed", run.spec.k, run.spec.m, run.j_max, seed=0)
        save_block(state, workdir / "state.json")
        assert main(["simulate", "--config", cfg]) == 0
        lines = (workdir / "data.csv").read_text().splitlines()
        edit(lines)
        (workdir / "data.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    try:
        code = main([command, "--config", cfg, *flags])
    except SystemExit as exc:  # argparse rejects a bad flag value
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2 and needle in err
    assert "did not converge" not in err


def test_cli_roundtrip_names_the_sampling_limit(workdir, capsys):
    cfg = _write_config(
        workdir / "run.yaml",
        "spec: {kind: rigid-linear, omega: 1.0, m: 0}\nj_max: 101\n",
    )
    assert main(["roundtrip", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("sampling error:") and "need j_max <= 100" in err
