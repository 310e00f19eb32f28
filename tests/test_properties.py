"""Property tests: exact-data grids round-trip within their kind's tolerance or name a limit,
and every entry point takes a (k, m) channel's level or block size by one rule.

A shot-noised copy of each grid must reconstruct to the least-squares fit of
the whole time-domain design, solved densely by :func:`oracles.time_domain_block`.
"""

import json

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from rotortomo.angular import (
    J_CAP,
    ROWS_CAP,
    assoc_legendre_norm,
    coefficient_table,
    eigenfunction_rows,
    gauss_legendre_grid,
    wigner_d,
)
from rotortomo.fileio import FileFormatError, load_block, load_config
from rotortomo.rotor import (
    DensityBlock,
    RotorKind,
    RotorSpec,
    add_shot_noise,
    make_test_state,
    simulate_pr,
)
from rotortomo.tomography import SamplingError, SamplingPlan, pattern_function, reconstruct_block

TOLERANCE = {RotorKind.RIGID: 1e-10, RotorKind.SYMTOP: 1e-10, RotorKind.CENTRIFUGAL: 1e-10}
# d_cd of 1e-11 to 1e-9 moves the lines off their bins by far less than a bin
D_CD = [0.0, 1e-11, 1e-10, 1e-9, 1e-4, 1e-3]


@st.composite
def exact_grids(draw):
    kind = draw(st.sampled_from(list(RotorKind)))
    k = draw(st.integers(-2, 2)) if kind is RotorKind.SYMTOP else 0
    m = draw(st.integers(-3, 3))
    spec = RotorSpec(
        kind=kind,
        omega=draw(st.sampled_from([1.0, 0.7])),
        omega2=0.3 if kind is RotorKind.SYMTOP else 0.0,
        d_cd=draw(st.sampled_from(D_CD)) if kind is RotorKind.CENTRIFUGAL else 0.0,
        k=k,
        m=m,
    )
    j_max = draw(st.integers(spec.m_min, 10))
    n_periods = draw(st.integers(1, 4)) if kind is RotorKind.CENTRIFUGAL else 1
    plan = SamplingPlan.derive(spec, j_max, n_periods)
    n_t = plan.n_t + draw(st.integers(0, 3 * plan.n_t))
    n_x = plan.n_x + draw(st.integers(0, 8))
    block = make_test_state("random-mixed", k, m, j_max, seed=draw(st.integers(0, 99)))
    grid = simulate_pr(block, spec, gauss_legendre_grid(n_x), n_t, n_periods)
    return spec, block, grid


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(exact_grids())
def test_exact_grids_round_trip_or_raise_a_sampling_error(case):
    spec, block, grid = case
    try:
        result = reconstruct_block(grid, spec, block.j_max)
    except SamplingError:
        return
    assert np.max(np.abs(result.block.elements - block.elements)) <= TOLERANCE[spec.kind]
    noisy = add_shot_noise(grid, 10**4, seed=0)
    got = reconstruct_block(noisy, spec, block.j_max).block.elements
    assert np.max(np.abs(got - oracles.time_domain_block(noisy, spec, block.j_max))) <= 1e-12


# half small ints; half wide and negative ints, the caps' next values, bools, and
# integral and non-integral floats
LABELS = st.one_of(
    st.integers(-5, 5),
    st.sampled_from([J_CAP // 2 + 1, J_CAP + 1, ROWS_CAP + 1, 10**6, -(10**6), 2**70,
                     True, False, 0.0, 2.0, 3.0, float(J_CAP), 0.5, -1.5, 2.5]),
)


def channel_rule(k, m, j, cap) -> bool:
    """The reference predicate: integers k, m and j with max(|k|, |m|) <= j <= cap."""
    ints = all(isinstance(v, int) and not isinstance(v, bool) for v in (k, m, j))
    return ints and max(abs(k), abs(m)) <= j <= cap


def _spec(k, m):
    return RotorSpec(kind=RotorKind.SYMTOP if k else RotorKind.RIGID, omega=1.0, k=k, m=m)


def _block(k, m, j):
    n = j - max(abs(k), abs(m)) + 1 if channel_rule(k, m, j, J_CAP) else 0
    return DensityBlock(k, m, j, np.zeros((n, n)))


def _json_block(path, k, m, j):
    path.write_text(json.dumps({"k": k, "m": m, "j_max": j, "entries": []}))
    return load_block(path)


def _yaml_config(path, k, m, j):
    kind = "symmetric-top" if k else "rigid-linear"
    dump = json.dumps  # a JSON scalar is a YAML scalar of the same type
    path.write_text(f"spec: {{kind: {kind}, omega: 1.0, k: {dump(k)}, m: {dump(m)}}}\nj_max: {dump(j)}\n")
    return load_config(path)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(k=LABELS, m=LABELS, j=LABELS)
def test_every_entry_point_takes_a_channel_size_by_one_rule(tmp_path_factory, k, m, j):
    files = tmp_path_factory.getbasetemp()
    # (the k the call reads, its cap, the error type it raises, the call)
    entry_points = {
        "assoc_legendre_norm": (0, J_CAP, ValueError, lambda: assoc_legendre_norm(j, m, 0.3)),
        "wigner_d": (k, J_CAP, ValueError, lambda: wigner_d(j, k, m, 0.3)),
        "eigenfunction_rows": (k, ROWS_CAP, ValueError, lambda: eigenfunction_rows(j, k, m, [0.0])),
        "coefficient_table": (k, J_CAP, ValueError, lambda: coefficient_table(k, m, j)),
        "DensityBlock": (k, J_CAP, ValueError, lambda: _block(k, m, j)),
        "DensityBlock.zeros": (k, J_CAP, ValueError, lambda: DensityBlock.zeros(k, m, j)),
        "make_test_state": (k, J_CAP, ValueError,
                            lambda: make_test_state("random-pure", k, m, j, seed=0)),
        "SamplingPlan.derive": (k, J_CAP // 2, ValueError,
                                lambda: SamplingPlan.derive(_spec(k, m), j)),
        "pattern_function": (k, 4, ValueError, lambda: pattern_function(j, k, m, 4)),
        "load_block": (k, J_CAP, FileFormatError,
                       lambda: _json_block(files / "channel.json", k, m, j)),
        "load_config": (k, float("inf"), FileFormatError,
                        lambda: _yaml_config(files / "channel.yaml", k, m, j)),
    }
    for name, (k_read, cap, error, call) in entry_points.items():
        try:
            call()
        except Exception as exc:  # any type: the assertion checks it
            assert isinstance(exc, error), (name, k, m, j, exc)
            assert not channel_rule(k_read, m, j, cap), (name, k, m, j, exc)
        else:
            assert channel_rule(k_read, m, j, cap), (name, k, m, j)
