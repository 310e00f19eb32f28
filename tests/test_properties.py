"""Property test: exact-data grids round-trip within their kind's tolerance or name a limit.

A shot-noised copy of each grid must reconstruct to the least-squares fit of
the whole time-domain design, solved densely by :func:`oracles.time_domain_block`.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from rotortomo.angular import gauss_legendre_grid
from rotortomo.rotor import RotorKind, RotorSpec, add_shot_noise, make_test_state, simulate_pr
from rotortomo.tomography import SamplingError, SamplingPlan, reconstruct_block

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
