"""Rotor models, density-matrix blocks, and the forward simulator.

Natural units with hbar = 1.  The rotational constant ``omega`` sets the
frequency scale, so the rigid-rotor energy is E_J = omega * J(J+1) and the
revival period is T = pi / omega.  A density-matrix block is the restriction
of the full rotational density matrix to one (k, m) channel; for linear
rotors k = 0.  The angular distribution in x = cos(theta) is

    Pr(x, t) = sum_{J1, J2} rho(J1, J2) f_J1(x) f_J2(x)
               * exp(-i [E_J1 - E_J2] t)

with f_J the normalized eigenfunctions from :mod:`rotortomo.angular`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .angular import QuadratureGrid, _channel_floor, _check_j, eigenfunction_rows, gauss_legendre_grid


class RotorKind(enum.Enum):
    RIGID = "rigid-linear"
    CENTRIFUGAL = "centrifugal-linear"
    SYMTOP = "symmetric-top"


def rotor_kind(name: str | RotorKind) -> RotorKind:
    try:
        return RotorKind(name)
    except ValueError:
        raise ValueError(
            f"unknown rotor kind {name!r}; expected one of {sorted(k.value for k in RotorKind)}"
        ) from None


@dataclass(frozen=True)
class RotorSpec:
    """Rotor Hamiltonian parameters and the (k, m) channel.

    omega
        Rotational constant (hbar / 2I); must be positive.
    omega2
        Second rotational constant of a symmetric top.  Its k^2 term is
        constant within a (k, m) block and cancels from every interference
        frequency; it only shifts absolute energies.
    d_cd
        Centrifugal distortion constant for kind "centrifugal-linear".
    k, m
        Projection quantum numbers selecting the block.  Linear kinds
        require k = 0.
    """

    kind: RotorKind
    omega: float
    omega2: float = 0.0
    d_cd: float = 0.0
    k: int = 0
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", rotor_kind(self.kind))
        for name in ("omega", "omega2", "d_cd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("k", "m"):
            _check_j(name, getattr(self, name), low=None)
        if self.omega <= 0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if self.kind is not RotorKind.SYMTOP and self.k != 0:
            raise ValueError(f"linear rotors have k = 0, got k = {self.k}")
        if self.d_cd < 0:
            raise ValueError(f"d_cd must be non-negative, got {self.d_cd}")
        if self.d_cd > 0 and self.kind is not RotorKind.CENTRIFUGAL:
            raise ValueError(f"d_cd is only meaningful for centrifugal-linear, got kind {self.kind.value}")

    @property
    def m_min(self) -> int:
        """Smallest J supported in this (k, m) channel."""
        return max(abs(self.k), abs(self.m))


def energy(spec: RotorSpec, J):
    """Eigenenergy omega n - d_cd n^2 - omega2 k^2, with n = J(J+1), of level J.

    One expression serves every kind: :class:`RotorSpec` admits d_cd > 0
    only for the centrifugal kind and k != 0 only for the symmetric top, and
    a zero term subtracts exactly, so each kind gets the bits of its own
    formula (the rigid spectrum is omega n).  ``J`` is an integer, or an
    integer array for the energies of many levels in one call; each entry
    gets the bits a scalar call would give.  A level below the channel
    minimum raises ValueError naming the lowest one.
    """
    lowest = J.min(initial=spec.m_min) if isinstance(J, np.ndarray) else J
    if lowest < spec.m_min:
        raise ValueError(f"J = {lowest} below channel minimum {spec.m_min}")
    n = J * (J + 1)
    return spec.omega * n - spec.d_cd * n * n - spec.omega2 * spec.k * spec.k


def monotone_j_limit(spec: RotorSpec) -> int:
    """Largest J up to which E_J is strictly increasing.

    For the centrifugal kind the spectrum turns over at J(J+1) = omega/(2 d_cd);
    model content beyond that J would fold frequencies back onto lower lines.
    """
    # only the centrifugal kind takes d_cd > 0, and omega / d_cd may overflow to inf
    limit = spec.omega / (2.0 * spec.d_cd) if spec.d_cd else math.inf
    if limit == math.inf:
        return 2**63 - 1  # the int64 maximum: no turning point
    j = math.isqrt(int(limit))  # floor(sqrt(limit)) in exact integers, at any size
    return j - 1 if j * (j + 1) >= limit else j


def check_distortion_range(spec: RotorSpec, j_cap: int) -> None:
    """Require j_cap <= :func:`monotone_j_limit`, so E_J is monotone up to j_cap."""
    if j_cap > monotone_j_limit(spec):
        bound = 1.0 / (2.0 * j_cap * (j_cap + 1))
        raise ValueError(
            f"d_cd/omega = {spec.d_cd / spec.omega:.3e} too large for J up to {j_cap}: "
            f"spectrum must stay monotone, need d_cd/omega < {bound:.3e}"
        )


@dataclass
class DensityBlock:
    """Hermitian density-matrix block for one (k, m) channel.

    ``elements[a, b]`` is rho(J1, J2) with J1 = j_min + a, J2 = j_min + b and
    j_min = max(|k|, |m|).  For a normalized state the trace is 1;
    reconstructions of noisy data may deviate.  k, m and j_max are integers
    with j_min <= j_max <= J_CAP; anything else raises ValueError naming it.
    """

    k: int
    m: int
    j_max: int
    elements: np.ndarray
    j_min: int = field(init=False)

    def __post_init__(self):
        self.j_min = _channel_floor(self.k, self.m, self.j_max)
        n = self.j_max - self.j_min + 1
        self.elements = np.asarray(self.elements, dtype=complex)
        if self.elements.shape != (n, n):
            raise ValueError(
                f"elements shape {self.elements.shape} does not match J range "
                f"{self.j_min}..{self.j_max} (expected {(n, n)})"
            )
        if not np.isfinite(self.elements).all():
            a, b = np.argwhere(~np.isfinite(self.elements))[0]
            raise ValueError(
                f"elements must be finite, got {self.elements[a, b]} at (a, b) = ({a}, {b})"
            )
        defect = self.hermiticity_defect()
        scale = max(1.0, float(np.max(np.abs(self.elements))))
        if defect > 1e-9 * scale:
            raise ValueError(f"block is not Hermitian: max |rho - rho^H| = {defect:.3e}")

    @classmethod
    def zeros(cls, k: int, m: int, j_max: int) -> "DensityBlock":
        n = j_max - _channel_floor(k, m, j_max) + 1
        return cls(k=k, m=m, j_max=j_max, elements=np.zeros((n, n), dtype=complex))

    @property
    def j_values(self) -> np.ndarray:
        return np.arange(self.j_min, self.j_max + 1)

    def index(self, J: int) -> int:
        if not self.j_min <= J <= self.j_max:
            raise IndexError(f"J = {J} outside block range {self.j_min}..{self.j_max}")
        return J - self.j_min

    def element(self, j1: int, j2: int) -> complex:
        return complex(self.elements[self.index(j1), self.index(j2)])

    def trace(self) -> float:
        return float(np.real(np.trace(self.elements)))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.elements - self.elements.conj().T)))

    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(self.elements)))

    def embedded(self, j_max: int) -> "DensityBlock":
        """Copy of the block zero-padded up to a larger j_max."""
        if j_max < self.j_max:
            raise ValueError(f"cannot shrink block from j_max = {self.j_max} to {j_max}")
        out = DensityBlock.zeros(self.k, self.m, j_max)
        n = self.elements.shape[0]
        out.elements[:n, :n] = self.elements
        return out

    def project_psd(self) -> "DensityBlock":
        """Nearest-PSD projection: clip negative eigenvalues, restore the trace."""
        vals, vecs = np.linalg.eigh(self.elements)
        clipped = np.clip(vals, 0.0, None)
        total = clipped.sum()
        if total > 0:
            clipped *= self.trace() / total
        mat = (vecs * clipped) @ vecs.conj().T
        return DensityBlock(k=self.k, m=self.m, j_max=self.j_max, elements=mat)


@dataclass
class MeasurementGrid:
    """Sampled Pr(x, t) on a Gauss-Legendre x grid and a uniform time grid.

    Time samples are t_i = i * dt for i = 0 .. n_t - 1 with
    dt = n_periods * period / n_t, i.e. uniform over [0, n_periods * T),
    where the period T = pi/omega is that of the grid's own ``omega``.
    ``values[i, j]`` is Pr(x_j, t_i).  The grid carries the rotor metadata
    needed to interpret it on its own (and to round-trip through CSV);
    ``kind`` may be given by name, as for :class:`RotorSpec`.
    """

    x_grid: QuadratureGrid
    n_periods: int
    values: np.ndarray
    omega: float
    kind: RotorKind
    k: int
    m: int

    def __post_init__(self):
        self.kind = rotor_kind(self.kind)
        for name in ("n_periods", "k", "m"):
            _check_j(name, getattr(self, name), low=None)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != self.x_grid.order:
            raise ValueError(
                f"values shape {self.values.shape} does not match x grid order {self.x_grid.order}"
            )
        for name in ("n_t", "n_periods"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0 < self.omega < math.inf:
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        if not np.isfinite(self.values).all():
            t, x = np.argwhere(~np.isfinite(self.values))[0]
            raise ValueError(
                f"values must be finite, got {self.values[t, x]} at (t, x) = ({t}, {x})"
            )

    @property
    def period(self) -> float:
        return math.pi / self.omega

    @property
    def n_t(self) -> int:
        return self.values.shape[0]

    @property
    def n_x(self) -> int:
        return self.x_grid.order

    @property
    def dt(self) -> float:
        return self.n_periods * self.period / self.n_t

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_t) * self.dt

    def x_integrals(self, f_of_x: np.ndarray) -> np.ndarray:
        """integral f(x) Pr(x, t) dx for every time sample.

        ``f_of_x`` holds f at the nodes, shape (n_x,), or one f per row,
        shape (k, n_x), which gives shape (n_t, k).
        """
        return self.values @ (self.x_grid.weights * f_of_x).T

    def trace_estimate(self) -> float:
        """Mean over t of integral Pr dx (equals the trace for exact data)."""
        return float(np.mean(self.values @ self.x_grid.weights))

    def alignment_trace(self) -> np.ndarray:
        """<cos^2 theta>(t) = integral x^2 Pr(x, t) dx."""
        return self.x_integrals(self.x_grid.nodes**2)


_FACTOR_BYTES = 32 * 2**20
_factors: dict[tuple, np.ndarray] = {}  # by (freqs, dt, n_t), least recently used first


def _keep_recent(memo: dict, entries: int, limit: int) -> None:
    """Drop the oldest values past ``entries`` or ``limit`` bytes; the one just used stays."""
    while len(memo) > entries or len(memo) > 1 and limit < sum(v.nbytes for v in memo.values()):
        del memo[next(iter(memo))]


def phase_table(freqs, dt: float, n_t: int) -> np.ndarray:
    """exp(i f k dt) for k = 0 .. n_t - 1 (rows) and each f in ``freqs`` (columns).

    With K = ceil(sqrt(n_t)) and k = q K + r, the table is the product of
    exp(i f q K dt) and exp(i f r dt): two small exponential tables of
    ceil(n_t / K) and K rows, memoized read-only for the last 16 (freqs, dt,
    n_t) within 32 MiB, and one complex multiply per entry into a fresh array,
    where exponentiating every entry would cost one complex exp each.  Entries
    agree with ``np.exp(1j * f * (k * dt))`` to a few ulp of max(1, |f k dt|).
    """
    freqs = np.asarray(freqs, dtype=float)
    K = math.isqrt(max(n_t - 1, 0)) + 1
    n_q = -(-n_t // K)
    key = (freqs.tobytes(), dt, n_t)
    table = _factors.pop(key, None)
    if table is None:
        steps = np.concatenate((np.arange(n_q) * K, np.arange(K))) * dt  # q K dt, then r dt
        table = np.exp(1j * np.multiply.outer(steps, freqs))
        table.setflags(write=False)
    _factors[key] = table
    _keep_recent(_factors, 16, _FACTOR_BYTES)
    return (table[:n_q, None, :] * table[n_q:]).reshape(n_q * K, len(freqs))[:n_t]


@lru_cache(maxsize=4)
def _pair_tables(spec: RotorSpec, j_max: int, nodes: bytes) -> tuple[np.ndarray, ...]:
    """Read-only rows f_J at the x nodes, level pairs a < b, and their lines E_b - E_a."""
    f = eigenfunction_rows(j_max, spec.k, spec.m, np.frombuffer(nodes))
    a, b = np.triu_indices(len(f), 1)
    e = energy(spec, np.arange(spec.m_min, j_max + 1))
    tables = f, a, b, e[b] - e[a]
    for table in tables:
        table.setflags(write=False)
    return tables


def simulate_pr(
    block: DensityBlock,
    spec: RotorSpec,
    x_grid: QuadratureGrid,
    n_t: int,
    n_periods: int = 1,
) -> MeasurementGrid:
    """Evolve the block and sample Pr(x, t) on the product grid.

    The x grid must have order >= 2*j_max + 1 so every x integral taken
    against the simulated data (normalization, basis projections up to the
    block bandwidth) is quadrature-exact.

    The level pairs a < b carry the time dependence: e = exp(-i w_ab t), one
    :func:`phase_table` over their own lines E_b - E_a with no level table,
    gives rho_ab e + rho_ba conj(e) = 2 Re(h e) + 2i Im(d e), where h and d
    are the (a, b) elements of the block's Hermitian and anti-Hermitian
    parts.  So one real matrix product of the pair phases' (Re e, Im e)
    against a table of h, d and f_a(x) f_b(x) gives Re Pr and Im Pr
    together, and the diagonal adds a constant term.  Im Pr comes from the
    anti-Hermitian part alone (d and Im rho_aa), so its columns are computed
    only for a block that has one; there the imaginary residue is checked
    against 1e-12 and discarded.  A Hermitian-to-the-bit block, such as a
    reconstruction's, filled on J1 >= J2 and mirrored, gets Re Pr alone.

    The simulator evaluates f_J(x) directly and never reads the coefficient
    tables of the inverse, so simulating a recovered block checks those
    tables independently of the fit residual a reconstruction reports.
    """
    if (block.k, block.m) != (spec.k, spec.m):
        raise ValueError(
            f"block channel (k={block.k}, m={block.m}) does not match "
            f"spec channel (k={spec.k}, m={spec.m})"
        )
    if x_grid.order < 2 * block.j_max + 1:
        raise ValueError(
            f"x grid order {x_grid.order} aliases products of degree {2 * block.j_max}: "
            f"need order >= {2 * block.j_max + 1}"
        )
    _check_j("n_t", n_t, low=None)
    _check_j("n_periods", n_periods, low=None)
    if n_t < 1:
        raise ValueError(f"n_t must be >= 1, got {n_t}")
    check_distortion_range(spec, block.j_max)

    dt = n_periods * (np.pi / spec.omega) / n_t
    rho, n_x = block.elements, x_grid.order
    f, a, b, lines = _pair_tables(spec, block.j_max, np.asarray(x_grid.nodes, float).tobytes())
    pairs = phase_table(lines, dt, n_t)  # exp(-i w_ab t), (n_t, pairs)
    upper, lower = rho[a, b], rho[b, a].conj()
    h, d = upper + lower, upper - lower  # twice the Hermitian and anti-Hermitian parts
    diagonal = np.diagonal(rho) @ (f * f)
    # (pair, Re e or Im e, Re Pr or Im Pr): Re(h e) and Im(d e) in (Re e, Im e);
    # Im Pr is left out when it is exactly zero
    if d.any() or diagonal.imag.any():
        weights = np.array([[h.real, d.imag], [-h.imag, d.real]]).transpose(2, 0, 1)
    else:
        weights = np.array([[h.real], [-h.imag]]).transpose(2, 0, 1)
    n_out = weights.shape[2] * n_x
    coef = (weights[..., None] * (f[a] * f[b])[:, None, None, :]).reshape(2 * len(a), n_out)
    values = pairs.view(float) @ coef  # (n_t, n_out): Re Pr, then Im Pr if computed
    values[:, :n_x] += diagonal.real
    if n_out > n_x:
        values[:, n_x:] += diagonal.imag
        imag_max = float(np.max(np.abs(values[:, n_x:])))
        if imag_max >= 1e-12:
            raise ValueError(f"simulated distribution has imaginary residue {imag_max:.3e}")
    return MeasurementGrid(x_grid=x_grid, n_periods=n_periods, values=values[:, :n_x],
                           omega=spec.omega, kind=spec.kind, k=spec.k, m=spec.m)


def make_test_state(
    state_kind: str,
    k: int,
    m: int,
    j_max: int,
    seed: int | None = None,
    kick_strength: float = 0.0,
) -> DensityBlock:
    """Construct a reference block: "random-pure", "random-mixed", or "cos2-kicked".

    Random states use ``numpy.random.default_rng(seed)``.  The kicked state
    applies exp(i * kick_strength * cos^2 theta) to the ground level of the
    channel; the unitary is built in a working space up to J = 2 j_max + 4,
    whose matrix of x^2 = cos^2 theta comes from the eigenfunctions on a
    Gauss-Legendre rule, and then truncated and renormalized, so the
    returned block is exactly unit trace while the truncation loss stays
    checkable by enlarging j_max.  Every block returned equals its conjugate
    transpose exactly.
    """
    n = j_max - _channel_floor(k, m, j_max) + 1
    rng = np.random.default_rng(seed)

    def random_pure() -> np.ndarray:
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        return np.outer(v, v.conj())

    if state_kind == "random-pure":
        mat = random_pure()
    elif state_kind == "random-mixed":
        weights = rng.random(3)
        weights /= weights.sum()
        mat = sum(w * random_pure() for w in weights)
    elif state_kind == "cos2-kicked":
        if not math.isfinite(kick_strength):
            raise ValueError(f"kick_strength must be finite, got {kick_strength}")
        # <J1|x^2|J2> by Gauss-Legendre: the integrand has degree <= 2 j_work + 2
        j_work = 2 * j_max + 4
        grid = gauss_legendre_grid(j_work + 2)
        f = eigenfunction_rows(j_work, k, m, grid.nodes)
        x2 = (f * (grid.weights * grid.nodes**2)) @ f.T
        # x2 is real symmetric: exp(i kappa x2) = V diag(exp(i kappa lambda)) V^T
        lam, vecs = np.linalg.eigh(x2)
        v = vecs @ (np.exp(1j * kick_strength * lam) * vecs[0])  # its first column
        v = v[:n]
        norm = np.linalg.norm(v)
        if norm == 0:
            raise ValueError("kicked state truncated to nothing; increase j_max")
        v = v / norm
        mat = np.outer(v, v.conj())
    else:
        raise ValueError(
            f"unknown state kind {state_kind!r}; expected 'random-pure', "
            f"'random-mixed', or 'cos2-kicked'"
        )
    # Hermitian to the bit, which v v^H need not be once rounded
    return DensityBlock(k=k, m=m, j_max=j_max, elements=(mat + mat.conj().T) / 2.0)


def add_shot_noise(grid: MeasurementGrid, samples_per_time: int, seed: int) -> MeasurementGrid:
    """Replace each time slice by a finite-sample estimate of Pr(x, t).

    Draws ``samples_per_time`` x values per slice from the quadrature-weighted
    distribution and rebuilds node values from the counts, renormalized so the
    weighted x integral of every slice equals the trace carried by the input
    grid.  Deterministic for a fixed seed.
    """
    _check_j("samples_per_time", samples_per_time, low=1, high=2**63 - 1)  # multinomial's int64
    rng = np.random.default_rng(seed)
    weights = grid.x_grid.weights
    masses = np.clip(weights * grid.values, 0.0, None)
    totals = masses.sum(axis=1)
    live = totals > 0  # slices without mass stay 0 and draw nothing
    # one call draws the live slices in time order, as one call per slice would
    counts = rng.multinomial(samples_per_time, masses[live] / totals[live, None])
    noisy = np.zeros_like(grid.values)
    noisy[live] = grid.trace_estimate() * counts / (samples_per_time * weights)
    return replace(grid, values=noisy)
