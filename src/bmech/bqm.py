"""Boundary quantum mechanics: the doubled quantum space, the physical state
as a propagator kernel, transition amplitudes, and semiclassical diagnostics.

The kernel K(x_f, x_i; T) is computed on a periodic ring large enough that
wrap-around images of the filtered momentum band cannot re-enter the physical
window within time T (the ring margin plays the role of an absorbing pad;
with exact band dynamics the suppression is exact rather than approximate).
Kinetic terms use band-exact (spectral) derivatives on the grid modes: local
difference stencils disperse near the Nyquist edge far too strongly to meet
kernel-level tolerances, while the band-exact symbol has no stuck modes.
Initial columns (discrete deltas) are low-passed by a raised-cosine filter
that is flat across the physically occupied band; at T = 0 no evolution
happens and the kernel is the exact discrete delta.

Two independent constructions are provided and cross-checked by the tests.
Crank-Nicolson takes the Cayley step of the real symmetric half-density
Hamiltonian H = 1/2 sum_ab (D_a W)^T A_ab (D_b W) + V, with W = |g|^(-1/4),
A = |g|^(1/2) g^(-1) and D_a the band-exact derivative with its Nyquist mode
zeroed (DeWitt's ordering, exact for point transformations), so it accepts
any positive-definite metric; one ``eigh`` of H gives the power of the step
for all slices at once.  Trotter takes the short-time kernel
exp(i tau L_mid) in its band-exact (periodized) form, needs a constant
metric, and is raised to the power ``slices`` by repeated squaring.  The
power is applied to the filtered deltas and to the norm watchdog's probe.

The semiclassical diagnostics factor the kernel on a window as K = a e^{iS}.
The classical action S and the boundary momenta come over whole arrays of
boundary pairs (``make_action_evaluator``).  When L is a polynomial of
degree at most 2 in (x, v) with no t (``SystemSpec.is_quadratic``, a
conservative test of the expression tree), the discrete Euler-Lagrange
equations are linear: one solve at the table's centre and its two Dirichlet
Jacobi fields give every pair's history by superposition.  Any other L takes
one batched two-point solve.  The theory does not tell the initial moment
from the final one: when L is even in v and has no t
(``SystemSpec.is_reversible``, another such test), S(x_f, x_i) = S(x_i, x_f)
and p_f(x_f, x_i) = -p_i(x_i, x_f) hold exactly for the midpoint action, so
the batch solves the upper triangle of the window's square table only and
mirrors the rest.  Failures keep their order: the first failed pair in
row-major order raises.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (DimensionMismatch, DomainError, Instability, NonNaturalLagrangian,
                     SingularMetric)
from .quantize import Grid, axis_kron, check_points, derivative_matrix

__all__ = [
    "KernelMatrix",
    "BoundaryState",
    "lift_observable",
    "phys_state",
    "kernel_grid",
    "amplitude",
    "semiclassical_measure",
    "make_action_evaluator",
    "SemiclassicalReport",
]

FILTER_FLAT = 0.4   # passband edge, fraction of the Nyquist wavenumber
FILTER_ZERO = 0.75  # cutoff, fraction of the Nyquist wavenumber
DRIFT_LIMIT = 0.01
RING_SAFETY = 1.15  # margin factor on the ring's outrun length


@dataclass
class KernelMatrix:
    """Propagator kernel K[x_f, x_i] over the product of two copies of a grid.

    Stores the bra components (phys|pos:(x_f, x_i)); each argument carries the
    position-base density weight 1/2.
    """

    K: np.ndarray
    grid: Grid
    T: float


@dataclass
class BoundaryState:
    """Ket coefficients W[x_f, x_i] = (pos:(x_f, x_i)|state) of a boundary state."""

    matrix: np.ndarray
    grid: Grid

    @classmethod
    def product(cls, psi_f, psi_i, grid):
        """State <f| (x) |i> from single-end wave functions (grid vectors)."""
        return cls(np.outer(np.conjugate(psi_f), psi_i), grid)

    @classmethod
    def position_ket(cls, j_f, j_i, grid):
        W = np.zeros((grid.size, grid.size), dtype=complex)
        W[j_f, j_i] = 1.0 / grid.cell_volume**2
        return cls(W, grid)

    @classmethod
    def from_kernel(cls, phys):
        """The physical state itself, as a boundary state (ket components)."""
        return cls(np.conjugate(phys.K), phys.grid)

    def scaled(self, c):
        return BoundaryState(c * self.matrix, self.grid)


class LiftedOperator:
    """Single-end operator lifted to the boundary quantum space.

    Final-end lifting acts as A^dagger on the covector factor, which on ket
    coefficient matrices is left multiplication by conj(A); initial-end
    lifting is right multiplication by A^T.
    """

    def __init__(self, matrix, end, grid):
        if end not in ("final", "initial"):
            raise ValueError("end must be 'final' or 'initial'")
        if matrix.shape != (grid.size, grid.size):
            raise DimensionMismatch(
                f"operator shape {matrix.shape} does not match grid size {grid.size}")
        self.matrix = np.asarray(matrix, dtype=complex)
        self.end = end
        self.grid = grid

    def apply(self, state):
        if state.matrix.shape != (self.grid.size, self.grid.size):
            raise DimensionMismatch("state does not match the lifted operator's grid")
        if self.end == "final":
            return BoundaryState(np.conjugate(self.matrix) @ state.matrix, state.grid)
        return BoundaryState(state.matrix @ self.matrix.T, state.grid)

    def full_matrix(self):
        """Dense matrix over the flattened product grid (row-major, f major)."""
        eye = np.eye(self.grid.size)
        if self.end == "final":
            return np.kron(np.conjugate(self.matrix), eye)
        return np.kron(eye, self.matrix)


def lift_observable(A, end):
    """Lift a single-end GridOperator (or matrix) to the boundary space."""
    matrix = A.matrix if hasattr(A, "matrix") else np.asarray(A)
    grid = A.grid if hasattr(A, "grid") else None
    if grid is None:
        raise DimensionMismatch("lift_observable needs a GridOperator with a grid")
    return LiftedOperator(matrix, end, grid)


# ---------------------------------------------------------------------------
# Kernel construction

def _require_ring(grid):
    if not all(grid.periodic):
        raise ValueError("propagator grids must be periodic in every coordinate")


def _wavenumbers(grid, k):
    return 2 * np.pi * np.fft.fftfreq(grid.sizes[k], d=grid.spacings[k])


def _circulant_from_symbol(sym):
    """Circulant matrix whose first column is c = ifft(sym): entry (i, j) is
    c[(i - j) mod n], copied from a strided view of c reversed and wrapped."""
    c = np.fft.ifft(sym)
    wrapped = np.concatenate((c[::-1], c[:0:-1]))  # wrapped[k] = c[(n - 1 - k) mod n]
    return np.lib.stride_tricks.sliding_window_view(wrapped, c.size)[::-1].copy()


def _band_filter_symbol(grid, k):
    kn = np.pi / grid.spacings[k]
    ak = np.abs(_wavenumbers(grid, k))
    t = (ak - FILTER_FLAT * kn) / ((FILTER_ZERO - FILTER_FLAT) * kn)
    return np.where(t <= 0, 1.0, np.where(t >= 1, 0.0,
                    np.cos(0.5 * np.pi * np.clip(t, 0.0, 1.0)) ** 2))


def _filter_matrix(grid):
    return axis_kron([_circulant_from_symbol(_band_filter_symbol(grid, k))
                      for k in range(grid.dim)])


def _band_derivative(grid, k):
    """Band-exact d/dx_k over the flattened ring: the real circulant of the
    symbol i k_j, with the Nyquist mode (which has no odd partner) zeroed."""
    sym = 1j * _wavenumbers(grid, k)
    sym[np.fft.fftfreq(grid.sizes[k]) == -0.5] = 0.0
    return axis_kron([_circulant_from_symbol(sym).real if j == k
                      else np.eye(grid.sizes[j]) for j in range(grid.dim)])


def _metric_on_ring(spec, grid):
    """The metric at every ring point, shape (size, n, n).

    Raises SingularMetric unless it is finite and positive definite at every
    point, relative to its largest entry on the ring.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # the check below raises
        g = np.moveaxis(spec.metric_matrix(grid.points().T), -1, 0)
    scale = np.max(np.abs(g))
    if not (np.isfinite(scale) and scale > 0.0):
        raise SingularMetric("metric is zero or not finite on the ring")
    if np.min(np.linalg.eigvalsh(g)) <= 1e-14 * scale:
        raise SingularMetric("metric is not positive definite on the ring")
    return g


def _inverse_mass(spec, grid):
    """Constant diagonal inverse metric over the grid, or None if not constant.

    The tests are relative to the largest metric entry on the grid, so a
    metric's scale does not decide whether it counts as constant.
    """
    gvals = _metric_on_ring(spec, grid)
    g0 = gvals[0]
    scale = np.max(np.abs(gvals))
    if not np.allclose(gvals, g0, rtol=1e-12, atol=1e-12 * scale):
        return None
    if not np.allclose(g0, np.diag(np.diag(g0)), atol=1e-14 * scale):
        return None
    return np.diag(np.linalg.inv(g0))


def _potential_on_points(spec, pts):
    """Potential at an (n, ...) stack of coordinate vectors.

    Raises DomainError unless it is finite at every point.
    """
    with np.errstate(all="ignore"):  # the check below raises
        V = np.asarray(spec.potential_value(pts), dtype=float)
    if not np.all(np.isfinite(V)):
        raise DomainError("potential is not finite on the ring")
    return V


def _hamiltonian(spec, grid):
    """Real symmetric H = 1/2 sum_ab (D_a W)^T A_ab (D_b W) + V on the ring.

    H acts on half-densities: W = |g|^(-1/4) and A = |g|^(1/2) g^(-1) are
    diagonal over the ring points and D_a is the band-exact derivative.  For
    a constant metric the kinetic term is the band symbol g^ab k_a k_b / 2
    with the Nyquist mode zeroed.
    """
    g = _metric_on_ring(spec, grid)
    det = np.linalg.det(g)
    A = np.sqrt(det)[:, None, None] * np.linalg.inv(g)
    DW = [_band_derivative(grid, a) * det ** -0.25 for a in range(grid.dim)]
    kin = sum(DW[a].T @ (A[:, a, b, None] * DW[b])
              for a in range(grid.dim) for b in range(grid.dim))
    return 0.5 * kin + np.diag(_potential_on_points(spec, grid.points().T))


def _trotter_step(spec, grid, tau):
    """Short-time kernel exp(i tau L_mid) of one slice, in periodized
    (band-exact) form with the free-kernel normalization."""
    inv_mass = _inverse_mass(spec, grid)
    if inv_mass is None:
        raise NonNaturalLagrangian(
            "trotter kernels need a constant metric (position-independent mass)")
    pts = grid.points()
    free = axis_kron([
        _circulant_from_symbol(np.exp(-0.5j * tau * inv_mass[k]
                                      * _wavenumbers(grid, k) ** 2))
        for k in range(grid.dim)])
    mids = 0.5 * (pts[:, None, :] + pts[None, :, :])  # (size, size, n)
    vmid = _potential_on_points(spec, np.moveaxis(mids, -1, 0))
    return free * np.exp(-1j * tau * vmid)


def phys_state(spec, T, grid, method="cranknicolson", slices=512):
    """Propagator kernel K(x_f, x_i; T) of a natural Lagrangian system.

    method "cranknicolson": Cayley steps of the half-density Hamiltonian of
    ``_hamiltonian`` (band-exact derivatives, Nyquist mode zeroed), for any
    positive-definite metric.  H is real symmetric, so one ``eigh`` gives the
    power of all ``slices`` steps: P = U diag(c^slices) U^T with
    c(lambda) = (1 - i tau lambda/2) / (1 + i tau lambda/2).
    method "trotter": short-time kernel exp(i tau L_mid) with the free-kernel
    normalization in periodized (band-exact) form, for a constant metric; its
    one-slice step is raised to the power ``slices`` by repeated squaring.
    The power is applied to the filtered deltas.  T = 0 returns the exact
    discrete delta.
    """
    if not spec.is_natural:
        raise NonNaturalLagrangian(
            f"system '{spec.name}' declares no metric: no Hamiltonian available")
    _require_ring(grid)
    if method not in ("cranknicolson", "trotter"):
        raise ValueError(f"unknown method {method!r}")
    if slices < 1:
        raise ValueError(f"need at least one time slice, got {slices}")
    vol = grid.cell_volume
    size = grid.size
    if T == 0:
        return KernelMatrix(np.eye(size, dtype=complex) / vol, grid, 0.0)
    if T < 0:
        raise ValueError("propagation time must be non-negative")

    tau = T / slices
    if method == "trotter":
        P = np.linalg.matrix_power(_trotter_step(spec, grid, tau), slices)
    else:
        lam, U = np.linalg.eigh(_hamiltonian(spec, grid))
        c = (1 - 0.5j * tau * lam) / (1 + 0.5j * tau * lam)
        P = (U * c**slices) @ U.T
    Phi = _filter_matrix(grid)
    K = P @ Phi / vol
    if not np.all(np.isfinite(K)):
        raise Instability("propagator kernel has non-finite entries")

    # stability watchdog: a band-limited probe supported in the declared
    # domain must keep its norm (kernel column norms also count ring-seam
    # junk with no bearing on the windowed kernel, so they are not used)
    pts = grid.points()
    probe = np.ones(size)
    for k in range(grid.dim):
        lo, hi, _ = spec.domain[k]
        centre, width = 0.5 * (lo + hi), (hi - lo) / 6.0
        probe = probe * np.exp(-((pts[:, k] - centre) / width) ** 2)
    probe = Phi @ probe
    drift = abs(np.linalg.norm(P @ probe) / np.linalg.norm(probe) - 1.0)
    if not np.isfinite(drift) or drift > DRIFT_LIMIT:
        raise Instability(f"norm drift {drift:.2%} exceeds {DRIFT_LIMIT:.0%}")
    return KernelMatrix(K, grid, float(T))


def kernel_grid(spec, T, points):
    """Periodic ring sized so filtered wrap-around cannot re-enter the domain.

    The ring half-length L solves 2L - w >= RING_SAFETY * k_cut * T, where w is
    the declared domain width and k_cut the filter cutoff; this is the
    outrun version of an absorbing margin.
    """
    if spec.dim != 1:
        raise DimensionMismatch("kernel_grid sizes one-dimensional rings")
    check_points(points)
    lo, hi, _ = spec.domain[0]
    w = hi - lo
    c = RING_SAFETY * FILTER_ZERO * np.pi * points * max(T, 1e-6) / 2.0
    L = (w + np.sqrt(w * w + 8.0 * c)) / 4.0
    L = max(L, w)  # never smaller than the declared domain
    centre = 0.5 * (lo + hi)
    return Grid(sizes=(points,), spacings=(2 * L / points,),
                origins=(centre - L,), periodic=(True,))


# ---------------------------------------------------------------------------
# Amplitudes

def amplitude(phys, state):
    """(phys|state): bilinear pairing of the kernel with ket coefficients."""
    if state.matrix.shape != phys.K.shape:
        raise DimensionMismatch("state and kernel grids differ")
    vol = phys.grid.cell_volume
    return complex(vol * vol * np.sum(phys.K * state.matrix))


# ---------------------------------------------------------------------------
# Semiclassical decomposition

@dataclass
class SemiclassicalReport:
    """Extracted measure field and constraint residuals on a window."""

    measure: np.ndarray          # a(x_f, x_i) on the window
    action: np.ndarray           # classical action on the window
    variation: float             # max relative deviation of the measure
    residuals: dict              # field name -> relative constraint residual
    residual_fields: dict        # field name -> residual array on the window
    window_index: np.ndarray     # grid indices of the window
    window_points: np.ndarray


def make_action_evaluator(spec, T, N=400, stats=None):
    """Classical data of a scalar system over arrays of boundary pairs.

    Returns ``evaluate(XF, XI) -> (S, PF, PI)``: the action and the boundary
    momenta p_f, p_i of every pair (x_f, x_i), as arrays of the shape of XF
    and XI, on an N-interval grid over [0, T].

    For a quadratic spec (``SystemSpec.is_quadratic``: L of degree at most 2
    in (x, v), no t) one ``solve_quadratic_batch`` call solves the table's
    centre (mean x_f, mean x_i) once and superposes every pair's history
    from it and its two Dirichlet Jacobi fields; a failure of that solve,
    such as a caustic, raises, and counts as one solved pair.

    Any other spec takes one ``solve_classical_batch`` call.  For a
    reversible spec (``SystemSpec.is_reversible``: L even in v, no t) the
    midpoint action of the reversed history is the action, so
    S(x_f, x_i) = S(x_i, x_f) and p_f(x_f, x_i) = -p_i(x_i, x_f).  A square
    table with XI == XF.T then has only its upper triangle solved (diagonal
    included, row-major order) and the lower one filled by S[j, i] = S[i, j],
    PF[j, i] = -PI[i, j], PI[j, i] = -PF[i, j]; any other table or spec is
    solved in full.  If ``stats`` is a dict, each call adds the number of
    pairs it solved to ``stats["pairs_solved"]``: 1 for a quadratic spec.

    If any pair of the batch fails, the first failed pair in row-major order
    raises its error (NoConvergence, SingularHessian, DomainError).  A
    mirrored table raises the first failure of its triangle.  That is the
    full table's first failure whenever a pair and its partner fail alike,
    because the partner (j, i) of a lower pair (i, j) comes before it in
    row-major order; the message may differ from that pair's own in its
    iteration digits.
    """
    from .classical import TimeGrid, solve_classical_batch, solve_quadratic_batch
    grid = TimeGrid(0.0, T, N)
    quadratic = spec.is_quadratic
    reversible = spec.is_reversible

    def evaluate(XF, XI):
        XF, XI = np.broadcast_arrays(np.asarray(XF, float), np.asarray(XI, float))
        mirror = (not quadratic and reversible and XF.ndim == 2
                  and XF.shape[0] == XF.shape[1] and np.array_equal(XI, XF.T))
        if mirror:
            rows, cols = np.triu_indices(XF.shape[0])
            xf, xi = XF[rows, cols], XI[rows, cols]
        else:
            xf, xi = XF.ravel(), XI.ravel()
        if quadratic:
            batch, solved = solve_quadratic_batch(spec, xf[None], xi[None], grid), 1
        else:
            batch, solved = solve_classical_batch(spec, xf[None], xi[None], grid), xf.size
        for error in batch.errors:
            if error is not None:
                raise error
        if stats is not None:
            stats["pairs_solved"] = stats.get("pairs_solved", 0) + solved
        S, pf, pi = batch.action, batch.p_f[0], batch.p_i[0]
        if not mirror:
            return S.reshape(XF.shape), pf.reshape(XF.shape), pi.reshape(XF.shape)
        # the mirror first, so the diagonal keeps its own solved momenta
        table = np.empty((3,) + XF.shape)
        table[:, cols, rows] = S, -pi, -pf
        table[:, rows, cols] = S, pf, pi
        return table[0], table[1], table[2]

    return evaluate


def semiclassical_measure(phys, action_eval, fields=None, window=None):
    """Factor the kernel as K = a * exp(i S) and test the constraint equation.

    ``action_eval(XF, XI) -> (S, PF, PI)`` supplies the classical data over
    the window's (x_f, x_i) arrays in one call, and its error, if any, is
    raised; ``fields`` maps names to callables (XF, XI) -> (a_f, a_i).  For
    each field the report carries || (i L_a + a.grad S) K || / ||K|| over
    the window, with L_a the central-difference Lie derivative on weight-1/2
    densities of the product space.
    """
    grid = phys.grid
    if grid.dim != 1:
        raise DimensionMismatch("semiclassical diagnostics need a scalar system")
    if fields is None:
        fields = {"const": lambda xf, xi: (np.ones_like(xf), np.ones_like(xi))}
    x = grid.axis_points(0)
    if window is None:
        lo, hi = x[0], x[-1]
    else:
        lo, hi = window
    idx = np.where((x >= lo) & (x <= hi))[0]
    if idx.size < 4:
        raise ValueError("window selects fewer than 4 grid points")
    xw = x[idx]
    XF = xw[:, None] + 0.0 * xw[None, :]
    XI = 0.0 * xw[:, None] + xw[None, :]
    S, Pf, Pi = action_eval(XF, XI)

    Kw = phys.K[np.ix_(idx, idx)]
    measure = Kw * np.exp(-1j * S)
    mean = np.mean(measure)
    variation = float(np.max(np.abs(measure - mean)) / np.abs(mean))

    # derivatives of K at the window's points: rows idx of D K and of K D^T
    D = derivative_matrix(grid, 0)
    dK_f = D[idx] @ phys.K[:, idx]
    dK_i = phys.K[idx] @ D[idx].T

    knorm = np.linalg.norm(Kw)
    residuals = {}
    residual_fields = {}
    for name, fld in fields.items():
        af, ai = fld(XF, XI)
        div = _window_divergence(fld, XF, XI, grid.spacings[0])
        lie = af * dK_f + ai * dK_i + 0.5 * div * Kw
        a_grad_s = af * Pf - ai * Pi
        res = 1j * lie + a_grad_s * Kw
        residuals[name] = float(np.linalg.norm(res) / knorm)
        residual_fields[name] = res
    return SemiclassicalReport(measure=measure, action=S, variation=variation,
                               residuals=residuals, residual_fields=residual_fields,
                               window_index=idx, window_points=xw)


def _window_divergence(fld, XF, XI, h):
    """Central-difference divergence of a product-space field."""
    af_p, _ = fld(XF + h, XI)
    af_m, _ = fld(XF - h, XI)
    _, ai_p = fld(XF, XI + h)
    _, ai_m = fld(XF, XI - h)
    return (af_p - af_m) / (2 * h) + (ai_p - ai_m) / (2 * h)
