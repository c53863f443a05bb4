"""Boundary quantum mechanics: the doubled quantum space, the physical state
as a propagator kernel, transition amplitudes, and semiclassical diagnostics.

The kernel K(x_f, x_i; T) is computed on a periodic ring large enough that
wrap-around images of the filtered momentum band cannot re-enter the physical
window within time T (the ring margin plays the role of an absorbing pad;
with exact band dynamics the suppression is exact rather than approximate).
The kinetic factor uses the exact band symbol k^2/(2m) on the grid modes:
local difference stencils disperse near the Nyquist edge far too strongly to
meet kernel-level tolerances, while the band-exact symbol has no stuck modes.
Initial columns (discrete deltas) are low-passed by a raised-cosine filter
that is flat across the physically occupied band; at T = 0 no evolution
happens and the kernel is the exact discrete delta.

Two independent one-slice steps are provided and cross-checked by the tests:
the Crank-Nicolson (Cayley) step of the Hamiltonian, and the short-time
kernel exp(i tau L_mid) in its band-exact (periodized) form.  Either step is
raised to the power ``slices`` once, by repeated squaring, and the power is
applied to the filtered deltas and to the norm watchdog's probe.

The semiclassical diagnostics factor the kernel on a window as K = a e^{iS}.
The classical action S and the boundary momenta come over whole arrays of
boundary pairs from one batched two-point solve (``make_action_evaluator``).
"""

from dataclasses import dataclass

import numpy as np

from .classical import TimeGrid, solve_classical_batch
from .classical import solve_classical  # noqa: F401  (re-exported: callers reach it through bqm)
from .errors import DimensionMismatch, Instability, NonNaturalLagrangian, SingularMetric
from .quantize import Grid, axis_kron, check_points, derivative_matrix, op_K

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


@dataclass
class KernelMatrix:
    """Propagator kernel K[x_f, x_i] over the product of two copies of a grid.

    Stores the bra components (phys|pos:(x_f, x_i)); each argument carries the
    position-base density weight 1/2 - i gamma.
    """

    K: np.ndarray
    grid: Grid
    T: float
    gamma: float = 0.0


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


def _band_filter_symbol(grid, k, flat=FILTER_FLAT, zero=FILTER_ZERO):
    kn = np.pi / grid.spacings[k]
    ak = np.abs(_wavenumbers(grid, k))
    t = (ak - flat * kn) / ((zero - flat) * kn)
    return np.where(t <= 0, 1.0, np.where(t >= 1, 0.0,
                    np.cos(0.5 * np.pi * np.clip(t, 0.0, 1.0)) ** 2))


def _filter_matrix(grid):
    return axis_kron([_circulant_from_symbol(_band_filter_symbol(grid, k))
                      for k in range(grid.dim)])


def _inverse_mass(spec, grid):
    """Constant diagonal inverse metric over the grid, or None if not constant.

    The tests are relative to the largest metric entry on the grid, so a
    metric's scale does not decide whether it counts as constant, and a
    constant metric with a diagonal entry that is zero on that scale raises
    SingularMetric.
    """
    pts = grid.points().T  # (n, size)
    gvals = spec.metric_matrix(pts)  # (n, n, size) or (n, n)
    gvals = np.atleast_3d(gvals)
    g0 = gvals[..., 0]
    scale = np.max(np.abs(gvals))
    if not np.allclose(gvals, g0[..., None], rtol=1e-12, atol=1e-12 * scale):
        return None
    if not np.allclose(g0, np.diag(np.diag(g0)), atol=1e-14 * scale):
        return None
    if np.any(np.abs(np.diag(g0)) <= 1e-14 * scale):
        raise SingularMetric("constant metric has a zero diagonal entry")
    return np.diag(np.linalg.inv(g0))


def _potential_on_points(spec, pts):
    """Potential at an (n, ...) stack of coordinate vectors."""
    return np.asarray(spec.potential_value(pts), dtype=float)


def _slice_step(spec, grid, method, tau):
    """One-slice step matrix of length ``tau`` for either construction."""
    inv_mass = _inverse_mass(spec, grid)
    pts = grid.points()
    if method == "trotter":
        if inv_mass is None:
            raise NonNaturalLagrangian(
                "trotter kernels need a constant metric (position-independent mass)")
        free = axis_kron([
            _circulant_from_symbol(np.exp(-0.5j * tau * inv_mass[k]
                                          * _wavenumbers(grid, k) ** 2))
            for k in range(grid.dim)])
        mids = 0.5 * (pts[:, None, :] + pts[None, :, :])  # (size, size, n)
        vmid = _potential_on_points(spec, np.moveaxis(mids, -1, 0))
        return free * np.exp(-1j * tau * vmid)
    if inv_mass is not None:
        kin = sum(
            axis_kron([
                _circulant_from_symbol(0.5 * inv_mass[k] * _wavenumbers(grid, k) ** 2)
                if j == k else np.eye(grid.sizes[j])
                for j in range(grid.dim)])
            for k in range(grid.dim))
    else:
        from .geometry import MetricField
        gfield = MetricField(lambda x: spec.metric_matrix(x), spec.dim)
        kin = 0.5 * op_K(gfield, grid).matrix
    H = kin + np.diag(_potential_on_points(spec, pts.T))
    A = np.eye(grid.size) + 0.5j * tau * H
    B = np.eye(grid.size) - 0.5j * tau * H
    return np.linalg.solve(A, B)


def phys_state(spec, T, grid, method="cranknicolson", slices=512, gamma=0.0):
    """Propagator kernel K(x_f, x_i; T) of a natural Lagrangian system.

    method "cranknicolson": Cayley step of H = op_K/2 + V, with the kinetic
    term in its band-exact form when the metric is constant.
    method "trotter": short-time kernel exp(i tau L_mid) with the free-kernel
    normalization, in periodized (band-exact) form.
    Either one-slice step is raised to the power ``slices`` by repeated
    squaring and applied to the filtered deltas.
    T = 0 returns the exact discrete delta.
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
        return KernelMatrix(np.eye(size, dtype=complex) / vol, grid, 0.0, gamma)
    if T < 0:
        raise ValueError("propagation time must be non-negative")

    P = np.linalg.matrix_power(_slice_step(spec, grid, method, T / slices), slices)
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
    return KernelMatrix(K, grid, float(T), gamma)


def kernel_grid(spec, T, points, safety=1.15):
    """Periodic ring sized so filtered wrap-around cannot re-enter the domain.

    The ring half-length L solves 2L - w >= safety * k_cut * T, where w is
    the declared domain width and k_cut the filter cutoff; this is the
    outrun version of an absorbing margin.
    """
    if spec.dim != 1:
        raise DimensionMismatch("kernel_grid sizes one-dimensional rings")
    check_points(points)
    lo, hi, _ = spec.domain[0]
    w = hi - lo
    c = safety * FILTER_ZERO * np.pi * points * max(T, 1e-6) / 2.0
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


def make_action_evaluator(spec, T, N=400):
    """Classical data of a scalar system over arrays of boundary pairs.

    Returns ``evaluate(XF, XI) -> (S, PF, PI)``: the action and the boundary
    momenta p_f, p_i of every pair (x_f, x_i), as arrays of the shape of XF
    and XI, from one ``solve_classical_batch`` call on an N-interval grid
    over [0, T].  If any pair fails, the first failed pair in row-major order
    raises its error (NoConvergence, SingularHessian, DomainError).
    """
    grid = TimeGrid(0.0, T, N)

    def evaluate(XF, XI):
        XF, XI = np.broadcast_arrays(np.asarray(XF, float), np.asarray(XI, float))
        batch = solve_classical_batch(spec, XF.reshape(1, -1), XI.reshape(1, -1), grid)
        for error in batch.errors:
            if error is not None:
                raise error
        return (batch.action.reshape(XF.shape), batch.p_f.reshape(XF.shape),
                batch.p_i.reshape(XF.shape))

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
