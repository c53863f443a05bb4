"""Variational engine: discrete action, Newton boundary-value solver,
classical action derivatives, Jacobi fields, and boundary Green functions.

The action is discretized with the midpoint rule,

    S_N = sum_j  tau * L((h_j + h_{j+1})/2, (h_{j+1} - h_j)/tau, t_{j+1/2}),

a variational integrator.  Its exact gradient with respect to the endpoint
nodes *is* the discrete boundary momentum, so the generating-function
identity p_f = +dS/dx_f, p_i = -dS/dx_i holds at the discrete level rather
than only in the continuum limit.  The second variation is block-tridiagonal
and each solution factors it once, by a banded LU that Newton, the caustic
verdict, the boundary Schur complement and the Jacobi solver share.  A
caustic (conjugate point) is declared when one mode's Gelfand-Yaglom ratio,
an eigenvalue of J(T) J_free(T)^{-1}, falls below CAUSTIC_TOL in modulus;
it is reported as SingularHessian.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import NoConvergence, SingularHessian

__all__ = [
    "TimeGrid",
    "ClassicalSolution",
    "BoundaryGreens",
    "JacobiSolver",
    "discrete_action",
    "action_gradient_hessian",
    "solve_classical",
    "classical_action_derivs",
    "jacobi_and_greens",
]

# Newton controls (residual tolerance is scaled by n*N as documented).
MAX_NEWTON_ITER = 50
ARMIJO_C = 1e-4
BACKTRACK = 0.5
RESIDUAL_TOL = 1e-10

# A second variation with a Gelfand-Yaglom mode ratio below this in modulus
# is a caustic.  The ratios are scale-free and grid-independent: on the
# oscillator the one ratio tends to sin(T)/T, about 5e-4 at T = 3.14 and
# O(tau^2) at the discrete conjugate point near T = pi.  Each mode is judged
# alone, so the verdict does not depend on the number of degrees of freedom.
CAUSTIC_TOL = 1e-4


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_i, t_f] with N sub-intervals."""

    t_i: float
    t_f: float
    N: int

    def __post_init__(self):
        if not self.t_i < self.t_f:
            raise ValueError("need t_i < t_f")
        if self.N < 2:
            raise ValueError("need at least 2 sub-intervals")

    @property
    def tau(self):
        return (self.t_f - self.t_i) / self.N

    def midpoints(self):
        return self.t_i + self.tau * (np.arange(self.N) + 0.5)


@dataclass
class ClassicalSolution:
    """Converged classical history with action and boundary momenta."""

    history: np.ndarray  # (N+1, n)
    action: float
    p_f: np.ndarray
    p_i: np.ndarray
    converged: bool
    residual_norm: float
    grid: TimeGrid
    spec: object
    # second variation at the solution: interval blocks and interior factor
    blocks: dict = field(repr=False)
    factor: "BandFactor" = field(repr=False)
    iterations: int = 0


@dataclass
class BoundaryGreens:
    """Hessian blocks of the classical action and their Green-function inverses.

    ``Hfi[a, b] = d^2 S / dx_f^a dx_i^b``; ``gFif @ Hfi = I`` (advanced),
    ``gFfi @ Hfi.T = I`` (retarded), and ``gFC`` is the antisymmetric causal
    combination on the doubled boundary-value space, ordered (final, initial).
    """

    Hff: np.ndarray
    Hfi: np.ndarray
    Hii: np.ndarray
    gFif: np.ndarray
    gFfi: np.ndarray
    gFC: np.ndarray


# ---------------------------------------------------------------------------
# Midpoint-rule action and its derivatives

def _as_history(h, grid, n):
    arr = np.asarray(h, dtype=float)
    if arr.shape != (grid.N + 1, n):
        raise ValueError(f"history shape {arr.shape}, expected {(grid.N + 1, n)}")
    return arr


def _interval_derivs(spec, h, grid):
    """Midpoint Lagrangian data per interval, batch axis last: shapes (.., N)."""
    tau = grid.tau
    mid = 0.5 * (h[:-1] + h[1:]).T  # (n, N)
    vel = (h[1:] - h[:-1]).T / tau
    return spec.lagrangian_derivs(mid, vel, grid.midpoints())


def discrete_action(spec, h, grid):
    """Midpoint-rule action of a discrete history."""
    h = _as_history(h, grid, spec.dim)
    tau = grid.tau
    mid = 0.5 * (h[:-1] + h[1:]).T
    vel = (h[1:] - h[:-1]).T / tau
    L = spec.lagrangian_value(mid, vel, grid.midpoints())
    return float(tau * np.sum(L))


def action_gradient_hessian(spec, h, grid):
    """Gradient and block-tridiagonal Hessian of the discrete action.

    Returns (interior_gradient, (p_f, p_i), blocks) where blocks is the dict
    {"D00", "D01", "D11"} of per-interval contributions: interval j couples
    nodes j and j+1, and the full Hessian has diagonal D11[j-1] + D00[j] at
    node j and off-diagonal D01[j] between nodes j and j+1.  blocks["kin"]
    is the kinetic part C/tau (C = d^2L/dv^2) that alone gives the blocks
    (kin, -kin, kin) of the free comparison Hessian.  The gradient at
    the endpoints encodes the boundary momenta, dS/dh_0 = -p_i and
    dS/dh_N = +p_f.
    """
    n = spec.dim
    h = _as_history(h, grid, n)
    tau = grid.tau
    _, Lx, Lv, A, B, C = _interval_derivs(spec, h, grid)

    # gradient pieces per interval: (tau/2) Lx -+ Lv, axes (n, N) -> (N, n)
    glo = (0.5 * tau * Lx - Lv).T
    ghi = (0.5 * tau * Lx + Lv).T
    grad = np.zeros((grid.N + 1, n))
    grad[:-1] += glo
    grad[1:] += ghi

    # per-interval Hessian blocks, axes (N, n, n)
    A = np.moveaxis(A, -1, 0)
    B = np.moveaxis(B, -1, 0)
    C = np.moveaxis(C, -1, 0)
    Bt = np.swapaxes(B, 1, 2)
    D00 = 0.25 * tau * A - 0.5 * (B + Bt) + C / tau
    D01 = 0.25 * tau * A + 0.5 * (B - Bt) - C / tau
    D11 = 0.25 * tau * A + 0.5 * (B + Bt) + C / tau

    p_i = -grad[0]
    p_f = grad[-1]
    return grad[1:-1], (p_f, p_i), {"D00": D00, "D01": D01, "D11": D11,
                                    "kin": C / tau}


def assemble_tridiag(blocks):
    """Full (N+1)-node block tridiagonal (diag, upper) from interval blocks."""
    D00, D01, D11 = blocks["D00"], blocks["D01"], blocks["D11"]
    N, n = D00.shape[0], D00.shape[1]
    diag = np.zeros((N + 1, n, n))
    diag[:-1] += D00
    diag[1:] += D11
    return diag, D01.copy()


# ---------------------------------------------------------------------------
# Block-tridiagonal linear algebra

class BandFactor:
    """LU factorization of the interior-node (1..N-1) block tridiagonal built
    from interval blocks {"D00", "D01", "D11"}, in LAPACK band storage.

    With n x n blocks the matrix has kl = ku = 2n - 1 bands; it is factored
    once by ``dgbtrf`` (partial pivoting) and every ``solve`` is one
    ``dgbtrs`` call.
    """

    def __init__(self, blocks):
        diag, off = assemble_tridiag(blocks)
        diag, off = diag[1:-1], off[1:-1]  # off couples interior rows k, k+1
        K, n = diag.shape[0], diag.shape[1]
        w = 2 * n - 1
        self.w = w
        # band storage: entry (i, j) of the matrix sits at ab[2w + i - j, j]
        ab = np.zeros((3 * w + 1, K * n))
        a, b = np.indices((n, n))
        node = n * np.arange(K)[:, None, None]
        ab[2 * w + a - b, node + b] = diag
        ab[2 * w - n + a - b, node[1:] + b] = off
        ab[2 * w + n + a - b, node[:-1] + b] = np.swapaxes(off, 1, 2)
        self.lu, self.piv, info = dgbtrf(ab, w, w, overwrite_ab=True)
        if info > 0:
            raise SingularHessian(
                f"zero pivot in row {info} of the interior second variation")

    def solve(self, rhs):
        """Solve for a right-hand side of shape (K, n) or (K, n, m)."""
        rhs = np.asarray(rhs, dtype=float)
        flat = rhs.reshape(rhs.shape[0] * rhs.shape[1], -1)
        x, _ = dgbtrs(self.lu, self.w, self.w, flat, self.piv)
        return x.reshape(rhs.shape)


def _veto_caustic(factor, blocks):
    """Raise SingularHessian when the interior second variation is a caustic.

    ``factor`` factors H, the interior second variation built from
    ``blocks``; H_kin is the same tridiagonal built from the kinetic blocks
    alone.  The mixed blocks d^2 S / dx_f dx_i of their Schur complements
    tend to -J(T)^{-1} and -J_free(T)^{-1}, where J(T) takes the initial
    momentum of a Jacobi field vanishing at t_i to its final value.  The
    eigenvalues of J J_free^{-1} are the Gelfand-Yaglom ratios of the modes
    (their product is det H / det H_kin in the continuum limit).  They do not
    change under linear changes of coordinates, and a mode's ratio vanishes
    at its conjugate point; the smallest in modulus decides.
    """
    kin = blocks["kin"]
    n = kin.shape[1]
    free = {"D00": kin, "D01": -kin, "D11": kin}
    Hfi = _schur_boundary(blocks, factor)[n:, :n]
    Hfi_free = _schur_boundary(free, BandFactor(free))[n:, :n]
    inverse = np.linalg.solve(Hfi_free, Hfi)  # J_free J^{-1}
    ratio = 0.0
    if np.all(np.isfinite(inverse)):
        ratio = 1.0 / np.max(np.abs(np.linalg.eigvals(inverse)))
    if ratio < CAUSTIC_TOL:
        raise SingularHessian(
            f"interior second variation nearly singular (smallest "
            f"Gelfand-Yaglom mode ratio {ratio:.2e}): conjugate point")


# ---------------------------------------------------------------------------
# Newton boundary-value solver

def straight_line_history(x_f, x_i, grid):
    s = np.linspace(0.0, 1.0, grid.N + 1)[:, None]
    return (1 - s) * np.asarray(x_i, float)[None, :] + s * np.asarray(x_f, float)[None, :]


def solve_classical(spec, x_f, x_i, grid, init=None):
    """Solve the two-point boundary problem by Newton iteration on the
    interior Euler-Lagrange residual, endpoints held fixed.

    Raises NoConvergence when the iteration stalls and SingularHessian when
    the Dirichlet second variation degenerates (conjugate point / caustic);
    the caustic verdict runs on the converged iterate and, before a stalled
    iteration is reported, on the current one.  Each accepted line-search
    trial becomes the next iterate with the gradient and blocks it was
    evaluated with.
    """
    n = spec.dim
    x_f = np.asarray(x_f, dtype=float)
    x_i = np.asarray(x_i, dtype=float)
    if x_f.shape != (n,) or x_i.shape != (n,):
        raise ValueError(f"boundary points must have shape ({n},)")
    h = straight_line_history(x_f, x_i, grid) if init is None else \
        _as_history(init, grid, n).copy()
    h[0], h[-1] = x_i, x_f

    tol = RESIDUAL_TOL * n * grid.N
    res_norm = np.inf
    grad_int, (p_f, p_i), blocks = action_gradient_hessian(spec, h, grid)
    for iteration in range(MAX_NEWTON_ITER):
        res_norm = float(np.linalg.norm(grad_int))
        factor = BandFactor(blocks)
        if res_norm <= tol:
            # converged: now veto caustics before reporting success
            _veto_caustic(factor, blocks)
            action = discrete_action(spec, h, grid)
            return ClassicalSolution(history=h, action=action, p_f=p_f, p_i=p_i,
                                     converged=True, residual_norm=res_norm,
                                     grid=grid, spec=spec, blocks=blocks,
                                     factor=factor, iterations=iteration)
        step = -factor.solve(grad_int)
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1e12:
            _veto_caustic(factor, blocks)
            raise NoConvergence(iteration, res_norm)
        # Armijo backtracking on the squared residual norm
        merit = 0.5 * res_norm**2
        alpha = 1.0
        accepted = False
        for _ in range(40):
            trial = h.copy()
            trial[1:-1] += alpha * step
            try:
                evaluated = action_gradient_hessian(spec, trial, grid)
            except Exception:
                alpha *= BACKTRACK
                continue
            g_trial = evaluated[0]
            if 0.5 * float(np.sum(g_trial**2)) <= merit - ARMIJO_C * alpha * res_norm**2:
                h = trial
                grad_int, (p_f, p_i), blocks = evaluated
                accepted = True
                break
            alpha *= BACKTRACK
        if not accepted:
            _veto_caustic(factor, blocks)
            raise NoConvergence(iteration + 1, res_norm)
    raise NoConvergence(MAX_NEWTON_ITER, res_norm)


# ---------------------------------------------------------------------------
# Classical action as a boundary function

def classical_action_derivs(spec, x_f, x_i, grid, init=None):
    """Classical action with gradients and Hessian blocks over (x_f, x_i).

    Gradients come straight from the boundary momenta of the converged
    solution; the Hessian blocks are the Schur complement of the interior
    second variation (no finite differences).
    Returns (S, dS/dx_f, dS/dx_i, {"Hff", "Hfi", "Hii"}).
    """
    sol = solve_classical(spec, x_f, x_i, grid, init=init)
    blocks = hessian_boundary_blocks(spec, sol)
    return sol.action, sol.p_f.copy(), -sol.p_i, blocks


def hessian_boundary_blocks(spec, sol):
    """Schur complement of the interior nodes: d^2 S / d(boundary)^2."""
    return _split_boundary(_schur_boundary(sol.blocks, sol.factor))


def _split_boundary(Hb):
    n = Hb.shape[0] // 2
    return {"Hff": Hb[n:, n:], "Hfi": Hb[n:, :n], "Hii": Hb[:n, :n]}


def _schur_boundary(blocks, factor):
    """Boundary Hessian, ordered (initial, final), from the interval blocks
    and the interior factor."""
    D00, D01, D11 = blocks["D00"], blocks["D01"], blocks["D11"]
    n = D00.shape[1]
    K = D00.shape[0] - 1

    # rhs columns coupling interior to node 0 and node N
    cols = np.zeros((K, n, 2 * n))
    cols[0, :, :n] = np.swapaxes(D01[0], 0, 1)  # block (1, 0) = D01_0^T
    cols[-1, :, n:] = D01[-1]                   # block (N-1, N) = D01_{N-1}
    Y = factor.solve(cols)

    Sbb = np.zeros((2 * n, 2 * n))
    Sbb[:n, :n] = D00[0]
    Sbb[n:, n:] = D11[-1]
    # S_bI Y: only first/last interior blocks couple
    SbIY = np.zeros((2 * n, 2 * n))
    SbIY[:n] = D01[0] @ Y[0]
    SbIY[n:] = np.swapaxes(D01[-1], 0, 1) @ Y[-1]
    return Sbb - SbIY


# ---------------------------------------------------------------------------
# Jacobi fields and boundary Green functions

class JacobiSolver:
    """Linearized-history solver around a converged classical solution.

    Solves the discrete Jacobi equation with Dirichlet or Neumann boundary
    data, evaluates linearized momenta at any node, and projects arbitrary
    linearized histories onto the Jacobi subspace through their Cauchy data.
    It reuses the solution's blocks and interior factor; ``Hb`` is the
    boundary Hessian d^2 S / d(x_i, x_f)^2 (their Schur complement).
    """

    def __init__(self, spec, sol):
        self.spec = spec
        self.sol = sol
        self.grid = sol.grid
        self.n = spec.dim
        self.D00 = sol.blocks["D00"]
        self.D01 = sol.blocks["D01"]
        self.D11 = sol.blocks["D11"]
        self.Hb = _schur_boundary(sol.blocks, sol.factor)

    def solve_dirichlet(self, dx_f, dx_i):
        """Jacobi field with prescribed endpoint values."""
        N, n = self.grid.N, self.n
        dx_f = np.asarray(dx_f, dtype=float)
        dx_i = np.asarray(dx_i, dtype=float)
        rhs = np.zeros((N - 1, n))
        rhs[0] -= np.swapaxes(self.D01[0], 0, 1) @ dx_i
        rhs[-1] -= self.D01[-1] @ dx_f
        field = np.empty((N + 1, n))
        field[0] = dx_i
        field[-1] = dx_f
        field[1:-1] = self.sol.factor.solve(rhs)
        return field

    def solve_neumann(self, dp_f, dp_i):
        """Jacobi field with prescribed endpoint momenta.

        The endpoint values solve Hb (dx_i, dx_f) = (-dp_i, dp_f); the
        interior follows as a Dirichlet field.  Raises SingularHessian when
        Hb is singular to working precision (a focal point, or the
        translation zero mode of a free system).
        """
        n = self.n
        svals = np.linalg.svd(self.Hb, compute_uv=False)
        # Hb comes through the interior factor, whose condition number grows
        # like N^2, and carries relative rounding of about 1e-3 N^2 eps (the
        # free particle's zero mode, T from 0.01 to 100, N from 2 to 4000)
        if svals[-1] <= self.grid.N**2 * np.finfo(float).eps * svals[0]:
            raise SingularHessian(
                f"Neumann second variation nearly singular "
                f"(sigma_min/sigma_max = {svals[-1] / svals[0]:.2e})")
        rhs = np.concatenate([-np.asarray(dp_i, dtype=float),
                              np.asarray(dp_f, dtype=float)])
        dx = np.linalg.solve(self.Hb, rhs)
        return self.solve_dirichlet(dx[n:], dx[:n])

    def momentum_at(self, field, k):
        """Linearized momentum of a linearized history at node k.

        Uses the forward discrete Legendre transform for k < N and the
        backward one at the final node; the two agree on Jacobi fields.
        """
        N = self.grid.N
        if k < N:
            return -(self.D00[k] @ field[k] + self.D01[k] @ field[k + 1])
        return np.swapaxes(self.D01[N - 1], 0, 1) @ field[N - 1] \
            + self.D11[N - 1] @ field[N]

    def symplectic_product(self, field1, field2, k):
        """Wronskian pairing p(xi1).dx(xi2) - p(xi2).dx(xi1) at node k."""
        return float(self.momentum_at(field1, k) @ field2[k]
                     - self.momentum_at(field2, k) @ field1[k])

    def cauchy_project(self, field, k):
        """Jacobi field matching the value and momentum of ``field`` at node k.

        Identity on Jacobi fields; arbitrary linearized histories are
        projected through their Cauchy data at node k.
        """
        N, n = self.grid.N, self.n
        field = np.asarray(field, dtype=float)
        dx = field[k]
        dp = self.momentum_at(field, k)
        out = np.empty((N + 1, n))
        if k < N:
            out[k] = dx
            out[k + 1] = np.linalg.solve(self.D01[k], -dp - self.D00[k] @ dx)
            start = k + 1
        else:
            out[N] = dx
            out[N - 1] = np.linalg.solve(
                np.swapaxes(self.D01[N - 1], 0, 1), dp - self.D11[N - 1] @ dx)
            start = N
        # forward propagation via interior stationarity at node j
        for j in range(start, N):
            lhs = self.D01[j]
            rhs = -(np.swapaxes(self.D01[j - 1], 0, 1) @ out[j - 1]
                    + (self.D11[j - 1] + self.D00[j]) @ out[j])
            out[j + 1] = np.linalg.solve(lhs, rhs)
        # backward propagation below node k
        for j in range(min(k, N - 1), 0, -1):
            lhs = np.swapaxes(self.D01[j - 1], 0, 1)
            rhs = -((self.D11[j - 1] + self.D00[j]) @ out[j]
                    + self.D01[j] @ out[j + 1])
            out[j - 1] = np.linalg.solve(lhs, rhs)
        return out


def jacobi_and_greens(spec, sol):
    """Boundary Green functions of a converged solution plus a Jacobi solver."""
    solver = JacobiSolver(spec, sol)
    blocks = _split_boundary(solver.Hb)
    Hff, Hfi, Hii = blocks["Hff"], blocks["Hfi"], blocks["Hii"]
    n = spec.dim
    try:
        gFif = np.linalg.solve(Hfi, np.eye(n))
    except np.linalg.LinAlgError as exc:
        raise SingularHessian("mixed Hessian block d2S/dxf dxi is singular") from exc
    gFfi = gFif.T
    gFC = np.zeros((2 * n, 2 * n))
    gFC[:n, n:] = -gFfi
    gFC[n:, :n] = gFif
    greens = BoundaryGreens(Hff=Hff, Hfi=Hfi, Hii=Hii,
                            gFif=gFif, gFfi=gFfi, gFC=gFC)
    return greens, solver
