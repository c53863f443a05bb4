"""Variational engine: discrete action, Newton boundary-value solver,
classical action derivatives, Jacobi fields, and boundary Green functions.

The action is discretized with the midpoint rule,

    S_N = sum_j  tau * L((h_j + h_{j+1})/2, (h_{j+1} - h_j)/tau, t_{j+1/2}),

a variational integrator.  Its exact gradient with respect to the endpoint
nodes *is* the discrete boundary momentum, so the generating-function
identity p_f = +dS/dx_f, p_i = -dS/dx_i holds at the discrete level rather
than only in the continuum limit.  The second variation is block-tridiagonal;
caustics show up as (near-)singular interior blocks and are treated as
errors.
"""

from dataclasses import dataclass

import numpy as np

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

# Interior second variation with sigma_min/sigma_max below this is a caustic;
# the cheap pivot-ratio gate (caustics sit near 1e-3, healthy runs near 0.5)
# decides when the power-iteration estimate is worth running.
SINGULAR_TOL = 1e-7
PIVOT_GATE = 1e-2


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
    node j and off-diagonal D01[j] between nodes j and j+1.  The gradient at
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
    return grad[1:-1], (p_f, p_i), {"D00": D00, "D01": D01, "D11": D11}


def assemble_tridiag(blocks, grid):
    """Full (N+1)-node block tridiagonal (diag, upper) from interval blocks."""
    D00, D01, D11 = blocks["D00"], blocks["D01"], blocks["D11"]
    N, n = D00.shape[0], D00.shape[1]
    diag = np.zeros((N + 1, n, n))
    diag[:-1] += D00
    diag[1:] += D11
    return diag, D01.copy()


def interior_tridiag(blocks, grid):
    """Interior-node block tridiagonal (nodes 1..N-1)."""
    diag, off = assemble_tridiag(blocks, grid)
    return diag[1:-1], off[1:-1]


# ---------------------------------------------------------------------------
# Block-tridiagonal linear algebra

class TridiagFactor:
    """Block LDL-style forward elimination of a symmetric block tridiagonal.

    ``off[k]`` is the block coupling rows k and k+1 (upper side); the lower
    side is its transpose.  The elimination pivots track the Jacobi
    determinant along the interval, so ``pivot_ratio`` (smallest pivot
    singular value over the largest) is the natural conjugate-point
    detector and comes for free with the factorization.
    """

    def __init__(self, diag, off):
        K, n = diag.shape[0], diag.shape[1]
        self.K, self.n = K, n
        self.off = off
        self.pivots = np.empty_like(diag)
        self.gains = np.empty((max(K - 1, 0), n, n))
        self.pivots[0] = diag[0]
        for k in range(1, K):
            try:
                gain = np.linalg.solve(self.pivots[k - 1], off[k - 1]).T
            except np.linalg.LinAlgError as exc:
                raise SingularHessian(f"zero pivot block at node {k}") from exc
            if not np.all(np.isfinite(gain)):
                raise SingularHessian(f"non-finite pivot at node {k}")
            self.gains[k - 1] = gain
            self.pivots[k] = diag[k] - gain @ off[k - 1]
        if n == 1:
            svals = np.abs(self.pivots[:, 0, 0])
        else:
            svals = np.linalg.svd(self.pivots, compute_uv=False).ravel()
        top = float(np.max(svals))
        self.pivot_ratio = float(np.min(svals) / top) if top > 0 else 0.0

    def solve(self, rhs):
        """Solve for one right-hand side of shape (K, n) or (K, n, m)."""
        K = self.K
        y = np.array(rhs, dtype=float)
        for k in range(1, K):
            y[k] -= self.gains[k - 1] @ y[k - 1]
        out = np.empty_like(y)
        out[-1] = np.linalg.solve(self.pivots[-1], y[-1])
        for k in range(K - 2, -1, -1):
            out[k] = np.linalg.solve(self.pivots[k], y[k] - self.off[k] @ out[k + 1])
        return out

    def matvec(self, vec, diag):
        out = np.einsum("kab,kb->ka", diag, vec)
        out[:-1] += np.einsum("kab,kb->ka", self.off, vec[1:])
        out[1:] += np.einsum("kba,kb->ka", self.off, vec[:-1])
        return out


def _extreme_singular_ratio(diag, off, factor, iters=40, seed=0):
    """Estimate sigma_min / sigma_max of the symmetric block tridiagonal."""
    K, n = diag.shape[0], diag.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((K, n))
    v /= np.linalg.norm(v)
    hi = 0.0
    for _ in range(iters):
        v = factor.matvec(v, diag)
        hi = np.linalg.norm(v)
        if hi == 0.0:
            return 0.0
        v /= hi
    w = rng.standard_normal((K, n))
    w /= np.linalg.norm(w)
    inv_norm = np.inf
    for _ in range(iters):
        w = factor.solve(w)
        inv_norm = np.linalg.norm(w)
        if not np.isfinite(inv_norm) or inv_norm == 0.0:
            return 0.0
        w /= inv_norm
    return (1.0 / inv_norm) / hi


def _factor_interior(blocks, grid, check_caustic):
    diag, off = interior_tridiag(blocks, grid)
    factor = TridiagFactor(diag, off)
    if check_caustic and factor.pivot_ratio < PIVOT_GATE:
        # confirm with an actual extreme-singular-value estimate before
        # declaring a caustic: pivots can underestimate sigma_min
        ratio = _extreme_singular_ratio(diag, off, factor)
        if ratio < SINGULAR_TOL:
            raise SingularHessian(
                f"interior second variation nearly singular "
                f"(sigma_min/sigma_max = {ratio:.2e}): conjugate point")
    return factor


# ---------------------------------------------------------------------------
# Newton boundary-value solver

def straight_line_history(x_f, x_i, grid):
    s = np.linspace(0.0, 1.0, grid.N + 1)[:, None]
    return (1 - s) * np.asarray(x_i, float)[None, :] + s * np.asarray(x_f, float)[None, :]


def solve_classical(spec, x_f, x_i, grid, init=None):
    """Solve the two-point boundary problem by Newton iteration on the
    interior Euler-Lagrange residual, endpoints held fixed.

    Raises NoConvergence when the iteration stalls and SingularHessian when
    the Dirichlet second variation degenerates (conjugate point / caustic).
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
    for iteration in range(MAX_NEWTON_ITER):
        grad_int, (p_f, p_i), blocks = action_gradient_hessian(spec, h, grid)
        res_norm = float(np.linalg.norm(grad_int))
        if res_norm <= tol:
            # converged: now veto caustics before reporting success
            _factor_interior(blocks, grid, check_caustic=True)
            action = discrete_action(spec, h, grid)
            return ClassicalSolution(history=h, action=action, p_f=p_f, p_i=p_i,
                                     converged=True, residual_norm=res_norm,
                                     grid=grid, spec=spec, iterations=iteration)
        factor = _factor_interior(blocks, grid, check_caustic=False)
        step = -factor.solve(grad_int)
        if not np.all(np.isfinite(step)) or np.linalg.norm(step) > 1e12:
            _factor_interior(blocks, grid, check_caustic=True)
            raise NoConvergence(iteration, res_norm)
        # Armijo backtracking on the squared residual norm
        merit = 0.5 * res_norm**2
        alpha = 1.0
        accepted = False
        for _ in range(40):
            trial = h.copy()
            trial[1:-1] += alpha * step
            try:
                g_trial, _, _ = action_gradient_hessian(spec, trial, grid)
            except Exception:
                alpha *= BACKTRACK
                continue
            if 0.5 * float(np.sum(g_trial**2)) <= merit - ARMIJO_C * alpha * res_norm**2:
                h = trial
                accepted = True
                break
            alpha *= BACKTRACK
        if not accepted:
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
    _, _, blocks = action_gradient_hessian(spec, sol.history, sol.grid)
    factor = _factor_interior(blocks, sol.grid, check_caustic=True)
    return _schur_boundary(blocks["D00"], blocks["D01"], blocks["D11"], factor)


def _schur_boundary(D00, D01, D11, factor):
    """Boundary Hessian blocks from the interval blocks and the interior factor."""
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
    Hb = Sbb - SbIY  # ordered (node 0, node N) = (initial, final)
    return {"Hff": Hb[n:, n:], "Hfi": Hb[n:, :n], "Hii": Hb[:n, :n]}


# ---------------------------------------------------------------------------
# Jacobi fields and boundary Green functions

class JacobiSolver:
    """Linearized-history solver around a converged classical solution.

    Solves the discrete Jacobi equation with Dirichlet or Neumann boundary
    data, evaluates linearized momenta at any node, and projects arbitrary
    linearized histories onto the Jacobi subspace through their Cauchy data.
    """

    def __init__(self, spec, sol):
        self.spec = spec
        self.sol = sol
        self.grid = sol.grid
        self.n = spec.dim
        _, _, blocks = action_gradient_hessian(spec, sol.history, self.grid)
        self.D00 = blocks["D00"]
        self.D01 = blocks["D01"]
        self.D11 = blocks["D11"]
        self._interior = _factor_interior(blocks, self.grid, check_caustic=True)

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
        field[1:-1] = self._interior.solve(rhs)
        return field

    def solve_neumann(self, dp_f, dp_i):
        """Jacobi field with prescribed endpoint momenta."""
        N, n = self.grid.N, self.n
        diag, off = assemble_tridiag(
            {"D00": self.D00, "D01": self.D01, "D11": self.D11}, self.grid)
        factor = TridiagFactor(diag, off)
        if factor.pivot_ratio < PIVOT_GATE:
            ratio = _extreme_singular_ratio(diag, off, factor)
            if ratio < SINGULAR_TOL:
                raise SingularHessian(
                    f"Neumann second variation nearly singular "
                    f"(sigma_min/sigma_max = {ratio:.2e})")
        rhs = np.zeros((N + 1, n))
        rhs[0] = -np.asarray(dp_i, dtype=float)
        rhs[-1] = np.asarray(dp_f, dtype=float)
        return factor.solve(rhs)

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
    blocks = _schur_boundary(solver.D00, solver.D01, solver.D11, solver._interior)
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
