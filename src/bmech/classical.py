"""Variational engine: discrete action, Newton boundary-value solver,
classical action derivatives, Jacobi fields, and boundary Green functions.

The action is discretized with the midpoint rule,

    S_N = sum_j  tau * L((h_j + h_{j+1})/2, (h_{j+1} - h_j)/tau, t_{j+1/2}),

a variational integrator.  Its exact gradient with respect to the endpoint
nodes *is* the discrete boundary momentum, so the generating-function
identity p_f = +dS/dx_f, p_i = -dS/dx_i holds at the discrete level rather
than only in the continuum limit.  The second variation is block-tridiagonal
and each solution factors it once, by an LU that Newton, the caustic
verdict, the boundary Schur complement and the Jacobi solver share: LAPACK's
tridiagonal ``dgttrf`` for a scalar system (n = 1), its banded ``dgbtrf``
for n >= 2.  A
caustic (conjugate point) is declared when one mode's Gelfand-Yaglom ratio,
an eigenvalue of J(T) J_free(T)^{-1}, falls below CAUSTIC_TOL in modulus;
it is reported as SingularHessian.

One Newton loop serves a single boundary pair (``solve_classical``) and a
batch of them (``solve_classical_batch``): the histories of a batch are
stacked along a leading member axis, so one Lagrangian evaluation and one
banded factorization per iteration cover every member, while each member
keeps its own convergence test, line search, caustic verdict and error.
"""

from dataclasses import dataclass, field

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
    "solve_classical_batch",
    "solve_quadratic_batch",
    "ClassicalBatch",
    "classical_action_derivs",
    "jacobi_and_greens",
]

# Newton controls (residual tolerance is scaled by n*N as documented).
MAX_NEWTON_ITER = 50
ARMIJO_C = 1e-4
BACKTRACK = 0.5
RESIDUAL_TOL = 1e-10
EPS = np.finfo(float).eps

# Node x member elements of one batched Newton chunk, about forty members at
# N = 200: it bounds the working arrays.  The semiclassical benchmark, of
# README-size calls, peaks at 91 MB of RSS with it, at 88 MB with 2048-element
# chunks and at 95 MB with 16384, which are no faster; one 625-member piece
# peaks at 135 MB and is slower.
CHUNK_ELEMENTS = 8192

# A second variation with a Gelfand-Yaglom mode ratio below this in modulus
# is a caustic.  The ratios are scale-free and grid-independent: on the
# oscillator the one ratio tends to sin(T)/T, about 5e-4 at T = 3.14 and
# O(tau^2) at the discrete conjugate point near T = pi.  Each mode is judged
# alone, so the verdict does not depend on the number of degrees of freedom.
CAUSTIC_TOL = 1e-4

# Identity rows appended to a scalar tridiagonal (see BandFactor).
PAD_ROWS = 2


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
class ClassicalBatch:
    """Two-point solutions of a batch of boundary pairs, member axis last.

    A failed member holds NaN, and in ``errors`` the exception that its own
    ``solve_classical`` raises; a converged member holds None there.
    """

    history: np.ndarray  # (N+1, n, B)
    action: np.ndarray   # (B,)
    p_f: np.ndarray      # (n, B)
    p_i: np.ndarray      # (n, B)
    iterations: np.ndarray  # (B,)
    errors: list


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

def _as_history(h, grid, n, stack=True):
    """``h`` as one history (N+1, n) or, if ``stack``, also a stack (B, N+1, n)."""
    arr = np.asarray(h, dtype=float)
    if arr.shape[-2:] != (grid.N + 1, n) or arr.ndim not in ((2, 3) if stack else (2,)):
        raise ValueError(f"history shape {arr.shape}, expected {(grid.N + 1, n)}")
    return arr


def _interval_data(h, grid):
    """Midpoints and velocities per interval, axes (n, ..., N)."""
    front = (h.ndim - 1,) + tuple(range(h.ndim - 1))
    mid = (0.5 * (h[..., :-1, :] + h[..., 1:, :])).transpose(front)
    vel = (h[..., 1:, :] - h[..., :-1, :]).transpose(front) / grid.tau
    return mid, vel


def discrete_action(spec, h, grid):
    """Midpoint-rule action of a discrete history, or of each in a stack."""
    h = _as_history(h, grid, spec.dim)
    mid, vel = _interval_data(h, grid)
    L = spec.lagrangian_value(mid, vel, grid.midpoints())
    S = grid.tau * np.sum(L, axis=-1)
    return float(S) if h.ndim == 2 else S


def action_gradient_hessian(spec, h, grid):
    """Gradient and block-tridiagonal Hessian of the discrete action.

    Returns (interior_gradient, (p_f, p_i), blocks) where blocks is the dict
    {"D00", "D01", "D11"} of per-interval contributions: interval j couples
    nodes j and j+1, and the full Hessian has diagonal D11[j-1] + D00[j] at
    node j and off-diagonal D01[j] between nodes j and j+1.  blocks["kin"]
    is the kinetic part C/tau (C = d^2L/dv^2) that alone gives the blocks
    (kin, -kin, kin) of the free comparison Hessian.  The gradient at
    the endpoints encodes the boundary momenta, dS/dh_0 = -p_i and
    dS/dh_N = +p_f.  For a stack of histories (B, N+1, n) every output gains
    the leading member axis, and one Lagrangian evaluation covers the stack.
    """
    n = spec.dim
    h = _as_history(h, grid, n)
    tau = grid.tau
    _, Lx, Lv, A, B, C = spec.lagrangian_derivs(*_interval_data(h, grid),
                                                 grid.midpoints())

    # gradient pieces per interval, axes (n, ..., N) -> (..., N, n)
    back = tuple(range(1, h.ndim)) + (0,)
    left, right = _node_gradient_terms(Lx, Lv, tau)
    grad = np.zeros(h.shape)
    grad[..., :-1, :] += left.transpose(back)
    grad[..., 1:, :] += right.transpose(back)

    # per-interval Hessian blocks, axes (n, n, ..., N) -> (..., N, n, n)
    back = tuple(range(2, h.ndim + 1)) + (0, 1)
    A, B, C = A.transpose(back), B.transpose(back), C.transpose(back)
    Bt = np.swapaxes(B, -1, -2)
    D00 = 0.25 * tau * A - 0.5 * (B + Bt) + C / tau
    D01 = 0.25 * tau * A + 0.5 * (B - Bt) - C / tau
    D11 = 0.25 * tau * A + 0.5 * (B + Bt) + C / tau

    p_i = -grad[..., 0, :]
    p_f = grad[..., -1, :]
    return grad[..., 1:-1, :], (p_f, p_i), {"D00": D00, "D01": D01, "D11": D11,
                                            "kin": C / tau}


def _node_gradient_terms(Lx, Lv, tau):
    """Each interval's terms of dS/dh at its left node, (tau/2) Lx - Lv, and
    at its right node, (tau/2) Lx + Lv."""
    return 0.5 * tau * Lx - Lv, 0.5 * tau * Lx + Lv


def boundary_momenta(spec, ends, grid):
    """Boundary momenta (p_f, p_i) of stationary histories from their first
    and last intervals alone: dS/dh_N = p_f and dS/dh_0 = -p_i, as
    ``action_gradient_hessian`` reads them off the full gradient.  ``ends``
    holds the nodes (h_0, h_1, h_{N-1}, h_N) of each history, shape (B, 4, n);
    p_f and p_i have shape (n, B)."""
    mid, vel = _interval_data(np.asarray(ends, dtype=float), grid)
    # intervals (h_0, h_1) and (h_{N-1}, h_N); the middle pair is no interval
    _, Lx, Lv, *_ = spec.lagrangian_derivs(mid[..., ::2], vel[..., ::2],
                                           grid.midpoints()[[0, -1]])
    left, right = _node_gradient_terms(Lx, Lv, grid.tau)
    return right[..., 1], -left[..., 0]


def assemble_tridiag(blocks):
    """Full (N+1)-node block tridiagonal (diag, upper) from interval blocks,
    with any leading member axis of the blocks kept."""
    D00, D01, D11 = blocks["D00"], blocks["D01"], blocks["D11"]
    N, n = D00.shape[-3], D00.shape[-1]
    diag = np.zeros(D00.shape[:-3] + (N + 1, n, n))
    diag[..., :-1, :, :] += D00
    diag[..., 1:, :, :] += D11
    return diag, D01.copy()


# ---------------------------------------------------------------------------
# Block-tridiagonal linear algebra

class BandFactor:
    """LU factorization of the interior-node (1..N-1) block tridiagonal built
    from interval blocks {"D00", "D01", "D11"}, with partial pivoting.

    For a scalar system (n = 1) the matrix is a plain tridiagonal, factored
    once by ``dgttrf``; every ``solve`` is one ``dgttrs`` call.  Two identity
    rows are appended after the last unknown, uncoupled from it, because
    scipy's wrapper of ``dgttrf`` rejects a matrix of fewer than three rows
    (one interior node at N = 2); ``solve`` drops them again.  With n x n
    blocks, n >= 2, the matrix has kl = ku = 2n - 1 bands in LAPACK band
    storage, factored by ``dgbtrf`` and solved by ``dgbtrs``.

    Blocks with a leading member axis (B, N, n, n) put the members' matrices
    one after another on the diagonal, with no coupling between them.  The
    elimination never crosses a zero coupling, so each member gets exactly
    its own factor, and a right-hand side is solved for every member at once.
    ``errors[b]`` is the SingularHessian of member b (a zero pivot or
    non-finite blocks) or None, and ``singular[b]`` says which; such a
    member's solution is meaningless but finite, so it cannot spoil the
    others.  Blocks without a member axis raise that error instead.
    """

    def __init__(self, blocks):
        diag, off = assemble_tridiag(blocks)
        stacked = diag.ndim == 4
        if not stacked:
            diag, off = diag[None], off[None]
        diag, off = diag[:, 1:-1], off[:, 1:-1]  # off couples interior rows k, k+1
        B, K, n = diag.shape[:3]
        self.rows = B * K * n
        self.tridiagonal = n == 1
        if self.tridiagonal:
            # the diagonal, then the coupling of row r to row r + 1 (the matrix
            # is symmetric), zero at each member's last row
            band = np.zeros((2, self.rows + PAD_ROWS))
            band[0, self.rows:] = 1.0  # the appended identity rows
            band[0, :self.rows] = diag.ravel()
            band[1, :self.rows].reshape(B, K)[:, :-1] = off[..., 0, 0]
            diag_row = 0
        else:
            w = 2 * n - 1
            self.w = w
            # band storage: entry (i, j) of the matrix sits at band[2w + i - j, j];
            # nothing is stored between one member's last row and the next's first
            band = np.zeros((3 * w + 1, self.rows))
            a, b = np.indices((n, n))
            node = n * np.arange(B * K).reshape(B, K, 1, 1)
            band[2 * w + a - b, node + b] = diag
            band[2 * w - n + a - b, node[:, 1:] + b] = off
            band[2 * w + n + a - b, node[:, :-1] + b] = np.swapaxes(off, -1, -2)
            diag_row = 2 * w
        self.errors = [None] * B
        self.singular = np.zeros(B, dtype=bool)
        members = band[:, :self.rows].reshape(len(band), B, K * n)
        if not np.isfinite(members).all():
            # a member's columns hold only its own entries: make it identity
            self.singular = ~np.isfinite(members).all(axis=(0, 2))
            members[:, self.singular] = 0.0
            members[diag_row, self.singular] = 1.0
            for m in np.flatnonzero(self.singular):
                self.errors[m] = SingularHessian(
                    "interior second variation has non-finite entries")
        from scipy.linalg.lapack import dgbtrf, dgttrf

        if self.tridiagonal:
            *self.lu, info = dgttrf(band[1, :-1], band[0], band[1, :-1])
            pivots = self.lu[1][:self.rows]  # diagonal of U
        else:
            self.lu, self.piv, info = dgbtrf(band, w, w, overwrite_ab=True)
            pivots = self.lu[2 * w]
        if info > 0:
            zero = pivots == 0.0
            pivots[zero] = 1.0  # keeps every other member's solution finite
            zero = zero.reshape(B, K * n)
            for m in np.flatnonzero(zero.any(axis=1)):
                self.singular[m] = True
                self.errors[m] = SingularHessian(
                    f"zero pivot in row {np.argmax(zero[m]) + 1} of the "
                    f"interior second variation")
        if not stacked and self.errors[0] is not None:
            raise self.errors[0]

    def solve(self, rhs):
        """Solve for a right-hand side holding the unknowns in order, shaped
        (K, n) or (B, K, n), with an optional trailing axis of m columns.

        A member whose right-hand side is not finite gets NaN; it is solved
        with zeros, since elimination would carry its entries into the
        neighbouring members (0 * inf is NaN).
        """
        from scipy.linalg.lapack import dgbtrs, dgttrs

        rhs = np.asarray(rhs, dtype=float)
        if np.isfinite(rhs).all():
            b = rhs.reshape(self.rows, -1)
            if self.tridiagonal:
                padded = np.zeros((self.rows + PAD_ROWS, b.shape[1]), order="F")
                padded[:self.rows] = b
                x = dgttrs(*self.lu, padded, overwrite_b=True)[0][:self.rows]
            else:
                x, _ = dgbtrs(self.lu, self.w, self.w, b, self.piv)
            return x.reshape(rhs.shape)
        members = rhs.reshape(len(self.errors), -1)
        spoilt = ~_finite_rows(members)
        x = self.solve(np.where(spoilt[:, None], 0.0, members)).reshape(members.shape)
        x[spoilt] = np.nan
        return x.reshape(rhs.shape)


def _finite_rows(a):
    """Whether each entry a[b] along the leading axis is finite throughout."""
    return np.isfinite(a).reshape(len(a), -1).all(axis=1)


def _caustic_ratios(factor, blocks):
    """Smallest Gelfand-Yaglom mode ratio in modulus of each member, (B,).

    ``factor`` factors H, the interior second variation built from the
    stacked ``blocks``; H_kin is the same tridiagonal built from the kinetic
    blocks alone.  The mixed blocks d^2 S / dx_f dx_i of their Schur
    complements tend to -J(T)^{-1} and -J_free(T)^{-1}, where J(T) takes the
    initial momentum of a Jacobi field vanishing at t_i to its final value.
    The eigenvalues of J J_free^{-1} are the Gelfand-Yaglom ratios of the
    modes (their product is det H / det H_kin in the continuum limit).  They
    do not change under linear changes of coordinates, and a mode's ratio
    vanishes at its conjugate point; the smallest in modulus decides.  A
    member whose ratio cannot be formed reads 0.
    """
    kin = blocks["kin"]
    n = kin.shape[-1]
    free = {"D00": kin, "D01": -kin, "D11": kin}
    free_factor = BandFactor(free)
    Hfi = _schur_mixed(blocks, factor)
    Hfi_free = _schur_mixed(free, free_factor)
    bad = free_factor.singular | ~_finite_rows(Hfi + Hfi_free)
    if bad.any():
        Hfi_free[bad], Hfi[bad] = np.eye(n), np.eye(n)
    inverse = np.linalg.solve(Hfi_free, Hfi)  # J_free J^{-1}
    bad |= ~_finite_rows(inverse)
    if bad.any():
        inverse[bad] = np.eye(n)
    ratio = 1.0 / np.max(np.abs(np.linalg.eigvals(inverse)), axis=-1)
    ratio[bad] = 0.0
    return ratio


# ---------------------------------------------------------------------------
# Newton boundary-value solver

def straight_line_history(x_f, x_i, grid):
    """Straight history from x_i to x_f: (N+1, n) for boundary points of
    shape (n,), or a stack (B, N+1, n) for points of shape (B, n)."""
    s = np.linspace(0.0, 1.0, grid.N + 1)[:, None]
    x_f = np.asarray(x_f, float)[..., None, :]
    x_i = np.asarray(x_i, float)[..., None, :]
    return (1 - s) * x_i + s * x_f


def solve_classical(spec, x_f, x_i, grid, init=None):
    """Solve the two-point boundary problem by Newton iteration on the
    interior Euler-Lagrange residual, endpoints held fixed.

    Raises NoConvergence when the iteration stalls and SingularHessian when
    the Dirichlet second variation degenerates (conjugate point / caustic);
    the caustic verdict runs on the converged iterate and, before a stalled
    iteration is reported, on the current one.  Each accepted line-search
    trial becomes the next iterate with the gradient and blocks it was
    evaluated with.  This is the one-member case of ``solve_classical_batch``.
    """
    n = spec.dim
    x_f = np.asarray(x_f, dtype=float)
    x_i = np.asarray(x_i, dtype=float)
    if x_f.shape != (n,) or x_i.shape != (n,):
        raise ValueError(f"boundary points must have shape ({n},)")
    h = straight_line_history(x_f, x_i, grid) if init is None else \
        _as_history(init, grid, n, stack=False).copy()
    h[0], h[-1] = x_i, x_f
    history, p_f, p_i, residual, iterations, errors, last = _newton(spec, h[None], grid)
    if errors[0] is not None:
        raise errors[0]
    state, factor = last
    return ClassicalSolution(history=history[0],
                             action=discrete_action(spec, history[0], grid),
                             p_f=p_f[0], p_i=p_i[0], converged=True,
                             residual_norm=float(residual[0]), grid=grid, spec=spec,
                             blocks={k: state[k][0] for k in ("D00", "D01", "D11", "kin")},
                             factor=factor, iterations=int(iterations[0]))


def solve_classical_batch(spec, XF, XI, grid):
    """Two-point solutions for a batch of boundary pairs, one per column of
    XF and XI (shape (n, B)).

    The Newton iteration of ``solve_classical`` runs on chunks of members
    (CHUNK_ELEMENTS node x member elements each); a member's results match
    its own ``solve_classical`` to round-off, and a failure stays with its
    member.
    """
    n = spec.dim
    XF = np.asarray(XF, dtype=float)
    XI = np.asarray(XI, dtype=float)
    if XF.ndim != 2 or XF.shape[0] != n or XI.shape != XF.shape:
        raise ValueError(f"boundary points must have shape ({n}, B)")
    B = XF.shape[1]
    history = np.full((B, grid.N + 1, n), np.nan)
    p_f = np.full((B, n), np.nan)
    p_i = np.full((B, n), np.nan)
    action = np.full(B, np.nan)
    iterations = np.zeros(B, dtype=int)
    errors = []
    size = max(1, CHUNK_ELEMENTS // (grid.N + 1))
    for lo in range(0, B, size):
        chunk = slice(lo, lo + size)
        h = straight_line_history(XF[:, chunk].T, XI[:, chunk].T, grid)
        h, p_f[chunk], p_i[chunk], _, iterations[chunk], chunk_errors, _ = \
            _newton(spec, h, grid)
        ok = lo + np.flatnonzero([e is None for e in chunk_errors])
        if ok.size:
            history[ok] = h[ok - lo]
            action[ok] = discrete_action(spec, history[ok], grid)
        errors += chunk_errors
    return ClassicalBatch(history=np.moveaxis(history, 0, -1), action=action,
                          p_f=p_f.T, p_i=p_i.T, iterations=iterations,
                          errors=errors)


def solve_quadratic_batch(spec, XF, XI, grid):
    """Two-point solutions of a batch of boundary pairs (XF, XI of shape
    (n, B)) for a Lagrangian of degree at most 2 in (x, v) with no t
    (``SystemSpec.is_quadratic``), from one solve.

    The discrete Euler-Lagrange equations are then linear, so the solution
    for (x_f, x_i) is h_0 + J (x_f - c_f, x_i - c_i): the solution h_0 at the
    batch's centre (c_f, c_i), the member means, plus the Dirichlet Jacobi
    fields J of h_0, which span every boundary displacement.  Histories are
    superposed on chunks of CHUNK_ELEMENTS node x member elements, with the
    endpoints set exactly; the action is ``discrete_action`` of each and the
    momenta are ``boundary_momenta``.  A failure of the centre's solve (a
    caustic is the same for every member) raises; ``iterations`` holds the
    centre's Newton iterations for every member.
    """
    n, N = spec.dim, grid.N
    XF = np.asarray(XF, dtype=float)
    XI = np.asarray(XI, dtype=float)
    if XF.ndim != 2 or XF.shape[0] != n or XI.shape != XF.shape:
        raise ValueError(f"boundary points must have shape ({n}, B)")
    B = XF.shape[1]
    if not B:
        return solve_classical_batch(spec, XF, XI, grid)
    c_f, c_i = XF.mean(axis=1), XI.mean(axis=1)
    sol = solve_classical(spec, c_f, c_i, grid)
    # columns: h_0, then the fields of the displacement (x_f - c_f, x_i - c_i)
    eye, zero = np.eye(n), np.zeros((n, n))
    F = np.concatenate([sol.history[..., None], dirichlet_field(
        sol.blocks, sol.factor, np.hstack([eye, zero]), np.hstack([zero, eye]))], axis=-1)
    # The blocks sum C/tau and tau A/4 into one coefficient, whose rounding
    # (about eps/tau) is large against tau A/4, so fields solved from the
    # factor alone carry it: momenta 16x less accurate than the Newton
    # batch's.  One step of refinement against the action's gradient, which
    # keeps the two terms apart, makes them about 10x more accurate than the
    # batch's instead.  The gradient is affine, so a field's residual is its
    # gradient less that of the zero history.
    stack = np.concatenate([np.moveaxis(F, -1, 0), np.zeros((1, N + 1, n))])
    grad = action_gradient_hessian(spec, stack, grid)[0]
    grad[1:-1] -= grad[-1]
    F[1:-1] -= sol.factor.solve(np.moveaxis(grad[:-1], 0, -1))
    shift = np.vstack([XF - c_f[:, None], XI - c_i[:, None]]).T  # (B, 2n)

    def superpose(nodes, rows):
        """Nodes ``nodes`` of the histories of members ``rows``, endpoints exact."""
        part = F[nodes]
        h = part[..., 0] + (shift[rows] @ part[..., 1:].reshape(-1, 2 * n).T
                            ).reshape(-1, len(part), n)
        h[:, 0], h[:, -1] = XI[:, rows].T, XF[:, rows].T
        return h

    history = np.empty((B, N + 1, n))
    action = np.empty(B)
    size = max(1, CHUNK_ELEMENTS // (N + 1))
    for lo in range(0, B, size):
        chunk = slice(lo, lo + size)
        history[chunk] = superpose(slice(None), chunk)
        action[chunk] = discrete_action(spec, history[chunk], grid)
    # the end intervals of every member at once
    p_f, p_i = boundary_momenta(spec, superpose([0, 1, -2, -1], slice(None)), grid)
    return ClassicalBatch(history=np.moveaxis(history, 0, -1), action=action,
                          p_f=p_f, p_i=p_i,
                          iterations=np.full(B, sol.iterations), errors=[None] * B)


def _evaluate(spec, h, grid):
    """``action_gradient_hessian`` of a stack of histories as one dict of
    member-leading arrays (None if every member raised), and per member the
    exception its own evaluation raised, or None.

    One call covers the stack; only when it raises are the members evaluated
    one at a time, and a member that raised holds NaN.
    """
    def flat(evaluated):
        grad, (p_f, p_i), blocks = evaluated
        return {"grad": grad, "p_f": p_f, "p_i": p_i, **blocks}

    try:
        return flat(action_gradient_hessian(spec, h, grid)), [None] * len(h)
    except Exception as exc:
        if len(h) == 1:
            return None, [exc]
    parts, errors = [], []
    for member in h:
        try:
            parts.append(flat(action_gradient_hessian(spec, member[None], grid)))
            errors.append(None)
        except Exception as exc:
            parts.append(None)
            errors.append(exc)
    done = [p for p in parts if p is not None]
    if not done:
        return None, errors
    nan = {k: np.full_like(v, np.nan) for k, v in done[0].items()}
    return {k: np.concatenate([(nan if p is None else p)[k] for p in parts])
            for k in nan}, errors


def _newton(spec, h, grid):
    """Newton iteration on the interior Euler-Lagrange residual of a stack
    of histories h (B, N+1, n), endpoints held fixed.

    Every member keeps its own residual test, Armijo step length and caustic
    verdict, and leaves the working arrays once it converges or fails.
    Returns (history, p_f, p_i, residual, iterations, errors, last): per
    member its converged history and boundary momenta (NaN momenta if it
    failed), its last residual and iteration count, and the exception that
    failed it or None; ``last`` is (state, factor) of the last iteration,
    for B = 1 the member's own gradient, momenta, blocks and interior factor.
    """
    B, n, N = len(h), spec.dim, grid.N
    history = h.copy()
    p_f, p_i = np.full((B, n), np.nan), np.full((B, n), np.nan)
    residual, iterations = np.full(B, np.inf), np.zeros(B, dtype=int)
    state, errors = _evaluate(spec, h, grid)
    live = np.flatnonzero([e is None for e in errors])  # one working row each
    if not live.size:
        return history, p_f, p_i, residual, iterations, errors, None
    if live.size < B:
        h, state = h[live], {k: v[live] for k, v in state.items()}
    # the gradient carries rounding of about eps |C/tau| |h| sqrt(N), which
    # the absolute tolerance alone would not admit when tau is tiny
    tol = np.maximum(RESIDUAL_TOL * n * N, EPS * np.sqrt(N)
                     * np.abs(state["kin"]).reshape(live.size, -1).max(axis=1)
                     * np.abs(h).reshape(live.size, -1).max(axis=1))
    for iteration in range(MAX_NEWTON_ITER):
        res = np.linalg.norm(state["grad"].reshape(live.size, -1), axis=1)
        factor = BandFactor(state)
        last = state, factor
        singular = factor.singular
        converged = ~singular & (res <= tol)
        search = ~(singular | converged)
        blown = np.zeros(live.size, dtype=bool)
        if search.any():
            step = -factor.solve(state["grad"])
            # a step that is not finite has no norm <= 1e12 either
            blown = search & ~(np.sum(step.reshape(live.size, -1) ** 2, axis=1) <= 1e24)
        pending = (search & ~blown).nonzero()[0]

        # Armijo backtracking on the squared residual norm, row by row
        alpha = np.ones(pending.size)
        for _ in range(40):
            if not pending.size:
                break
            trial = h[pending]
            trial[:, 1:-1] += alpha[:, None, None] * step[pending]
            evaluated, raised = _evaluate(spec, trial, grid)
            accept = np.array([e is None for e in raised])
            if evaluated is not None:
                g2 = np.sum((evaluated["grad"] ** 2).reshape(pending.size, -1), axis=1)
                r2 = res[pending] ** 2
                accept &= 0.5 * g2 <= 0.5 * r2 - ARMIJO_C * alpha * r2
            if accept.all() and pending.size == live.size:
                h, state = trial, evaluated
            elif accept.any():
                h[pending[accept]] = trial[accept]
                for k in state:
                    state[k][pending[accept]] = evaluated[k][accept]
            pending, alpha = pending[~accept], alpha[~accept] * BACKTRACK
        stalled = np.zeros(live.size, dtype=bool)
        stalled[pending] = True

        # converged and failed members leave; a caustic outranks a stall.  No
        # step moved their rows, so they still match the factor.
        done = ~search | blown | stalled
        if not done.any():
            continue
        if (done & ~singular).any():
            ratio = _caustic_ratios(factor, last[0])
        for j in np.flatnonzero(done):
            m = live[j]
            residual[m], iterations[m] = res[j], iteration
            if singular[j]:
                errors[m] = factor.errors[j]
            elif ratio[j] < CAUSTIC_TOL:
                errors[m] = SingularHessian(
                    f"interior second variation nearly singular (smallest "
                    f"Gelfand-Yaglom mode ratio {ratio[j]:.2e}): conjugate point")
            elif blown[j]:
                errors[m] = NoConvergence(iteration, res[j])
            elif stalled[j]:
                errors[m] = NoConvergence(iteration + 1, res[j])
            else:
                history[m], p_f[m], p_i[m] = h[j], state["p_f"][j], state["p_i"][j]
        if done.all():
            break
        keep = ~done
        live, h, tol, res = live[keep], h[keep], tol[keep], res[keep]
        state = {k: v[keep] for k, v in state.items()}
    else:
        for j, m in enumerate(live):
            residual[m], iterations[m] = res[j], MAX_NEWTON_ITER
            errors[m] = NoConvergence(MAX_NEWTON_ITER, res[j])
    return history, p_f, p_i, residual, iterations, errors, last


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
    blocks = _split_boundary(_schur_boundary(sol.blocks, sol.factor))
    return sol.action, sol.p_f.copy(), -sol.p_i, blocks


def _split_boundary(Hb):
    n = Hb.shape[0] // 2
    return {"Hff": Hb[n:, n:], "Hfi": Hb[n:, :n], "Hii": Hb[:n, :n]}


def _schur_mixed(blocks, factor):
    """The mixed block Hfi = d^2 S / dx_f dx_i of ``_schur_boundary``, from
    the n interior columns of the node-0 coupling alone."""
    D01 = blocks["D01"]
    lead, (N, n) = D01.shape[:-3], D01.shape[-3:-1]
    cols = np.zeros(lead + (N - 1, n, n))
    cols[..., 0, :, :] = np.swapaxes(D01[..., 0, :, :], -1, -2)
    Y = factor.solve(cols)
    # 0 - x, as in Sbb - SbIY, keeps the sign of an exact zero
    return 0.0 - np.swapaxes(D01[..., -1, :, :], -1, -2) @ Y[..., -1, :, :]


def _schur_boundary(blocks, factor):
    """Boundary Hessian, ordered (initial, final), from the interval blocks
    and the interior factor; a leading member axis of the blocks is kept."""
    D00, D01, D11 = blocks["D00"], blocks["D01"], blocks["D11"]
    lead, (N, n) = D00.shape[:-3], D00.shape[-3:-1]

    # rhs columns coupling interior to node 0 and node N
    cols = np.zeros(lead + (N - 1, n, 2 * n))
    cols[..., 0, :, :n] = np.swapaxes(D01[..., 0, :, :], -1, -2)  # block (1, 0) = D01_0^T
    cols[..., -1, :, n:] = D01[..., -1, :, :]                    # block (N-1, N) = D01_{N-1}
    Y = factor.solve(cols)

    Sbb = np.zeros(lead + (2 * n, 2 * n))
    Sbb[..., :n, :n] = D00[..., 0, :, :]
    Sbb[..., n:, n:] = D11[..., -1, :, :]
    # S_bI Y: only first/last interior blocks couple
    SbIY = np.zeros(lead + (2 * n, 2 * n))
    SbIY[..., :n, :] = D01[..., 0, :, :] @ Y[..., 0, :, :]
    SbIY[..., n:, :] = np.swapaxes(D01[..., -1, :, :], -1, -2) @ Y[..., -1, :, :]
    return Sbb - SbIY


# ---------------------------------------------------------------------------
# Jacobi fields and boundary Green functions

def dirichlet_field(blocks, factor, dx_f, dx_i):
    """Jacobi field with endpoint values dx_f and dx_i, of shape (n,), or
    (n, m) for m fields at once (shape (N+1, n) or (N+1, n, m)), from the
    interval blocks and the interior factor of a solution."""
    D01 = blocks["D01"]
    dx_f = np.asarray(dx_f, dtype=float)
    dx_i = np.asarray(dx_i, dtype=float)
    rhs = np.zeros((len(D01) - 1,) + dx_f.shape)
    rhs[0] -= np.swapaxes(D01[0], 0, 1) @ dx_i
    rhs[-1] -= D01[-1] @ dx_f
    field = np.empty((len(D01) + 1,) + dx_f.shape)
    field[0] = dx_i
    field[-1] = dx_f
    field[1:-1] = factor.solve(rhs)
    return field


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
        return dirichlet_field(self.sol.blocks, self.sol.factor, dx_f, dx_i)

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
