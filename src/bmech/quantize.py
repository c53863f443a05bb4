"""Grid-based position representation of the quantized observables.

Position observables F_f act diagonally; momentum observables G_a are the
symmetrized central-difference realization of -i (Lie derivative) acting on
wave-function densities of weight 1/2 + i gamma,

    G_a = -(i/2) sum_k [a_k D_k + D_k a_k]  +  gamma * F(mu^{-1} L_a mu),

which is hermitian with respect to the flat grid pairing on periodic grids
exactly, not just asymptotically.  The gamma term uses the same discrete
stencil, so different orderings differ by exactly gamma times a diagonal
matrix.  Quadratic observables are the (positive) Laplace-Beltrami kinetic
operator plus a curvature counterterm xi * R.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularMetric, WeightMismatch
from .geometry import christoffel_curvature, volume_element_metric

__all__ = [
    "Grid",
    "DensityField",
    "GridOperator",
    "op_F",
    "op_G",
    "shift_operator",
    "op_K",
    "density_log_derivative",
]


def check_points(points):
    """Raise ValueError unless an axis of ``points`` points fits the stencils;
    callers that divide by the count check it first."""
    if points < 8:
        raise ValueError("grids need at least 8 points per axis")


@dataclass(frozen=True)
class Grid:
    """Uniform tensor-product grid; each axis is (M points, spacing h, periodic).

    Periodic axes cover [x0, x0 + M h) with wraparound; open axes cover
    [x0, x0 + (M-1) h] with one-sided stencils at the edges.
    """

    sizes: tuple
    spacings: tuple
    origins: tuple
    periodic: tuple

    def __post_init__(self):
        if not (len(self.sizes) == len(self.spacings) == len(self.origins)
                == len(self.periodic)):
            raise ValueError("grid axis descriptions disagree in length")
        for m in self.sizes:
            check_points(m)

    @classmethod
    def regular(cls, dim, points, lo, hi, periodic=True):
        """Cube grid: same axis repeated ``dim`` times."""
        check_points(points)
        if periodic:
            h = (hi - lo) / points
        else:
            h = (hi - lo) / (points - 1)
        return cls(sizes=(points,) * dim, spacings=(h,) * dim,
                   origins=(lo,) * dim, periodic=(periodic,) * dim)

    @property
    def dim(self):
        return len(self.sizes)

    @property
    def size(self):
        return int(np.prod(self.sizes))

    @property
    def cell_volume(self):
        return float(np.prod(self.spacings))

    def axis_points(self, k):
        return self.origins[k] + self.spacings[k] * np.arange(self.sizes[k])

    def points(self):
        """All grid points, shape (size, dim), last axis fastest."""
        axes = [self.axis_points(k) for k in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def sample(self, fn):
        """Evaluate a callable of the coordinate vector on all points."""
        pts = self.points()
        return np.array([fn(p) for p in pts])

    def pairing(self, psi, phi):
        """<psi, phi> = cell_volume * sum conj(psi) phi; weights must pair to 1."""
        if psi.weight is not None and phi.weight is not None:
            total = np.conjugate(psi.weight) + phi.weight
            if abs(total - 1.0) > 1e-12:
                raise WeightMismatch(
                    f"pairing weights conj({psi.weight}) + {phi.weight} != 1")
        return complex(self.cell_volume * np.vdot(psi.values, phi.values))


@dataclass
class DensityField:
    """Complex grid function tagged with a complex density weight."""

    values: np.ndarray
    weight: complex
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex).ravel()
        if self.values.shape[0] != self.grid.size:
            raise DimensionMismatch(
                f"{self.values.shape[0]} values on a grid of size {self.grid.size}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("density field has non-finite entries")

    def conjugate(self):
        return DensityField(np.conjugate(self.values),
                            np.conjugate(self.weight), self.grid)

    def __mul__(self, other):
        if isinstance(other, DensityField):
            return DensityField(self.values * other.values,
                                self.weight + other.weight, self.grid)
        return DensityField(self.values * other, self.weight, self.grid)

    __rmul__ = __mul__


@dataclass
class GridOperator:
    """Dense operator over a grid with declared input/output density weights.

    ``in_weight``/``out_weight`` of None means weight-agnostic: the operator
    preserves whatever weight it is applied to.
    """

    matrix: np.ndarray
    grid: Grid
    in_weight: complex = None
    out_weight: complex = None

    def apply(self, field):
        if field.grid is not self.grid and field.grid != self.grid:
            raise DimensionMismatch("operator and field live on different grids")
        if self.in_weight is not None and abs(field.weight - self.in_weight) > 1e-12:
            raise WeightMismatch(
                f"operator expects weight {self.in_weight}, field has {field.weight}")
        out_w = field.weight if self.out_weight is None else self.out_weight
        return DensityField(self.matrix @ field.values, out_w, self.grid)

    def __matmul__(self, other):
        if isinstance(other, GridOperator):
            if self.in_weight is not None and other.out_weight is not None \
                    and abs(self.in_weight - other.out_weight) > 1e-12:
                raise WeightMismatch(
                    f"composition weight {other.out_weight} -> {self.in_weight}")
            in_w = other.in_weight if other.in_weight is not None else self.in_weight
            out_w = self.out_weight if self.out_weight is not None else other.out_weight
            return GridOperator(self.matrix @ other.matrix, self.grid, in_w, out_w)
        return NotImplemented

    def __add__(self, other):
        return GridOperator(self.matrix + other.matrix, self.grid,
                            self.in_weight if self.in_weight is not None else other.in_weight,
                            self.out_weight if self.out_weight is not None else other.out_weight)

    def __sub__(self, other):
        return self + GridOperator(-other.matrix, other.grid,
                                   other.in_weight, other.out_weight)

    def __rmul__(self, scalar):
        return GridOperator(scalar * self.matrix, self.grid,
                            self.in_weight, self.out_weight)


# ---------------------------------------------------------------------------
# Difference stencils

def _d1_axis(m, h, periodic):
    """Second-order first derivative on one axis."""
    D = np.zeros((m, m))
    idx = np.arange(m)
    D[idx[:-1], idx[:-1] + 1] += 0.5
    D[idx[1:], idx[1:] - 1] -= 0.5
    if periodic:
        D[m - 1, 0] += 0.5
        D[0, m - 1] -= 0.5
    else:
        D[0, :3] = (-1.5, 2.0, -0.5)
        D[m - 1, m - 3:] = (0.5, -2.0, 1.5)
    return D / h


def _d2_axis(m, h, periodic):
    """Second-order second derivative on one axis."""
    D = np.zeros((m, m))
    idx = np.arange(m)
    D[idx, idx] = -2.0
    D[idx[:-1], idx[:-1] + 1] += 1.0
    D[idx[1:], idx[1:] - 1] += 1.0
    if periodic:
        D[m - 1, 0] += 1.0
        D[0, m - 1] += 1.0
    else:
        D[0, :4] = (2.0, -5.0, 4.0, -1.0)
        D[m - 1, m - 4:] = (-1.0, 4.0, -5.0, 2.0)
    return D / h**2


def axis_kron(mats):
    """Kronecker product of per-axis matrices over the flattened grid."""
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def _axis_operator(grid, k, local):
    mats = [np.eye(m) for m in grid.sizes]
    mats[k] = local
    return axis_kron(mats)


def derivative_matrix(grid, k):
    """Central-difference d/dx_k over the flattened grid."""
    return _axis_operator(grid, k, _d1_axis(grid.sizes[k], grid.spacings[k],
                                            grid.periodic[k]))


def second_derivative_matrix(grid, k):
    return _axis_operator(grid, k, _d2_axis(grid.sizes[k], grid.spacings[k],
                                            grid.periodic[k]))


def _field_components(a, grid):
    """Vector-field samples as an array (dim, size)."""
    pts = grid.points()
    vals = np.array([np.asarray(a(p), dtype=float) for p in pts])
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape != (grid.size, grid.dim):
        raise DimensionMismatch(
            f"vector field returned shape {vals.shape}, expected {(grid.size, grid.dim)}")
    return vals.T


# ---------------------------------------------------------------------------
# Observables

def op_F(f, grid):
    """Diagonal multiplication operator; weight-preserving."""
    vals = grid.sample(f) if callable(f) else np.asarray(f).ravel()
    if vals.shape[0] != grid.size:
        raise DimensionMismatch("diagonal values do not match the grid")
    return GridOperator(np.diag(vals.astype(complex)), grid)


def density_log_derivative(a, grid, mu=None):
    """Discrete mu^{-1} L_a mu for a weight-1 density, same stencil as op_G.

    With the default uniform cell density this is the discrete divergence of
    the field ``a``.
    """
    comp = _field_components(a, grid)
    mu_vals = np.ones(grid.size) if mu is None else np.asarray(mu).ravel()
    out = np.zeros(grid.size)
    for k in range(grid.dim):
        D = derivative_matrix(grid, k)
        out += comp[k] * (D @ mu_vals) + (D @ comp[k]) * mu_vals
    return out / mu_vals


def op_G(a, grid, gamma=0.0, mu=None):
    """Momentum observable -i L_a on weight-(1/2 + i gamma) densities.

    Symmetrized stencil -(i/2) [a D + D a] plus gamma times the diagonal
    ordering term; hermitian on periodic grids with respect to the flat
    pairing, exactly.
    """
    comp = _field_components(a, grid)
    mat = np.zeros((grid.size, grid.size), dtype=complex)
    for k in range(grid.dim):
        D = derivative_matrix(grid, k)
        A = comp[k][:, None]
        mat += -0.5j * (A * D + D * A.T)
    if gamma != 0.0:
        mat += gamma * np.diag(density_log_derivative(a, grid, mu))
    w = 0.5 + 1j * gamma
    return GridOperator(mat, grid, in_weight=w, out_weight=w)


def shift_operator(a, eps, grid, gamma=0.0):
    """Position shift operator exp(-i eps G_a).

    For a constant field on a fully periodic grid whose displacement
    eps * a is a whole number of cells, the flow maps grid points to grid
    points and the operator is constructed as that exact cyclic permutation.
    Otherwise it is the Pade scaling-and-squaring matrix exponential of the
    stencil generator.
    """
    comp = _field_components(a, grid)
    w = 0.5 + 1j * gamma
    if all(grid.periodic):
        const = [np.allclose(comp[k], comp[k][0], rtol=0, atol=1e-13)
                 for k in range(grid.dim)]
        if all(const):
            steps = [eps * comp[k][0] / grid.spacings[k] for k in range(grid.dim)]
            if all(abs(s - round(s)) < 1e-9 for s in steps):
                mats = []
                for k, s in enumerate(steps):
                    m = grid.sizes[k]
                    mats.append(np.roll(np.eye(m), int(round(s)) % m, axis=0))
                return GridOperator(axis_kron(mats).astype(complex), grid,
                                    in_weight=w, out_weight=w)
    from scipy.linalg import expm

    gen = op_G(a, grid, gamma)
    return GridOperator(expm(-1j * eps * gen.matrix), grid,
                        in_weight=w, out_weight=w)


def op_K(g, grid, xi=0.0):
    """Quadratic observable: positive kinetic operator -Laplace_g + xi R.

    The Laplace-Beltrami part uses g^{ab} d_a d_b + c^b d_b with
    c^b = |g|^{-1/2} d_a (|g|^{1/2} g^{ab}) evaluated pointwise; for a flat
    metric this reduces to (minus) the plain second-difference Laplacian.
    """
    from .geometry import partial_derivative

    pts = grid.points()
    size, n = grid.size, grid.dim

    def dense_inv(x):
        gx = g(x)
        try:
            return np.linalg.inv(gx)
        except np.linalg.LinAlgError as exc:
            raise SingularMetric(f"metric singular at {x}") from exc

    ginv = np.array([dense_inv(p) for p in pts])  # (size, n, n)

    def flux(x):
        gx = g(x)
        det = np.linalg.det(gx)
        if det <= 0:
            raise SingularMetric(f"metric not positive-definite at {x}")
        return np.sqrt(det) * np.linalg.inv(gx)

    cvec = np.empty((size, n))
    for idx, p in enumerate(pts):
        dflux = partial_derivative(flux, p)  # (n, n, n): [a, b, k] = d_k (sqrt g g^{ab})
        vol = volume_element_metric(g, p).value
        cvec[idx] = np.einsum("aba->b", dflux) / vol

    lap = np.zeros((size, size))
    d1 = [derivative_matrix(grid, k) for k in range(n)]
    for aa in range(n):
        for bb in range(n):
            coeff = ginv[:, aa, bb][:, None]
            if aa == bb:
                lap += coeff * second_derivative_matrix(grid, aa)
            else:
                lap += coeff * (d1[aa] @ d1[bb])
    for bb in range(n):
        lap += cvec[:, bb][:, None] * d1[bb]

    mat = -lap
    if xi != 0.0:
        curv = np.array([christoffel_curvature(g, p)[1] for p in pts])
        mat = mat + xi * np.diag(curv)
    return GridOperator(mat.astype(complex), grid)
