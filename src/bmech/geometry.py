"""Differential-geometric primitives on a single global chart.

Metrics, Levi-Civita connections and scalar curvature, densities of complex
weight with their Lie derivatives, and canonical volume elements.  Everything
lives on an n-dimensional configuration space covered by one chart, so tensors
are plain numpy arrays and densities are scalars tagged with a complex weight.
"""

from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, SingularMetric

__all__ = [
    "chart_point",
    "MetricField",
    "ConnectionField",
    "DensityValue",
    "partial_derivative",
    "christoffel",
    "christoffel_curvature",
    "lie_derivative_density",
    "volume_element_metric",
    "volume_element_symplectic",
    "vector_divergence",
]

# Step rule for derivatives of user-supplied fields: second-order central
# differences, step floored at 1e-5 and scaled to the point.
FD_FLOOR = 1e-5
FD_SCALE = 1e-7


def fd_step(x):
    scale = float(np.max(np.abs(x))) if np.size(x) else 0.0
    return max(FD_FLOOR, FD_SCALE * scale)


def chart_point(coords, dim=None):
    """Validate chart coordinates: finite 1-d float array, optionally of length dim."""
    x = np.asarray(coords, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"chart point must be a 1-d array, got shape {x.shape}")
    if dim is not None and x.shape[0] != dim:
        raise ValueError(f"chart point has length {x.shape[0]}, expected {dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("chart point has non-finite entries")
    return x


@dataclass(frozen=True)
class MetricField:
    """Metric given by a callable x -> symmetric positive-definite n x n matrix."""

    g: callable
    dim: int

    def __call__(self, x):
        m = np.asarray(self.g(np.asarray(x, dtype=float)), dtype=float)
        if m.shape != (self.dim, self.dim):
            raise ValueError(f"metric returned shape {m.shape}, expected {(self.dim,)*2}")
        return 0.5 * (m + m.T)

    def check_spd(self, x):
        """Cholesky check of positive-definiteness at a sample point."""
        try:
            np.linalg.cholesky(self(x))
        except np.linalg.LinAlgError as exc:
            raise SingularMetric(f"metric not positive-definite at {x}") from exc


@dataclass(frozen=True)
class ConnectionField:
    """Connection coefficients given by a callable x -> n x n x n array.

    Index convention: Gamma[a, b, c] multiplies as Gamma^a_{bc}; the lower
    pair (b, c) is symmetric for torsion-free connections.
    """

    gamma: callable
    dim: int

    def __call__(self, x):
        G = np.asarray(self.gamma(np.asarray(x, dtype=float)), dtype=float)
        if G.shape != (self.dim,) * 3:
            raise ValueError(f"connection returned shape {G.shape}, expected {(self.dim,)*3}")
        return G

    @classmethod
    def flat(cls, dim):
        return cls(lambda x: np.zeros((dim, dim, dim)), dim)

    @classmethod
    def levi_civita(cls, metric):
        return cls(lambda x: christoffel(metric, x), metric.dim)


@dataclass(frozen=True)
class DensityValue:
    """Complex value of a scalar density together with its complex weight.

    Products add weights, powers scale the weight, and complex conjugation
    conjugates the weight along with the value.
    """

    value: complex
    weight: complex

    def __mul__(self, other):
        if isinstance(other, DensityValue):
            return DensityValue(self.value * other.value, self.weight + other.weight)
        return DensityValue(self.value * other, self.weight)

    __rmul__ = __mul__

    def __pow__(self, beta):
        return DensityValue(self.value**beta, self.weight * beta)

    def conjugate(self):
        return DensityValue(np.conjugate(self.value), np.conjugate(self.weight))

    def __abs__(self):
        # |mu| = (mu mu*)^(1/2) has weight Re(weight)
        return DensityValue(abs(self.value), self.weight.real)


def partial_derivative(f, x, h=None):
    """Central-difference gradient of an array-valued field along each coordinate.

    Returns an array of shape f(x).shape + (n,), the last axis being d/dx_k;
    complex values keep their imaginary part.
    """
    x = np.asarray(x, dtype=float)
    if h is None:
        h = fd_step(x)
    return np.stack([(np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * h)
                     for e in h * np.eye(x.shape[0])], axis=-1)


def christoffel(g, x, h=None):
    """Levi-Civita coefficients Gamma^a_{bc} of the metric g at x."""
    x = chart_point(x, g.dim)
    gx = g(x)
    try:
        ginv = np.linalg.inv(gx)
    except np.linalg.LinAlgError as exc:
        raise SingularMetric(f"metric singular at {x}") from exc
    if abs(np.linalg.det(gx)) < 1e-14:
        raise SingularMetric(f"metric singular at {x}")
    dg = partial_derivative(g, x, h)  # dg[b, c, k] = d_k g_{bc}
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_{dc} + d_c g_{bd} - d_d g_{bc})
    term = np.einsum("dcb->bcd", dg) + np.einsum("bdc->bcd", dg) - dg
    return 0.5 * np.einsum("ad,dbc->abc", ginv, np.einsum("bcd->dbc", term))


def christoffel_curvature(g, x, h=None):
    """Levi-Civita coefficients and the scalar curvature of g at x.

    The curvature comes from the Riemann contraction
    R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma Gamma terms,
    with the connection differentiated by central differences.
    """
    x = chart_point(x, g.dim)
    g.check_spd(x)
    gamma = christoffel(g, x, h)
    # differentiate Gamma with a coarser step: Gamma itself carries FD noise
    hg = 1e-4 if h is None else max(h, 1e-4)
    dgamma = partial_derivative(lambda y: christoffel(g, y, h), x, hg)
    # Riemann R^a_{bcd}
    riem = (
        np.einsum("adbc->abcd", dgamma)
        - np.einsum("acbd->abcd", dgamma)
        + np.einsum("ace,edb->abcd", gamma, gamma)
        - np.einsum("ade,ecb->abcd", gamma, gamma)
    )
    ricci = np.einsum("abad->bd", riem)
    scal = float(np.einsum("bd,bd->", np.linalg.inv(g(x)), ricci))
    return gamma, scal


def vector_divergence(a, x, h=None):
    """Coordinate divergence d_k a^k of a vector field at x."""
    da = partial_derivative(a, x, h)
    return float(np.trace(da))


def lie_derivative_density(a, psi, alpha, x, grad_psi=None, h=None):
    """Lie derivative of a weight-alpha scalar density along the field a.

    Coordinate form: (L_a psi)(x) = a.grad(psi) + alpha * div(a) * psi.
    ``psi`` is a callable; its gradient may be supplied to avoid differencing.
    """
    x = np.asarray(x, dtype=float)
    av = np.asarray(a(x), dtype=float)
    psi0 = complex(psi(x))
    if h is None:
        h = fd_step(x)
    if grad_psi is not None:
        dpsi = np.asarray(grad_psi(x))
    else:
        dpsi = partial_derivative(psi, x, h)
    return complex(av @ dpsi + alpha * vector_divergence(a, x, h) * psi0)


def volume_element_metric(g, x):
    """Weight-1 density |det g|^(1/2) at x."""
    gx = g(x) if isinstance(g, MetricField) else np.asarray(g, dtype=float)
    det = np.linalg.det(gx)
    if abs(det) < 1e-300:
        raise Degenerate("metric determinant vanishes")
    return DensityValue(np.sqrt(abs(det)), 1.0)


def volume_element_symplectic(omega):
    """Weight-1 Liouville density (det(omega / 2 pi))^(1/2).

    Each entry of the antisymmetric form is divided by 2 pi before taking the
    determinant, so the canonical 2x2 block gives 1/(2 pi).
    """
    w = np.asarray(omega, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise Degenerate("symplectic form must be square")
    if w.shape[0] % 2 != 0:
        raise Degenerate("symplectic form needs even dimension")
    if not np.allclose(w, -w.T, atol=1e-12 * (1 + np.max(np.abs(w)))):
        raise Degenerate("form is not antisymmetric")
    det = np.linalg.det(w / (2 * np.pi))
    if det <= 1e-300:
        raise Degenerate("symplectic form is degenerate")
    return DensityValue(np.sqrt(det), 1.0)
