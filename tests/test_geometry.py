import numpy as np
import pytest
from hypothesis import given, strategies as st

from bmech.errors import Degenerate, SingularMetric
from bmech.geometry import (
    ConnectionField,
    DensityValue,
    MetricField,
    chart_point,
    christoffel,
    christoffel_curvature,
    lie_derivative_density,
    partial_derivative,
    volume_element_metric,
    volume_element_symplectic,
)


def sphere_metric(r=1.0):
    return MetricField(lambda x: np.diag([r**2, r**2 * np.sin(x[0]) ** 2]), 2)


def hyperbolic_metric():
    return MetricField(lambda x: np.diag([1.0 / x[1] ** 2, 1.0 / x[1] ** 2]), 2)


def sphere_christoffel_exact(x, r=1.0):
    """Hand-derived Levi-Civita coefficients of the round sphere chart."""
    theta = x[0]
    G = np.zeros((2, 2, 2))
    G[0, 1, 1] = -np.sin(theta) * np.cos(theta)
    G[1, 0, 1] = G[1, 1, 0] = np.cos(theta) / np.sin(theta)
    return G


def curvature_from_exact_christoffel(gamma_exact, ginv_fn, x, h=1e-5):
    """Independent curvature oracle: finite differences of exact coefficients."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    dgamma = np.empty((n, n, n, n))
    for k in range(n):
        e = np.zeros(n)
        e[k] = h
        dgamma[..., k] = (gamma_exact(x + e) - gamma_exact(x - e)) / (2 * h)
    g0 = gamma_exact(x)
    riem = (
        np.einsum("adbc->abcd", dgamma)
        - np.einsum("acbd->abcd", dgamma)
        + np.einsum("ace,edb->abcd", g0, g0)
        - np.einsum("ade,ecb->abcd", g0, g0)
    )
    ricci = np.einsum("abad->bd", riem)
    return float(np.einsum("bd,bd->", ginv_fn(x), ricci))


class TestChristoffelCurvature:
    def test_flat_metric(self):
        g = MetricField(lambda x: np.eye(3), 3)
        gamma, R = christoffel_curvature(g, [0.2, -1.0, 4.0])
        assert np.allclose(gamma, 0.0, atol=1e-9)
        assert abs(R) < 1e-8

    def test_sphere(self):
        r = 1.7
        g = sphere_metric(r)
        x = np.array([np.pi / 2, 0.4])
        gamma, R = christoffel_curvature(g, x)
        assert abs(R - 2 / r**2) < 2e-5
        assert np.allclose(gamma, sphere_christoffel_exact(x, r), atol=1e-6)
        # independent oracle: exact coefficients, differenced curvature
        oracle = curvature_from_exact_christoffel(
            lambda y: sphere_christoffel_exact(y, r),
            lambda y: np.diag([1 / r**2, 1 / (r**2 * np.sin(y[0]) ** 2)]), x)
        assert abs(oracle - 2 / r**2) < 1e-7
        assert abs(R - oracle) < 2e-5

    def test_hyperbolic_plane(self):
        g = hyperbolic_metric()
        x = np.array([0.0, 1.0])

        def gamma_exact(y):
            G = np.zeros((2, 2, 2))
            G[0, 0, 1] = G[0, 1, 0] = -1.0 / y[1]
            G[1, 0, 0] = 1.0 / y[1]
            G[1, 1, 1] = -1.0 / y[1]
            return G

        _, R = christoffel_curvature(g, x)
        oracle = curvature_from_exact_christoffel(
            gamma_exact, lambda y: np.diag([y[1] ** 2, y[1] ** 2]), x)
        assert abs(oracle + 2.0) < 1e-7
        assert abs(R + 2.0) < 2e-5

    def test_singular_metric_rejected(self):
        g = MetricField(lambda x: np.diag([1.0, 0.0]), 2)
        with pytest.raises(SingularMetric):
            christoffel_curvature(g, [0.1, 0.1])

    def test_levi_civita_compatibility(self):
        # grad g = 0 within finite-difference tolerance at sampled points
        g = sphere_metric(1.3)
        for x in ([1.1, 0.3], [np.pi / 2, -0.8], [0.7, 2.0]):
            x = np.asarray(x)
            gamma = christoffel(g, x)
            dg = partial_derivative(g, x, h=1e-4)  # dg[a,b,c] = d_c g_ab
            gx = g(x)
            nabla = (np.einsum("abc->cab", dg)
                     - np.einsum("dca,db->cab", gamma, gx)
                     - np.einsum("dcb,ad->cab", gamma, gx))
            assert np.max(np.abs(nabla)) < 1e-6


class TestPartialDerivative:
    def test_complex_field_keeps_its_imaginary_part(self):
        # f = (e^{i x0} x1, x0 + 2i x1): df/dx0 = (i e^{i x0} x1, 1),
        # df/dx1 = (e^{i x0}, 2i)
        f = lambda x: np.array([np.exp(1j * x[0]) * x[1], x[0] + 2j * x[1]])
        x0 = np.array([0.3, -1.1])
        expected = np.array([[1j * np.exp(0.3j) * -1.1, np.exp(0.3j)],
                             [1.0, 2j]])
        d = partial_derivative(f, x0)
        assert d.shape == (2, 2)
        assert np.max(np.abs(d - expected)) < 1e-9

    def test_matches_one_sided_pairs_bit_for_bit(self):
        # the stacked form is the plain central difference along each axis
        f = lambda x: np.array([[np.sin(x[0]) * x[2], x[1] ** 3]])
        x0 = np.array([0.2, -0.7, 1.9])
        h = 1e-4
        d = partial_derivative(f, x0, h)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            assert np.array_equal(d[..., k], (f(x0 + e) - f(x0 - e)) / (2 * h))


class TestLieDerivativeDensity:
    def test_complex_density_gradient(self):
        # psi = e^{i x}, a = 1, weight 0: L_a psi = i e^{i x}
        val = lie_derivative_density(lambda x: np.array([1.0]),
                                     lambda x: np.exp(1j * x[0]), 0.0, [0.4])
        assert abs(val - 1j * np.exp(0.4j)) < 1e-9

    def test_constant_field_constant_density(self):
        val = lie_derivative_density(lambda x: np.array([2.0, -1.0]),
                                     lambda x: 3.0 + 0j, 0.7 + 0.2j,
                                     [0.3, 0.4])
        assert abs(val) < 1e-9

    def test_dilation_on_unit_density(self):
        # a = x d/dx in 1d, psi = 1, alpha = 1: a.grad(psi) + alpha div(a) psi = 1
        val = lie_derivative_density(lambda x: np.array([x[0]]),
                                     lambda x: 1.0, 1.0, [0.9])
        assert abs(val - 1.0) < 1e-9

    def test_weight_zero_is_directional_derivative(self):
        a = lambda x: np.array([1.5, -0.5])
        psi = lambda x: np.sin(x[0]) * x[1]
        x0 = np.array([0.4, 1.2])
        val = lie_derivative_density(a, psi, 0.0, x0)
        expected = 1.5 * np.cos(0.4) * 1.2 - 0.5 * np.sin(0.4)
        assert abs(val - expected) < 1e-8

    def test_supplied_gradient_used(self):
        psi = lambda x: x[0] ** 2
        grad = lambda x: np.array([2 * x[0]])
        val = lie_derivative_density(lambda x: np.array([1.0]), psi, 0.5,
                                     [1.5], grad_psi=grad)
        assert abs(val - 3.0) < 1e-12

    def test_leibniz_rule_polynomial(self):
        # L_a(psi phi) = (L_a psi) phi + psi (L_a phi) with weights adding
        a = lambda x: np.array([x[0] ** 2, x[0] * x[1]])
        psi = lambda x: 1.0 + x[0] * x[1]
        phi = lambda x: x[1] ** 2 - 0.5 * x[0]
        alpha, beta = 0.5 - 0.25j, 1.0 + 0.5j
        x0 = np.array([0.8, -0.6])
        lhs = lie_derivative_density(a, lambda x: psi(x) * phi(x),
                                     alpha + beta, x0)
        rhs = (lie_derivative_density(a, psi, alpha, x0) * phi(x0)
               + psi(x0) * lie_derivative_density(a, phi, beta, x0))
        assert abs(lhs - rhs) < 1e-8


class TestVolumeElements:
    def test_identity_metric(self):
        g = MetricField(lambda x: np.eye(3), 3)
        mu = volume_element_metric(g, [0.0, 0.0, 0.0])
        assert mu.weight == 1.0
        assert abs(mu.value - 1.0) < 1e-14

    def test_diagonal_metric(self):
        mu = volume_element_metric(np.diag([4.0, 9.0]), None)
        assert abs(mu.value - 6.0) < 1e-12

    def test_canonical_symplectic_block(self):
        # (det(omega / 2 pi))^(1/2) for the canonical block is 1/(2 pi)
        omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
        mu = volume_element_symplectic(omega)
        assert mu.weight == 1.0
        assert abs(mu.value - 1.0 / (2 * np.pi)) < 1e-14

    def test_degenerate_inputs(self):
        with pytest.raises(Degenerate):
            volume_element_symplectic(np.zeros((2, 2)))
        with pytest.raises(Degenerate):
            volume_element_symplectic(np.zeros((3, 3)))
        with pytest.raises(Degenerate):
            volume_element_symplectic(np.array([[0.0, 1.0], [1.0, 0.0]]))


complex_weights = st.complex_numbers(min_magnitude=0.0, max_magnitude=5.0,
                                     allow_nan=False, allow_infinity=False)
values = st.complex_numbers(min_magnitude=1e-3, max_magnitude=10.0,
                            allow_nan=False, allow_infinity=False)


class TestDensityAlgebra:
    @given(values, complex_weights, values, complex_weights)
    def test_products_add_weights(self, v1, w1, v2, w2):
        out = DensityValue(v1, w1) * DensityValue(v2, w2)
        assert out.weight == w1 + w2
        assert out.value == v1 * v2

    @given(values, complex_weights, st.floats(-3, 3))
    def test_powers_scale_weights(self, v, w, beta):
        mu = DensityValue(abs(v) + 0.1, w)
        assert (mu**beta).weight == w * beta

    @given(values, complex_weights)
    def test_conjugation_conjugates_weight(self, v, w):
        mu = DensityValue(v, w).conjugate()
        assert mu.weight == np.conjugate(w)
        assert abs(DensityValue(v, w)).weight == w.real

    def test_reweighting_unit_density(self):
        mu = volume_element_metric(np.diag([2.0, 8.0]), None)
        assert (mu**0.5).weight == 0.5
        assert ((mu**0.5) * (mu**0.5)).weight == 1.0


class TestHelpers:
    def test_chart_point_validation(self):
        with pytest.raises(ValueError):
            chart_point([[1.0, 2.0]])
        with pytest.raises(ValueError):
            chart_point([1.0, np.inf])
        with pytest.raises(ValueError):
            chart_point([1.0], dim=2)

    def test_connection_field_constructors(self):
        flat = ConnectionField.flat(2)
        assert np.allclose(flat([0.0, 0.0]), 0.0)
        lc = ConnectionField.levi_civita(sphere_metric())
        x = np.array([1.0, 0.5])
        assert np.allclose(lc(x), sphere_christoffel_exact(x), atol=1e-6)
