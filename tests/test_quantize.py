import numpy as np
import pytest
from scipy.integrate import solve_ivp

from bmech.errors import DimensionMismatch, SingularMetric, WeightMismatch
from bmech.geometry import MetricField
from bmech.quantize import (
    DensityField,
    Grid,
    GridOperator,
    density_log_derivative,
    derivative_matrix,
    op_F,
    op_G,
    op_K,
    second_derivative_matrix,
    shift_operator,
)


@pytest.fixture()
def ring():
    return Grid.regular(1, 64, -8.0, 8.0, periodic=True)


def smooth_field(period=16.0):
    return lambda p: np.array([1.0 + 0.25 * np.sin(2 * np.pi * p[0] / period)])


class TestGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            Grid.regular(1, 4, 0.0, 1.0)

    def test_count_checked_before_spacing(self):
        # an open axis's spacing divides by points - 1
        with pytest.raises(ValueError, match="at least 8 points"):
            Grid.regular(1, 1, 0.0, 1.0, periodic=False)

    def test_periodic_cell_count(self, ring):
        # periodic coordinate: domain length equals M h
        assert ring.sizes[0] * ring.spacings[0] == pytest.approx(16.0)

    def test_points_ordering(self):
        g = Grid(sizes=(8, 8), spacings=(0.5, 0.25), origins=(0.0, 1.0),
                 periodic=(True, True))
        pts = g.points()
        assert pts.shape == (64, 2)
        assert np.allclose(pts[0], [0.0, 1.0])
        assert np.allclose(pts[1], [0.0, 1.25])  # last axis fastest

    def test_pairing_weight_rule(self, ring):
        x = ring.points()[:, 0]
        psi = DensityField(np.exp(-x**2), 0.5 + 0.3j, ring)
        phi = DensityField(np.exp(-x**2), 0.5 + 0.3j, ring)
        val = ring.pairing(psi, phi)  # conj(w) + w = 1: allowed
        assert val.real == pytest.approx(
            ring.spacings[0] * np.sum(np.exp(-2 * x**2)))
        bad = DensityField(np.exp(-x**2), 0.25, ring)
        with pytest.raises(WeightMismatch):
            ring.pairing(psi, bad)


class TestOpF:
    def test_identity(self, ring):
        F = op_F(lambda p: 1.0, ring)
        assert np.allclose(F.matrix, np.eye(64))

    def test_coordinate_diagonal(self):
        g = Grid(sizes=(8,), spacings=(0.5,), origins=(0.0,), periodic=(False,))
        F = op_F(lambda p: p[0], g)
        assert np.allclose(np.diag(F.matrix).real, [0, 0.5, 1.0, 1.5, 2, 2.5, 3, 3.5])
        assert np.count_nonzero(F.matrix - np.diag(np.diag(F.matrix))) == 0

    def test_algebraic_compatibility(self, ring):
        F = op_F(lambda p: np.sin(p[0]), ring)
        F2 = op_F(lambda p: np.sin(p[0]) ** 2, ring)
        assert np.max(np.abs((F @ F).matrix - F2.matrix)) == 0.0

    def test_weight_agnostic(self, ring):
        F = op_F(lambda p: p[0], ring)
        x = ring.points()[:, 0]
        out = F.apply(DensityField(np.exp(-x**2), 0.5 - 0.2j, ring))
        assert out.weight == 0.5 - 0.2j


class TestOpG:
    def test_constant_field_constant_density(self, ring):
        G = op_G(lambda p: np.array([2.0]), ring)
        const = DensityField(np.ones(64), 0.5, ring)
        assert np.max(np.abs(G.apply(const).values)) < 1e-13

    def test_hermitian_on_periodic_grid(self, ring):
        for gamma in (0.0, 0.3, -1.1):
            G = op_G(smooth_field(), ring, gamma=gamma)
            assert np.max(np.abs(G.matrix - G.matrix.conj().T)) < 1e-12

    def test_commutator_convergence_order(self):
        errs, hs = [], []
        for M in (64, 128, 256):
            g = Grid.regular(1, M, -8.0, 8.0, periodic=True)
            x = g.points()[:, 0]
            Fx = op_F(lambda p: p[0], g)
            Gd = op_G(lambda p: np.array([1.0]), g)
            psi = np.exp(-(x**2))
            res = (Fx.matrix @ Gd.matrix - Gd.matrix @ Fx.matrix) @ psi - 1j * psi
            inner = np.abs(x) < 6.0
            errs.append(np.linalg.norm(res[inner]) * np.sqrt(g.spacings[0]))
            hs.append(g.spacings[0])
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_ordering_relation_exact(self, ring):
        a = smooth_field()
        gamma = 0.45
        Gg = op_G(a, ring, gamma=gamma)
        G0 = op_G(a, ring, gamma=0.0)
        target = gamma * np.diag(density_log_derivative(a, ring))
        assert np.max(np.abs(Gg.matrix - G0.matrix - target)) < 1e-15

    def test_ordering_relation_nonuniform_measure(self, ring):
        a = smooth_field()
        x = ring.points()[:, 0]
        mu = 2.0 + np.cos(2 * np.pi * x / 16.0)
        gamma = -0.8
        Gg = op_G(a, ring, gamma=gamma, mu=mu)
        G0 = op_G(a, ring, gamma=0.0, mu=mu)
        target = gamma * np.diag(density_log_derivative(a, ring, mu=mu))
        assert np.max(np.abs(Gg.matrix - G0.matrix - target)) < 1e-14

    def test_weight_mismatch(self, ring):
        G = op_G(smooth_field(), ring, gamma=0.0)
        x = ring.points()[:, 0]
        with pytest.raises(WeightMismatch):
            G.apply(DensityField(np.exp(-x**2), 0.5 + 0.3j, ring))

    def test_gg_commutator_closure_order(self):
        a1 = lambda p: np.array([np.sin(2 * np.pi * p[0] / 16)])
        a2 = lambda p: np.array([np.cos(2 * np.pi * p[0] / 16) + 0.5])
        errs, hs = [], []
        for M in (64, 128, 256):
            g = Grid.regular(1, M, -8.0, 8.0, periodic=True)
            x = g.points()[:, 0]
            G1 = op_G(a1, g).matrix
            G2 = op_G(a2, g).matrix
            lie = lambda p: np.array([
                a1(p)[0] * (2 * np.pi / 16) * (-np.sin(2 * np.pi * p[0] / 16))
                - a2(p)[0] * (2 * np.pi / 16) * np.cos(2 * np.pi * p[0] / 16)])
            Gl = op_G(lie, g).matrix
            psi = np.exp(-(x**2))
            res = (G1 @ G2 - G2 @ G1 + 1j * Gl) @ psi
            errs.append(np.linalg.norm(res) * np.sqrt(g.spacings[0]))
            hs.append(g.spacings[0])
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.7 <= slope <= 2.3

    def test_product_ordering_condition_order(self):
        # G(f a, gamma) vs F(f)^(1/2-ig) G(a) F(f)^(1/2+ig) at order h^2
        gamma = 0.35
        f = lambda p: 2.0 + np.sin(2 * np.pi * p[0] / 16)
        a = lambda p: np.array([np.cos(2 * np.pi * p[0] / 16) + 1.5])
        errs = []
        for M in (64, 128, 256):
            g = Grid.regular(1, M, -8.0, 8.0, periodic=True)
            x = g.points()[:, 0]
            fa = lambda p: np.array([f(p) * a(p)[0]])
            Gfa = op_G(fa, g, gamma=gamma).matrix
            Fm = op_F(lambda p: f(p) ** (0.5 - 1j * gamma), g).matrix
            Fp = op_F(lambda p: f(p) ** (0.5 + 1j * gamma), g).matrix
            comp = Fm @ op_G(a, g, gamma=gamma).matrix @ Fp
            psi = np.exp(-(x**2))
            errs.append(np.linalg.norm((Gfa - comp) @ psi) * np.sqrt(g.spacings[0]))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_phase_conjugation_freedom_order(self):
        # op_F(e^{i phi}) conjugation adds op_F(a . grad phi) up to O(h^2);
        # the discrete difference is off-diagonal, so the matrix-level form
        # holds only in the continuum limit
        a = lambda p: np.array([1.0 + 0.2 * np.sin(2 * np.pi * p[0] / 16)])
        phi = lambda p: np.cos(2 * np.pi * p[0] / 16)
        dphi = lambda p: -(2 * np.pi / 16) * np.sin(2 * np.pi * p[0] / 16)
        errs = []
        for M in (64, 128, 256):
            g = Grid.regular(1, M, -8.0, 8.0, periodic=True)
            x = g.points()[:, 0]
            G = op_G(a, g).matrix
            E = op_F(lambda p: np.exp(1j * phi(p)), g).matrix
            Einv = op_F(lambda p: np.exp(-1j * phi(p)), g).matrix
            target = G + op_F(lambda p: a(p)[0] * dphi(p), g).matrix
            psi = np.exp(-(x**2))
            errs.append(np.linalg.norm((Einv @ G @ E - target) @ psi)
                        * np.sqrt(g.spacings[0]))
        assert errs[0] / errs[2] > 10.0


class TestShiftOperator:
    def test_zero_shift_identity(self, ring):
        U = shift_operator(smooth_field(), 0.0, ring)
        assert np.max(np.abs(U.matrix - np.eye(64))) < 1e-12

    def test_cyclic_permutation_exact(self, ring):
        h = ring.spacings[0]
        for steps in (1, 3, -2):
            U = shift_operator(lambda p: np.array([1.0]), steps * h, ring)
            P = np.roll(np.eye(64), steps, axis=0)
            assert np.max(np.abs(U.matrix - P)) < 1e-12

    def test_group_property_constant_field(self, ring):
        h = ring.spacings[0]
        U1 = shift_operator(lambda p: np.array([1.0]), h, ring)
        U2 = shift_operator(lambda p: np.array([1.0]), 2 * h, ring)
        assert np.max(np.abs(U1.matrix @ U1.matrix - U2.matrix)) < 1e-12

    def test_conjugation_flows_position(self):
        a = lambda p: np.array([1.0 + 0.2 * np.sin(2 * np.pi * p[0] / 16)])
        f = lambda p: np.cos(2 * np.pi * p[0] / 16)
        eps = 0.3
        errs = []
        for M in (64, 128, 256):
            g = Grid.regular(1, M, -8.0, 8.0, periodic=True)
            x = g.points()[:, 0]
            U = shift_operator(a, eps, g)
            fvals = f(np.array([x]))

            def back(x0):
                s = solve_ivp(lambda t, y: a(y), (0.0, -eps), [x0],
                              rtol=1e-11, atol=1e-13)
                return s.y[0, -1]

            fphi = np.array([f([back(xi)]) for xi in x])
            psi = np.exp(-0.5 * x**2)
            lhs = U.matrix @ (fvals * np.linalg.solve(U.matrix, psi))
            errs.append(np.linalg.norm(lhs - fphi * psi) * np.sqrt(g.spacings[0]))
        assert errs[0] / errs[1] > 3.0
        assert errs[1] / errs[2] > 3.0

    def test_generic_path_taken_for_nonconstant_field(self, ring):
        U = shift_operator(smooth_field(), ring.spacings[0], ring)
        assert np.max(np.abs(np.abs(U.matrix) - np.abs(U.matrix) ** 0)) > 0  # dense
        # unitarity of the exponential of a hermitian generator
        assert np.max(np.abs(U.matrix @ U.matrix.conj().T - np.eye(64))) < 1e-10


class TestOpK:
    def test_flat_metric_second_difference(self, ring):
        g = MetricField(lambda x: np.eye(1), 1)
        K = op_K(g, ring)
        assert np.max(np.abs(K.matrix - (-second_derivative_matrix(ring, 0)))) < 1e-13

    def test_constant_field_annihilated(self, ring):
        g = MetricField(lambda x: np.eye(1), 1)
        K = op_K(g, ring)
        assert np.max(np.abs(K.matrix @ np.ones(64))) < 1e-12

    def test_sphere_curvature_correction(self):
        r = 1.3
        g = MetricField(lambda x: np.diag([r**2, r**2 * np.sin(x[0]) ** 2]), 2)
        grid = Grid(sizes=(10, 10), spacings=(0.08, 0.1), origins=(1.1, 0.3),
                    periodic=(False, False))
        xi = 0.7
        base = op_K(g, grid, xi=0.0)
        corrected = op_K(g, grid, xi=xi)
        corr = np.diag(corrected.matrix - base.matrix).real
        assert np.allclose(corr, xi * 2 / r**2, rtol=1e-4)

    def test_flat_laplacian_eigenfunction(self, ring):
        g = MetricField(lambda x: np.eye(1), 1)
        K = op_K(g, ring)
        x = ring.points()[:, 0]
        k0 = 2 * np.pi / 16
        psi = np.cos(k0 * x)
        # -laplace cos(kx) = k^2 cos(kx) up to O(h^2)
        ratio = (K.matrix @ psi)[10].real / psi[10]
        assert ratio == pytest.approx(k0**2, rel=1e-2)

    def test_singular_metric(self, ring):
        g = MetricField(lambda x: np.zeros((1, 1)), 1)
        with pytest.raises(SingularMetric):
            op_K(g, ring)


class TestCompleteness:
    def test_commuting_with_coordinates_forces_diagonal(self):
        grid = Grid(sizes=(8, 8), spacings=(0.3, 0.4), origins=(0.0, 0.0),
                    periodic=(True, True))
        pts = grid.points()
        d1 = np.diag(op_F(lambda p: p[0], grid).matrix)
        d2 = np.diag(op_F(lambda p: p[1], grid).matrix)
        # commutation with both coordinate operators forces A_jk (d_j - d_k) = 0
        rng = np.random.default_rng(5)
        A = rng.standard_normal((64, 64))
        sep = (np.abs(d1[:, None] - d1[None, :])
               + np.abs(d2[:, None] - d2[None, :]))
        mask = sep > 1e-12
        A_proj = A.copy()
        A_proj[mask] = 0.0  # the commutant projection
        assert np.count_nonzero(A_proj - np.diag(np.diag(A_proj))) == 0
        # and a generic non-diagonal matrix fails to commute
        F1 = op_F(lambda p: p[0], grid).matrix
        F2 = op_F(lambda p: p[1], grid).matrix
        assert (np.max(np.abs(F1 @ A - A @ F1))
                + np.max(np.abs(F2 @ A - A @ F2))) > 1e-3


class TestWeightBookkeeping:
    def test_composition_weights(self, ring):
        G = op_G(smooth_field(), ring, gamma=0.2)
        F = op_F(lambda p: p[0], ring)
        comp = G @ F
        assert comp.in_weight == pytest.approx(0.5 + 0.2j)
        assert comp.out_weight == pytest.approx(0.5 + 0.2j)

    def test_composition_mismatch(self, ring):
        G1 = op_G(smooth_field(), ring, gamma=0.2)
        G2 = op_G(smooth_field(), ring, gamma=0.7)
        with pytest.raises(WeightMismatch):
            G1 @ G2

    def test_density_constructor_checks(self, ring):
        with pytest.raises(DimensionMismatch):
            DensityField(np.ones(63), 0.5, ring)
        with pytest.raises(ValueError):
            DensityField(np.full(64, np.nan), 0.5, ring)

    def test_density_product_adds_weights(self, ring):
        x = ring.points()[:, 0]
        a = DensityField(np.exp(-x**2), 0.5 + 0.1j, ring)
        b = DensityField(np.cos(x), 0.25, ring)
        assert (a * b).weight == pytest.approx(0.75 + 0.1j)
        assert a.conjugate().weight == pytest.approx(0.5 - 0.1j)
