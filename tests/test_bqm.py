import json

import numpy as np
import pytest
from scipy.linalg import circulant
from scipy.special import erf

from bmech import bqm, classical, sysdsl
from bmech.classical import TimeGrid, solve_classical_batch
from bmech.bqm import (
    BoundaryState,
    amplitude,
    kernel_grid,
    lift_observable,
    make_action_evaluator,
    phys_state,
    semiclassical_measure,
)
from bmech.errors import (DimensionMismatch, DomainError, Instability,
                          NonNaturalLagrangian, SingularMetric)
from bmech.quantize import Grid, derivative_matrix, op_F, op_G
from conftest import STEEP_OSCILLATOR, free_kernel, mehler_kernel

M_SMALL = 128
SLICES_SMALL = 192


def windowed_error(K, exact, x, win):
    mask = np.abs(x) <= win
    diff = (K - exact)[np.ix_(mask, mask)]
    return np.linalg.norm(diff) / np.linalg.norm(exact[np.ix_(mask, mask)])


@pytest.fixture(scope="module")
def osc():
    from bmech.cli import bundled_spec_path
    return sysdsl.load(bundled_spec_path("harmonic_oscillator"))


@pytest.fixture(scope="module")
def free():
    from bmech.cli import bundled_spec_path
    return sysdsl.load(bundled_spec_path("free_particle"))


@pytest.fixture(scope="module")
def osc_kernel(osc):
    T = np.pi / 4
    grid = kernel_grid(osc, T, M_SMALL)
    return phys_state(osc, T, grid, method="trotter", slices=SLICES_SMALL), grid, T


def slice_loop_error(spec, grid, method, T, slices, K):
    """Relative distance of K from the one-slice step applied ``slices``
    times to the filtered deltas."""
    tau = T / slices
    if method == "trotter":
        step = bqm._trotter_step(spec, grid, tau)
    else:
        H = bqm._hamiltonian(spec, grid)
        eye = np.eye(grid.size)
        step = np.linalg.solve(eye + 0.5j * tau * H, eye - 0.5j * tau * H)
    ref = bqm._filter_matrix(grid).astype(complex)
    for _ in range(slices):
        ref = step @ ref
    ref /= grid.cell_volume
    return np.linalg.norm(K - ref) / np.linalg.norm(ref)


class TestLift:
    def test_final_initial_commute_exactly(self, rng):
        grid = Grid.regular(1, 32, -4.0, 4.0, periodic=True)
        A = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        B = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        W = BoundaryState(rng.standard_normal((32, 32)).astype(complex), grid)
        la = lift_observable(op_F(lambda p: 1.0, grid), "final")
        la.matrix = A
        lb = lift_observable(op_F(lambda p: 1.0, grid), "initial")
        lb.matrix = B
        one = la.apply(lb.apply(W)).matrix
        two = lb.apply(la.apply(W)).matrix
        assert np.max(np.abs(one - two)) < 1e-12
        # and at the level of full product-grid matrices
        c = la.full_matrix() @ lb.full_matrix() - lb.full_matrix() @ la.full_matrix()
        assert np.max(np.abs(c)) < 1e-12

    def test_identity_lifts_to_identity(self, rng):
        grid = Grid.regular(1, 16, -4.0, 4.0, periodic=True)
        W = BoundaryState(rng.standard_normal((16, 16)).astype(complex), grid)
        for end in ("final", "initial"):
            lifted = lift_observable(op_F(lambda p: 1.0, grid), end)
            assert np.max(np.abs(lifted.apply(W).matrix - W.matrix)) == 0.0
            assert np.max(np.abs(lifted.full_matrix() - np.eye(256))) == 0.0

    def test_boundary_momentum_assembly_sign_split(self):
        # -QG_f(a_f) + QG_i(a_i) equals op_G on the product grid with the
        # direct-sum field (a_f, a_i)
        grid = Grid.regular(1, 16, -4.0, 4.0, periodic=True)
        a_f = lambda p: np.array([1.0 + 0.3 * np.sin(2 * np.pi * p[0] / 8)])
        a_i = lambda p: np.array([0.5 + 0.2 * np.cos(2 * np.pi * p[0] / 8)])
        Gf = op_G(a_f, grid)
        Gi = op_G(a_i, grid)
        lhs = (-lift_observable(Gf, "final").full_matrix()
               + lift_observable(Gi, "initial").full_matrix())
        product = Grid(sizes=(16, 16), spacings=grid.spacings * 2,
                       origins=grid.origins * 2, periodic=(True, True))
        a_pair = lambda p: np.array([a_f([p[0]])[0], a_i([p[1]])[0]])
        rhs = op_G(a_pair, product).matrix
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_dimension_guard(self, rng):
        grid = Grid.regular(1, 16, -4.0, 4.0, periodic=True)
        other = Grid.regular(1, 32, -4.0, 4.0, periodic=True)
        W = BoundaryState(rng.standard_normal((32, 32)).astype(complex), other)
        lifted = lift_observable(op_F(lambda p: 1.0, grid), "final")
        with pytest.raises(DimensionMismatch):
            lifted.apply(W)


class TestPhysState:
    def test_free_kernel_oracle(self, free):
        T = 1.0
        grid = kernel_grid(free, T, M_SMALL)
        x = grid.axis_points(0)
        XF, XI = np.meshgrid(x, x, indexing="ij")
        exact = free_kernel(XF, XI, T)
        for method in ("trotter", "cranknicolson"):
            ph = phys_state(free, T, grid, method=method, slices=SLICES_SMALL)
            assert windowed_error(ph.K, exact, x, 2.0) < 1e-3

    def test_mehler_oracle(self, osc_kernel, osc):
        ph, grid, T = osc_kernel
        x = grid.axis_points(0)
        XF, XI = np.meshgrid(x, x, indexing="ij")
        exact = mehler_kernel(XF, XI, T)
        assert windowed_error(ph.K, exact, x, 2.0) < 1e-3
        cn = phys_state(osc, T, grid, method="cranknicolson", slices=SLICES_SMALL)
        assert windowed_error(cn.K, exact, x, 2.0) < 1e-3
        assert windowed_error(cn.K, ph.K, x, 2.0) < 1e-3

    def test_zero_time_is_discrete_delta(self, osc):
        grid = kernel_grid(osc, 0.5, 64)
        ph = phys_state(osc, 0.0, grid)
        delta = np.eye(64) / grid.cell_volume
        assert np.max(np.abs(ph.K - delta)) == 0.0

    def test_tiny_time_one_step_acts_as_identity(self, osc):
        # for T > 0 the columns are band-filtered deltas, so the delta
        # property is that passband states pass through unchanged
        grid = kernel_grid(osc, 0.5, 64)
        ph = phys_state(osc, 1e-13, grid, method="cranknicolson", slices=1)
        x = grid.axis_points(0)
        psi = np.exp(-(x / 1.5) ** 2)
        out = grid.cell_volume * ph.K @ psi
        assert np.max(np.abs(out - psi)) / np.max(np.abs(psi)) < 1e-8

    def test_composition_semigroup(self, osc):
        T = 0.8
        grid = kernel_grid(osc, T, M_SMALL)
        full = phys_state(osc, T, grid, method="trotter", slices=256)
        half = phys_state(osc, T / 2, grid, method="trotter", slices=128)
        comp = half.K @ (grid.cell_volume * half.K)
        x = grid.axis_points(0)
        assert windowed_error(comp, full.K, x, 2.0) < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_circulant_entries_follow_the_definition(self, rng, n):
        sym = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        c = np.fft.ifft(sym)
        C = bqm._circulant_from_symbol(sym)
        i, j = np.indices((n, n))
        assert np.array_equal(C, c[(i - j) % n])
        assert np.array_equal(C, circulant(c))

    # a constant potential evaluates to one number, not one per grid point
    @pytest.mark.parametrize("method", ["cranknicolson", "trotter"])
    def test_constant_zero_potential_is_the_free_particle(self, free, method):
        doc = {"name": "free_zero", "dim": 1, "lagrangian": "0.5*m*v1^2",
               "metric": [["m"]], "potential": "0", "parameters": {"m": 1.0},
               "domain": [{"min": -3.0, "max": 3.0}]}
        spec = sysdsl.parse(json.dumps(doc))
        grid = kernel_grid(free, 0.5, 32)
        K = phys_state(spec, 0.5, grid, method=method, slices=16).K
        assert np.array_equal(K, phys_state(free, 0.5, grid, method=method, slices=16).K)

    def test_requires_natural_lagrangian(self):
        spec = sysdsl.parse('{"name":"odd","dim":1,"lagrangian":"v1^4",'
                            '"parameters":{},"domain":[{"min":-1,"max":1}]}')
        grid = Grid.regular(1, 32, -2.0, 2.0, periodic=True)
        with pytest.raises(NonNaturalLagrangian):
            phys_state(spec, 1.0, grid)

    # point-transformed free particle: y(u) = u + eps (sqrt(pi)/2) erf(u)
    # gives the metric y'(u)^2, and the half-density kernel is
    # sqrt(y'(u_f) y'(u_i)) times the free kernel at (y(u_f), y(u_i))
    @pytest.mark.parametrize("slices", [512, 1024])
    @pytest.mark.parametrize("eps", [0.05, 0.3, 1.0])
    def test_position_dependent_metric_point_transform_oracle(self, eps, slices):
        curved = sysdsl.parse(json.dumps({
            "name": "curved", "dim": 1,
            "lagrangian": f"0.5*(1 + {eps}*exp(-x1^2))^2*v1^2",
            "metric": [[f"(1 + {eps}*exp(-x1^2))^2"]],
            "parameters": {}, "domain": [{"min": -3.0, "max": 3.0}]}))
        T = 1.0
        grid = kernel_grid(curved, T, 256)
        u = grid.axis_points(0)
        y = u + eps * 0.5 * np.sqrt(np.pi) * erf(u)
        dy = 1.0 + eps * np.exp(-u**2)
        exact = (np.sqrt(np.outer(dy, dy))
                 * free_kernel(y[:, None], y[None, :], T))
        ph = phys_state(curved, T, grid, method="cranknicolson", slices=slices)
        assert windowed_error(ph.K, exact, u, 2.5) <= 1e-3
        with pytest.raises(NonNaturalLagrangian):
            phys_state(curved, T, grid, method="trotter", slices=slices)

    def test_tiny_varying_metric_is_not_constant(self):
        # the metric varies 37-fold over the ring; its scale alone must not
        # make it pass as a constant mass
        tiny = sysdsl.parse(
            '{"name":"tiny","dim":1,"lagrangian":"0.5*1e-14*(1 + x1^2)*v1^2",'
            '"metric":[["1e-14*(1 + x1^2)"]],'
            '"parameters":{},"domain":[{"min":-3,"max":3}]}')
        grid = kernel_grid(tiny, 0.5, 16)
        assert bqm._inverse_mass(tiny, grid) is None
        with pytest.raises(NonNaturalLagrangian):
            phys_state(tiny, 0.5, grid, method="trotter", slices=4)

    def test_relatively_zero_metric_entry_is_singular(self):
        # a metric eigenvalue at or below 1e-14 of the metric's scale is zero;
        # the CLI tests cover a metric that is zero outright
        spec = sysdsl.parse(json.dumps({
            "name": "zero", "dim": 2, "lagrangian": "-0.5*x1^2",
            "metric": [["2", "0"], ["0", "1e-16"]], "parameters": {},
            "domain": [{"min": -3, "max": 3}] * 2}))
        grid = Grid.regular(2, 8, -3.0, 3.0)
        with pytest.raises(SingularMetric):
            bqm._inverse_mass(spec, grid)
        with pytest.raises(SingularMetric):
            bqm._hamiltonian(spec, grid)

    @pytest.mark.parametrize("method", ["cranknicolson", "trotter"])
    def test_metric_overflowing_on_the_ring_is_singular(self, method):
        spec = sysdsl.parse(json.dumps({
            "name": "steep_mass", "dim": 1, "lagrangian": "0.5*exp(100*x1^2)*v1^2",
            "metric": [["exp(100*x1^2)"]], "parameters": {},
            "domain": [{"min": -3, "max": 3}]}))
        grid = kernel_grid(spec, 0.5, 16)
        with np.errstate(over="ignore"), pytest.raises(SingularMetric):
            phys_state(spec, 0.5, grid, method=method, slices=4)

    # exp(100*x1^2) overflows at the ring's ends, beyond |x| = 2.67
    @pytest.mark.parametrize("method", ["cranknicolson", "trotter"])
    def test_potential_overflowing_on_the_ring_is_a_domain_error(self, method):
        spec = sysdsl.parse(json.dumps({
            "name": "steep_potential", "dim": 1,
            "lagrangian": "0.5*v1^2 - exp(100*x1^2)", "metric": [["1"]],
            "potential": "exp(100*x1^2)", "parameters": {},
            "domain": [{"min": -3, "max": 3}]}))
        grid = kernel_grid(spec, 0.5, 16)
        with np.errstate(all="raise"), pytest.raises(DomainError):
            phys_state(spec, 0.5, grid, method=method, slices=4)

    def test_constant_metric_hamiltonian_has_plane_wave_eigenvectors(self):
        # a non-diagonal constant metric: every in-band plane wave is an
        # eigenvector with eigenvalue k.g^(-1).k / 2 + V
        g = np.array([[2.0, 0.6], [0.6, 1.0]])
        spec = sysdsl.parse(json.dumps({
            "name": "skew", "dim": 2,
            "lagrangian": "0.5*(2*v1^2 + 1.2*v1*v2 + v2^2) - 0.25",
            "metric": [["2", "0.6"], ["0.6", "1"]], "potential": "0.25",
            "parameters": {}, "domain": [{"min": -3, "max": 3}] * 2}))
        grid = Grid.regular(2, 16, -4.0, 4.0)
        H = bqm._hamiltonian(spec, grid)
        assert np.allclose(H, H.T, rtol=0.0, atol=1e-12)
        pts = grid.points()
        k0 = 2 * np.pi / 8.0
        for m in [(0, 0), (1, 0), (0, 3), (-2, 5), (7, -7)]:
            k = k0 * np.array(m)
            psi = np.exp(1j * pts @ k)
            energy = 0.5 * k @ np.linalg.solve(g, k) + 0.25
            assert np.max(np.abs(H @ psi - energy * psi)) <= 1e-11 * max(energy, 1.0)

    @pytest.mark.parametrize("name", ["free_particle", "harmonic_oscillator",
                                      "pendulum"])
    def test_bundled_specs_have_constant_inverse_mass(self, name):
        from bmech.cli import bundled_spec_path
        spec = sysdsl.load(bundled_spec_path(name))
        grid = kernel_grid(spec, 0.5, 64)
        assert np.array_equal(bqm._inverse_mass(spec, grid),
                              [1.0 / spec.parameters["m"]])

    def test_requires_periodic_grid(self, osc):
        grid = Grid.regular(1, 32, -2.0, 2.0, periodic=False)
        with pytest.raises(ValueError):
            phys_state(osc, 1.0, grid)

    def test_rejects_negative_time(self, osc):
        grid = kernel_grid(osc, 1.0, 64)
        with pytest.raises(ValueError):
            phys_state(osc, -1.0, grid)

    def test_entangled_kernel_has_rank_above_one(self, osc_kernel):
        ph, _, _ = osc_kernel
        sv = np.linalg.svd(ph.K, compute_uv=False)
        assert sv[1] / sv[0] > 0.5

    @pytest.mark.parametrize("method", ["cranknicolson", "trotter"])
    @pytest.mark.parametrize("slices", [1, 37, 64, 512])
    def test_power_matches_slice_by_slice_loop(self, osc, method, slices):
        # reference: the one-slice step applied ``slices`` times to the
        # filtered deltas, one matmul per slice; for Crank-Nicolson the step
        # is the Cayley solve of the Hamiltonian
        T = 0.25
        grid = kernel_grid(osc, T, 64)
        K = phys_state(osc, T, grid, method=method, slices=slices).K
        assert slice_loop_error(osc, grid, method, T, slices, K) <= 1e-12

    # two degrees of freedom with a non-diagonal constant metric: every
    # (a, b) term of the kinetic sum contributes
    @pytest.mark.parametrize("slices", [1, 37, 512])
    def test_power_matches_slice_by_slice_loop_2d(self, slices):
        spec = sysdsl.parse(json.dumps({
            "name": "skew_osc", "dim": 2,
            "lagrangian": "0.5*(2*v1^2 + 1.2*v1*v2 + v2^2) - 0.5*(x1^2 + x2^2)",
            "metric": [["2", "0.6"], ["0.6", "1"]],
            "potential": "0.5*(x1^2 + x2^2)",
            "parameters": {}, "domain": [{"min": -2, "max": 2}] * 2}))
        T = 0.25
        grid = Grid.regular(2, 16, -4.0, 4.0)
        K = phys_state(spec, T, grid, method="cranknicolson", slices=slices).K
        assert slice_loop_error(spec, grid, "cranknicolson", T, slices, K) <= 1e-12

    @pytest.mark.parametrize("slices", [0, -4])
    def test_rejects_slices_below_one(self, osc, slices):
        grid = kernel_grid(osc, 0.5, 64)
        with pytest.raises(ValueError):
            phys_state(osc, 0.5, grid, slices=slices)

    def test_norm_watchdog_raises_instability(self):
        steep = sysdsl.parse(STEEP_OSCILLATOR)
        grid = kernel_grid(steep, 1.0, 64)
        with pytest.raises(Instability):
            phys_state(steep, 1.0, grid, method="trotter", slices=2)

    def test_unitarity_on_filtered_band(self, osc):
        # K^dagger K approaches the scaled identity on the passband: column
        # norms of the evolved filtered deltas are preserved
        grid = kernel_grid(osc, 0.7, 96)
        ph = phys_state(osc, 0.7, grid, method="cranknicolson", slices=128)
        ph0 = phys_state(osc, 0.0, grid)
        # compare against the filter's own column norms via a fresh T -> 0 run
        ref = phys_state(osc, 1e-12, grid, method="cranknicolson", slices=1)
        cur = np.sum(np.abs(ph.K) ** 2, axis=0)
        base = np.sum(np.abs(ref.K) ** 2, axis=0)
        x = grid.axis_points(0)
        mask = np.abs(x) <= 1.5
        assert np.max(np.abs(cur[mask] / base[mask] - 1.0)) < 1e-6
        assert ph0.K.shape == ph.K.shape


class TestAmplitude:
    def test_position_product_ket_reads_kernel(self, osc_kernel):
        ph, grid, _ = osc_kernel
        st = BoundaryState.position_ket(17, 101, grid)
        assert amplitude(ph, st) == pytest.approx(ph.K[17, 101], abs=1e-14)

    def test_self_pairing_is_squared_norm(self, osc_kernel):
        ph, grid, _ = osc_kernel
        st = BoundaryState.from_kernel(ph)
        expected = grid.cell_volume**2 * np.sum(np.abs(ph.K) ** 2)
        assert amplitude(ph, st) == pytest.approx(expected, rel=1e-12)
        assert abs(amplitude(ph, st).imag) < 1e-9 * expected

    def test_bilinearity(self, osc_kernel):
        ph, grid, _ = osc_kernel
        st = BoundaryState.position_ket(30, 40, grid)
        c = 2.5 - 0.7j
        assert amplitude(ph, st.scaled(c)) == pytest.approx(
            c * amplitude(ph, st), rel=1e-12)

    def test_product_state_rank_one(self, osc_kernel, rng):
        ph, grid, _ = osc_kernel
        psi_f = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        psi_i = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        st = BoundaryState.product(psi_f, psi_i, grid)
        sv = np.linalg.svd(st.matrix, compute_uv=False)
        assert sv[1] / sv[0] < 1e-12

    def test_grid_mismatch(self, osc_kernel):
        ph, grid, _ = osc_kernel
        other = BoundaryState(np.zeros((8, 8), dtype=complex), grid)
        with pytest.raises(DimensionMismatch):
            amplitude(ph, other)


class TestSemiclassical:
    def test_measure_constant_and_matches_prefactor(self, osc_kernel, osc):
        ph, grid, T = osc_kernel
        rep = semiclassical_measure(
            ph, make_action_evaluator(osc, T, N=200), window=(-1.5, 1.5))
        assert rep.variation < 0.01
        exact = np.sqrt(1.0 / (2j * np.pi * np.sin(T)))
        assert np.mean(rep.measure) == pytest.approx(exact, rel=5e-3)

    def test_free_particle_measure_constant(self, free):
        T = 1.0
        grid = kernel_grid(free, T, M_SMALL)
        ph = phys_state(free, T, grid, method="trotter", slices=SLICES_SMALL)
        rep = semiclassical_measure(
            ph, make_action_evaluator(free, T, N=100), window=(-1.5, 1.5))
        assert rep.variation < 0.01
        exact = np.sqrt(1.0 / (2j * np.pi * T))
        assert np.mean(rep.measure) == pytest.approx(exact, rel=5e-3)

    def test_constant_field_residual_refines(self, osc):
        T = np.pi / 4
        vals = []
        for M in (96, 192):
            grid = kernel_grid(osc, T, M)
            ph = phys_state(osc, T, grid, method="trotter", slices=192)
            rep = semiclassical_measure(
                ph, make_action_evaluator(osc, T, N=300), window=(-1.2, 1.2))
            vals.append(rep.residuals["const"])
        assert vals[1] < 0.45 * vals[0]

    def test_dilation_residual_bounded_away_from_zero(self, osc_kernel, osc):
        ph, grid, T = osc_kernel
        rep = semiclassical_measure(
            ph, make_action_evaluator(osc, T, N=200),
            fields={"dilation": lambda XF, XI: (XF.copy(), XI.copy())},
            window=(-1.5, 1.5))
        assert rep.residuals["dilation"] > 0.1

    def test_window_derivatives_match_full_ring_products(self, osc_kernel, osc):
        # the const field's residual is i (dK_f + dK_i) + (p_f - p_i) K
        ph, grid, T = osc_kernel
        action = make_action_evaluator(osc, T, N=200)
        rep = semiclassical_measure(ph, action, window=(-1.5, 1.5))
        idx = np.ix_(rep.window_index, rep.window_index)
        D = derivative_matrix(grid, 0)
        dK = (D @ ph.K)[idx] + (ph.K @ D.T)[idx]
        XF, XI = np.meshgrid(rep.window_points, rep.window_points, indexing="ij")
        _, PF, PI = action(XF, XI)
        expected = 1j * dK + (PF - PI) * ph.K[idx]
        assert np.array_equal(rep.residual_fields["const"], expected)

    def test_needs_scalar_system(self, osc_kernel):
        ph, grid, T = osc_kernel
        fake = Grid(sizes=(8, 8), spacings=(0.1, 0.1), origins=(0.0, 0.0),
                    periodic=(True, True))
        ph2 = type(ph)(K=np.eye(64, dtype=complex), grid=fake, T=1.0)
        with pytest.raises(DimensionMismatch):
            semiclassical_measure(ph2, lambda a, b: (0.0, 0.0, 0.0))


MIRROR_WINDOW = np.linspace(-2.0, 2.0, 9)
MIRROR_T, MIRROR_N = 0.85, 200


def scalar_spec(lagrangian):
    return sysdsl.parse(json.dumps({
        "name": "scalar", "dim": 1, "lagrangian": lagrangian,
        "parameters": {}, "domain": [{"min": -3, "max": 3}]}))


def full_solve(spec, XF, XI):
    """Every pair of the table, each solved on its own column of one batch."""
    return solve_classical_batch(spec, XF.reshape(1, -1), XI.reshape(1, -1),
                                 TimeGrid(0.0, MIRROR_T, MIRROR_N))


@pytest.fixture()
def solved_pairs(monkeypatch):
    """Sizes of the batches the action evaluator hands to the solver."""
    sizes = []

    def counting(spec, XF, XI, grid):
        sizes.append(XF.shape[1])
        return solve_classical_batch(spec, XF, XI, grid)

    monkeypatch.setattr(classical, "solve_classical_batch", counting)
    return sizes


# reversible Lagrangians that are not quadratic, so their tables are solved
# pair by pair: a quartic potential and a position-dependent mass
ANHARMONIC = "0.5*v1^2 - 0.5*x1^2 - 0.02*x1^4"
POSITION_MASS = "0.5*(1 + 0.1*x1^2)*v1^2 - 0.5*x1^2"


class TestActionMirror:
    @pytest.mark.parametrize("name", ["anharmonic", "position_mass", "pendulum"])
    def test_mirrored_table_matches_full_solve(self, name, solved_pairs):
        from bmech.cli import bundled_spec_path
        lagrangians = {"anharmonic": ANHARMONIC, "position_mass": POSITION_MASS}
        spec = (scalar_spec(lagrangians[name]) if name in lagrangians
                else sysdsl.load(bundled_spec_path(name)))
        assert spec.is_reversible and not spec.is_quadratic
        XF, XI = np.meshgrid(MIRROR_WINDOW, MIRROR_WINDOW, indexing="ij")
        stats = {}
        S, PF, PI = make_action_evaluator(spec, MIRROR_T, MIRROR_N, stats)(XF, XI)
        assert solved_pairs == [45] and stats == {"pairs_solved": 45}
        full = full_solve(spec, XF, XI)
        for got, want in ((S, full.action), (PF, full.p_f), (PI, full.p_i)):
            want = want.reshape(XF.shape)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(S, S.T)
        off = ~np.eye(S.shape[0], dtype=bool)
        assert np.array_equal(PF[off], -PI.T[off])

    @pytest.mark.parametrize("lagrangian", [
        "0.5*v1^2 - 0.5*(1 + 0.1*t)*x1^2",  # explicit time
        "0.5*v1^2 + x1^3*v1",                # total derivative d(x^4/4)/dt
        "0.5*v1^2 + 0.01*v1^3",
        "0.5*v1^2 + 0.1*sin(v1)",
    ])
    def test_spec_without_exchange_parity_solves_the_full_table(
            self, lagrangian, solved_pairs):
        spec = scalar_spec(lagrangian)
        assert not spec.is_reversible
        XF, XI = np.meshgrid(MIRROR_WINDOW, MIRROR_WINDOW, indexing="ij")
        stats = {}
        S, PF, PI = make_action_evaluator(spec, MIRROR_T, MIRROR_N, stats)(XF, XI)
        assert solved_pairs == [81] and stats == {"pairs_solved": 81}
        full = full_solve(spec, XF, XI)
        assert np.array_equal(S, full.action.reshape(XF.shape))
        assert np.array_equal(PF, full.p_f.reshape(XF.shape))
        assert np.array_equal(PI, full.p_i.reshape(XF.shape))
        if "x1^3*v1" in lagrangian:
            # the boundary term (x_f^4 - x_i^4)/4 makes S antisymmetric in part
            assert np.max(np.abs(S - S.T)) > 1.0

    @pytest.mark.parametrize("table", ["not square", "not transposed", "flat"])
    def test_other_tables_are_solved_in_full(self, table, solved_pairs):
        spec = scalar_spec(ANHARMONIC)
        w = MIRROR_WINDOW
        XF, XI = {
            "not square": np.meshgrid(w[:5], w, indexing="ij"),
            "not transposed": np.meshgrid(w, w + 0.1, indexing="ij"),
            "flat": (w, w),
        }[table]
        S, PF, PI = make_action_evaluator(spec, MIRROR_T, MIRROR_N)(XF, XI)
        assert solved_pairs == [XF.size]
        full = full_solve(spec, XF, XI)
        assert np.array_equal(S, full.action.reshape(XF.shape))
        assert np.array_equal(PF, full.p_f.reshape(XF.shape))

    def test_failing_pairs_raise_the_full_tables_first_error(self, solved_pairs):
        # sqrt(x1) needs positive positions: pairs reaching x <= 0 fail
        spec = scalar_spec("0.5*v1^2 - sqrt(x1)")
        assert spec.is_reversible
        xs = np.array([0.5, 0.2, -0.3, 0.8])
        XF, XI = np.meshgrid(xs, xs, indexing="ij")
        first = next(e for e in full_solve(spec, XF, XI).errors if e is not None)
        with pytest.raises(type(first)) as raised:
            make_action_evaluator(spec, MIRROR_T, MIRROR_N)(XF, XI)
        assert solved_pairs == [10]
        assert str(raised.value) == str(first)


def discrete_oscillator(XF, XI, tau, N):
    """Exact stationary midpoint action and momenta of L = v^2/2 - x^2/2.

    The discrete history is x_k = (x_i sin((N-k)theta) + x_f sin(k theta))
    / sin(N theta) with cos theta = (1 - tau^2/4)/(1 + tau^2/4), that is
    tan(theta/2) = tau/2, and the action is the quadratic form
    S = ((x_f^2 + x_i^2) cos(N theta) - 2 x_f x_i) / (2 sin(N theta)).
    """
    theta = 2.0 * np.arctan(0.5 * tau)
    c, s = np.cos(N * theta), np.sin(N * theta)
    S = ((XF**2 + XI**2) * c - 2.0 * XF * XI) / (2.0 * s)
    return S, (XF * c - XI) / s, (XF - XI * c) / s


def relative_error(got, want):
    want = np.reshape(want, np.shape(got))
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestQuadraticTable:
    """A quadratic L has its whole table superposed from one solve."""

    @pytest.mark.parametrize("N", [50, 200, 800, 3200])
    def test_oscillator_matches_the_exact_discrete_solution(
            self, osc, N, solved_pairs):
        XF, XI = np.meshgrid(MIRROR_WINDOW, MIRROR_WINDOW, indexing="ij")
        stats = {}
        S, PF, PI = make_action_evaluator(osc, MIRROR_T, N, stats)(XF, XI)
        assert solved_pairs == [] and stats == {"pairs_solved": 1}
        exact = discrete_oscillator(XF, XI, MIRROR_T / N, N)
        assert relative_error(S, exact[0]) <= 1e-13
        # the pair-by-pair solve of the same table, against the same reference
        full = solve_classical_batch(osc, XF.reshape(1, -1), XI.reshape(1, -1),
                                     TimeGrid(0.0, MIRROR_T, N))
        for got, batch, want in ((PF, full.p_f, exact[1]), (PI, full.p_i, exact[2])):
            assert relative_error(got, want) <= 3 * relative_error(
                batch.reshape(XF.shape), want)

    @pytest.mark.parametrize("lagrangian", [
        "0.5*v1^2 + 0.3*x1*v1 - 0.5*x1^2",
        "0.5*v1^2 + 0.2*v1 - 0.1*x1 + 0.05*x1^2",
        "0.5*v1^2 - 0.5*x1^2",
    ])
    @pytest.mark.parametrize("table", ["square", "not square"])
    def test_tables_match_full_solve(self, lagrangian, table, solved_pairs):
        spec = scalar_spec(lagrangian)
        assert spec.is_quadratic
        w = MIRROR_WINDOW
        XF, XI = {"square": np.meshgrid(w, w, indexing="ij"),
                  "not square": np.meshgrid(w[:5], w + 0.3, indexing="ij")}[table]
        stats = {}
        S, PF, PI = make_action_evaluator(spec, MIRROR_T, MIRROR_N, stats)(XF, XI)
        assert solved_pairs == [] and stats == {"pairs_solved": 1}
        assert S.shape == PF.shape == PI.shape == XF.shape
        full = full_solve(spec, XF, XI)
        # measured: at most 3.5e-16 (S) and 1.4e-13 (momenta)
        assert relative_error(S, full.action) <= 2e-15
        assert relative_error(PF, full.p_f) <= 5e-13
        assert relative_error(PI, full.p_i) <= 5e-13

    @pytest.mark.parametrize("T", [np.pi, 2 * np.pi])
    def test_caustic_raises_the_full_tables_first_error(self, osc, T, solved_pairs):
        XF, XI = np.meshgrid(MIRROR_WINDOW, MIRROR_WINDOW, indexing="ij")
        full = solve_classical_batch(osc, XF.reshape(1, -1), XI.reshape(1, -1),
                                     TimeGrid(0.0, T, MIRROR_N))
        first = next(e for e in full.errors if e is not None)
        with pytest.raises(type(first)) as raised:
            make_action_evaluator(osc, T, MIRROR_N)(XF, XI)
        assert solved_pairs == []
        assert str(raised.value) == str(first)
