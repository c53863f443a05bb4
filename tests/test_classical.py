import json

import numpy as np
import pytest
import scipy.linalg.lapack

import bmech.classical as classical
from bmech import sysdsl
from bmech.classical import (
    BandFactor,
    TimeGrid,
    action_gradient_hessian,
    assemble_tridiag,
    classical_action_derivs,
    discrete_action,
    jacobi_and_greens,
    solve_classical,
    solve_classical_batch,
    solve_quadratic_batch,
    straight_line_history,
)
from bmech.errors import BmechError, DomainError, NoConvergence, SingularHessian
from conftest import osc_action


def line(xf, xi, grid):
    return straight_line_history(np.atleast_1d(xf), np.atleast_1d(xi), grid)


def unit_mass_system(potential, dim):
    """System of unit masses with the given potential in x1..x<dim>."""
    kinetic = " + ".join(f"0.5*v{k}^2" for k in range(1, dim + 1))
    return sysdsl.parse(json.dumps({
        "name": "modes", "dim": dim,
        "lagrangian": f"{kinetic} - ({potential})",
        "metric": [["1" if a == b else "0" for b in range(dim)] for a in range(dim)],
        "domain": [{"min": -3.0, "max": 3.0}] * dim}))


class TestDiscreteAction:
    def test_free_particle_straight_line_exact(self, free_spec):
        # constant-velocity integrand makes the midpoint rule exact
        for N in (2, 7, 64, 301):
            grid = TimeGrid(0.0, 1.0, N)
            S = discrete_action(free_spec, line(1.0, 0.0, grid), grid)
            assert S == pytest.approx(0.5, abs=1e-13)

    def test_zero_history(self, osc_spec):
        grid = TimeGrid(0.0, 2.0, 32)
        assert discrete_action(osc_spec, np.zeros((33, 1)), grid) == 0.0

    def test_additive_under_joining(self, osc_spec):
        # S on [0,1] equals the sum over [0,1/2] and [1/2,1] on the same history
        N = 128
        grid = TimeGrid(0.0, 1.0, N)
        rng = np.random.default_rng(3)
        h = np.cumsum(rng.standard_normal((N + 1, 1)), axis=0) * 0.05
        left = TimeGrid(0.0, 0.5, N // 2)
        right = TimeGrid(0.5, 1.0, N // 2)
        total = discrete_action(osc_spec, h, grid)
        parts = (discrete_action(osc_spec, h[:N // 2 + 1], left)
                 + discrete_action(osc_spec, h[N // 2:], right))
        assert total == pytest.approx(parts, abs=1e-12)

    def test_history_shape_checked(self, free_spec):
        with pytest.raises(ValueError):
            discrete_action(free_spec, np.zeros((5, 1)), TimeGrid(0.0, 1.0, 8))


class TestGradientHessian:
    def test_straight_free_line_residual_and_momenta(self, free_spec):
        grid = TimeGrid(0.0, 2.0, 40)
        interior, (p_f, p_i), _ = action_gradient_hessian(
            free_spec, line(3.0, 1.0, grid), grid)
        assert np.max(np.abs(interior)) < 1e-13
        assert p_f[0] == pytest.approx((3.0 - 1.0) / 2.0, abs=1e-13)
        assert p_i[0] == pytest.approx((3.0 - 1.0) / 2.0, abs=1e-13)

    def test_constant_history_no_potential(self, free_spec):
        grid = TimeGrid(0.0, 1.0, 16)
        interior, (p_f, p_i), _ = action_gradient_hessian(
            free_spec, np.full((17, 1), 0.8), grid)
        assert np.max(np.abs(interior)) == 0.0
        assert np.max(np.abs(p_f)) == 0.0
        assert np.max(np.abs(p_i)) == 0.0

    def test_hessian_matches_gradient_differences(self, osc_spec, rng):
        grid = TimeGrid(0.0, 1.5, 24)
        h = line(0.7, -0.4, grid) + 0.2 * rng.standard_normal((25, 1))

        def full_gradient(hist):
            interior, (p_f, p_i), _ = action_gradient_hessian(osc_spec, hist, grid)
            return np.concatenate([[-p_i[0]], interior[:, 0], [p_f[0]]])

        _, _, blocks = action_gradient_hessian(osc_spec, h, grid)
        diag, off = assemble_tridiag(blocks)
        dense = np.zeros((25, 25))
        for k in range(25):
            dense[k, k] = diag[k, 0, 0]
        for k in range(24):
            dense[k, k + 1] = off[k, 0, 0]
            dense[k + 1, k] = off[k, 0, 0]
        step = 1e-6
        fd = np.zeros_like(dense)
        for k in range(25):
            up, dn = h.copy(), h.copy()
            up[k, 0] += step
            dn[k, 0] -= step
            fd[:, k] = (full_gradient(up) - full_gradient(dn)) / (2 * step)
        assert np.max(np.abs(fd - dense)) / np.max(np.abs(dense)) < 1e-6


def dense_interior(blocks):
    """The interior block tridiagonal of one member as a dense matrix."""
    diag, off = assemble_tridiag(blocks)
    K, n = diag.shape[0] - 2, diag.shape[-1]
    dense = np.zeros((K * n, K * n))
    for k in range(K):
        dense[k * n:(k + 1) * n, k * n:(k + 1) * n] = diag[k + 1]
    for k in range(K - 1):
        dense[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = off[k + 1]
        dense[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = off[k + 1].T
    return dense


def check_members_factored_alone(rng, n):
    """Four stacked members, one exactly singular and one with a NaN block:
    the others solve exactly as if factored alone, and a non-finite
    right-hand side spoils only its own member."""
    N = 9
    sym = lambda M: M + np.swapaxes(M, -1, -2)  # noqa: E731
    blocks = {"D00": sym(rng.standard_normal((4, N, n, n))),
              "D01": rng.standard_normal((4, N, n, n)),
              "D11": sym(rng.standard_normal((4, N, n, n)))}
    for block in blocks.values():
        block[1] = 0.0
    blocks["D01"][2, 4, 0, n - 1] = np.nan
    factor = BandFactor(blocks)
    assert factor.errors[0] is None and factor.errors[3] is None
    assert "zero pivot" in str(factor.errors[1])
    assert "non-finite" in str(factor.errors[2])
    assert list(factor.singular) == [False, True, True, False]
    rhs = rng.standard_normal((4, N - 1, n))
    rhs[1, 0, 0] = np.inf
    x = factor.solve(rhs)
    assert np.isnan(x[1]).all()
    for m in (0, 3):
        alone = BandFactor({k: v[m] for k, v in blocks.items()})
        assert np.array_equal(x[m], alone.solve(rhs[m]))


class TestBandFactor:
    def test_matches_dense_solve(self, rng):
        # random symmetric interval blocks, n = 2: every band of the storage
        N, n = 13, 2
        sym = lambda M: M + np.swapaxes(M, 1, 2)  # noqa: E731
        blocks = {"D00": sym(rng.standard_normal((N, n, n))),
                  "D01": rng.standard_normal((N, n, n)),
                  "D11": sym(rng.standard_normal((N, n, n)))}
        K = N - 1
        dense = dense_interior(blocks)
        factor = BandFactor(blocks)
        rhs = rng.standard_normal((K, n, 3))
        expect = np.linalg.solve(dense, rhs.reshape(K * n, 3)).reshape(K, n, 3)
        assert np.max(np.abs(factor.solve(rhs) - expect)) < 1e-10
        assert np.max(np.abs(factor.solve(rhs[:, :, 0]) - expect[:, :, 0])) < 1e-10

    def test_scalar_matches_dense_solve(self, rng):
        # n = 1 with a diagonal small beside the couplings: an indefinite
        # tridiagonal whose elimination swaps rows
        N = 13
        blocks = {"D00": 0.05 * rng.standard_normal((N, 1, 1)),
                  "D01": rng.standard_normal((N, 1, 1)),
                  "D11": 0.05 * rng.standard_normal((N, 1, 1))}
        K = N - 1
        dense = dense_interior(blocks)
        assert np.linalg.eigvalsh(dense).min() < 0 < np.linalg.eigvalsh(dense).max()
        factor = BandFactor(blocks)
        ipiv = factor.lu[-1][:K]
        assert (ipiv != np.arange(1, K + 1)).any()  # rows were interchanged
        rhs = rng.standard_normal((K, 1, 3))
        expect = np.linalg.solve(dense, rhs.reshape(K, 3)).reshape(K, 1, 3)
        assert np.max(np.abs(factor.solve(rhs) - expect)) < 1e-10
        assert np.max(np.abs(factor.solve(rhs[:, :, 0]) - expect[:, :, 0])) < 1e-10

    def test_exactly_singular_raises(self):
        zero = np.zeros((6, 1, 1))
        with pytest.raises(SingularHessian):
            BandFactor({"D00": zero, "D01": zero, "D11": zero})

    def test_members_are_factored_alone(self, rng):
        check_members_factored_alone(rng, 2)

    def test_scalar_members_are_factored_alone(self, rng):
        check_members_factored_alone(rng, 1)

    def test_one_interior_row(self, rng):
        # N = 2: one interior unknown per member, alone and stacked
        blocks = {k: rng.standard_normal((3, 2, 1, 1)) + 2.0
                  for k in ("D00", "D01", "D11")}
        rhs = rng.standard_normal((3, 1, 1))
        x = BandFactor(blocks).solve(rhs)
        expect = rhs[:, 0, 0] / (blocks["D11"][:, 0, 0, 0] + blocks["D00"][:, 1, 0, 0])
        assert np.allclose(x[:, 0, 0], expect, rtol=1e-14)
        alone = BandFactor({k: v[0] for k, v in blocks.items()})
        assert np.array_equal(alone.solve(rhs[0]), x[0])


class TestSolve:
    def test_free_particle(self, free_spec):
        sol = solve_classical(free_spec, np.array([1.0]), np.array([0.0]),
                              TimeGrid(0.0, 1.0, 50))
        assert sol.converged
        assert sol.action == pytest.approx(0.5, abs=1e-12)
        assert sol.p_f[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.p_i[0] == pytest.approx(1.0, abs=1e-12)

    def test_oscillator_action(self, osc_spec):
        grid = TimeGrid(0.0, np.pi / 2, 400)
        sol = solve_classical(osc_spec, np.array([1.0]), np.array([1.0]), grid)
        assert sol.action == pytest.approx(-1.0, abs=2e-5)

    def test_oscillator_convergence_order(self, osc_spec):
        errs = []
        for N in (50, 100, 200, 400):
            sol = solve_classical(osc_spec, np.array([1.0]), np.array([1.0]),
                                  TimeGrid(0.0, np.pi / 2, N))
            errs.append(abs(sol.action + 1.0))
        slope = -np.polyfit(np.log([50, 100, 200, 400]), np.log(errs), 1)[0]
        assert 1.8 <= slope <= 2.2

    def test_one_interior_node(self, osc_spec):
        # N = 2: the interior second variation of a scalar system is 1 x 1
        T, xf, xi = 1.0, 0.7, -0.2
        grid = TimeGrid(0.0, T, 2)
        sol = solve_classical(osc_spec, np.array([xf]), np.array([xi]), grid)
        tau = grid.tau
        diag, off = 2 * (1 / tau - tau / 4), -(1 / tau + tau / 4)
        assert sol.history[1, 0] == pytest.approx(-off * (xf + xi) / diag, rel=1e-13)
        batch = solve_classical_batch(osc_spec, [[xf, xi]], [[xi, xf]], grid)
        assert batch.errors == [None, None]
        assert batch.history[1, 0, 0] == sol.history[1, 0]

    def test_conjugate_point_detected(self, osc_spec):
        with pytest.raises(SingularHessian):
            solve_classical(osc_spec, np.array([1.0]), np.array([1.0]),
                            TimeGrid(0.0, np.pi, 200))

    @pytest.mark.parametrize("N", [200, 1000, 4000])
    def test_caustic_verdict_is_grid_independent(self, osc_spec, N):
        # conjugate points of x'' = -x sit at T = k pi
        x = np.array([1.0])
        for T in (np.pi, 2 * np.pi):
            with pytest.raises(SingularHessian):
                solve_classical(osc_spec, x, x, TimeGrid(0.0, T, N))
        # near but short of the first one, and past it (indefinite Hessian)
        for T in (3.1, 3.14, 3.2):
            assert solve_classical(osc_spec, x, x, TimeGrid(0.0, T, N)).converged

    @pytest.mark.parametrize("dim", [2, 3])
    def test_caustic_verdict_judges_each_mode(self, dim):
        # isotropic unit oscillators: every mode at sin(T)/T, 6.9e-3 at
        # T = 3.12 (the product over modes would be below CAUSTIC_TOL)
        spec = unit_mass_system(
            " + ".join(f"0.5*x{k}^2" for k in range(1, dim + 1)), dim)
        x = np.full(dim, 0.5)
        assert solve_classical(spec, x, x, TimeGrid(0.0, 3.12, 200)).converged
        with pytest.raises(SingularHessian):
            solve_classical(spec, x, x, TimeGrid(0.0, np.pi, 200))

    def test_caustic_seen_beside_unstable_mode(self):
        # x1 reaches its conjugate point at T = pi while the inverted x2
        # grows by sinh(3 pi)/(3 pi) ~ 660: the product would hide the caustic
        spec = unit_mass_system("0.5*x1^2 - 4.5*x2^2", 2)
        x = np.array([1.0, 0.1])
        with pytest.raises(SingularHessian):
            solve_classical(spec, x, x, TimeGrid(0.0, np.pi, 200))
        assert solve_classical(spec, x, x, TimeGrid(0.0, 3.0, 200)).converged

    @pytest.mark.parametrize("system", ["pendulum", "oscillator", "coupled"])
    def test_caustic_mixed_block_is_the_schur_block(self, system, pendulum_spec,
                                                    osc_spec, rng):
        # the caustic check solves only the node-0 coupling's columns; its
        # Hfi must be the full boundary Schur complement's, bit for bit
        spec, T = {"pendulum": (pendulum_spec, 0.785), "oscillator": (osc_spec, 2.0),
                   "coupled": (unit_mass_system("0.5*x1^2 + 0.8*x2^2 + 0.3*x1*x2"
                                                " + 0.1*x1^4", 2), 1.3)}[system]
        n, grid = spec.dim, TimeGrid(0.0, T, 200)
        h = straight_line_history(rng.uniform(-1, 1, (40, n)),
                                  rng.uniform(-1, 1, (40, n)), grid)
        _, _, blocks = action_gradient_hessian(spec, h, grid)
        kin = blocks["kin"]
        for b in (blocks, {"D00": kin, "D01": -kin, "D11": kin}):
            factor = BandFactor(b)
            full = classical._schur_boundary(b, factor)[:, n:, :n]
            mixed = classical._schur_mixed(b, factor)
            assert np.array_equal(full.view(np.int64), mixed.view(np.int64))

    def test_tiny_time_step_converges(self, osc_spec):
        # tau = 2.5e-9: the gradient's rounding, eps |C/tau| |h| sqrt(N), is
        # about 3e-6, above the absolute tolerance RESIDUAL_TOL n N = 4e-7
        T = 1e-5
        sol = solve_classical(osc_spec, np.array([0.5]), np.array([0.1]),
                              TimeGrid(0.0, T, 4000))
        assert sol.converged
        assert sol.p_f[0] == pytest.approx((0.5 * np.cos(T) - 0.1) / np.sin(T), rel=1e-9)
        assert sol.p_i[0] == pytest.approx((0.5 - 0.1 * np.cos(T)) / np.sin(T), rel=1e-9)

    def test_nonlinear_pendulum(self, pendulum_spec):
        sol = solve_classical(pendulum_spec, np.array([2.0]), np.array([0.3]),
                              TimeGrid(0.0, 1.5, 150))
        assert sol.converged
        assert sol.iterations >= 2  # genuinely nonlinear
        assert sol.residual_norm < 1e-10 * 150

    def test_two_dimensional_oscillator(self):
        from bmech import sysdsl
        spec = sysdsl.parse(
            '{"name":"o2","dim":2,'
            '"lagrangian":"0.5*(v1^2+v2^2) - 0.5*(x1^2 + 4*x2^2)",'
            '"parameters":{},'
            '"domain":[{"min":-5,"max":5},{"min":-5,"max":5}]}')
        sol = solve_classical(spec, np.array([1.0, 0.5]), np.array([0.2, -0.3]),
                              TimeGrid(0.0, 1.0, 240))
        exact = (osc_action(1.0, 0.2, 1.0, w=1.0)
                 + osc_action(0.5, -0.3, 1.0, w=2.0))
        assert sol.action == pytest.approx(exact, abs=1e-4)

    def test_time_translation_invariance(self, osc_spec):
        a = solve_classical(osc_spec, np.array([0.9]), np.array([-0.2]),
                            TimeGrid(0.0, 1.3, 160))
        b = solve_classical(osc_spec, np.array([0.9]), np.array([-0.2]),
                            TimeGrid(5.0, 6.3, 160))
        assert a.action == pytest.approx(b.action, abs=1e-10)
        assert np.allclose(a.p_f, b.p_f, atol=1e-10)

    def test_time_dependent_lagrangian(self):
        from bmech import sysdsl
        driven = sysdsl.parse(
            '{"name":"driven","dim":1,'
            '"lagrangian":"0.5*v1^2 - 0.5*x1^2 + x1*sin(t)",'
            '"parameters":{},"domain":[{"min":-5,"max":5}]}')
        grid = TimeGrid(0.0, 1.4, 200)
        xf, xi = np.array([0.8]), np.array([-0.2])
        sol = solve_classical(driven, xf, xi, grid)
        assert sol.converged
        # duality still holds with explicit time dependence
        step = 1e-5
        dS = (solve_classical(driven, xf + step, xi, grid).action
              - solve_classical(driven, xf - step, xi, grid).action) / (2 * step)
        assert dS == pytest.approx(sol.p_f[0], rel=1e-6)
        # and the run is genuinely time-dependent: shifting the window
        # changes the action
        shifted = solve_classical(driven, xf, xi, TimeGrid(2.0, 3.4, 200))
        assert abs(shifted.action - sol.action) > 1e-3

    def test_momentum_duality(self, osc_spec, rng):
        # finite differences of S reproduce (+p_f, -p_i)
        grid = TimeGrid(0.0, 1.1, 120)
        for _ in range(5):
            xf = rng.uniform(-1.5, 1.5, size=1)
            xi = rng.uniform(-1.5, 1.5, size=1)
            sol = solve_classical(osc_spec, xf, xi, grid)
            step = 1e-5
            Sp = solve_classical(osc_spec, xf + step, xi, grid).action
            Sm = solve_classical(osc_spec, xf - step, xi, grid).action
            assert (Sp - Sm) / (2 * step) == pytest.approx(
                sol.p_f[0], rel=1e-5, abs=1e-8)
            Sp = solve_classical(osc_spec, xf, xi + step, grid).action
            Sm = solve_classical(osc_spec, xf, xi - step, grid).action
            assert (Sp - Sm) / (2 * step) == pytest.approx(
                -sol.p_i[0], rel=1e-5, abs=1e-8)


class TestBatch:
    """solve_classical_batch against one solve_classical call per member."""

    @pytest.mark.parametrize("system", ["free", "osc", "pendulum", "coupled"])
    def test_matches_one_solve_per_member(self, system, request, rng, monkeypatch):
        spec = unit_mass_system("0.5*x1^2 + 0.8*x2^2 + 0.3*x1*x2 + 0.1*x1^2*x2^2", 2) \
            if system == "coupled" else request.getfixturevalue(f"{system}_spec")
        grid = TimeGrid(0.0, 1.2, 200)
        monkeypatch.setattr(classical, "CHUNK_ELEMENTS", 2048)
        B = 23  # three chunks at N = 200
        assert B > classical.CHUNK_ELEMENTS // (grid.N + 1)
        XF = rng.uniform(-1.5, 1.5, (spec.dim, B))
        XI = rng.uniform(-1.5, 1.5, (spec.dim, B))
        batch = solve_classical_batch(spec, XF, XI, grid)
        assert batch.history.shape == (grid.N + 1, spec.dim, B)
        for b in range(B):
            sol = solve_classical(spec, XF[:, b], XI[:, b], grid)
            assert batch.errors[b] is None
            assert batch.iterations[b] == sol.iterations
            np.testing.assert_allclose(batch.action[b], sol.action, rtol=1e-12, atol=0)
            np.testing.assert_allclose(batch.p_f[:, b], sol.p_f, rtol=1e-12, atol=0)
            np.testing.assert_allclose(batch.p_i[:, b], sol.p_i, rtol=1e-12, atol=0)
            np.testing.assert_allclose(batch.history[:, :, b], sol.history,
                                       rtol=1e-12, atol=0)

    def test_caustic_fails_every_member(self, osc_spec, rng):
        # every pair of the oscillator has its conjugate point at T = pi
        XF, XI = rng.uniform(-2.0, 2.0, (2, 1, 13))
        batch = solve_classical_batch(osc_spec, XF, XI, TimeGrid(0.0, np.pi, 200))
        assert all(isinstance(e, SingularHessian) for e in batch.errors)
        for values in (batch.history, batch.action, batch.p_f, batch.p_i):
            assert np.isnan(values).all()

    def test_failures_stay_with_their_member(self, monkeypatch):
        # sqrt(x1) raises for x1 < 0 and turns the line search back near 0;
        # this 36-pair batch (two chunks) meets every error type
        monkeypatch.setattr(classical, "CHUNK_ELEMENTS", 2048)
        spec = sysdsl.parse(json.dumps({
            "name": "root", "dim": 1,
            "lagrangian": "0.5*v1^2 - 3*x1^2 + sqrt(x1)",
            "domain": [{"min": -2.0, "max": 2.0}]}))
        xs = np.array([-0.5, 0.02, 0.1, 0.3, 1.0, 1.5])
        XF, XI = (a.reshape(1, -1) for a in np.meshgrid(xs, xs, indexing="ij"))
        grid = TimeGrid(0.0, 1.0, 60)
        batch = solve_classical_batch(spec, XF, XI, grid)
        seen = set()
        for b in range(XF.shape[1]):
            try:
                sol = solve_classical(spec, XF[:, b], XI[:, b], grid)
            except BmechError as exc:
                assert type(batch.errors[b]) is type(exc)
                assert str(batch.errors[b]) == str(exc)
                assert np.isnan(batch.action[b]) and np.isnan(batch.p_f[:, b]).all()
                seen.add(type(exc))
                continue
            assert batch.errors[b] is None
            np.testing.assert_allclose(batch.action[b], sol.action, rtol=1e-12, atol=0)
            np.testing.assert_allclose(batch.p_f[:, b], sol.p_f, rtol=1e-12, atol=0)
            np.testing.assert_allclose(batch.p_i[:, b], sol.p_i, rtol=1e-12, atol=0)
        assert seen == {DomainError, NoConvergence, SingularHessian}

    @pytest.mark.parametrize("system", ["pendulum", "coupled"])
    def test_chunk_size_does_not_change_results(self, system, request, rng,
                                                monkeypatch):
        spec = unit_mass_system("0.5*x1^2 + 0.8*x2^2 + 0.3*x1*x2 + 0.1*x1^2*x2^2", 2) \
            if system == "coupled" else request.getfixturevalue(f"{system}_spec")
        grid = TimeGrid(0.0, 1.2, 200)
        # several chunks at either size, and a failing last member
        B = 2 * classical.CHUNK_ELEMENTS // (grid.N + 1) + 3
        XF = rng.uniform(-1.5, 1.5, (spec.dim, B))
        XI = rng.uniform(-1.5, 1.5, (spec.dim, B))
        XF[:, -1] = np.nan
        runs = []
        for size in (2048, classical.CHUNK_ELEMENTS):
            monkeypatch.setattr(classical, "CHUNK_ELEMENTS", size)
            runs.append(solve_classical_batch(spec, XF, XI, grid))
        small, large = runs
        for name in ("history", "action", "p_f", "p_i", "iterations"):
            np.testing.assert_array_equal(getattr(small, name), getattr(large, name))
        assert [repr(e) for e in small.errors] == [repr(e) for e in large.errors]
        assert small.errors[-1] is not None

    def test_shape_validation(self, free_spec):
        with pytest.raises(ValueError):
            solve_classical_batch(free_spec, np.zeros(3), np.zeros(3),
                                  TimeGrid(0.0, 1.0, 16))


class TestQuadraticBatch:
    """solve_quadratic_batch against the Newton batch of the same pairs."""

    @pytest.mark.parametrize("system", ["free", "osc", "coupled"])
    def test_matches_the_newton_batch(self, system, request, rng, monkeypatch):
        spec = unit_mass_system("0.5*x1^2 + 0.8*x2^2 + 0.3*x1*x2", 2) \
            if system == "coupled" else request.getfixturevalue(f"{system}_spec")
        assert spec.is_quadratic
        grid = TimeGrid(0.0, 1.2, 200)
        monkeypatch.setattr(classical, "CHUNK_ELEMENTS", 2048)
        B = 23  # three chunks at N = 200
        XF = rng.uniform(-1.5, 1.5, (spec.dim, B))
        XI = rng.uniform(-1.5, 1.5, (spec.dim, B))
        quad = solve_quadratic_batch(spec, XF, XI, grid)
        batch = solve_classical_batch(spec, XF, XI, grid)
        assert quad.errors == [None] * B
        # measured on five seeds: at most 3e-16 (action), 6.5e-13 (momenta)
        # and 2.3e-13 (histories), mostly the Newton batch's own error
        for name, bound in (("action", 2e-15), ("p_f", 2e-12), ("p_i", 2e-12),
                            ("history", 1e-12)):
            got, want = getattr(quad, name), getattr(batch, name)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))
        np.testing.assert_array_equal(quad.history[0], XI)
        np.testing.assert_array_equal(quad.history[-1], XF)

    def test_boundary_momenta_are_the_gradients_ends(self, pendulum_spec, rng):
        # on any stack of histories, stationary or not
        grid = TimeGrid(0.0, 1.0, 30)
        h = rng.uniform(-1.0, 1.0, (5, grid.N + 1, 1))
        _, (p_f, p_i), _ = action_gradient_hessian(pendulum_spec, h, grid)
        got = classical.boundary_momenta(pendulum_spec, h[:, [0, 1, -2, -1]], grid)
        np.testing.assert_array_equal(got[0], p_f.T)
        np.testing.assert_array_equal(got[1], p_i.T)

    def test_caustic_raises_from_the_centre(self, osc_spec, rng):
        XF, XI = rng.uniform(-2.0, 2.0, (2, 1, 13))
        with pytest.raises(SingularHessian, match="conjugate point"):
            solve_quadratic_batch(osc_spec, XF, XI, TimeGrid(0.0, np.pi, 200))

    def test_empty_batch(self, osc_spec):
        quad = solve_quadratic_batch(osc_spec, np.zeros((1, 0)), np.zeros((1, 0)),
                                     TimeGrid(0.0, 1.0, 16))
        assert quad.action.shape == (0,) and quad.p_f.shape == (1, 0)


class TestActionDerivs:
    def test_free_particle_closed_form(self, free_spec):
        T = 2.0
        S, gf, gi, blocks = classical_action_derivs(
            free_spec, np.array([1.4]), np.array([0.2]), TimeGrid(0.0, T, 100))
        assert S == pytest.approx((1.4 - 0.2) ** 2 / (2 * T), abs=1e-12)
        assert gf[0] == pytest.approx((1.4 - 0.2) / T, abs=1e-12)
        assert gi[0] == pytest.approx(-(1.4 - 0.2) / T, abs=1e-12)
        assert blocks["Hfi"][0, 0] == pytest.approx(-1.0 / T, abs=1e-10)
        assert blocks["Hff"][0, 0] == pytest.approx(1.0 / T, abs=1e-10)

    def test_coincident_endpoints_symmetric(self, free_spec):
        S, gf, gi, _ = classical_action_derivs(
            free_spec, np.array([0.7]), np.array([0.7]), TimeGrid(0.0, 1.0, 64))
        assert abs(S) < 1e-13
        assert np.max(np.abs(gf)) < 1e-13
        assert np.max(np.abs(gi)) < 1e-13

    def test_oscillator_mixed_block(self, osc_spec):
        T = np.pi / 2
        _, _, _, blocks = classical_action_derivs(
            osc_spec, np.array([1.0]), np.array([1.0]), TimeGrid(0.0, T, 400))
        assert blocks["Hfi"][0, 0] == pytest.approx(-1.0 / np.sin(T), abs=1e-4)

    def test_hessian_vs_momentum_differences(self, osc_spec):
        grid = TimeGrid(0.0, 1.2, 200)
        xf, xi = np.array([0.6]), np.array([-0.1])
        _, _, _, blocks = classical_action_derivs(osc_spec, xf, xi, grid)
        step = 1e-5
        pf_up = solve_classical(osc_spec, xf, xi + step, grid).p_f[0]
        pf_dn = solve_classical(osc_spec, xf, xi - step, grid).p_f[0]
        assert blocks["Hfi"][0, 0] == pytest.approx(
            (pf_up - pf_dn) / (2 * step), rel=1e-5)


class TestJacobiGreens:
    def test_free_particle_green(self, free_spec):
        sol = solve_classical(free_spec, np.array([1.0]), np.array([0.0]),
                              TimeGrid(0.0, 2.0, 100))
        greens, _ = jacobi_and_greens(free_spec, sol)
        assert greens.gFif[0, 0] == pytest.approx(-2.0, abs=1e-8)

    def test_identities(self, osc_spec):
        sol = solve_classical(osc_spec, np.array([0.8]), np.array([-0.5]),
                              TimeGrid(0.0, 1.0, 150))
        greens, _ = jacobi_and_greens(osc_spec, sol)
        n = 1
        assert np.max(np.abs(greens.gFif @ greens.Hfi - np.eye(n))) < 1e-8
        assert np.max(np.abs(greens.gFfi @ greens.Hfi.T - np.eye(n))) < 1e-8
        gFC = greens.gFC
        assert np.max(np.abs(gFC + gFC.T)) < 1e-12
        assert np.max(np.abs(gFC[n:, :n] - greens.gFif)) == 0.0
        assert np.max(np.abs(gFC[:n, n:] + greens.gFfi)) == 0.0

    def test_dirichlet_field_boundary_values(self, osc_spec):
        sol = solve_classical(osc_spec, np.array([0.8]), np.array([-0.5]),
                              TimeGrid(0.0, 1.0, 150))
        _, solver = jacobi_and_greens(osc_spec, sol)
        field = solver.solve_dirichlet(np.array([0.3]), np.array([-0.9]))
        assert field[0, 0] == pytest.approx(-0.9)
        assert field[-1, 0] == pytest.approx(0.3)

    def test_neumann_field_momenta(self, osc_spec):
        sol = solve_classical(osc_spec, np.array([0.8]), np.array([-0.5]),
                              TimeGrid(0.0, 1.0, 150))
        _, solver = jacobi_and_greens(osc_spec, sol)
        field = solver.solve_neumann(np.array([0.4]), np.array([-0.2]))
        assert solver.momentum_at(field, 150)[0] == pytest.approx(0.4, abs=1e-9)
        assert solver.momentum_at(field, 0)[0] == pytest.approx(-0.2, abs=1e-9)

    @pytest.mark.parametrize("T", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("N", [2, 100, 4000])
    def test_neumann_zero_mode_is_singular(self, free_spec, T, N):
        # a free particle's translations cost no action: Hb is singular
        sol = solve_classical(free_spec, np.array([1.0]), np.array([0.0]),
                              TimeGrid(0.0, T, N))
        _, solver = jacobi_and_greens(free_spec, sol)
        with pytest.raises(SingularHessian):
            solver.solve_neumann(np.array([0.4]), np.array([-0.2]))

    @pytest.mark.parametrize("N", [2, 100, 4000])
    def test_neumann_short_time_oscillator_solves(self, osc_spec, N):
        # sigma_min/sigma_max of Hb is about T^2/4 = 2.5e-5: ill-conditioned
        # but far from singular; the field must carry the momenta asked for
        sol = solve_classical(osc_spec, np.array([0.5]), np.array([0.1]),
                              TimeGrid(0.0, 0.01, N))
        _, solver = jacobi_and_greens(osc_spec, sol)
        field = solver.solve_neumann(np.array([0.4]), np.array([-0.2]))
        assert solver.momentum_at(field, N)[0] == pytest.approx(0.4, rel=1e-6)
        assert solver.momentum_at(field, 0)[0] == pytest.approx(-0.2, rel=1e-6)

    def test_solution_factor_is_shared(self, pendulum_spec, monkeypatch):
        counts = {"hessian": 0, "factor": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(classical, "action_gradient_hessian",
                            counted("hessian", classical.action_gradient_hessian))
        # the pendulum's scalar second variation is factored by dgttrf;
        # BandFactor looks the LAPACK routines up in scipy when it factors
        for kernel in ("dgbtrf", "dgttrf"):
            monkeypatch.setattr(scipy.linalg.lapack, kernel,
                                counted("factor", getattr(scipy.linalg.lapack, kernel)))
        sol = solve_classical(pendulum_spec, np.array([2.0]), np.array([0.3]),
                              TimeGrid(0.0, 1.5, 150))
        assert sol.iterations == 3
        assert counts["factor"] >= 1
        # one evaluation at the start, one per accepted Newton step
        assert counts["hessian"] <= sol.iterations + 1
        before = dict(counts)
        jacobi_and_greens(pendulum_spec, sol)
        assert counts == before

    def test_wronskian_constant_along_grid(self, osc_spec):
        sol = solve_classical(osc_spec, np.array([1.0]), np.array([1.0]),
                              TimeGrid(0.0, np.pi / 2, 200))
        _, solver = jacobi_and_greens(osc_spec, sol)
        f1 = solver.solve_dirichlet(np.array([1.0]), np.array([0.0]))
        f2 = solver.solve_dirichlet(np.array([0.3]), np.array([-0.7]))
        vals = [solver.symplectic_product(f1, f2, k) for k in range(0, 201, 10)]
        spread = (max(vals) - min(vals)) / abs(vals[0])
        assert spread < 1e-8

    def test_cauchy_projector_identity_on_jacobi_fields(self, osc_spec):
        sol = solve_classical(osc_spec, np.array([1.0]), np.array([1.0]),
                              TimeGrid(0.0, np.pi / 2, 120))
        _, solver = jacobi_and_greens(osc_spec, sol)
        field = solver.solve_dirichlet(np.array([0.4]), np.array([-0.2]))
        for node in (0, 37, 120):
            proj = solver.cauchy_project(field, node)
            assert np.max(np.abs(proj - field)) < 1e-10

    def test_cauchy_projector_idempotent(self, osc_spec, rng):
        sol = solve_classical(osc_spec, np.array([1.0]), np.array([1.0]),
                              TimeGrid(0.0, np.pi / 2, 120))
        _, solver = jacobi_and_greens(osc_spec, sol)
        noise = rng.standard_normal((121, 1))
        once = solver.cauchy_project(noise, 60)
        twice = solver.cauchy_project(once, 60)
        assert np.max(np.abs(once - twice)) < 1e-9 * max(1, np.max(np.abs(once)))


class TestFailureModes:
    def test_divergent_initial_guess(self, pendulum_spec):
        # far outside the basin with a tiny iteration budget
        import bmech.classical as classical
        old = classical.MAX_NEWTON_ITER
        classical.MAX_NEWTON_ITER = 2
        try:
            with pytest.raises((NoConvergence, SingularHessian)):
                solve_classical(pendulum_spec, np.array([2.9]), np.array([-2.9]),
                                TimeGrid(0.0, 6.0, 100))
        finally:
            classical.MAX_NEWTON_ITER = old

    def test_boundary_shape_validation(self, free_spec):
        with pytest.raises(ValueError):
            solve_classical(free_spec, np.array([1.0, 2.0]), np.array([0.0]),
                            TimeGrid(0.0, 1.0, 16))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)
