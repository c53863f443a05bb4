"""Output checks: every report and CSV dump a task writes is read back and
compared with a computation made apart from the program (closed forms, or
Hamilton's equations integrated with scipy's solve_ivp).

Each check returns a list of problems; an empty list means the output is
right.  Tolerances on continuum quantities scale as tau^2, the order of the
program's midpoint-rule discretization; the constants were set at about ten
times the largest error seen over many seeds (see the README).
"""

import json

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import root_scalar

from systems import (oscillator_classical, oscillator_kernel,
                     oscillator_measure)

# error <= C * tau^2 * (1 + |reference|) on continuum quantities
CLOSED_FORM_C = 2.0
SHOOTING_C = 2.0
BRACKET_C = 0.5
GREEN_INVERSE_TOL = 1e-9
QUANTIZE_RESIDUAL_TOL = 1e-12
QUANTIZE_ORDER_TOL = 0.2        # order in [1.8, 2.2]
KERNEL_WINDOW = 2.5           # |x| <= 2.5 for kernel comparisons
KERNEL_REL_L2 = 1e-3          # against the closed-form free and Mehler kernels
KERNEL_PAIR_REL_L2 = 2e-3     # CN against Trotter: two 1e-3 errors combined
MEASURE_REL_TOL = 0.01        # oscillator measure against its closed form
ACTION_C = 0.5


class Problems(list):
    """Collects check failures as readable strings."""

    def near(self, name, got, want, tol):
        got, want = np.asarray(got, dtype=complex), np.asarray(want, dtype=complex)
        if got.shape != want.shape:
            self.append(f"{name}: shape {got.shape} != {want.shape}")
            return
        err = float(np.max(np.abs(got - want))) if got.size else 0.0
        if not err <= tol:
            self.append(f"{name}: |error| {err:.3e} > {tol:.3e}")

    def require(self, ok, message):
        if not ok:
            self.append(message)


def read_report(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_complex_csv(stem, abs_name, arg_name):
    """Field rebuilt from its |.| and arg dumps."""
    mod = np.loadtxt(f"{stem}.{abs_name}.csv", delimiter=",", ndmin=2)
    arg = np.loadtxt(f"{stem}.{arg_name}.csv", delimiter=",", ndmin=2)
    return mod * np.exp(1j * arg)


# ---------------------------------------------------------------------------
# Hamilton's equations

def _flow(system):
    minv = 1.0 / system.mass
    n = system.dim

    def rhs(_, y):
        x, p = y[:n], y[n:2 * n]
        dx = minv * p
        dp = -system.grad_potential(x)
        lag = 0.5 * float(p @ dx) - float(system.potential(x))
        return np.concatenate([dx, dp, [lag]])

    return rhs


def integrate(system, x_i, p_i, T):
    """(x(T), p(T), S) of the trajectory leaving (x_i, p_i), S its action."""
    n = system.dim
    y0 = np.concatenate([np.atleast_1d(x_i), np.atleast_1d(p_i), [0.0]]).astype(float)
    sol = solve_ivp(_flow(system), (0.0, T), y0, method="DOP853",
                    rtol=1e-12, atol=1e-12)
    y = sol.y[:, -1]
    return y[:n], y[n:2 * n], float(y[-1])


def shooting_action(system, x_f, x_i, T):
    """Action of the 1-D trajectory from x_i to x_f in time T, by shooting
    on the initial momentum from the straight-line guess."""
    m = float(system.mass[0])
    guess = m * (x_f - x_i) / T
    miss = lambda p: integrate(system, x_i, p, T)[0][0] - x_f  # noqa: E731
    root = root_scalar(miss, x0=guess, x1=guess + 0.05 * m, method="secant",
                       xtol=1e-13, maxiter=50)
    if not root.converged:
        raise RuntimeError(f"shooting did not converge for {x_i}->{x_f}")
    return integrate(system, x_i, root.root, T)[2]


# ---------------------------------------------------------------------------
# Classical layer

def check_record(system, rec, x_f, x_i, T, N, problems, label=""):
    """One classical solution: Green inverse, Hamilton's equations, and the
    closed forms where the system has them."""
    tau2 = (T / N) ** 2
    if "error" in rec:
        problems.append(f"{label}record reports {rec['error']}")
        return
    problems.require(rec["convergence"]["converged"] is True,
                     f"{label}not converged")
    p_f, p_i = np.array(rec["p_f"]), np.array(rec["p_i"])
    Hfi = np.array(rec["hessian"]["Hfi"])
    gFif = np.array(rec["greens"]["gFif"])
    problems.near(f"{label}gFif.Hfi - I", gFif @ Hfi, np.eye(system.dim),
                  GREEN_INVERSE_TOL)

    x_T, p_T, _ = integrate(system, x_i, p_i, T)
    scale = 1.0 + float(np.max(np.abs(np.concatenate([p_f, p_i]))))
    problems.near(f"{label}x(T) from (x_i, p_i)", x_T, x_f, SHOOTING_C * tau2 * scale)
    problems.near(f"{label}p(T) from (x_i, p_i)", p_T, p_f, SHOOTING_C * tau2 * scale)

    if system.key in ("free", "osc"):
        w = system.params.get("w", 0.0)
        ref = oscillator_classical(system.params["m"], w, float(x_f[0]),
                                   float(x_i[0]), T)
        got = {"S": rec["action"], "p_f": p_f[0], "p_i": p_i[0],
               "Hff": rec["hessian"]["Hff"][0][0], "Hfi": Hfi[0, 0],
               "Hii": rec["hessian"]["Hii"][0][0]}
        for key, want in ref.items():
            problems.near(f"{label}{key}", got[key], want,
                          CLOSED_FORM_C * tau2 * (1.0 + abs(want)))


def check_classical(task, systems, _state):
    problems = Problems()
    rep = read_report(task.out)["result"]
    system = systems[task.system]
    e = task.expect
    if "scan" in e:
        start, stop, count = e["scan"]
        records = rep["scan"]
        tfs = np.linspace(start, stop, count)
        problems.require(len(records) == count, f"{len(records)} scan records")
        for tf, rec in zip(tfs, records):
            problems.near("scan tf", rec["tf"], tf, 1e-12)
            check_record(system, rec, e["x_f"], e["x_i"], tf, e["N"], problems,
                         label=f"tf={tf:.3f}: ")
    else:
        check_record(system, rep, e["x_f"], e["x_i"], e["T"], e["N"], problems)
    return problems


def check_brackets(task, systems, _state):
    problems = Problems()
    rep = read_report(task.out)["result"]
    e = task.expect
    m, w = systems[task.system].params["m"], systems[task.system].params["w"]
    T, N = e["T"], e["N"]
    xf_xi, f_g = rep["pairs"]
    # {x_f, x_i} on the solution surface is the retarded Green function
    problems.require(xf_xi["covariant"] is not None and f_g["covariant"] is not None,
                     f"covariant bracket missing: {xf_xi.get('offshell')}")
    if xf_xi["covariant"] is not None:
        want = np.sin(w * T) / (m * w)
        problems.near("covariant {x_f, x_i}", xf_xi["covariant"], want,
                      BRACKET_C * (T / N) ** 2 * (1.0 + abs(want)))
    problems.near("boundary {x_f, x_i}", xf_xi["boundary"], 0.0, 0.0)
    # {F_f, G_a} = -(a . grad f): f = x_f^2, a = (1, 0)
    problems.near("boundary {x_f^2, G}", f_g["boundary"], -2.0 * e["x_f"], 1e-9)
    for entry in (xf_xi, f_g):
        problems.near("antisymmetry", entry["antisymmetry_residual"], 0.0, 1e-12)
    problems.near("F-G identity sweep", rep["fg_identity_sweep_max"], 0.0, 1e-6)
    return problems


def check_quantize(task, _systems, _state):
    problems = Problems()
    rep = read_report(task.out)["result"]
    problems.near("commutator order", rep["commutator_order"], 2.0,
                  QUANTIZE_ORDER_TOL)
    for key in ("ordering_relation_residual", "hermiticity_residual",
                "shift_permutation_residual"):
        problems.near(key, rep[key], 0.0, QUANTIZE_RESIDUAL_TOL)
    return problems


# ---------------------------------------------------------------------------
# Quantum layer

def _rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def check_propagator(task, systems, state):
    """Kernel rebuilt from the |K| and arg K dumps against the closed form
    (free, oscillator) or against the other method at the same T (pendulum)."""
    problems = Problems()
    rep = read_report(task.out)["result"]
    e = task.expect
    ring = rep["ring"]
    x = ring["origin"] + ring["spacing"] * np.arange(ring["points"])
    K = read_complex_csv(task.stem, "absK", "argK")
    problems.require(K.shape == (x.size, x.size), f"kernel shape {K.shape}")
    if problems:
        return problems
    mask = np.abs(x) <= KERNEL_WINDOW
    Kw = K[np.ix_(mask, mask)]
    system = systems[task.system]
    if system.key == "pend":
        other = state.pop(e["pair"], None)
        if other is None:
            state[e["pair"]] = Kw
        else:
            problems.near("CN against Trotter, relative L2", _rel_l2(Kw, other),
                          0.0, KERNEL_PAIR_REL_L2)
        return problems
    XF, XI = np.meshgrid(x[mask], x[mask], indexing="ij")
    exact = oscillator_kernel(system.params["m"], system.params.get("w", 0.0),
                              e["T"], XF, XI)
    problems.near("kernel against closed form, relative L2", _rel_l2(Kw, exact),
                  0.0, KERNEL_REL_L2)
    return problems


def check_semiclassical(task, systems, _state):
    """Oscillator: measure against sqrt(m w / (2 pi i sin wT)).  Pendulum: the
    action S = arg K - arg a on sampled window pairs against shooting."""
    problems = Problems()
    rep = read_report(task.out)["result"]
    e = task.expect
    system = systems[task.system]
    measure = read_complex_csv(task.stem, "measure_abs", "measure_arg")
    P = rep["window"]["points"]
    problems.require(measure.shape == (P, P), f"measure shape {measure.shape}")
    if problems:
        return problems
    if system.key == "osc":
        want = oscillator_measure(system.params["m"], system.params["w"], e["T"])
        problems.near("measure / closed form", measure / want, np.ones_like(measure),
                      MEASURE_REL_TOL)
        return problems
    # the report does not carry the ring, so take it from the documented
    # sizing rule; the count must match the report's window
    from bmech import bqm, sysdsl
    ring = bqm.kernel_grid(sysdsl.parse(system.text()), e["T"], e["grid"])
    x = ring.axis_points(0)
    idx = np.where((x >= e["window"][0]) & (x <= e["window"][1]))[0]
    problems.require(idx.size == P, f"window has {P} points, ring gives {idx.size}")
    if problems:
        return problems
    argK = np.loadtxt(f"{task.stem}.argK.csv", delimiter=",", ndmin=2)
    tau2 = (e["T"] / e["classical_slices"]) ** 2
    for a, b in (np.asarray(e["pair_fractions"]) * P).astype(int):
        s_prog = argK[idx[a], idx[b]] - np.angle(measure[a, b])
        s_ref = shooting_action(system, x[idx[a]], x[idx[b]], e["T"])
        gap = np.angle(np.exp(1j * (s_prog - s_ref)))   # compared mod 2 pi
        problems.near(f"action at window pair ({a}, {b})", gap, 0.0,
                      ACTION_C * tau2 * (1.0 + abs(s_ref)))
    return problems


CHECKS = {
    "classical": check_classical,
    "scan": check_classical,
    "brackets": check_brackets,
    "quantize": check_quantize,
    "propagator": check_propagator,
    "semiclassical": check_semiclassical,
}


def check(task, systems, state):
    """Problems found in a finished task's outputs (empty when correct)."""
    try:
        return CHECKS[task.kind](task, systems, state)
    except (OSError, ValueError, KeyError, TypeError, IndexError, RuntimeError) as exc:
        return [f"output could not be checked: {type(exc).__name__}: {exc}"]
