"""Poisson brackets on the boundary phase space T*(Q x Q) and on the space of
classical solutions, plus the position/momentum observable algebra.

Convention table (used by every routine here and referenced by the tests):
  * symplectic form  omega = grad p ^ grad x, so {x, p} = -delta;
  * inversion        omega^{-1} . omega = -identity;
  * boundary momentum assembly  P = (-p_f) (+) p_i over values q = (x_f, x_i).

Observables of kind F depend on boundary values only; kind G is exactly
linear in the assembled momentum, G_a = a(q) . P.  Their brackets use closed
forms; generic observables are differentiated by central differences with
step 1e-5 unless analytic gradients are supplied.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Degenerate, OffShell
from .geometry import partial_derivative

__all__ = [
    "BoundaryPhasePoint",
    "Observable",
    "PhaseFunction",
    "poisson_boundary",
    "poisson_covariant",
    "canonical_form",
    "canonical_vector_field",
    "connection_invariance_check",
    "lie_bracket",
]

DIFF_STEP = 1e-5
ONSHELL_TOL = 1e-6


@dataclass(frozen=True)
class BoundaryPhasePoint:
    """Values and canonical momenta at both ends; P = (-p_f) (+) p_i."""

    x_f: np.ndarray
    p_f: np.ndarray
    x_i: np.ndarray
    p_i: np.ndarray

    def __post_init__(self):
        for name in ("x_f", "p_f", "x_i", "p_i"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        n = self.x_f.shape[0]
        if any(getattr(self, name).shape != (n,) for name in ("p_f", "x_i", "p_i")):
            raise ValueError("boundary phase point components disagree in dimension")

    @property
    def n(self):
        return self.x_f.shape[0]

    @property
    def q(self):
        """Boundary values ordered (final, initial)."""
        return np.concatenate([self.x_f, self.x_i])

    @property
    def momentum(self):
        """Assembled boundary momentum (-p_f) (+) p_i."""
        return np.concatenate([-self.p_f, self.p_i])

    def replace(self, **kw):
        data = {"x_f": self.x_f, "p_f": self.p_f, "x_i": self.x_i, "p_i": self.p_i}
        data.update(kw)
        return BoundaryPhasePoint(**data)


class Observable:
    """Observable on the boundary phase space.

    kind "F": momentum-independent, f(q) with q = (x_f, x_i) of length 2n.
    kind "G": exactly linear in momentum, a(q) . P with a valued in R^{2n}.
    kind "general": arbitrary callable of a BoundaryPhasePoint.
    """

    def __init__(self, kind, fn, grad=None, jac=None):
        if kind not in ("F", "G", "general"):
            raise ValueError(f"unknown observable kind {kind!r}")
        self.kind = kind
        self.fn = fn
        self.grad = grad
        self.jac = jac

    @classmethod
    def F(cls, f, grad=None):
        return cls("F", f, grad=grad)

    @classmethod
    def G(cls, a, jac=None):
        return cls("G", a, jac=jac)

    @classmethod
    def general(cls, fn, grad=None):
        return cls("general", fn, grad=grad)

    @classmethod
    def coordinate(cls, m):
        """Assembled boundary value q_m as an F observable."""
        def f(q):
            return q[m]
        def g(q):
            out = np.zeros_like(q)
            out[m] = 1.0
            return out
        return cls.F(f, grad=g)

    @classmethod
    def momentum(cls, m):
        """Assembled boundary momentum P_m as a G observable."""
        def a(q):
            out = np.zeros_like(q)
            out[m] = 1.0
            return out
        def jac(q):
            return np.zeros((q.shape[0], q.shape[0]))
        return cls.G(a, jac=jac)

    def value(self, pt):
        if self.kind == "F":
            return float(self.fn(pt.q))
        if self.kind == "G":
            return float(np.asarray(self.fn(pt.q), dtype=float) @ pt.momentum)
        return float(self.fn(pt))

    # -- partial derivatives in physical labels -----------------------------

    def partials(self, pt):
        """dict with d/dx_f, d/dp_f, d/dx_i, d/dp_i, each an (n,) array."""
        n = pt.n
        if self.kind == "F":
            dq = self._grad_q(pt.q)
            zero = np.zeros(n)
            return {"xf": dq[:n], "pf": zero, "xi": dq[n:], "pi": zero.copy()}
        if self.kind == "G":
            a = np.asarray(self.fn(pt.q), dtype=float)
            J = self._jac_q(pt.q)  # J[k, m] = d a_k / d q_m
            dq = J.T @ pt.momentum
            return {"xf": dq[:n], "pf": -a[:n], "xi": dq[n:], "pi": a[n:]}
        return self._fd_partials(pt)

    def _grad_q(self, q):
        if self.grad is not None:
            return np.asarray(self.grad(q), dtype=float)
        return partial_derivative(self.fn, q, DIFF_STEP)

    def _jac_q(self, q):
        if self.jac is not None:
            return np.asarray(self.jac(q), dtype=float)
        return partial_derivative(self.fn, q, DIFF_STEP)

    def _fd_partials(self, pt):
        if self.grad is not None:
            gxf, gpf, gxi, gpi = self.grad(pt)
            return {"xf": np.asarray(gxf, float), "pf": np.asarray(gpf, float),
                    "xi": np.asarray(gxi, float), "pi": np.asarray(gpi, float)}
        return {name: partial_derivative(
                    lambda y, attr=attr: self.fn(pt.replace(**{attr: y})),
                    getattr(pt, attr), DIFF_STEP)
                for name, attr in (("xf", "x_f"), ("pf", "p_f"),
                                   ("xi", "x_i"), ("pi", "p_i"))}


def lie_bracket(a1, a2, q, jac1=None, jac2=None):
    """Lie bracket [a1, a2] = a1 . grad a2 - a2 . grad a1 at q."""
    q = np.asarray(q, dtype=float)
    v1 = np.asarray(a1(q), dtype=float)
    v2 = np.asarray(a2(q), dtype=float)
    J1 = (np.asarray(jac1(q), dtype=float) if jac1 is not None
          else partial_derivative(a1, q, DIFF_STEP))
    J2 = (np.asarray(jac2(q), dtype=float) if jac2 is not None
          else partial_derivative(a2, q, DIFF_STEP))
    return J2 @ v1 - J1 @ v2


# ---------------------------------------------------------------------------
# Boundary bracket

def poisson_boundary(A, B, pt):
    """{A, B} on the boundary phase space, with {q, P} = -delta.

    F/G pairs use the closed forms F-F -> 0, {F_f, G_a} = -(a . grad f)(q),
    {G_a, G_b} = G_[a,b]; anything else goes through partial derivatives.
    """
    if A.kind == "F" and B.kind == "F":
        return 0.0
    if A.kind == "F" and B.kind == "G":
        return -_f_dot_grad(B, A, pt)
    if A.kind == "G" and B.kind == "F":
        return _f_dot_grad(A, B, pt)
    if A.kind == "G" and B.kind == "G":
        br = lie_bracket(A.fn, B.fn, pt.q, A.jac, B.jac)
        return float(br @ pt.momentum)
    da, db = A.partials(pt), B.partials(pt)
    # assembled: dA/dP_f = -dA/dp_f, dA/dP_i = +dA/dp_i
    term_f = -da["pf"] @ db["xf"] + da["xf"] @ db["pf"]
    term_i = da["pi"] @ db["xi"] - da["xi"] @ db["pi"]
    return float(term_f + term_i)


def _f_dot_grad(gobs, fobs, pt):
    a = np.asarray(gobs.fn(pt.q), dtype=float)
    grad_f = fobs._grad_q(pt.q)
    return float(a @ grad_f)


# ---------------------------------------------------------------------------
# Covariant bracket on the space of classical solutions

def check_onshell(pt, p_f_ref, p_i_ref):
    """Raise OffShell unless the point's momenta match the on-shell values."""
    p = pt.momentum
    mismatch = np.concatenate([pt.p_f - np.asarray(p_f_ref, float),
                               pt.p_i - np.asarray(p_i_ref, float)])
    if np.max(np.abs(mismatch)) > ONSHELL_TOL * (1.0 + np.max(np.abs(p))):
        raise OffShell(
            f"point violates p = -grad(S): |mismatch| = {np.max(np.abs(mismatch)):.3e}")


def poisson_covariant(A, B, pt, greens, onshell_momenta=None):
    """{A, B} on the covariant phase space, via the Hessian blocks of the
    classical action and the boundary Green functions.

    ``onshell_momenta = (p_f, p_i)`` are the classical momenta of the
    boundary pair; when given, the point is checked against them and an
    OffShell error raised on mismatch.
    """
    if onshell_momenta is not None:
        check_onshell(pt, *onshell_momenta)
    n = pt.n
    da, db = A.partials(pt), B.partials(pt)
    Hff, Hfi, Hii = greens.Hff, greens.Hfi, greens.Hii
    Hif = Hfi.T
    gFif, gFfi, gFC = greens.gFif, greens.gFfi, greens.gFC

    dqa = np.concatenate([da["xf"], da["xi"]])
    dqb = np.concatenate([db["xf"], db["xi"]])

    out = da["pf"] @ db["xf"] - da["xf"] @ db["pf"]
    out += da["pi"] @ db["xi"] - da["xi"] @ db["pi"]
    out += dqa @ gFC @ dqb
    out += da["pf"] @ (Hff @ gFfi @ Hii - Hfi) @ db["pi"]
    out -= da["pi"] @ (Hii @ gFif @ Hff - Hif) @ db["pf"]
    out += da["xi"] @ gFif @ Hff @ db["pf"] - da["pf"] @ Hff @ gFfi @ db["xi"]
    out += da["xf"] @ gFfi @ Hii @ db["pi"] - da["pi"] @ Hii @ gFif @ db["xf"]
    return float(out)


# ---------------------------------------------------------------------------
# Generic cotangent-bundle machinery (any dimension)

@dataclass
class PhaseFunction:
    """Function on a cotangent bundle, H(x, p), with optional analytic partials."""

    fn: callable
    grad_x: callable = None
    grad_p: callable = None

    def value(self, x, p):
        return float(self.fn(x, p))

    def partial_x(self, x, p):
        if self.grad_x is not None:
            return np.asarray(self.grad_x(x, p), dtype=float)
        return partial_derivative(lambda y: self.fn(y, p), x, DIFF_STEP)

    def partial_p(self, x, p):
        if self.grad_p is not None:
            return np.asarray(self.grad_p(x, p), dtype=float)
        return partial_derivative(lambda y: self.fn(x, y), p, DIFF_STEP)


def canonical_form(m):
    """Matrix of omega = grad p ^ grad x over coordinates (x_1..x_m, p_1..p_m)."""
    omega = np.zeros((2 * m, 2 * m))
    omega[:m, m:] = -np.eye(m)
    omega[m:, :m] = np.eye(m)
    return omega


def canonical_vector_field(H, omega, x, p):
    """Flow vector grad(H) . omega^{-1}, with omega^{-1} omega = -identity."""
    omega = np.asarray(omega, dtype=float)
    try:
        omega_inv = -np.linalg.inv(omega)
    except np.linalg.LinAlgError as exc:
        raise Degenerate("symplectic form is degenerate") from exc
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    grad = np.concatenate([H.partial_x(x, p), H.partial_p(x, p)])
    return grad @ omega_inv


def _covariant_x_derivative(F, x, p, gamma):
    """D_n F = dF/dx_n + Gamma^r_{ns} p_r dF/dp_s (covariant partial)."""
    G = gamma(x)
    return F.partial_x(x, p) + np.einsum("rns,r,s->n", G, p, F.partial_p(x, p))


def bracket_with_connection(A, B, x, p, gamma):
    """Cotangent-bundle bracket via covariant partial derivatives."""
    DA = _covariant_x_derivative(A, x, p, gamma)
    DB = _covariant_x_derivative(B, x, p, gamma)
    return float(A.partial_p(x, p) @ DB - DA @ B.partial_p(x, p))


def connection_invariance_check(A, B, x, p, gamma1, gamma2):
    """Bracket under two connections; the difference vanishes for symmetric
    connections, which is the connection-independence statement."""
    b1 = bracket_with_connection(A, B, x, p, gamma1)
    b2 = bracket_with_connection(A, B, x, p, gamma2)
    return b1, b2, b1 - b2
