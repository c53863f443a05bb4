"""Seeded mechanical systems for the benchmark, with the physics the checks
need written out independently of the package's expression language.

Every system is natural, L = v.M.v/2 - V(x) with a constant diagonal mass
M, so Hamilton's equations are xdot = p/M, pdot = -grad V.  The JSON text
handed to the program and the numpy functions used by the checks are built
from the same seeded parameters.
"""

import json
from dataclasses import dataclass

import numpy as np

DOMAIN = (-3.0, 3.0)


@dataclass(frozen=True)
class System:
    """A generated system file plus the independent physics of that system."""

    key: str        # free | osc | pend | duo
    params: dict

    @property
    def dim(self):
        return 2 if self.key == "duo" else 1

    @property
    def mass(self):
        p = self.params
        return np.array([p["m1"], p["m2"]]) if self.key == "duo" else np.array([p["m"]])

    def document(self):
        """The system file as a JSON-ready dict."""
        doc = {"name": f"bench_{self.key}", "dim": self.dim,
               "parameters": dict(self.params),
               "domain": [{"min": DOMAIN[0], "max": DOMAIN[1]}] * self.dim}
        if self.key == "duo":
            pot = ("0.5*m1*w1^2*x1^2 + 0.5*m2*w2^2*x2^2 + k*x1*x2"
                   " + 0.25*lam*(x1^4 + x2^4)")
            doc["lagrangian"] = f"0.5*m1*v1^2 + 0.5*m2*v2^2 - ({pot})"
            doc["metric"] = [["m1", "0"], ["0", "m2"]]
            doc["potential"] = pot
            return doc
        pot = {"free": None, "osc": "0.5*m*w^2*x1^2",
               "pend": "m*g*(1 - cos(x1))"}[self.key]
        doc["lagrangian"] = "0.5*m*v1^2" + (f" - ({pot})" if pot else "")
        doc["metric"] = [["m"]]
        if pot:
            doc["potential"] = pot
        return doc

    def text(self):
        return json.dumps(self.document(), indent=2, sort_keys=True) + "\n"

    def potential(self, x):
        """V at coordinates x of shape (n, ...)."""
        p = self.params
        if self.key == "free":
            return np.zeros(np.shape(x)[1:])
        if self.key == "osc":
            return 0.5 * p["m"] * p["w"] ** 2 * x[0] ** 2
        if self.key == "pend":
            return p["m"] * p["g"] * (1.0 - np.cos(x[0]))
        return (0.5 * p["m1"] * p["w1"] ** 2 * x[0] ** 2
                + 0.5 * p["m2"] * p["w2"] ** 2 * x[1] ** 2
                + p["k"] * x[0] * x[1] + 0.25 * p["lam"] * (x[0] ** 4 + x[1] ** 4))

    def grad_potential(self, x):
        """grad V at coordinates x of shape (n, ...)."""
        p = self.params
        if self.key == "free":
            return np.zeros_like(x)
        if self.key == "osc":
            return p["m"] * p["w"] ** 2 * x
        if self.key == "pend":
            return p["m"] * p["g"] * np.sin(x)
        return np.array([
            p["m1"] * p["w1"] ** 2 * x[0] + p["k"] * x[1] + p["lam"] * x[0] ** 3,
            p["m2"] * p["w2"] ** 2 * x[1] + p["k"] * x[0] + p["lam"] * x[1] ** 3])


def make_systems(rng):
    """The four benchmark systems with parameters drawn from ``rng``."""
    u = lambda lo, hi: float(rng.uniform(lo, hi))  # noqa: E731
    return {
        "free": System("free", {"m": u(0.9, 1.1)}),
        "osc": System("osc", {"m": u(0.9, 1.1), "w": u(0.9, 1.1)}),
        "pend": System("pend", {"m": u(0.9, 1.1), "g": u(0.9, 1.1)}),
        "duo": System("duo", {"m1": u(0.9, 1.1), "m2": u(0.9, 1.1),
                              "w1": u(0.8, 1.2), "w2": u(0.8, 1.2),
                              "k": u(0.1, 0.3), "lam": u(0.05, 0.15)}),
    }


# ---------------------------------------------------------------------------
# Closed forms (hbar = 1)

def oscillator_classical(m, w, x_f, x_i, T):
    """Continuum action, momenta and Hessian blocks of the oscillator;
    w = 0 gives the free particle."""
    if w == 0.0:
        p = m * (x_f - x_i) / T
        return {"S": 0.5 * m * (x_f - x_i) ** 2 / T, "p_f": p, "p_i": p,
                "Hff": m / T, "Hfi": -m / T, "Hii": m / T}
    s, c = np.sin(w * T), np.cos(w * T)
    return {"S": m * w * ((x_f ** 2 + x_i ** 2) * c - 2 * x_f * x_i) / (2 * s),
            "p_f": m * w * (x_f * c - x_i) / s,
            "p_i": m * w * (x_f - x_i * c) / s,
            "Hff": m * w * c / s, "Hfi": -m * w / s, "Hii": m * w * c / s}


def oscillator_discrete_momenta(m, w, x_f, x_i, T, N):
    """Boundary momenta of the exact solution of the midpoint-rule discrete
    oscillator on N slices: x_k = (x_i sin((N-k)th) + x_f sin(k th)) / sin(N th)
    with cos th = (1 - w^2 tau^2/4) / (1 + w^2 tau^2/4)."""
    tau = T / N
    r = 0.25 * (w * tau) ** 2
    th = np.arccos((1 - r) / (1 + r))
    sN = np.sin(N * th)
    x_1 = (x_i * np.sin((N - 1) * th) + x_f * np.sin(th)) / sN
    x_n1 = (x_i * np.sin(th) + x_f * np.sin((N - 1) * th)) / sN
    k = 0.25 * m * w ** 2 * tau
    p_f = m * (x_f - x_n1) / tau - k * (x_n1 + x_f)
    p_i = m * (x_1 - x_i) / tau + k * (x_i + x_1)
    return p_f, p_i


def oscillator_kernel(m, w, T, XF, XI):
    """Free (w = 0) or Mehler propagator K(x_f, x_i; T)."""
    if w == 0.0:
        return np.sqrt(m / (2j * np.pi * T)) * np.exp(1j * m * (XF - XI) ** 2 / (2 * T))
    return oscillator_measure(m, w, T) * np.exp(
        1j * oscillator_classical(m, w, XF, XI, T)["S"])


def oscillator_measure(m, w, T):
    """Van Vleck prefactor sqrt(m w / (2 pi i sin wT))."""
    return np.sqrt(m * w / (2j * np.pi * np.sin(w * T)))
