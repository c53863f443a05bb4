import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmech import sysdsl
from bmech.errors import (
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    SpecError,
    UnknownIdentifier,
)

GOLDEN = Path(__file__).parent / "golden"


def expr(text, dim=2, params=()):
    return sysdsl.parse_expr(text, dim=dim, params=dict.fromkeys(params, 1.0))


class TestParse:
    def test_oscillator_document(self):
        doc = json.dumps({
            "name": "osc", "dim": 1,
            "lagrangian": "0.5*m*v1^2 - 0.5*m*w^2*x1^2",
            "parameters": {"m": 1.0, "w": 1.0},
            "domain": [{"min": -5, "max": 5}],
        })
        spec = sysdsl.parse(doc)
        assert spec.dim == 1
        assert set(spec.parameters) == {"m", "w"}
        assert spec.lagrangian_value([1.0], [2.0]) == pytest.approx(1.5)

    def test_truncated_expression_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            expr("0.5*")
        assert (err.value.line, err.value.col) == (1, 5)

    def test_out_of_range_variable(self):
        with pytest.raises(DimensionMismatch):
            expr("x3", dim=2)

    def test_unknown_identifier_position(self):
        with pytest.raises(UnknownIdentifier) as err:
            expr("1 + bogus")
        assert (err.value.line, err.value.col) == (1, 5)

    def test_multiline_positions(self):
        with pytest.raises(ExprSyntaxError) as err:
            expr("1 +\n  )")
        assert (err.value.line, err.value.col) == (2, 3)

    def test_precedence_and_associativity(self):
        e = expr("2^3^2")
        assert sysdsl.eval_expr(e) == pytest.approx(512.0)       # right assoc
        assert sysdsl.eval_expr(expr("-2^2")) == pytest.approx(-4.0)  # ^ over unary -
        assert sysdsl.eval_expr(expr("2 - 3 - 4")) == pytest.approx(-5.0)
        assert sysdsl.eval_expr(expr("2 + 3*4^2")) == pytest.approx(50.0)
        assert sysdsl.eval_expr(expr("2^-2")) == pytest.approx(0.25)

    def test_whitespace_insensitive(self):
        a = sysdsl.to_string(expr("0.5*x1 ^2+ sin( t )"))
        b = sysdsl.to_string(expr("0.5 * x1^2 + sin(t)"))
        assert a == b

    def test_golden_diagnostics(self):
        cases = [
            "0.5*", "(1 + 2", "sin 3", "2 ** 3", "foo(2)", "x1 + + 1",
            ")", "1 2", "sin(x1", "x1 @ 2", "bad_param + 1", "v3*t",
        ]
        lines = []
        for text in cases:
            try:
                expr(text)
                lines.append(f"{text!r} => OK")
            except (ExprSyntaxError, UnknownIdentifier, DimensionMismatch) as exc:
                lines.append(f"{text!r} => {type(exc).__name__}: {exc}")
        expected = (GOLDEN / "parse_diagnostics.txt").read_text().splitlines()
        assert lines == expected


class TestSystemValidation:
    def base(self, **kw):
        doc = {
            "name": "sys", "dim": 2,
            "lagrangian": "0.5*(v1^2 + v2^2)",
            "parameters": {},
            "domain": [{"min": -1, "max": 1}, {"min": -1, "max": 1}],
        }
        doc.update(kw)
        return json.dumps(doc)

    def test_missing_field(self):
        with pytest.raises(SpecError):
            sysdsl.parse(json.dumps({"name": "x"}))

    def test_bad_json(self):
        with pytest.raises(SpecError):
            sysdsl.parse("{not json")

    def test_asymmetric_metric(self):
        with pytest.raises(SpecError):
            sysdsl.parse(self.base(metric=[["1", "x1"], ["x2", "1"]]))

    def test_symmetric_metric_accepted(self):
        spec = sysdsl.parse(self.base(metric=[["1", "x1*x2"], ["x1*x2", "2"]]))
        m = spec.metric_matrix(np.array([0.5, 2.0]))
        assert m[0, 1] == pytest.approx(1.0)

    def test_metric_with_velocity_rejected(self):
        with pytest.raises(SpecError):
            sysdsl.parse(self.base(metric=[["v1", "0"], ["0", "1"]]))

    def test_undeclared_parameter(self):
        with pytest.raises(UnknownIdentifier):
            sysdsl.parse(self.base(lagrangian="0.5*k*v1^2"))

    def test_domain_ordering(self):
        with pytest.raises(SpecError):
            sysdsl.parse(self.base(domain=[{"min": 1, "max": -1},
                                           {"min": -1, "max": 1}]))

    def test_domain_length(self):
        with pytest.raises(DimensionMismatch):
            sysdsl.parse(self.base(domain=[{"min": -1, "max": 1}]))

    def test_contains(self):
        spec = sysdsl.parse(self.base())
        assert spec.contains([0.0, 0.5])
        assert not spec.contains([0.0, 1.5])


class TestEval:
    def test_arithmetic(self):
        e = expr("0.5*v1^2 - 0.5*x1^2")
        assert sysdsl.eval_expr(e, x=[1.0], v=[2.0]) == pytest.approx(1.5)

    def test_time(self):
        assert sysdsl.eval_expr(expr("sin(t)"), t=0.0) == 0.0

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            sysdsl.eval_expr(expr("x1^2/0"), x=[1.0])

    def test_log_domain(self):
        with pytest.raises(DomainError):
            sysdsl.eval_expr(expr("log(x1)"), x=[-1.0])

    def test_batched(self):
        e = expr("x1*v1 + t")
        out = sysdsl.eval_expr(e, x=np.array([[1.0, 2.0]]),
                               v=np.array([[3.0, 4.0]]), t=1.0)
        assert np.allclose(out, [4.0, 9.0])


class TestDerivatives:
    def test_velocity_quadratic(self):
        e = expr("0.5*v1^2", dim=1)
        _, g, h = sysdsl.eval_derivs(e, 1, [0.0], [2.0])
        assert g[1] == pytest.approx(2.0)
        assert h[1, 1] == pytest.approx(1.0)

    def test_position_gradient(self):
        e = expr("0.5*v1^2 - 0.5*x1^2", dim=1)
        _, g, _ = sysdsl.eval_derivs(e, 1, [3.0], [0.0])
        assert g[0] == pytest.approx(-3.0)

    def test_position_dependent_metric_term(self):
        # L = 0.5 (1 + x1^2) v1^2: dL/dx1 at (1, 1) is 1; FD oracle at 1e-6
        e = expr("0.5*(1 + x1^2)*v1^2", dim=1)
        val, g, h = sysdsl.eval_derivs(e, 1, [1.0], [1.0])
        assert g[0] == pytest.approx(1.0, abs=1e-12)
        step = 1e-6
        fd = (sysdsl.eval_expr(e, x=[1.0 + step], v=[1.0])
              - sysdsl.eval_expr(e, x=[1.0 - step], v=[1.0])) / (2 * step)
        assert g[0] == pytest.approx(fd, rel=1e-6)

    def test_hessian_cross_term(self):
        e = expr("x1*v1^2", dim=1)
        _, _, h = sysdsl.eval_derivs(e, 1, [0.7], [1.3])
        assert h[0, 1] == pytest.approx(2 * 1.3)
        assert h[1, 0] == pytest.approx(2 * 1.3)
        assert h[1, 1] == pytest.approx(2 * 0.7)

    def test_functions_chain(self):
        e = expr("sin(x1)*exp(v1) + log(2 + x1) - sqrt(4 + v1) + abs(x1)", dim=1)
        x0, v0 = 0.4, 0.2
        _, g, h = sysdsl.eval_derivs(e, 1, [x0], [v0])
        gx = np.cos(x0) * np.exp(v0) + 1 / (2 + x0) + 1.0
        gv = np.sin(x0) * np.exp(v0) - 0.5 / np.sqrt(4 + v0)
        assert g[0] == pytest.approx(gx, rel=1e-12)
        assert g[1] == pytest.approx(gv, rel=1e-12)
        assert h[0, 0] == pytest.approx(-np.sin(x0) * np.exp(v0) - 1 / (2 + x0) ** 2,
                                        rel=1e-12)

    def test_variable_exponent(self):
        e = expr("x1^v1", dim=1)
        _, g, _ = sysdsl.eval_derivs(e, 1, [2.0], [3.0])
        assert g[0] == pytest.approx(3 * 4.0, rel=1e-12)          # p x^(p-1)
        assert g[1] == pytest.approx(8.0 * np.log(2.0), rel=1e-12)  # x^p ln x


PARAMS = {"m": 1.5, "k": 3.0}


def fd_derivs(e, x, v, step=1e-4):
    """Central-difference gradient and Hessian over (x, v) of one point,
    from plain evaluation."""
    z0 = np.concatenate([x, v])
    n, size = len(x), len(z0)
    eye = np.eye(size) * step

    def f(z):
        return float(sysdsl.eval_expr(e, x=z[:n], v=z[n:], params=PARAMS))

    g = np.array([(f(z0 + eye[i]) - f(z0 - eye[i])) / (2 * step)
                  for i in range(size)])
    h = np.array([[(f(z0 + eye[i] + eye[j]) - f(z0 + eye[i] - eye[j])
                    - f(z0 - eye[i] + eye[j]) + f(z0 - eye[i] - eye[j]))
                   / (4 * step * step) for j in range(size)] for i in range(size)])
    return g, h


class TestSparseConstants:
    """Numbers and parameters carry no derivative arrays; these cases run
    each shortcut in both argument positions."""

    @pytest.mark.parametrize("text, x, v, grad, hess", [
        # constant factor on the left, then on the right
        ("0.5*m*v1^2", 0.4, -1.2, [0.0, -1.8], [[0.0, 0.0], [0.0, 1.5]]),
        ("v1^2*m", 0.4, -1.2, [0.0, -3.6], [[0.0, 0.0], [0.0, 3.0]]),
        # quotients with a constant numerator or denominator
        ("x1/m", 0.8, 0.3, [1 / 1.5, 0.0], [[0.0, 0.0], [0.0, 0.0]]),
        ("m/x1", 0.8, 0.3, [-1.5 / 0.64, 0.0], [[3.0 / 0.512, 0.0], [0.0, 0.0]]),
        # functions of a constant, and of a variable with no second derivative
        ("sin(m)*x1*v1", 0.8, 0.3, [np.sin(1.5) * 0.3, np.sin(1.5) * 0.8],
         [[0.0, np.sin(1.5)], [np.sin(1.5), 0.0]]),
        ("abs(x1)*v1", -0.7, 0.3, [-0.3, 0.7], [[0.0, -1.0], [-1.0, 0.0]]),
        # parameter-only exponents: integer (negative base allowed), then not
        ("x1^(2*m)", -0.7, 0.3, [3 * 0.49, 0.0], [[-4.2, 0.0], [0.0, 0.0]]),
        ("v1^k - m", 0.2, -0.5, [0.0, 0.75], [[0.0, 0.0], [0.0, -3.0]]),
        ("x1^(k/2)", 0.8, 0.3, [1.5 * np.sqrt(0.8), 0.0],
         [[0.75 / np.sqrt(0.8), 0.0], [0.0, 0.0]]),
        # constant minus a variable, constant plus a constant
        ("2 - x1*v1 + (m + k)", 0.8, 0.3, [-0.3, -0.8], [[0.0, -1.0], [-1.0, 0.0]]),
    ])
    def test_against_analytic_and_finite_differences(self, text, x, v, grad, hess):
        e = sysdsl.parse_expr(text, dim=1, params=PARAMS)
        val, g, h = sysdsl.eval_derivs(e, 1, [x], [v], params=PARAMS)
        assert val == pytest.approx(sysdsl.eval_expr(e, x=[x], v=[v], params=PARAMS),
                                    rel=1e-14)
        assert g == pytest.approx(np.array(grad), rel=1e-12, abs=1e-15)
        assert h == pytest.approx(np.array(hess), rel=1e-12, abs=1e-15)
        fd_g, fd_h = fd_derivs(e, np.array([x]), np.array([v]))
        assert g == pytest.approx(fd_g, rel=1e-6, abs=1e-7)
        assert h == pytest.approx(fd_h, rel=1e-5, abs=1e-5)

    @pytest.mark.parametrize("batch", [(), (3,), (2, 4)])
    def test_constant_expression_gets_full_shape_zeros(self, batch):
        e = sysdsl.parse_expr("m*sin(k) - 2^m/(1 + k)", dim=2, params=PARAMS)
        x = np.ones((2,) + batch)
        val, g, h = sysdsl.eval_derivs(e, 2, x, 2 * x, params=PARAMS)
        expected = 1.5 * np.sin(3.0) - 2**1.5 / 4.0
        assert np.shape(val) == batch
        assert np.all(val == pytest.approx(expected, rel=1e-14))
        assert g.shape == (4,) + batch and not g.any()
        assert h.shape == (4, 4) + batch and not h.any()

    @pytest.mark.parametrize("t", [0.5, np.array([0.5, 1.5, 2.5])])
    def test_time_exponent_takes_the_variable_power_rule(self, t):
        x = np.full((1, 3), 0.8)
        e = sysdsl.parse_expr("x1^t", dim=1, params={})
        _, g, h = sysdsl.eval_derivs(e, 1, x, x, t)
        assert g[0] == pytest.approx(t * 0.8 ** (t - 1), rel=1e-12)
        assert h[0, 0] == pytest.approx(t * (t - 1) * 0.8 ** (t - 2), rel=1e-12)
        assert not g[1].any()
        # an integral time still refuses a negative base, as x1^2 would not
        with pytest.raises(DomainError, match="variable power of non-positive base"):
            sysdsl.eval_derivs(e, 1, -x, x, np.round(t) + 2.0)
        with pytest.raises(DomainError, match="variable power of non-positive base"):
            sysdsl.eval_derivs(e, 1, [-0.8], [0.8], 2.0)


# randomized expression corpus: safe function arguments by construction
def corpus_expression(rng, depth=3):
    if depth == 0 or rng.random() < 0.3:
        choice = rng.integers(0, 3)
        if choice == 0:
            return f"{rng.uniform(0.5, 3.0):.3f}"
        if choice == 1:
            return f"x{rng.integers(1, 3)}"
        return f"v{rng.integers(1, 3)}"
    op = rng.choice(["+", "-", "*", "sin", "cos", "exp2", "pow"])
    a = corpus_expression(rng, depth - 1)
    b = corpus_expression(rng, depth - 1)
    if op in "+-*":
        return f"({a} {op} {b})"
    if op == "sin":
        return f"sin({a})"
    if op == "cos":
        return f"cos({a})"
    if op == "exp2":
        return f"exp(0.3*sin({a}))"
    return f"({a})^{rng.integers(1, 4)}"


class TestDerivativeCorpus:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            text = corpus_expression(rng)
            e = sysdsl.parse_expr(text, dim=2, params={})
            x = rng.uniform(-1.0, 1.0, size=2)
            v = rng.uniform(-1.0, 1.0, size=2)
            try:
                _, g, _ = sysdsl.eval_derivs(e, 2, x, v)
            except DomainError:
                continue
            step = 1e-6
            for k in range(2):
                for kind, base in (("x", x), ("v", v)):
                    up, dn = base.copy(), base.copy()
                    up[k] += step
                    dn[k] -= step
                    if kind == "x":
                        fd = (sysdsl.eval_expr(e, x=up, v=v)
                              - sysdsl.eval_expr(e, x=dn, v=v)) / (2 * step)
                        ad = g[k]
                    else:
                        fd = (sysdsl.eval_expr(e, x=x, v=up)
                              - sysdsl.eval_expr(e, x=x, v=dn)) / (2 * step)
                        ad = g[2 + k]
                    assert ad == pytest.approx(fd, rel=1e-6, abs=1e-8)
            checked += 1


class TestRoundTrip:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_print_parse_print_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        text = corpus_expression(rng, depth=4)
        printed = sysdsl.to_string(sysdsl.parse_expr(text, dim=2, params={}))
        again = sysdsl.to_string(sysdsl.parse_expr(printed, dim=2, params={}))
        assert printed == again

    def test_parens_preserved_semantically(self):
        for text in ("-(x1 + 1)^2", "x1 - (x1 - v1)", "(x1/v1)/t",
                     "2^(x1*3)", "-x1^2", "x1^(2^2)"):
            e = sysdsl.parse_expr(text, dim=1, params={})
            printed = sysdsl.to_string(e)
            e2 = sysdsl.parse_expr(printed, dim=1, params={})
            env = dict(x=[0.7], v=[1.3], t=0.9)
            assert sysdsl.eval_expr(e, **env) == pytest.approx(
                sysdsl.eval_expr(e2, **env), rel=1e-14)


class TestFuzz:
    @given(st.text(alphabet="xv123+-*/^()sincoeqrtabglp. _", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_parser_never_crashes(self, text):
        try:
            sysdsl.parse_expr(text, dim=2, params={"p": 1.0})
        except (ExprSyntaxError, UnknownIdentifier, DimensionMismatch):
            pass

    @given(st.binary(max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_bytes(self, blob):
        try:
            sysdsl.parse(blob.decode("utf-8", errors="replace"))
        except (SpecError, ExprSyntaxError, UnknownIdentifier, DimensionMismatch):
            pass


class TestVelocityParity:
    @pytest.mark.parametrize("text, parity", [
        ("0.5*m*v1^2 - m*g*(1 - cos(x1))", 1),
        ("v1*v2 + x1*v1^2", 1),
        ("sqrt(1 - v1^2) + exp(v2^2) + abs(v1) + cos(v2)", 1),
        ("2^(v1^2) + (v1^2)^0.5 + v1/v2", 1),
        ("v1^3 - sin(v2) + x1*v1", -1),
        ("0.5*v1^2 + x1^3*v1", None),
        ("0.5*v1^2 + sin(v1)", None),
        ("exp(v1)", None),
        ("v1^0.5", None),
        ("x1^v1", None),
        ("v1^1e999", None),
        ("0.5*v1^2*t", None),
        ("t", None),
    ])
    def test_rules(self, text, parity):
        assert sysdsl._velocity_parity(expr(text, params=("m", "g"))) == parity

    def test_verdicts_hold_on_a_corpus(self):
        # every even or odd verdict must hold at random points; None is
        # always allowed, so only the decided expressions are checked
        rng = np.random.default_rng(11)
        decided = 0
        for _ in range(400):
            e = sysdsl.parse_expr(corpus_expression(rng), dim=2, params={})
            parity = sysdsl._velocity_parity(e)
            if parity is None:
                continue
            x, v = rng.uniform(-1.0, 1.0, (2, 2))
            flipped = sysdsl.eval_expr(e, x=x, v=-v)
            assert flipped == pytest.approx(parity * sysdsl.eval_expr(e, x=x, v=v),
                                            rel=1e-12, abs=1e-12)
            decided += 1
        assert decided >= 100

    def test_is_reversible(self):
        doc = {"name": "s", "dim": 1, "parameters": {},
               "domain": [{"min": -1, "max": 1}]}
        for lagrangian, reversible in (("0.5*v1^2 - x1^2", True),
                                       ("0.5*v1^2 - t*x1^2", False),
                                       ("0.5*v1^2 + x1*v1", False)):
            spec = sysdsl.parse(json.dumps({**doc, "lagrangian": lagrangian}))
            assert spec.is_reversible is reversible


class TestQuadratic:
    @pytest.mark.parametrize("text, quadratic", [
        ("(v1 - x1)^2/2", True),
        ("sqrt(2)*x1*v1", True),
        ("0.5*m*v1^2 - 0.5*m*k^2*x1^2 + x1*v2/m", True),
        ("t*x1^2", False),
        ("x1^3*v1", False),
        ("x1^4", False),
        ("1/x1", False),
        ("x1^k", False),
        ("sin(x1)", False),
    ])
    def test_truth_table(self, text, quadratic):
        doc = {"name": "s", "dim": 2, "parameters": {"m": 2.0, "k": 3.0},
               "domain": [{"min": -1, "max": 1}] * 2, "lagrangian": text}
        assert sysdsl.parse(json.dumps(doc)).is_quadratic is quadratic

    def test_quadratic_verdicts_have_a_constant_hessian(self):
        # a quadratic verdict must mean constant second derivatives; a
        # negative verdict is always allowed
        rng = np.random.default_rng(13)
        quadratic = curved = 0
        for _ in range(400):
            e = sysdsl.parse_expr(corpus_expression(rng), dim=2, params={})
            degree = sysdsl._polynomial_degree(e)
            if degree is None or degree > 2:
                continue
            (_, _, h1), (_, _, h2) = (
                sysdsl.eval_derivs(e, 2, *rng.uniform(-1.0, 1.0, (2, 2)))
                for _ in range(2))
            assert h1 == pytest.approx(h2, rel=1e-12, abs=1e-12)
            quadratic += 1
            curved += bool(np.any(h1))
        assert quadratic >= 100 and curved >= 5
