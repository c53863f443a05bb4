"""Scenario runner: loads a system file, dispatches subcommands, and writes
machine-readable JSON reports (CSV dumps for field data).

Exit status: 0 on success, 1 on usage/parse errors, 2 on numerical failures
(no convergence, caustic, instability).  Reports are deterministic: identical
inputs and seed give byte-identical JSON.  Verbosity via BMECH_LOG
(error|info|debug).

In-process calls of ``main(argv)`` share one argument parser, built on the
first call; ``build_parser()`` returns a fresh one for callers that want
their own.  argparse reads the streams and the terminal width when it
prints, so the shared parser writes what a fresh one would.

Importing this module loads only the system-file parser and the error types;
each subcommand imports the numerical layers it runs when it runs, so a
shell call pays for no layer it does not use.
"""

import argparse
import functools
import hashlib
import json
import logging
import os
import sys

import numpy as np

from . import __version__
from . import sysdsl
from .errors import (
    BmechError,
    Degenerate,
    DimensionMismatch,
    DomainError,
    ExprSyntaxError,
    Instability,
    NoConvergence,
    NonNaturalLagrangian,
    OffShell,
    SingularHessian,
    SingularMetric,
    SpecError,
    UnknownIdentifier,
    WeightMismatch,
)

log = logging.getLogger("bmech")

# a singular or degenerate metric is a defect of the system file; a file
# that cannot be read or written is a usage error.  numpy's LinAlgError
# subclasses ValueError, so main tests NUMERICAL_ERRORS first.
USAGE_ERRORS = (SpecError, ExprSyntaxError, UnknownIdentifier, DimensionMismatch,
                DomainError, WeightMismatch, NonNaturalLagrangian, SingularMetric,
                Degenerate, OSError, ValueError)
NUMERICAL_ERRORS = (NoConvergence, SingularHessian, Instability, OffShell,
                    np.linalg.LinAlgError)


def bundled_spec_path(name):
    """Filesystem path of a system file shipped with the package."""
    from importlib import resources
    return str(resources.files("bmech.specs").joinpath(f"{name}.json"))


# ---------------------------------------------------------------------------
# Report plumbing

def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.complexfloating, complex)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def write_report(args, result, spec_bytes=None):
    report = {
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "spec_hash": hashlib.sha256(spec_bytes).hexdigest() if spec_bytes else None,
        "config_echo": {k: _jsonable(v) for k, v in sorted(vars(args).items())
                        if k not in ("func",)},
        "result": _jsonable(result),
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        log.info("report written to %s", args.out)
    else:
        sys.stdout.write(text)
    return report


def _write_csv(path, array):
    from . import dump
    dump.write_csv(path, array)
    log.info("field dump written to %s", path)


def _load_spec(args):
    with open(args.spec, "rb") as fh:
        raw = fh.read()
    return sysdsl.parse(raw.decode("utf-8")), raw


def _floats(text):
    """The numbers of a comma list, or an argparse usage error if any field
    is empty or not a number (``--xi``, ``--xf``, ``--at``, ``--window``)."""
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers with no empty field, got {text!r}") from None


def _scan_times(text):
    """Final times of a ``--scan start:stop:count`` value: finite times and a
    count of at least one, or an argparse usage error."""
    fields = text.split(":")
    try:
        start, stop, count = float(fields[0]), float(fields[1]), int(fields[2])
        ok = len(fields) == 3 and np.isfinite([start, stop]).all() and count >= 1
    except (ValueError, IndexError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(
            f"expected start:stop:count with finite times and a count of at "
            f"least 1, got {text!r}")
    return np.linspace(start, stop, count)


def _finite_float(text):
    """A finite float, or an argparse usage error (times and gamma)."""
    try:
        value = float(text)
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text):
    """A count of zero or more, or an argparse usage error (--sweep)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a count of at least 0, got {text!r}")
    return value


def _quantize_grid(text):
    """A ``quantize-check --grid`` of 16 points or more, or an argparse usage
    error: the convergence order also needs a grid of half as many points."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 16:
        raise argparse.ArgumentTypeError(
            f"quantize-check needs --grid 16 or more, got {text!r}: it also uses "
            "a grid of half as many points, and grids need at least 8 points "
            "per axis")
    return value


def _window_bounds(text):
    """(min, max) of a ``--window min,max`` value: two finite numbers with
    min < max, or an argparse usage error."""
    try:
        bounds = _floats(text)
    except argparse.ArgumentTypeError:
        bounds = np.array([])
    if bounds.shape != (2,) or not np.isfinite(bounds).all() or not bounds[0] < bounds[1]:
        raise argparse.ArgumentTypeError(
            f"expected min,max with finite min < max, got {text!r}")
    return bounds


def _echoed(parse):
    """An argparse type that validates with ``parse`` while parsing and keeps
    the text itself, which the report echoes."""
    def check(text):
        parse(text)
        return text
    return check


# ---------------------------------------------------------------------------
# Subcommands

def cmd_parse(args):
    spec, raw = _load_spec(args)
    result = {
        "name": spec.name,
        "dim": spec.dim,
        "lagrangian": sysdsl.to_string(spec.lagrangian),
        "metric": [[sysdsl.to_string(e) for e in row] for row in spec.metric]
        if spec.metric else None,
        "potential": sysdsl.to_string(spec.potential) if spec.potential else None,
        "parameters": spec.parameters,
        "domain": [{"min": lo, "max": hi, "periodic": per}
                   for lo, hi, per in spec.domain],
        "natural": spec.is_natural,
    }
    write_report(args, result, raw)
    return 0


def _classical_record(spec, x_f, x_i, grid):
    from .classical import jacobi_and_greens, solve_classical
    sol = solve_classical(spec, x_f, x_i, grid)
    greens, _ = jacobi_and_greens(spec, sol)
    return {
        "action": sol.action,
        "p_f": sol.p_f,
        "p_i": sol.p_i,
        "hessian": {"Hff": greens.Hff, "Hfi": greens.Hfi, "Hii": greens.Hii},
        "greens": {"gFif": greens.gFif, "gFfi": greens.gFfi, "gFC": greens.gFC},
        "convergence": {"converged": sol.converged,
                        "iterations": sol.iterations,
                        "residual_norm": sol.residual_norm},
    }


def cmd_classical(args):
    from .classical import TimeGrid
    spec, raw = _load_spec(args)
    x_f, x_i = _floats(args.xf), _floats(args.xi)
    if x_f.shape != (spec.dim,) or x_i.shape != (spec.dim,):
        raise DimensionMismatch(
            f"boundary points need {spec.dim} coordinates")
    for x in (x_f, x_i):
        if not spec.contains(x):
            raise DomainError(f"boundary point {x.tolist()} outside declared domain")
    if args.scan:
        records = []
        for tf in _scan_times(args.scan):
            entry = {"tf": float(tf)}
            try:
                entry.update(_classical_record(
                    spec, x_f, x_i, TimeGrid(args.ti, float(tf), args.slices)))
            except NUMERICAL_ERRORS as exc:
                entry["error"] = {"type": type(exc).__name__, "message": str(exc)}
            records.append(entry)
        write_report(args, {"scan": records}, raw)
        return 0
    grid = TimeGrid(args.ti, args.tf, args.slices)
    result = _classical_record(spec, x_f, x_i, grid)
    write_report(args, result, raw)
    return 0


def _parse_observable(text, n):
    """Observable syntax: F:<expr> or G:<c1,...,c2n>; expressions use x1..xn
    for final-end coordinates and x{n+1}..x{2n} for initial-end ones."""
    from . import symplectic
    kind, _, body = text.partition(":")
    kind = kind.strip()
    if kind == "F":
        expr = sysdsl.parse_expr(body, dim=2 * n, params={})
        return symplectic.Observable.F(
            lambda q, e=expr: sysdsl.eval_expr(e, x=q))
    if kind == "G":
        comps = [sysdsl.parse_expr(c, dim=2 * n, params={})
                 for c in body.split(",")]
        if len(comps) != 2 * n:
            raise DimensionMismatch(
                f"G observable needs {2 * n} components, got {len(comps)}")
        return symplectic.Observable.G(
            lambda q, cs=comps: np.array([sysdsl.eval_expr(c, x=q) for c in cs]))
    raise SpecError(f"observable {text!r} is neither F:<expr> nor G:<components>")


def cmd_brackets(args):
    from . import symplectic
    from .classical import TimeGrid, jacobi_and_greens, solve_classical
    spec, raw = _load_spec(args)
    n = spec.dim
    at = _floats(args.at)
    if at.shape != (4 * n,):
        raise DimensionMismatch(f"--at needs 4n = {4 * n} numbers "
                                "(x_f, p_f, x_i, p_i)")
    pt = symplectic.BoundaryPhasePoint(x_f=at[:n], p_f=at[n:2 * n],
                                       x_i=at[2 * n:3 * n], p_i=at[3 * n:])
    onshell = None
    greens = None
    if args.tf is not None:
        grid = TimeGrid(args.ti, args.tf, args.slices)
        sol = solve_classical(spec, pt.x_f, pt.x_i, grid)
        greens, _ = jacobi_and_greens(spec, sol)
        onshell = (sol.p_f, sol.p_i)
    table = []
    for pair in args.pairs.split(";"):
        a_text, _, b_text = pair.partition("~")
        A = _parse_observable(a_text.strip(), n)
        B = _parse_observable(b_text.strip(), n)
        entry = {"A": a_text.strip(), "B": b_text.strip()}
        ab = symplectic.poisson_boundary(A, B, pt)
        ba = symplectic.poisson_boundary(B, A, pt)
        entry["boundary"] = ab
        entry["antisymmetry_residual"] = abs(ab + ba)
        if greens is not None:
            try:
                entry["covariant"] = symplectic.poisson_covariant(
                    A, B, pt, greens, onshell_momenta=onshell)
            except OffShell as exc:
                entry["covariant"] = None
                entry["offshell"] = str(exc)
        table.append(entry)
    # seeded random sweep of algebra identities with generic observables
    rng = np.random.default_rng(args.seed)
    sweep = []
    for _ in range(args.sweep):
        c = rng.standard_normal(2 * n)
        d = rng.standard_normal(2 * n)
        A = symplectic.Observable.F(lambda q, c=c: float(np.sin(c @ q)))
        B = symplectic.Observable.G(lambda q, d=d: d * np.ones(2 * n) + 0.0 * q)
        ab = symplectic.poisson_boundary(A, B, pt)
        closed = -float(d @ np.array([np.cos(c @ pt.q) * ci for ci in c]))
        sweep.append(abs(ab - closed))
    result = {"point": {"x_f": pt.x_f, "p_f": pt.p_f, "x_i": pt.x_i, "p_i": pt.p_i},
              "pairs": table,
              "fg_identity_sweep_max": max(sweep) if sweep else None}
    write_report(args, result, raw)
    return 0


def cmd_quantize_check(args):
    from . import quantize
    spec, raw = _load_spec(args)
    if spec.dim != 1:
        raise DimensionMismatch("quantize-check covers one-dimensional systems")
    lo, hi, _ = spec.domain[0]
    gamma = args.gamma
    residuals = []
    sizes = [args.grid // 2, args.grid]
    for m in sizes:
        grid = quantize.Grid.regular(1, m, lo, hi, periodic=True)
        x = grid.points()[:, 0]
        width = (hi - lo) / 8
        centre = 0.5 * (lo + hi)
        psi = np.exp(-((x - centre) / width) ** 2)
        Fx = quantize.op_F(lambda p: p[0], grid)
        Gd = quantize.op_G(lambda p: np.array([1.0]), grid, gamma=gamma)
        comm = Fx.matrix @ Gd.matrix - Gd.matrix @ Fx.matrix
        inner = np.abs(x - centre) < 0.75 * (hi - centre)
        res = (comm @ psi - 1j * psi)[inner]
        residuals.append(float(np.linalg.norm(res) * np.sqrt(grid.spacings[0])))
    order = float(np.log(residuals[0] / residuals[1]) / np.log(2))

    grid = quantize.Grid.regular(1, args.grid, lo, hi, periodic=True)
    afield = (lambda p: np.array([1.0 + 0.25 * np.sin(
        2 * np.pi * (p[0] - lo) / (hi - lo))]))
    Gg = quantize.op_G(afield, grid, gamma=gamma)
    G0 = quantize.op_G(afield, grid, gamma=0.0)
    dlog = quantize.density_log_derivative(afield, grid)
    ordering = float(np.max(np.abs(
        Gg.matrix - G0.matrix - gamma * np.diag(dlog))))
    hermiticity = float(np.max(np.abs(Gg.matrix - Gg.matrix.conj().T)))
    shift = quantize.shift_operator(lambda p: np.array([1.0]),
                                    grid.spacings[0], grid, gamma=gamma)
    perm = np.roll(np.eye(args.grid), 1, axis=0)
    shift_err = float(np.max(np.abs(shift.matrix - perm)))
    result = {
        "grid": args.grid,
        "gamma": gamma,
        "commutator_residuals": residuals,
        "commutator_order": order,
        "ordering_relation_residual": ordering,
        "hermiticity_residual": hermiticity,
        "shift_permutation_residual": shift_err,
    }
    write_report(args, result, raw)
    return 0


def _dump_kernel_fields(args, phys):
    if args.out:
        stem = os.path.splitext(args.out)[0]
        _write_csv(stem + ".absK.csv", np.abs(phys.K))
        _write_csv(stem + ".argK.csv", np.angle(phys.K))


def cmd_propagator(args):
    from . import bqm
    spec, raw = _load_spec(args)
    method = {"cn": "cranknicolson", "trotter": "trotter"}[args.method]
    grid = bqm.kernel_grid(spec, args.T, args.grid)
    phys = bqm.phys_state(spec, args.T, grid, method=method,
                          slices=args.slices)
    x = grid.axis_points(0)
    result = {
        "T": args.T,
        "method": method,
        "slices": args.slices,
        "ring": {"points": grid.sizes[0], "spacing": grid.spacings[0],
                 "origin": grid.origins[0]},
        "domain_window": {"min": spec.domain[0][0], "max": spec.domain[0][1]},
        "kernel_diag_abs_mean": float(np.mean(np.abs(np.diag(phys.K)))),
        "kernel_max_abs": float(np.max(np.abs(phys.K))),
        "singular_values_top4": np.linalg.svd(
            phys.K, compute_uv=False)[:4],
    }
    write_report(args, result, raw)
    _dump_kernel_fields(args, phys)
    return 0


def cmd_semiclassical(args):
    from . import bqm
    spec, raw = _load_spec(args)
    method = {"cn": "cranknicolson", "trotter": "trotter"}[args.method]
    grid = bqm.kernel_grid(spec, args.T, args.grid)
    phys = bqm.phys_state(spec, args.T, grid, method=method,
                          slices=args.slices)
    if args.window:
        lo, hi = _window_bounds(args.window)
    else:
        lo, hi, _ = spec.domain[0]
    solves = {}
    action_eval = bqm.make_action_evaluator(spec, args.T, N=args.classical_slices,
                                            stats=solves)
    fields = {
        "const": lambda XF, XI: (np.ones_like(XF), np.ones_like(XI)),
        "dilation": lambda XF, XI: (XF.copy(), XI.copy()),
    }
    rep = bqm.semiclassical_measure(phys, action_eval, fields=fields,
                                    window=(lo, hi))
    result = {
        "T": args.T,
        "method": method,
        "window": {"min": float(lo), "max": float(hi),
                   "points": int(rep.window_points.size)},
        "measure_mean": complex(np.mean(rep.measure)),
        "measure_variation": rep.variation,
        "constraint_residuals": rep.residuals,
        "action_pairs_solved": solves["pairs_solved"],
    }
    write_report(args, result, raw)
    if args.out:
        stem = os.path.splitext(args.out)[0]
        _write_csv(stem + ".absK.csv", np.abs(phys.K))
        _write_csv(stem + ".argK.csv", np.angle(phys.K))
        _write_csv(stem + ".measure_abs.csv", np.abs(rep.measure))
        _write_csv(stem + ".measure_arg.csv", np.angle(rep.measure))
        for name, field in rep.residual_fields.items():
            _write_csv(f"{stem}.residual_{name}.csv", np.abs(field))
    return 0


def cmd_report(args):
    merged = []
    for path in args.inputs:
        with open(path, encoding="utf-8") as fh:
            merged.append(json.load(fh))
    write_report(args, {"inputs": args.inputs, "reports": merged})
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _add_common(sub, spec_required=True):
    if spec_required:
        sub.add_argument("--spec", required=True, help="system JSON file")
    sub.add_argument("--out", default=None, help="report path (default stdout)")
    sub.add_argument("--threads", type=int, default=None,
                     help="accepted for old command lines and ignored")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed for randomized property sweeps")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors write one stderr line, like every
    other failure; subcommand parsers inherit the class."""

    def error(self, message):
        self.exit(2, f"bmech: usage error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="bmech",
        description="boundary phase space mechanics and boundary quantum mechanics")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("parse", help="validate a system file")
    _add_common(p)
    p.set_defaults(func=cmd_parse)

    p = subs.add_parser("classical", help="solve a two-point boundary problem")
    _add_common(p)
    p.add_argument("--xi", required=True, type=_echoed(_floats),
                   help="initial point, comma separated")
    p.add_argument("--xf", required=True, type=_echoed(_floats),
                   help="final point, comma separated")
    p.add_argument("--ti", type=_finite_float, default=0.0)
    p.add_argument("--tf", type=_finite_float, required=True)
    p.add_argument("--slices", type=int, default=200)
    p.add_argument("--scan", default=None, type=_echoed(_scan_times),
                   help="scan final times, format start:stop:count")
    p.set_defaults(func=cmd_classical)

    p = subs.add_parser("brackets", help="Poisson bracket table at a point")
    _add_common(p)
    p.add_argument("--at", required=True, type=_echoed(_floats),
                   help="boundary phase point: 4n numbers x_f,p_f,x_i,p_i")
    p.add_argument("--pairs", required=True,
                   help="semicolon list of A~B with A,B = F:<expr> | G:<comps>; "
                        "x1..xn are final-end, x(n+1)..x(2n) initial-end coordinates")
    p.add_argument("--ti", type=_finite_float, default=0.0)
    p.add_argument("--tf", type=_finite_float, default=None,
                   help="enable covariant brackets by solving on [ti, tf]")
    p.add_argument("--slices", type=int, default=800)
    p.add_argument("--sweep", type=_count, default=8,
                   help="random identity checks (seeded)")
    p.set_defaults(func=cmd_brackets)

    p = subs.add_parser("quantize-check",
                        help="commutator, ordering, and shift diagnostics")
    _add_common(p)
    p.add_argument("--grid", type=_quantize_grid, default=128)
    p.add_argument("--gamma", type=_finite_float, default=0.0)
    p.set_defaults(func=cmd_quantize_check)

    p = subs.add_parser("propagator", help="physical-state kernel")
    _add_common(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--method", choices=("cn", "trotter"), default="cn")
    p.add_argument("--slices", type=int, default=512)
    p.set_defaults(func=cmd_propagator)

    p = subs.add_parser("semiclassical",
                        help="measure extraction and constraint residuals")
    _add_common(p)
    p.add_argument("--T", type=_finite_float, required=True)
    p.add_argument("--grid", type=int, default=128)
    p.add_argument("--method", choices=("cn", "trotter"), default="trotter")
    p.add_argument("--slices", type=int, default=256)
    p.add_argument("--classical-slices", type=int, default=200)
    p.add_argument("--window", default=None, type=_echoed(_window_bounds),
                   help="window min,max")
    p.set_defaults(func=cmd_semiclassical)

    p = subs.add_parser("report", help="aggregate prior reports")
    _add_common(p, spec_required=False)
    p.add_argument("inputs", nargs="+", help="report files to merge")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser():
    """The parser every ``main`` call uses, built on the first call: seven
    subparsers cost more than a small solve, and parsing leaves no state."""
    return build_parser()


def _configure_logging():
    """Send the package's log records to the current stderr at the BMECH_LOG
    level, replacing the handler of any earlier call in the process."""
    for handler in [h for h in log.handlers if h.get_name() == "bmech.cli"]:
        log.removeHandler(handler)
    handler = logging.StreamHandler(sys.stderr)
    handler.set_name("bmech.cli")
    handler.setFormatter(logging.Formatter("bmech %(levelname)s: %(message)s"))
    log.addHandler(handler)
    log.setLevel({"error": logging.ERROR, "info": logging.INFO,
                  "debug": logging.DEBUG}.get(os.environ.get("BMECH_LOG", "error"),
                                              logging.ERROR))
    log.propagate = False


def main(argv=None):
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # usage errors exit 1; --help and --version exit 0
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except NUMERICAL_ERRORS as exc:
        print(f"bmech: numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        if args.out:
            try:
                write_report(args, {"error": {"type": type(exc).__name__,
                                              "message": str(exc)}})
            except OSError:  # the line above already reports the failure
                pass
        return 2
    except USAGE_ERRORS as exc:
        print(f"bmech: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
