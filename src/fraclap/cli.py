"""Command-line surface: constants tables, dispersion curves, operator
application with a spectral cross-check, eigenvalue and continuum-limit
sweeps, and a self-test suite.

Output is CSV (header row, LF endings, shortest round-trip floats) or a
plain aligned table.  An optional ``key = value`` config file supplies
defaults; explicit flags win.  Exit codes: 0 ok, 1 self-test failure,
2 domain or usage error, 3 numerical failure (a quadrature that does
not meet its tolerance, or a result that is not finite).
"""

import argparse
import math
import sys

import numpy as np

from . import constants
from .constants import DomainError, a_delta, norm_constants
from .fields import Gaussian, PlaneWave
from .flcore import REPRESENTATIONS, fl_apply, fl_eigenvalue, fl_regularized
from .lattice import (SelfSimilarParams, wm_dispersion, wm_limit_amplitude)
from .oracle import GridField, dft_fl, fft, periodic_image_tail
from .potentials import ring_potential, scaling_factor, validate_stiffness
from .quad import QuadratureError, i_reg, reg_halfline


def _fmt(x):
    """Shortest decimal that round-trips the double."""
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def emit(header, rows, fmt, out):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        cols = [[h] + [_fmt(r[i]) for r in rows] for i, h in enumerate(header)]
        widths = [max(len(s) for s in col) for col in cols]
        lines = []
        for j in range(len(rows) + 1):
            lines.append("  ".join(cols[i][j].ljust(widths[i])
                                   for i in range(len(header))).rstrip())
        text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def read_config(path, known):
    values = {}
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError("config line %d: expected key = value" % ln)
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in known:
                raise DomainError("config line %d: unknown key %r" % (ln, key))
            values[key] = val
    return values


_SWITCH = {"1": True, "true": True, "yes": True,
           "0": False, "false": False, "no": False}


def config_argv(path, parser):
    """The config file's key = value pairs as flags of parser, so that
    argparse converts and checks them as it does the user's own."""
    actions = {a.dest: a for a in parser._actions
               if a.dest not in ("help", "config")}
    argv = []
    for key, raw in read_config(path, actions).items():
        flag = actions[key].option_strings[0]
        if actions[key].nargs != 0:
            argv.append("%s=%s" % (flag, raw))
        elif raw.lower() not in _SWITCH:     # a switch such as --limit
            raise DomainError("config key %s must be true or false, got %r"
                              % (key, raw))
        elif _SWITCH[raw.lower()]:
            argv.append(flag)
    return argv


def cmd_constants(args):
    nc = norm_constants(args.m, args.n, args.alpha)
    header = ["name", "value", "note"]
    rows = [
        ["U", nc.u_moment, ""],
        ["V", nc.v_radial, ""],
        ["A", nc.a_factor, ""],
        ["C_general", nc.c_general, ""],
        ["C_standard", nc.c_standard,
         "distributional" if nc.distributional else ""],
    ]
    if 0.0 < args.alpha < 2.0:
        rows.append(["A_delta", a_delta(args.alpha, args.h, args.zeta), ""])
    emit(header, rows, args.format, args.out)
    return 0


def cmd_dispersion(args):
    p = SelfSimilarParams(delta=args.delta, a=args.a, m=args.m,
                          tol=args.tol)
    khs = np.linspace(args.kh_min, args.kh_max, args.samples)
    header = ["kh", "omega2_wm"] + (["omega2_limit"] if args.limit else [])
    rows = [[float(kh), wm_dispersion(float(kh), p)] for kh in khs]
    if args.limit:
        for row, limit in zip(rows, wm_limit_amplitude(p, khs) / p.zeta):
            row.append(limit)
    emit(header, rows, args.format, args.out)
    return 0


def _make_field(args):
    if args.field == "gaussian":
        return Gaussian(args.sigma, n=args.n)
    if args.field == "planewave":
        k = np.zeros(args.n)
        k[0] = args.k
        return PlaneWave(k)
    raise DomainError("unknown field %r" % args.field)


def cmd_apply(args):
    u = _make_field(args)
    xs = np.linspace(args.x_min, args.x_max, args.samples)

    oracle_vals = None
    if (args.field == "gaussian" and args.n == 1
            and args.sigma * 14.0 <= args.oracle_length):
        half, n_grid = args.oracle_length / 2.0, args.oracle_samples
        dx = args.oracle_length / n_grid
        oracle_vals = [None] * len(xs)
        # the grid resolves the field only if the Gaussian's spectrum at
        # its Nyquist wavenumber is below tol
        if math.exp(-(math.pi * args.sigma / (2.0 * dx)) ** 2) > args.tol:
            print("note: %d oracle samples cannot resolve sigma = %r; oracle "
                  "and abs_diff left as nan" % (n_grid, args.sigma),
                  file=sys.stderr)
        else:
            grid = np.linspace(-half, half, n_grid, endpoint=False)
            spectral = dft_fl(GridField(np.exp(-(grid / args.sigma) ** 2),
                                        args.oracle_length), args.alpha)
            for i, x in enumerate(xs):
                j = int(round((x + half) / dx))
                if 0 <= j < n_grid and abs(grid[j] - x) <= 1e-9 * max(
                        1.0, abs(x)) + 1e-12:
                    oracle_vals[i] = float(spectral[j])

    header = ["x", "value"]
    if oracle_vals is not None:
        header += ["oracle", "abs_diff"]
    rows = []
    for i, x in enumerate(xs):
        pt = np.zeros(args.n)
        pt[0] = x
        res = fl_apply(args.rep, u, pt, args.alpha, args.m, args.tol)
        row = [float(x), float(np.real(res.value))]
        if oracle_vals is not None:
            if oracle_vals[i] is None:
                row += [math.nan, math.nan]
            else:
                corr = periodic_image_tail(float(x), args.alpha,
                                           args.oracle_length, args.sigma)
                row += [oracle_vals[i],
                        abs(row[1] + corr - oracle_vals[i])]
        rows.append(row)
    emit(header, rows, args.format, args.out)
    return 0


def cmd_eig(args):
    ks = np.linspace(args.k_min, args.k_max, args.samples)
    header = ["k", "eigenvalue", "exact", "abs_diff"]
    rows = []
    for k in ks:
        val = fl_eigenvalue(args.rep, args.alpha, float(k),
                            n=args.n, m=args.m, tol=args.tol)
        exact = -float(k) ** args.alpha
        rows.append([float(k), val, exact, abs(val - exact)])
    emit(header, rows, args.format, args.out)
    return 0


def cmd_converge(args):
    """Level-sum amplitude |ln a| omega^2(kh) against the a -> 1 limit."""
    header = ["a", "scaled_dispersion", "limit", "abs_diff"]
    rows = []
    a = args.a_start
    p0 = SelfSimilarParams(delta=args.delta, a=2.0, m=args.m, tol=args.tol)
    limit = wm_limit_amplitude(p0, args.kh)
    for _ in range(args.steps):
        p = SelfSimilarParams(delta=args.delta, a=a, m=args.m, tol=args.tol)
        val = math.log(a) * wm_dispersion(args.kh, p)
        rows.append([a, val, limit, abs(val - limit)])
        a = 1.0 + (a - 1.0) / args.a_factor
    emit(header, rows, args.format, args.out)
    return 0


def _selftest_cases():
    def constants_factorization():
        nc = norm_constants(1, 2, 1.3)
        return abs(nc.a_factor - 2.0 / nc.c_standard) < 1e-12 * nc.a_factor

    def constants_levy_match():
        a = constants.c_standard(3, 0.7)
        b = constants.c_standard_levy(3, 0.7)
        return abs(a - b) < 1e-12 * abs(b)

    def constants_v_quadrature():
        a = constants.v_integral(2, 1.1)
        b = constants.v_integral_quadrature(2, 1.1)
        return abs(a - b) < 1e-9 * abs(a)

    def quad_cos_moment():
        alpha = 0.8
        val = -constants.sin_half_pi(alpha) * constants.cos_moment(0, alpha)[0]
        exact = math.pi / (2.0 * constants.gamma(alpha + 1.0))
        return abs(val - exact) < 1e-8

    def quad_indicator():
        alpha = 0.6
        val, _ = reg_halfline(lambda t: 1.0 * (t < 1.0), alpha,
                              derivs=lambda q: 0.0 if q else 1.0)
        return abs(val - i_reg(1.0, alpha)) < 1e-8

    def flcore_eigenvalue_agreement():
        vals = [fl_eigenvalue("standard", 1.2, 1.0),
                fl_eigenvalue("order_m", 1.2, 1.0, m=2),
                fl_eigenvalue("regularized", 1.2, 1.0)]
        return max(abs(v + 1.0) for v in vals) < 1e-8

    def flcore_integer_branch():
        g = Gaussian(1.0)
        res = fl_regularized(g, np.array([0.0]), 2.0)
        return abs(res.value + 2.0) < 1e-12

    def oracle_fft_roundtrip():
        rng = np.random.default_rng(7)
        z = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        back = fft(fft(z), inverse=True)
        return float(np.max(np.abs(back - z))) < 1e-12

    def oracle_spectral_match():
        alpha, L, N = 1.5, 16.0, 1024
        xs = np.linspace(-L / 2, L / 2, N, endpoint=False)
        spectral = dft_fl(GridField(np.exp(-xs ** 2), L), alpha)
        j = N // 2
        val = fl_regularized(Gaussian(1.0), np.array([0.0]), alpha).value
        return abs(val + periodic_image_tail(0.0, alpha, L)
                   - spectral[j]) < 1e-8

    def lattice_self_similarity():
        p = SelfSimilarParams(delta=0.45, a=1.5, m=1)
        lhs = wm_dispersion(p.a * 0.5, p)
        rhs = p.a ** p.delta * wm_dispersion(0.5, p)
        return abs(lhs - rhs) < 1e-8 * rhs

    def lattice_limit_amplitude():
        p = SelfSimilarParams(delta=0.9, a=1.5, m=1)
        got = wm_limit_amplitude(p, 1.0)
        want = constants.v_integral_quadrature(1, 0.9)
        return abs(got - want) < 1e-8 * want

    def potentials_ring():
        v = ring_potential([1.0, 0.5])
        want = -(1.0 + 0.5 * 2.0 ** 1.1)
        return (validate_stiffness(v).valid
                and abs(scaling_factor(v, 1.1) - want) <= 1e-12 * -want)

    return [
        ("constants.factorization", constants_factorization),
        ("constants.levy_match", constants_levy_match),
        ("constants.v_quadrature", constants_v_quadrature),
        ("quad.cos_moment", quad_cos_moment),
        ("quad.indicator", quad_indicator),
        ("flcore.eigenvalue_agreement", flcore_eigenvalue_agreement),
        ("flcore.integer_branch", flcore_integer_branch),
        ("oracle.fft_roundtrip", oracle_fft_roundtrip),
        ("oracle.spectral_match", oracle_spectral_match),
        ("lattice.self_similarity", lattice_self_similarity),
        ("lattice.limit_amplitude", lattice_limit_amplitude),
        ("potentials.ring", potentials_ring),
    ]


def cmd_selftest(args):
    failures = 0
    ran = 0
    for name, check in _selftest_cases():
        if args.filter and args.filter not in name:
            continue
        ran += 1
        try:
            ok = check()
        except Exception as exc:       # a crash is a failure, not exit 2
            ok = False
            print("%-32s ERROR %s" % (name, exc))
        print("%-32s %s" % (name, "pass" if ok else "FAIL"))
        if not ok:
            failures += 1
    if ran == 0:
        print("no self-tests match filter %r" % args.filter)
        return 1
    print("%d/%d passed" % (ran - failures, ran))
    return 1 if failures else 0


def _add_common(p, fmt_default="csv"):
    p.add_argument("--out", default=None, help="write output to PATH")
    p.add_argument("--config", default=None,
                   help="key = value defaults file; flags override")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("csv", "pretty-table"),
                   default=fmt_default)


def build_parser():
    top = argparse.ArgumentParser(
        prog="fraclap",
        description="Fractional Laplacian representations and "
                    "self-similar lattice dispersion.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="normalization constants table")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--zeta", type=float, default=1.0)
    _add_common(p, fmt_default="pretty-table")
    p.set_defaults(run=cmd_constants, required=("alpha",))

    p = sub.add_parser("dispersion", help="Weierstrass-Mandelbrot curve")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--a", type=float, default=1.5)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--kh-min", type=float, default=0.0)
    p.add_argument("--kh-max", type=float, default=3.0)
    p.add_argument("--samples", type=int, default=121)
    p.add_argument("--limit", action="store_true",
                   help="add the continuum power-law column")
    _add_common(p)
    p.set_defaults(run=cmd_dispersion, required=("delta",))

    p = sub.add_parser("apply", help="apply a representation to a field")
    p.add_argument("--field", choices=("gaussian", "planewave"),
                   default="gaussian")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--rep", choices=REPRESENTATIONS, default="regularized")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--x-min", type=float, default=-2.0)
    p.add_argument("--x-max", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=9)
    p.add_argument("--oracle-samples", type=int, default=1024)
    p.add_argument("--oracle-length", type=float, default=16.0)
    _add_common(p)
    p.set_defaults(run=cmd_apply, required=("alpha",))

    p = sub.add_parser("eig", help="plane-wave eigenvalue sweep")
    p.add_argument("--rep", choices=REPRESENTATIONS, default="regularized")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--k-min", type=float, default=0.5)
    p.add_argument("--k-max", type=float, default=2.0)
    p.add_argument("--samples", type=int, default=4)
    _add_common(p)
    p.set_defaults(run=cmd_eig, required=("alpha",))

    p = sub.add_parser("converge", help="continuum limit over an a-sequence")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--kh", type=float, default=1.0)
    p.add_argument("--a-start", type=float, default=2.0)
    p.add_argument("--a-factor", type=float, default=2.0)
    p.add_argument("--steps", type=int, default=8)
    _add_common(p)
    p.set_defaults(run=cmd_converge, required=("delta",))

    p = sub.add_parser("selftest", help="run built-in consistency checks")
    p.add_argument("--filter", default=None,
                   help="run only checks whose name contains this string")
    p.add_argument("--config", default=None, help=argparse.SUPPRESS)
    p.set_defaults(run=cmd_selftest)

    return top, sub


def _check_numbers(args):
    """Reject a non-finite number, --tol <= 0 or --a-factor <= 1."""
    for key, val in vars(args).items():
        if isinstance(val, float) and not math.isfinite(val):
            raise DomainError("--%s must be finite, got %r"
                              % (key.replace("_", "-"), val))
    if getattr(args, "tol", 1.0) <= 0.0:
        raise DomainError("--tol must be positive, got %r" % args.tol)
    if getattr(args, "a_factor", 2.0) <= 1.0:
        raise DomainError("--a-factor must exceed 1, got %r" % args.a_factor)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    top, sub = build_parser()
    args = top.parse_args(argv)
    try:
        if args.config:
            # config flags go before the user's own, so the user's win
            at = argv.index(args.command) + 1
            extra = config_argv(args.config, sub.choices[args.command])
            args = top.parse_args(argv[:at] + extra + argv[at:])
        for key in getattr(args, "required", ()):
            if getattr(args, key) is None:
                raise DomainError(
                    "--%s is required (flag or config file)" % key)
        _check_numbers(args)
        return args.run(args)
    except (DomainError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print("error: numerical failure: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
