"""Independent references for every value the fraclap CLI prints.

Nothing here calls into fraclap.  Each reference is a closed form or a
high-precision sum evaluated with mpmath (or exact integer arithmetic),
so a value that agrees with it is right by an independent route:

* Gaussian values in n dimensions:
  -sigma^-alpha 2^alpha Gamma((alpha+n)/2)/Gamma(n/2)
  1F1((alpha+n)/2; n/2; -|x|^2/sigma^2);
* the spectral-oracle column: the same closed form summed over the
  periodic images, with the image sum done by the large-argument series of
  1F1 and Hurwitz zeta functions (Euler-Maclaurin);
* plane-wave values and eigenvalues: -k^alpha times the wave;
* constants: U as a beta integral, V through the Mellin transform of
  1 - cos, C_standard through 1/Gamma(-alpha/2);
* Weierstrass-Mandelbrot sums: a direct level sum whose phases are carried
  in fixed point with 256 fractional bits and reduced modulo an mpmath 2*pi.

`check_command` compares a command's parsed output with these references
and returns a `Check`.
"""

import csv
import io
import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np


def _precise(fn):
    """Evaluate fn at 40 significant digits without changing mpmath's
    precision for the rest of the process."""
    def wrapped(*args, **kwargs):
        with mp.workdps(40):
            return fn(*args, **kwargs)
    wrapped.__doc__ = fn.__doc__
    return wrapped

_FRAC = 256                         # fractional bits of the fixed-point phase
with mp.workprec(_FRAC + 64):
    _TWO_PI = int(mp.floor(2 * mp.pi * mp.mpf(2) ** _FRAC))


# ---------------------------------------------------------------- closed forms

@_precise
def gaussian_value(alpha, sigma, r, n):
    """-(-Delta)^(alpha/2) exp(-|x|^2/sigma^2) at |x| = r in n dimensions."""
    alpha, sigma, r = mp.mpf(alpha), mp.mpf(sigma), mp.mpf(r)
    a, b = (alpha + n) / 2, mp.mpf(n) / 2
    return (-sigma ** -alpha * 2 ** alpha * mp.gamma(a) / mp.gamma(b)
            * mp.hyp1f1(a, b, -(r / sigma) ** 2))


# B_2j / (2j)! for the Euler-Maclaurin tail of the Hurwitz zeta function
_BERNOULLI = [float(mp.bernoulli(2 * j) / mp.factorial(2 * j))
              for j in range(1, 9)]


def hurwitz_zeta(s, q, head=40):
    """sum_{k >= 0} (q + k)^-s for s > 1, q > 0, by Euler-Maclaurin after
    `head` explicit terms."""
    x = q + head
    total = math.fsum((q + k) ** -s for k in range(head))
    total += x ** (1.0 - s) / (s - 1.0) + 0.5 * x ** -s
    rising = s                          # s (s+1) ... (s+2j-2)
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b * rising * x ** (-s - 2 * j + 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


@_precise
def periodic_images(alpha, sigma, x, length, terms=24):
    """Sum over j != 0 of the 1-D Gaussian value at x - j*length.

    Far from the bump the value is K sum_k c_k (y/sigma)^(-alpha-1-2k)
    (the algebraic part of the large-argument expansion of 1F1; the
    exponential part is below e^-100 for the grids used here), and the sum
    over images of |x - j L|^-s is L^-s [zeta(s, 1 - x/L) + zeta(s, 1 + x/L)].
    """
    zeta = hurwitz_zeta
    alpha, sigma = float(alpha), float(sigma)
    a = 0.5 * (alpha + 1.0)
    kfac = float(-sigma ** -alpha * 2 ** alpha * mp.gamma(a)
                 * mp.rgamma(-alpha / 2))
    total = 0.0
    coef = 1.0
    for k in range(terms):
        s = alpha + 1.0 + 2 * k
        images = (zeta(s, 1.0 - x / length) + zeta(s, 1.0 + x / length))
        total += coef * sigma ** s * length ** -s * images
        coef *= (a + k) * (a + 0.5 + k) / (k + 1)
    return kfac * total


@_precise
def unit_sphere_moment(n, alpha):
    """U(n, alpha) = |S^(n-2)| B((alpha+1)/2, (n-1)/2); U(1) = 2."""
    if n == 1:
        return mp.mpf(2)
    alpha = mp.mpf(alpha)
    sphere = 2 * mp.pi ** (mp.mpf(n - 1) / 2) / mp.gamma(mp.mpf(n - 1) / 2)
    return sphere * mp.beta((alpha + 1) / 2, mp.mpf(n - 1) / 2)


@_precise
def v_radial(m, alpha):
    """V(m, alpha) = 2^(2m-alpha) int_0^inf sin^(2m)(x) x^(-alpha-1) dx.

    sin^(2m) x = 4^-m 2 sum_j (-1)^(j+1) C(2m, m-j) (1 - cos 2jx) and
    int_0^inf x^(s-1) (1 - cos bx) dx = -Gamma(s) cos(pi s/2) b^-s.
    """
    alpha = mp.mpf(alpha)
    acc = mp.fsum((-1) ** (j + 1) * math.comb(2 * m, m - j) * mp.mpf(j) ** alpha
                  for j in range(1, m + 1))
    return -2 * mp.gamma(-alpha) * mp.cos(mp.pi * alpha / 2) * acc


@_precise
def c_standard(n, alpha):
    """-2^alpha Gamma((n+alpha)/2) / (pi^(n/2) Gamma(-alpha/2))."""
    alpha = mp.mpf(alpha)
    return (-2 ** alpha * mp.gamma((n + alpha) / 2) * mp.rgamma(-alpha / 2)
            / mp.pi ** (mp.mpf(n) / 2))


def wm_dispersion(kh, a, delta, m):
    """4^m sum_s a^(-delta*s) sin^(2m)(kh a^s / 2), summed directly.

    The phase kh a^s / 2 is carried as an integer with 256 fractional
    bits (a and kh are exact dyadic rationals) and reduced modulo 2*pi in
    integers, so high levels lose no accuracy.  Both tails are cut when
    their geometric bound falls below 1e-18 of the sum.
    """
    if kh == 0.0:
        return 0.0
    num_a, den_a = a.as_integer_ratio()
    shift = den_a.bit_length() - 1            # den_a is a power of two
    num_k, den_k = kh.as_integer_ratio()
    p0 = (num_k << _FRAC) // (2 * den_k)
    la = math.log(a)
    terms = []

    def term(p, s):
        sine = abs(math.sin(math.ldexp(float(p % _TWO_PI), -_FRAC)))
        if sine == 0.0:
            return 0.0
        return math.exp(2 * m * math.log(sine) - delta * s * la)

    ratio = math.exp(-delta * la)
    p, s, partial = p0, 0, 0.0
    while True:                                # s >= 0
        terms.append(term(p, s))
        partial += terms[-1]
        bound = math.exp(-delta * (s + 1) * la) / (1.0 - ratio)
        if bound < 1e-18 * max(1.0, partial):
            break
        p = (p * num_a) >> shift
        s += 1
    ratio_neg = math.exp(-(2 * m - delta) * la)
    p, s = p0, 0
    while True:                                # s < 0
        p = (p << shift) // num_a
        s -= 1
        terms.append(term(p, s))
        partial += terms[-1]
        bound = ((0.5 * kh) ** (2 * m) * math.exp((2 * m - delta) * s * la)
                 * ratio_neg / (1.0 - ratio_neg))
        if bound < 1e-18 * max(1.0, partial):
            break
    return 4.0 ** m * math.fsum(terms)


# ------------------------------------------------------------------- checking

@dataclass
class Check:
    """Outcome of checking one command's output."""
    ok: bool
    values: int            # checked rows (or self-test checks)
    digits: float          # smallest margin to tol among the values
    reason: str = ""
    worst: float = math.inf    # largest error in multiples of its tolerance


class _Rows:
    """Accumulates value-against-reference comparisons for one command."""

    def __init__(self, tol):
        self.tol = tol
        self.digits = math.inf
        self.worst = 0.0
        self.bad = []

    def cmp(self, label, got, ref, scale=None):
        """Compare within tol * max(1, |scale|); scale defaults to ref.

        The accuracy in digits is log10(allowed / actual error), with the
        error floored at 1e-16 of the scale, so 0 digits is the edge of
        the tolerance.
        """
        ref = float(ref)
        scale = max(1.0, abs(ref if scale is None else float(scale)))
        if not math.isfinite(got):
            self.broken("%s not finite: %r" % (label, got))
            return
        err = abs(got - ref)
        self.worst = max(self.worst, err / (self.tol * scale))
        if err > self.tol * scale:
            self.bad.append("%s = %r, reference %r" % (label, got, ref))
        self.digits = min(self.digits,
                          math.log10(self.tol / max(err / scale, 1e-16)))

    def broken(self, reason):
        """A value that cannot be compared: no tolerance covers it."""
        self.bad.append(reason)
        self.worst = math.inf


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text))) or [[]]
    return rows[0], rows[1:]


def _linspace(lo, hi, num):
    # the CLI's own sample points, so that x and kh columns match exactly
    return [float(v) for v in np.linspace(lo, hi, num)]


def expected_gaussian_apply(p):
    """Reference rows (x, value[, oracle, abs_diff]) of a Gaussian apply."""
    xs = _linspace(p["x_min"], p["x_max"], p["samples"])
    length = p.get("oracle_length", 16.0)
    with_oracle = p["n"] == 1 and p["sigma"] * 14.0 <= length
    out = []
    for x in xs:
        value = gaussian_value(p["alpha"], p["sigma"], abs(x), p["n"])
        row = [x, value]
        if with_oracle:
            images = periodic_images(p["alpha"], p["sigma"], x, length)
            row += [value + images, 0.0]
        out.append(row)
    header = ["x", "value"] + (["oracle", "abs_diff"] if with_oracle else [])
    return header, out


@_precise
def expected(cmd):
    """(header, reference rows) for a command, or None for selftest."""
    p, kind = cmd.params, cmd.kind
    if kind == "apply" and p["field"] == "gaussian":
        return expected_gaussian_apply(p)
    if kind == "apply":
        k, alpha = mp.mpf(p["k"]), mp.mpf(p["alpha"])
        xs = _linspace(p["x_min"], p["x_max"], p["samples"])
        return ["x", "value"], [[x, -k ** alpha * mp.cos(k * x)] for x in xs]
    if kind == "eig":
        rows = []
        for k in _linspace(p["k_min"], p["k_max"], p["samples"]):
            exact = -mp.mpf(k) ** p["alpha"]
            rows.append([k, exact, exact, 0.0])
        return ["k", "eigenvalue", "exact", "abs_diff"], rows
    if kind == "constants":
        m, n, alpha = p["m"], p["n"], p["alpha"]
        u, v = unit_sphere_moment(n, alpha), v_radial(m, alpha)
        rows = [["U", u], ["V", v], ["A", u * v], ["C_general", 1 / (u * v)],
                ["C_standard", c_standard(n, alpha)]]
        if 0.0 < alpha < 2.0:
            rows.append(["A_delta", v_radial(1, alpha)
                         * mp.mpf(p["h"]) ** alpha / p["zeta"]])
        return ["name", "value", "note"], rows
    if kind == "dispersion":
        a, d, m = p["a"], p["delta"], p["m"]
        amp = v_radial(m, d) / math.log(a)
        rows = []
        for kh in _linspace(p["kh_min"], p["kh_max"], p["samples"]):
            row = [kh, wm_dispersion(kh, a, d, m)]
            if p["limit"]:
                row.append(amp * mp.mpf(kh) ** d)
            rows.append(row)
        header = ["kh", "omega2_wm"] + (["omega2_limit"] if p["limit"] else [])
        return header, rows
    if kind == "converge":
        limit = v_radial(p["m"], p["delta"]) * mp.mpf(p["kh"]) ** p["delta"]
        rows = []
        a = p["a_start"]
        for _ in range(p["steps"]):
            scaled = math.log(a) * wm_dispersion(p["kh"], a, p["delta"], p["m"])
            rows.append([a, scaled, limit, abs(scaled - limit)])
            a = 1.0 + (a - 1.0) / p["a_factor"]
        return ["a", "scaled_dispersion", "limit", "abs_diff"], rows
    return None


class Checker:
    """`check_command` with the references of each argv computed once."""

    def __init__(self):
        self._refs = {}

    def __call__(self, cmd, rc, text, error=None):
        if cmd.argv not in self._refs:
            self._refs[cmd.argv] = expected(cmd)
        return check_command(cmd, rc, text, error, self._refs[cmd.argv])


def check_command(cmd, rc, text, error=None, ref=None):
    """Check a command's exit code and output against the references."""
    if error is not None:
        return Check(False, 0, math.nan, "raised " + error)
    if rc != 0:
        return Check(False, 0, math.nan, "exit code %r" % (rc,))
    if cmd.kind == "selftest":
        # the last line reads "<passed>/<ran> passed"; exit 0 means all did
        ran = int(text.strip().splitlines()[-1].split()[0].split("/")[1])
        return Check(True, ran, math.inf, worst=0.0)
    header, rows = _parse_csv(text)
    ref_header, ref_rows = ref if ref is not None else expected(cmd)
    if header != ref_header or len(rows) != len(ref_rows) \
            or any(len(row) != len(header) for row in rows):
        return Check(False, 0, math.nan,
                     "shape %s x %s, expected %s x %d"
                     % (header, [len(row) for row in rows], ref_header,
                        len(ref_rows)))
    acc = _Rows(cmd.params["tol"])
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for j, (cell, want) in enumerate(zip(row, ref)):
            label = "row %d %s" % (i, header[j])
            if isinstance(want, str):
                if cell != want:
                    acc.broken("%s = %r, expected %r" % (label, cell, want))
                continue
            try:
                got = float(cell)
            except ValueError:
                acc.broken("%s unparsable: %r" % (label, cell))
                continue
            # a difference column carries the error of its operands
            # (columns 1 and 2), so it is held to their scale
            scale = (max(abs(float(ref[1])), abs(float(ref[2])))
                     if header[j] == "abs_diff" else None)
            acc.cmp(label, got, want, scale)
        if cmd.kind == "constants" and row[2] != "":
            acc.broken("row %d note %r, expected ''" % (i, row[2]))
    return Check(not acc.bad, len(rows), acc.digits, "; ".join(acc.bad[:3]),
                 acc.worst)


@_precise
def operator_exact(field, point, alpha):
    """Closed form of -(-Delta)^(alpha/2) u at a point, for a field
    recorded by the tracer as ("gaussian", sigma, center) or
    ("planewave", k)."""
    if field[0] == "gaussian":
        r = math.sqrt(sum((p - c) ** 2 for p, c in zip(point, field[2])))
        return gaussian_value(alpha, field[1], r, len(point))
    k = field[1]
    kx = sum(a * b for a, b in zip(k, point))
    return -math.sqrt(sum(a * a for a in k)) ** alpha * mp.expj(kx)
