"""Self-similar lattice sums, their dispersion, and the continuum limit."""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fraclap import lattice
from fraclap.constants import (DomainError, a_delta, diff_weights,
                               stencil_series)
from fraclap.fields import Gaussian, PlaneWave, UserField
from fraclap.lattice import (SelfSimilarParams, selfsim_laplacian,
                             wm_dispersion, wm_energy_density,
                             wm_limit_amplitude)
from fraclap.quad import QuadratureError

# 2*pi to 85 digits, as an exact rational: the phase reduction the
# integer recurrence replaced, kept as its reference
_TWO_PI = Fraction(
    6283185307179586476925286766559005768394338798750211641949889184615632812572417997256069,
    10 ** 87)


def _reduced_phase(half_kh, a_frac, s):
    """0.5 * kh * a^s mod 2*pi in exact rational arithmetic.

    Both kh and a are doubles, hence exact rationals, so the only error
    is the 85-digit truncation of 2*pi scaled by the reduced quotient.
    """
    x = half_kh * a_frac ** s
    return float(x - (x // _TWO_PI) * _TWO_PI)


def mp_dispersion(kh, a, delta, m, dps):
    """4^m sum_s a^(-delta*s) sin^(2m)(kh a^s / 2) in mpmath at dps
    digits; each omitted tail is below 4^m 1e-17."""
    mp = pytest.importorskip("mpmath")
    rp, rn = a ** -delta, a ** -(2 * m - delta)
    with mp.workdps(dps):
        aa, dd, half = mp.mpf(a), mp.mpf(delta), mp.mpf(kh) / 2
        total, s = mp.mpf(0), 0
        while rp ** s / (1 - rp) > 1e-17:
            total += aa ** (-dd * s) * mp.sin(half * aa ** s) ** (2 * m)
            s += 1
        s = -1
        while (kh / 2) ** (2 * m) * rn ** -s / (1 - rn) > 1e-17:
            total += aa ** (-dd * s) * mp.sin(half * aa ** s) ** (2 * m)
            s -= 1
        return float(4 ** m * total)


class TestParams:
    def test_zeta_is_log_a(self):
        p = SelfSimilarParams(delta=0.5, a=2.0)
        assert p.zeta == pytest.approx(math.log(2.0))

    @pytest.mark.parametrize("kwargs", [
        dict(delta=0.5, a=0.9),          # dilation below 1
        dict(delta=2.5, a=1.5, m=1),     # delta at or above 2m
        dict(delta=-0.1, a=1.5),
        dict(delta=0.5, a=1.5, h=0.0),
    ])
    def test_rejects_bad_windows(self, kwargs):
        with pytest.raises(DomainError):
            SelfSimilarParams(**kwargs)


class TestWmDispersion:
    def test_zero_at_zero(self):
        p = SelfSimilarParams(delta=0.7, a=1.6)
        assert wm_dispersion(0.0, p) == 0.0

    def test_against_direct_sum(self):
        # independent truncated sum with explicit bounds, moderate levels
        p = SelfSimilarParams(delta=1.05, a=1.5, m=1)
        kh = 1.0
        s = np.arange(-120, 260).astype(float)
        direct = 4.0 * np.sum(
            p.a ** (-p.delta * s) * np.sin(0.5 * kh * p.a ** s) ** 2)
        # the independent sum loses phase accuracy at high levels, so the
        # comparison tolerance reflects that, not the implementation's
        assert wm_dispersion(kh, p) == pytest.approx(direct, abs=1e-9)

    @pytest.mark.parametrize("d,a,m", [(0.45, 1.5, 1), (1.05, 1.5, 1),
                                       (1.5, 2.0, 2)])
    def test_self_similarity(self, d, a, m):
        p = SelfSimilarParams(delta=d, a=a, m=m)
        for kh in (0.5, 1.0):
            lhs = wm_dispersion(a * kh, p)
            rhs = a ** d * wm_dispersion(kh, p)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("kh,a,d,m,tol,dps", [
        # small delta: phases reach 1e70 (delta 0.1) to 1e300 (delta 0.05)
        (1.0, 2.0, 0.1, 1, 1e-10, 400),
        (1.0, 1.5, 0.1, 1, 1e-10, 400),
        (1.0, 2.0, 0.05, 1, 1e-10, 400),
        # both tails near tol: within tol only if they share it
        (0.10271583732603634, 1.1059345128615083, 1.5356190374938832, 1,
         1e-9, 60),
        # delta near 2m: a^(-delta*s) overflows at the deepest levels
        (3.0, 1.541, 5.75, 3, 1e-10, 60),
        # delta near 2m at small a: the closed-form levels carry the sum
        (1.0, 1.025, 3.95, 2, 1e-10, 30),
        # every level above s_pos takes the series: none is direct
        (1e-300, 1.025, 1.5, 1, 1e-10, 60),
    ])
    def test_within_tol_of_mpmath(self, kh, a, d, m, tol, dps):
        # the one cut tail, beyond s_pos, spends tol/2
        got = wm_dispersion(kh, SelfSimilarParams(delta=d, a=a, m=m, tol=tol))
        assert abs(got - mp_dispersion(kh, a, d, m, dps)) <= tol / 2

    def test_level_budget(self):
        p = SelfSimilarParams(delta=0.8, a=1.000001, tol=1e-9)
        with pytest.raises(DomainError, match="budget") as err:
            wm_dispersion(1.0, p)
        # the a the message names fits the budget
        a_min = float(str(err.value).rsplit(">= ", 1)[1])
        assert 1.00001 < a_min < 1.001
        lattice._levels(SelfSimilarParams(delta=0.8, a=a_min, tol=1e-9), 1.0,
                        *lattice._dispersion_series(1))

    def test_positive(self):
        p = SelfSimilarParams(delta=0.9, a=1.7, m=2)
        assert wm_dispersion(0.8, p) > 0.0

    def test_huge_kh_is_finite_and_self_similar(self):
        # the amplitude (kh/2)^(2m) of the deep levels overflows a double
        p = SelfSimilarParams(delta=0.8, a=2.0)
        got = wm_dispersion(1e200, p)
        assert math.isfinite(got)
        assert wm_dispersion(2e200, p) == pytest.approx(2.0 ** 0.8 * got,
                                                        rel=1e-12)

    def test_phases_past_the_doubles(self, deadline):
        # delta = 0.01: the direct levels reach s ~ 3800, where 0.5 kh a^s
        # overflows; those phases come from the exact reduction
        p = SelfSimilarParams(delta=0.01, a=4.0, m=20)
        with deadline(10), warnings.catch_warnings():
            warnings.simplefilter("error")
            got = wm_dispersion(1.0, p)
            assert wm_dispersion(4.0, p) == pytest.approx(4.0 ** 0.01 * got,
                                                          rel=1e-12)

    def test_negative_kh_rejected(self):
        p = SelfSimilarParams(delta=0.9, a=1.7)
        with pytest.raises(DomainError):
            wm_dispersion(-1.0, p)


class TestReducedPhases:
    @pytest.mark.parametrize("a", [1.1, 1.05, 1.02, 1.01])
    @pytest.mark.parametrize("d", [0.8, 0.3])
    def test_match_exact_rational_reduction(self, a, d):
        # the levels wm_dispersion reduces; below phase 1e70 the 85-digit
        # rational 2*pi is exact to far below one rounding
        rng = random.Random(7)
        for kh in (0.37, 1.0, 2.9):
            p = SelfSimilarParams(delta=d, a=a, tol=1e-10)
            _, s_pos, _ = lattice._levels(p, kh,
                                          *lattice._dispersion_series(1))
            s0 = math.ceil(math.log(1e4 / (0.5 * kh)) / math.log(a))
            got = list(lattice._reduced_phases(kh, a, s0, s_pos))
            assert 0.5 * kh * a ** s_pos < 1e70
            for s in rng.sample(range(s0, s_pos + 1), 25):
                assert got[s - s0] == _reduced_phase(
                    Fraction(kh) / 2, Fraction(a), s)


def central(m):
    """{offset: weight} of the order-2m central difference, in integers."""
    return {j: (-1) ** ((j + 1) % 2) * math.comb(2 * m, m + j)
            for j in range(-m, m + 1)}


def forward(m):
    """{offset: weight} of the forward difference (D - 1)^m."""
    return {j: (-1) ** (m - j) * math.comb(m, j) for j in range(m + 1)}


def mp_level_sum(x, p, stencil, square):
    """sum_s a^(-delta*s) d_s for h = 1 in mpmath, d_s the {offset: weight}
    stencil applied to exp(-x^2) at step a^s, or its square; each level
    carries the digits its difference cancels, and the levels below
    s = -300 are the geometric sum of their leading term
    M_k u^(k)(x) a^(ks) / k!, k the stencil's order."""
    mp = pytest.importorskip("mpmath")
    a, d, xx = mp.mpf(p.a), mp.mpf(p.delta), mp.mpf(x)
    power = 2 if square else 1
    k = next(q for q in range(len(stencil))
             if sum(wj * j ** q for j, wj in stencil.items()))
    total = mp.mpf(0)
    for s in range(-300, 90):
        with mp.workdps(30 + max(0, int(-k * s * math.log10(p.a)))):
            diff = sum(wj * mp.exp(-(xx + j * a ** s) ** 2)
                       for j, wj in stencil.items())
            total += a ** (-d * s) * diff ** power
    lead = (sum(wj * j ** k for j, wj in stencil.items())
            * mp.diff(lambda t: mp.exp(-t * t), xx, k) / mp.factorial(k))
    r = a ** (power * k - d)
    total += lead ** power * r ** -301 / (1 - 1 / r)
    return float(total)


class TestSelfsimLaplacian:
    @pytest.mark.parametrize("d,a,m,tol", [(5.75, 1.541, 3, 1e-10),
                                           (3.9, 1.541, 2, 1e-12)])
    def test_small_steps_near_delta_2m(self, d, a, m, tol):
        # near delta = 2m the deepest levels carry the sum and their
        # differences come from the small-step series, so a series cut
        # too short (two terms gave 5e-4 here at m = 3) shows
        p = SelfSimilarParams(delta=d, a=a, m=m, tol=tol)
        got = selfsim_laplacian(Gaussian(1.0), np.array([0.3]), p)
        want = mp_level_sum(0.3, p, central(m), False)
        assert abs(got - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("m,rel", [(4, 1e-12), (5, 1e-12), (6, 1e-10)])
    def test_large_m(self, m, rel):
        # the series runs to order 2m + 29 and takes the levels where what
        # it leaves out is below the direct difference's rounding; with a
        # fixed 14 orders these were 3e-11 to 2e-9 off, and moving the
        # switch up one level gives 2e-10 to 4e-5
        p = SelfSimilarParams(delta=2 * m - 0.5, a=1.6, m=m, tol=1e-12)
        got = selfsim_laplacian(Gaussian(1.0), np.array([0.3]), p)
        want = mp_level_sum(0.3, p, central(m), False)
        assert abs(got - want) <= rel * abs(want)

    def test_series_takes_the_levels_under_the_rounding(self):
        # the lowest direct difference is at the first step z where the
        # series leaves out K z^e >= eps sum|w| max(|u(x)|, 1); one level
        # down K (z/a)^e is below it, strictly
        steps = []

        class Recorded(Gaussian):
            def on_ray(self, x, d, r):
                steps.append(float(np.max(r)))
                return super().on_ray(x, d, r)

        m, x = 6, np.array([0.3])
        p = SelfSimilarParams(delta=11.5, a=1.6, m=m, tol=1e-12)
        u = Recorded(1.0)
        selfsim_laplacian(u, x, p)
        offs, w = diff_weights(m)
        _, bound = stencil_series(
            offs, w, range(2 * m, 2 * m + 30),
            lambda q: complex(u.line_deriv(x, np.ones(1), q)),
            u.sup_line_deriv)
        rounding = np.finfo(float).eps * 4 ** m * max(abs(u(x)), 1.0)
        z = min(steps) / m
        assert bound * z ** (2 * m + 30) >= rounding
        assert bound * (z / p.a) ** (2 * m + 30) < rounding

    def test_user_field(self):
        # differenced even derivatives up to order 6: the series at m = 3
        # is its order-6 term alone, with the remainder at order 7; at
        # m = 4 the series needs order 8
        fn = lambda pts: np.exp(-np.sum(np.atleast_2d(pts) ** 2, axis=-1))
        g, x = Gaussian(1.0), np.array([0.3])
        user = UserField(fn, decay_radius=8.0, deriv_bound=g.sup_line_deriv)
        p = SelfSimilarParams(delta=1.5, a=1.6, m=3, tol=1e-12)
        assert selfsim_laplacian(user, x, p) == pytest.approx(
            selfsim_laplacian(g, x, p), abs=1e-8)
        with pytest.raises(NotImplementedError):
            selfsim_laplacian(user, x, SelfSimilarParams(
                delta=1.5, a=1.6, m=4, tol=1e-12))

    def test_plane_wave_eigenvalue(self):
        p = SelfSimilarParams(delta=0.6, a=1.9, m=1)
        kh = 0.7
        u = PlaneWave(np.array([kh]))
        x = np.array([0.3])
        lap = selfsim_laplacian(u, x, p)
        assert lap == pytest.approx(-wm_dispersion(kh, p) * u(x), rel=1e-9)

    def test_plane_wave_eigenvalue_m2(self):
        p = SelfSimilarParams(delta=2.4, a=1.6, m=2)
        kh = 1.1
        u = PlaneWave(np.array([kh]))
        x = np.array([-0.2])
        lap = selfsim_laplacian(u, x, p)
        assert lap == pytest.approx(-wm_dispersion(kh, p) * u(x), rel=1e-9)

    def test_deep_levels_do_not_overflow(self):
        # m = 2, delta = 3.9: a^(-delta*s) overflows at the deepest levels
        p = SelfSimilarParams(delta=3.9, a=1.541, m=2)
        assert math.isfinite(selfsim_laplacian(Gaussian(1.0),
                                               np.array([0.3]), p))

    @pytest.mark.parametrize("sigma,reach", [(1e-2, None), (1e-4, 63),
                                             (1e-6, 45)])
    def test_narrow_field_at_m20(self, sigma, reach):
        # u_sigma(x + p h) = u_1((x + p h)/sigma), so the sum for
        # Gaussian(sigma) at (x, h) is the one for Gaussian(1) at
        # (x/sigma, h/sigma); where the series' line derivatives (through
        # order 70) overflow a double, DomainError names their reach
        kw = dict(delta=39.5, a=1.6, m=20, tol=1e-10)
        x = np.array([0.3 * sigma])
        if reach is not None:
            with pytest.raises(DomainError, match="only through order %d$"
                               % reach):
                selfsim_laplacian(Gaussian(sigma), x, SelfSimilarParams(**kw))
            return
        ref = selfsim_laplacian(Gaussian(1.0), np.array([0.3]),
                                SelfSimilarParams(h=1.0 / sigma, **kw))
        got = selfsim_laplacian(Gaussian(sigma), x, SelfSimilarParams(**kw))
        assert got == pytest.approx(ref, rel=1e-9)

    def test_gaussian_against_direct_sum(self):
        # high-precision reference: naive float summation loses the deep
        # negative levels to cancellation
        mp = pytest.importorskip("mpmath")
        p = SelfSimilarParams(delta=0.8, a=1.7, m=1)
        u = Gaussian(1.0)
        x = np.array([0.4])
        with mp.workdps(50):
            xa, aa = mp.mpf("0.4"), mp.mpf(1.7)
            direct = mp.nsum(
                lambda s: aa ** (-mp.mpf("0.8") * s)
                * (mp.exp(-(xa + aa ** s) ** 2) - 2 * mp.exp(-xa ** 2)
                   + mp.exp(-(xa - aa ** s) ** 2)),
                [-mp.inf, mp.inf])
            direct = float(direct)
        assert selfsim_laplacian(u, x, p) == pytest.approx(direct, abs=1e-10)


class TestWmEnergyDensity:
    @pytest.mark.parametrize("d,a,m,tol", [(5.75, 1.541, 3, 1e-10),
                                           (3.9, 1.541, 2, 1e-12)])
    def test_small_steps_near_delta_2m(self, d, a, m, tol):
        # near delta = 2m the deepest levels weigh a^(-delta*s) up to
        # 1e300: their differences must come from the Taylor form, not
        # from cancellation noise, and the weight from the log form
        p = SelfSimilarParams(delta=d, a=a, m=m, tol=tol)
        got = wm_energy_density(Gaussian(1.0), np.array([0.3]), p)
        want = 0.5 * mp_level_sum(0.3, p, forward(m), True)
        assert abs(got - want) <= 1e-10 * abs(want)

    def test_against_direct_sum(self):
        p = SelfSimilarParams(delta=0.9, a=1.8, m=1)
        u = Gaussian(1.0)
        x = np.array([0.2])
        direct = 0.0
        for s in range(-80, 80):
            h = p.a ** s
            diff = float(u(np.array([0.2 + h])) - u(x))
            direct += p.a ** (-p.delta * s) * diff * diff
        got = wm_energy_density(u, x, p, f_m=2.0)
        assert got == pytest.approx(direct, rel=1e-8)

    def test_scaling_under_h_dilation(self):
        # replacing h by a*h multiplies the density by a^delta
        u = Gaussian(1.0)
        x = np.array([0.0])
        p1 = SelfSimilarParams(delta=0.7, a=1.5, m=1, h=1.0)
        p2 = SelfSimilarParams(delta=0.7, a=1.5, m=1, h=1.5)
        e1 = wm_energy_density(u, x, p1)
        e2 = wm_energy_density(u, x, p2)
        assert e2 == pytest.approx(1.5 ** 0.7 * e1, rel=1e-9)


@pytest.mark.parametrize("level_sum", [selfsim_laplacian, wm_energy_density])
def test_field_sum_past_the_doubles(level_sum):
    # at h = 1e300 the direct levels reach far below s = 0, where the
    # weight a^(-delta*s) and the closed form's terms overflow: one
    # QuadratureError, and no warning on the way
    p = SelfSimilarParams(delta=1.5, a=1.5, h=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match="not finite"):
            level_sum(Gaussian(1.0), np.array([0.3]), p)


class TestWmLimitAmplitude:
    def test_equals_radial_constant(self):
        # for m = 1 and kh = 1 the limit is V(1, delta) = a_delta
        for d in (0.45, 0.9, 1.5):
            p = SelfSimilarParams(delta=d, a=1.5, m=1)
            assert wm_limit_amplitude(p, 1.0) == pytest.approx(
                a_delta(d), rel=1e-8)

    def test_kh_power_law(self):
        p = SelfSimilarParams(delta=0.8, a=1.5, m=1)
        v1 = wm_limit_amplitude(p, 1.0)
        v2 = wm_limit_amplitude(p, 2.0)
        assert v2 == pytest.approx(2.0 ** 0.8 * v1, rel=1e-8)

    def test_level_sum_converges_to_it(self):
        # |ln a| * omega^2 approaches the amplitude as a -> 1
        d, m, kh = 1.5, 1, 1.0
        lim = wm_limit_amplitude(SelfSimilarParams(delta=d, a=2.0, m=m), kh)
        errs = []
        for a in (1.5, 1.1, 1.02):
            p = SelfSimilarParams(delta=d, a=a, m=m)
            errs.append(abs(math.log(a) * wm_dispersion(kh, p) - lim))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-4
