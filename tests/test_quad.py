"""Adaptive quadrature and the regularized half-line integral.

Frozen reference values come from mpmath (30 digits).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.constants import cos_moment, gamma, sin_half_pi
from fraclap.quad import (QuadratureError, finite_part, i_reg,
                          integrate_adaptive, kernel_moment, osc_power_tail,
                          reg_halfline)


# Both kernel forms are evaluated at 30 digits and rounded once: in double
# arithmetic the phase (alpha + 1)*arg carries an absolute rounding of
# rho^(-alpha-1) times a few ulps, which near a zero of the real part
# (xi = eps, alpha = 5, say) swamps the value itself.
def _at_30_digits(scalar):
    vec = np.frompyfunc(scalar, 3, 1)

    def kernel(xi, alpha, eps):
        if eps <= 0.0:
            raise ValueError("eps must be positive")
        with mpmath.workdps(30):
            return vec(np.asarray(xi, dtype=float), float(alpha),
                       float(eps)).astype(float)
    return kernel


@_at_30_digits
def reg_kernel(xi, alpha, eps):
    """Re (eps - i*xi)^(-alpha-1), the regularized power kernel."""
    return float(mpmath.re(mpmath.mpc(eps, -xi) ** -(mpmath.mpf(alpha) + 1)))


@_at_30_digits
def reg_kernel_rotated(xi, alpha, eps):
    """Re { i^(alpha+1) (xi + i*eps)^(-alpha-1) }, equivalent form."""
    p = mpmath.mpf(alpha) + 1
    return float(mpmath.re(mpmath.expjpi(p / 2) * mpmath.mpc(xi, eps) ** -p))


def gauss_derivs(q):
    # derivatives of exp(-t^2) at 0 alternate: (-1)^p (2p)!/p!
    p = q // 2
    return (-1.0) ** p * math.factorial(2 * p) / math.factorial(p)


class TestIntegrateAdaptive:
    def test_sine(self):
        val, err = integrate_adaptive(np.sin, 0.0, math.pi, tol=1e-12)
        assert val == pytest.approx(2.0, abs=1e-12)
        assert err < 1e-10

    def test_rejects_infinite_limits(self):
        # an infinite limit gives NaN panels that bisect to the panel
        # budget; it is refused before the integrand is evaluated
        calls = []

        def f(t):
            calls.append(t)
            return np.exp(-t * t)

        for lo, hi in ((0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                integrate_adaptive(f, lo, hi)
        assert calls == []

    def test_split_points_help_with_kinks(self):
        f = lambda t: np.abs(t - 0.5) ** 0.5
        val, _ = integrate_adaptive(f, 0.0, 1.0, tol=1e-11, points=[0.5])
        assert val == pytest.approx(2.0 / 3.0 * 0.5 ** 1.5 * 2.0, abs=1e-10)

    def test_budget_exhaustion_raises(self):
        f = lambda t: np.sin(1e4 * t)
        with pytest.raises(QuadratureError):
            integrate_adaptive(f, 0.0, 1.0, tol=1e-14, limit=4)

    def test_nan_integrand_raises(self, deadline):
        # a NaN estimate breaks the panel order: the loop once bisected one
        # end panel to rounding width and popped it again without end
        with deadline(5.0), pytest.raises(QuadratureError, match="finite"):
            integrate_adaptive(lambda r: np.full_like(r, np.nan), 0.0, 1.0,
                               limit=100)

    def test_oscillatory(self):
        val, _ = integrate_adaptive(lambda t: np.cos(7.0 * t), 0.0, 2.0,
                                    tol=1e-12)
        assert val == pytest.approx(math.sin(14.0) / 7.0, abs=1e-11)


class TestRegKernel:
    @given(st.floats(min_value=0.01, max_value=50.0),
           st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=1e-4, max_value=0.5))
    @settings(max_examples=60, deadline=None)
    def test_rotated_form_identical(self, xi, alpha, eps):
        a = reg_kernel(np.array([xi]), alpha, eps)[0]
        b = reg_kernel_rotated(np.array([xi]), alpha, eps)[0]
        assert a == pytest.approx(b, rel=1e-11, abs=1e-13)

    def test_pointwise_limit(self):
        # Re(eps - i xi)^(-a-1) -> -sin(pi a / 2) xi^(-a-1) as eps -> 0
        xi, a = 1.7, 0.9
        vals = [reg_kernel(np.array([xi]), a, e)[0]
                for e in (1e-3, 1e-5, 1e-7)]
        lim = -math.sin(0.5 * math.pi * a) * xi ** (-a - 1.0)
        assert vals[-1] == pytest.approx(lim, rel=1e-5)


class TestKernelMoment:
    def test_reference_value(self):
        got = kernel_moment(4, 1.3, 0.01, 0.7)
        assert got == pytest.approx(-0.1289566160288861747, rel=1e-12)

    @pytest.mark.parametrize("q,a,eps,cut", [(2, 0.6, 0.05, 1.2),
                                             (0, 2.4, 0.02, 0.9),
                                             (6, 3.1, 0.01, 0.5)])
    def test_against_direct_quadrature(self, q, a, eps, cut):
        direct, _ = integrate_adaptive(
            lambda t: t ** q * reg_kernel(t, a, eps), 0.0, cut,
            tol=1e-13, points=[eps, 10.0 * eps])
        assert kernel_moment(q, a, eps, cut) == pytest.approx(
            direct, rel=1e-9, abs=1e-12)

    def test_odd_order_rejected(self):
        with pytest.raises(ValueError):
            kernel_moment(3, 0.9, 0.01, 1.0)

    @pytest.mark.parametrize("q,a,cut", [(0, 0.6, 0.5), (2, 1.2, 0.3),
                                         (4, 2.5, 0.7), (0, 3.3, 0.25)])
    def test_eps_to_zero_is_linear(self, q, a, cut):
        # the eps -> 0 limit is the finite part at eps = 0: the eps > 0
        # moments approach it with error proportional to eps
        lim = kernel_moment(q, a, 0.0, cut)
        d1, d2 = (kernel_moment(q, a, eps, cut) - lim
                  for eps in (5e-4, 2.5e-4))
        assert d1 / d2 == pytest.approx(2.0, abs=0.02)


class TestOscPowerTail:
    def test_reference_value(self):
        # mpmath quadosc of cos(3 t) t^-2.3 over (40, inf)
        got, bound = osc_power_tail(3.0, 40.0, 2.3)
        assert got == pytest.approx(-3.8901893218665323517e-5, rel=1e-10)
        assert bound < 1e-15

    def test_tail_difference_is_finite_integral(self):
        # tail(lo) - tail(hi) must equal the quadrature over (lo, hi)
        w, s = 2.5, 3.1
        lo = 40.0
        hi = lo + 60.0 * 2.0 * math.pi / w
        seg, _ = integrate_adaptive(lambda t: np.cos(w * t) * t ** (-s),
                                    lo, hi, tol=1e-14)
        t_lo, _ = osc_power_tail(w, lo, s)
        t_hi, _ = osc_power_tail(w, hi, s)
        assert t_lo - t_hi == pytest.approx(seg, abs=1e-12)

    def test_small_phase_rejected(self):
        with pytest.raises(ValueError):
            osc_power_tail(1.0, 2.0, 1.5)


class TestIReg:
    def test_formula(self):
        a = 1.3
        assert i_reg(1.0, a) == pytest.approx(
            math.sin(0.5 * math.pi * a) / a, rel=1e-14)
        assert i_reg(2.0, a) == pytest.approx(
            math.sin(0.5 * math.pi * a) / a * 2.0 ** -a, rel=1e-14)

    def test_alpha_zero_limit(self):
        assert i_reg(1.0, 0.0) == pytest.approx(0.5 * math.pi, abs=1e-15)
        assert i_reg(1.0, 1e-6) == pytest.approx(0.5 * math.pi, abs=1e-5)

    def test_vanishes_at_even_integers(self):
        assert i_reg(1.0, 2.0) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            i_reg(-1.0, 0.5)
        with pytest.raises(ValueError):
            i_reg(1.0, -0.5)


class TestFinitePart:
    ALPHAS = [0.3, 1.7, 2.5, 3.3, 5.1]

    @pytest.mark.parametrize("a", ALPHAS)
    def test_gaussian(self, a):
        # finite part of int_0^inf exp(-r^2) r^(-1-a) dr = Gamma(-a/2) / 2;
        # the series of exp(-r^2) alternates, so the first term left out
        # bounds the rest
        taylor = {2 * k: (-1.0) ** k / math.factorial(k) for k in range(9)}
        val, err = finite_part(lambda r: np.exp(-r * r), a, taylor,
                               (1.0 / math.factorial(9), 18 - a), 1e-10,
                               30.0, points=[1.0])
        assert abs(val - 0.5 * math.gamma(-0.5 * a)) <= err

    @pytest.mark.parametrize("a", ALPHAS)
    def test_cosine(self, a):
        # finite part of int_0^inf cos(r) r^(-1-a) dr = Gamma(-a) cos(pi a/2)
        taylor = {2 * k: (-1.0) ** k / math.factorial(2 * k)
                  for k in range(9)}
        big = 80.0 * (a + 15.0)
        val, err = finite_part(np.cos, a, taylor,
                               (1.0 / math.factorial(18), 18 - a), 1e-10,
                               big, waves=[(1.0, 1.0)], points=2.0 * math.pi
                               * np.arange(1.0, big / (2.0 * math.pi)))
        exact = math.gamma(-a) * math.cos(0.5 * math.pi * a)
        assert abs(val - exact) <= err


class TestRegHalfline:
    def test_cosine_moment(self):
        # int_0^inf cos(xi) Re(eps-i xi)^(-a-1) dxi -> pi / (2 Gamma(a+1)),
        # -sin(pi a/2) times the m = 0 cosine finite part
        for a in (0.4, 1.7, 2.6):
            f, ferr = cos_moment(0, a)
            lead = -sin_half_pi(a)
            val, err = lead * f, abs(lead) * ferr
            exact = 0.5 * math.pi / gamma(a + 1.0)
            assert val == pytest.approx(exact, abs=5e-9)
            assert abs(val - exact) <= err < 1e-6

    def test_indicator_matches_closed_form(self):
        for a in (0.5, 1.0, 1.5):
            val, _ = reg_halfline(lambda t: 1.0 * (t < 1.0), a,
                                  derivs=lambda q: 0.0 if q else 1.0)
            assert val == pytest.approx(i_reg(1.0, a), abs=1e-9)

    def test_gaussian_profile(self):
        a = 1.2
        val, _ = reg_halfline(lambda t: np.exp(-t * t), a,
                              derivs=gauss_derivs)
        # independent spectral route: scaling the regularized integral by
        # -2 Gamma(a+1)/pi gives the operator value at the origin
        import mpmath as mp
        spec = -mp.gamma(a + 1) / mp.pi * 2 * val
        oper = mp.quad(lambda k: -(k ** a) * mp.sqrt(mp.pi)
                       * mp.e ** (-k * k / 4), [0, mp.inf]) / mp.pi
        assert float(spec) == pytest.approx(float(oper), rel=1e-8)

    @pytest.mark.parametrize("a", [0.6, 1.2, 2.5, 3.3])
    def test_is_the_eps_limit(self, a):
        # direct quadrature of the eps-regularized integral approaches the
        # closed-form limit linearly in eps; one Richardson step recovers it
        f = lambda t: np.exp(-t * t)
        lim, _ = reg_halfline(f, a, derivs=gauss_derivs)

        def direct(eps):
            return integrate_adaptive(lambda t: f(t) * reg_kernel(t, a, eps),
                                      0.0, 30.0, tol=1e-11,
                                      points=[eps, 10.0 * eps, 1.0])[0]

        eps = 5e-3
        big, small = direct(eps), direct(0.5 * eps)
        assert (big - lim) / (small - lim) == pytest.approx(2.0, abs=0.02)
        assert abs(2.0 * small - big - lim) < 1e-4

    def test_even_alpha_keeps_its_moment(self):
        # at even alpha only the q = alpha moment survives: the limit
        # pi / (2 Gamma(alpha + 1)) of the cosine moment holds there too
        for a in (2.0, 4.0):
            val, _ = reg_halfline(np.cos, a,
                                  derivs=lambda q: (-1.0) ** (q // 2))
            assert val == pytest.approx(0.5 * math.pi / gamma(a + 1.0),
                                        rel=1e-15)

    def test_requires_taylor_data(self):
        with pytest.raises(ValueError):
            reg_halfline(np.cos, 2.5, derivs={0: 1.0})
