"""Normalization constants against high-precision references.

Reference values in this file were computed with mpmath at 30 significant
digits and frozen in.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.constants import (DomainError, a_delta, c_standard,
                               c_standard_levy, central_diff_power,
                               diff_weights, forward_weights, gamma,
                               norm_constants, sin_half_pi, stencil_moment,
                               stencil_series, unit_sphere_moment,
                               v_integral, v_integral_quadrature)
from fraclap.fields import Gaussian
from fraclap.lattice import SelfSimilarParams
from fraclap.quad import integrate_adaptive


def apply_diff(u, x, h, m):
    """Evaluate the order-2m difference of a callable at x with step h."""
    offs, w = diff_weights(m)
    return sum(wi * u(x + p * h) for p, wi in zip(offs, w))


class TestGamma:
    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert gamma(2.5) == pytest.approx(0.75 * math.sqrt(math.pi), rel=1e-14)

    def test_integers_exact(self):
        for k in range(1, 12):
            assert gamma(float(k)) == pytest.approx(math.factorial(k - 1),
                                                    rel=1e-13)

    def test_reference_values(self):
        assert gamma(4.7) == pytest.approx(15.431411600047431712, rel=1e-13)
        assert gamma(0.123) == pytest.approx(7.6624172619623119553, rel=1e-13)

    @given(st.floats(min_value=0.05, max_value=25.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-11)

    @pytest.mark.parametrize("x", [-10.999725, 150.0])
    def test_against_mpmath(self, x):
        # near a pole on the reflection branch, and far up the real axis
        import mpmath as mp
        assert gamma(x) == pytest.approx(float(mp.gamma(x)), rel=1e-14)

    def test_reflection(self):
        for x in (0.3, 0.77, 1.9, -0.4):
            lhs = gamma(x) * gamma(1.0 - x)
            assert lhs == pytest.approx(math.pi / math.sin(math.pi * x),
                                        rel=1e-12)


class TestSinHalfPi:
    def test_matches_library_sin(self):
        for a in np.linspace(0.01, 7.9, 57):
            assert sin_half_pi(float(a)) == pytest.approx(
                math.sin(0.5 * math.pi * a), abs=1e-14)

    def test_exact_zeros_at_even_integers(self):
        for a in (0.0, 2.0, 4.0, 6.0, 128.0):
            assert sin_half_pi(a) == 0.0

    def test_exact_units_at_odd_integers(self):
        assert sin_half_pi(1.0) == 1.0
        assert sin_half_pi(3.0) == -1.0
        assert sin_half_pi(5.0) == 1.0


class TestDiffWeights:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
    def test_low_moments_vanish(self, m):
        offs, w = diff_weights(m)
        # weights are exact small integers scaled by (-1)^(m+1)
        for q in range(0, 2 * m, 2):
            assert abs(np.sum(w * offs.astype(float) ** q)) < 1e-9
        assert abs(np.sum(w)) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_leading_moment(self, m):
        offs, w = diff_weights(m)
        lead = np.sum(w * offs.astype(float) ** (2 * m))
        assert lead == pytest.approx((-1.0) ** (m + 1) * math.factorial(2 * m),
                                     rel=1e-12)

    def test_symmetry(self):
        offs, w = diff_weights(3)
        assert np.array_equal(offs, -offs[::-1])
        assert np.array_equal(w, w[::-1])

    def test_apply_diff_quadratic(self):
        # second symmetric difference of x^2 is exactly 2 h^2
        f = lambda t: np.asarray(t, dtype=float) ** 2
        val = apply_diff(f, 0.3, 0.1, 1)
        assert val == pytest.approx(2.0 * 0.01, rel=1e-9)


# (stencil, order): central order-2m differences and forward (D - 1)^k
STENCILS = ([pytest.param(diff_weights(m), 2 * m, id="central%d" % m)
             for m in (1, 2, 3, 4, 5, 6, 20)]
            + [pytest.param(forward_weights(k), k, id="forward%d" % k)
               for k in range(1, 7)])


class TestStencil:
    @pytest.mark.parametrize("stencil,order", STENCILS)
    def test_exact_moments(self, stencil, order):
        moments = [stencil_moment(*stencil, q) for q in range(order + 1)]
        assert all(type(mq) is int for mq in moments)
        assert moments[:-1] == [0] * order
        assert abs(moments[-1]) == math.factorial(order)

    def test_fractional_weights(self):
        # integer-valued weights sum in Python integers, any other as a
        # float: a half weight is not truncated to 0
        offs, w = [-1, 0, 1], [0.5, -1.0, 0.5]
        assert stencil_moment(offs, w, 2) == 1.0
        assert stencil_moment(offs, w, 2.5) == 1.0
        assert stencil_moment([1, 2], [0.25, 0.5], 1.5) == pytest.approx(
            0.25 + 0.5 * 2.0 ** 1.5, rel=1e-15)

    @pytest.mark.parametrize("stencil,order", STENCILS)
    def test_small_step_series_is_the_difference(self, stencil, order):
        # at step 0.01 the lattice's series, orders k to k + 29, is within
        # 1e-12 of the difference even at m = 20, and a series cut after
        # order k + 1 leaves out no more than its K z^e; the direct
        # difference cancels 2 digits per order and up to 12 more for the
        # weights, which mpmath carries
        mp = pytest.importorskip("mpmath")
        offs, w = stencil
        x, z, u = 0.3, 0.01, Gaussian(1.0)

        def series(stop):
            return stencil_series(
                offs, w, range(order, stop),
                lambda q: float(u.line_deriv(np.array([x]), np.ones(1), q)),
                u.sup_line_deriv)

        with mp.workdps(40 + 2 * order + 12):
            want = mp.fsum(int(wp) * mp.exp(-(mp.mpf(x) + int(p) * mp.mpf(z))
                                            ** 2) for p, wp in zip(offs, w))
            c, _ = series(order + 30)
            got = sum(cq * z ** q for q, cq in c.items())
            assert abs(got - float(want)) <= 1e-12 * abs(want)
            c, bound = series(order + 2)
            head = mp.fsum(mp.mpf(cq) * mp.mpf(z) ** q for q, cq in c.items())
            assert abs(head - want) <= bound * z ** (order + 2)


class TestOrderCheck:
    @pytest.mark.parametrize("m", [0, 21, 2.0])
    def test_every_site_rejects(self, m):
        sites = [lambda: diff_weights(m),
                 lambda: central_diff_power(m, 1.0),
                 lambda: v_integral(m, 1.0),
                 lambda: SelfSimilarParams(delta=1.0, a=2.0, m=m)]
        for site in sites:
            with pytest.raises(DomainError,
                               match=r"^m must be an integer in 1\.\.20$"):
                site()


class TestCentralDiffPower:
    def test_even_integer_zero_exact(self):
        # vanishing alternating binomial sums at integer alpha/2 below m
        assert central_diff_power(2, 2.0) == 0.0
        assert central_diff_power(3, 2.0) == 0.0
        assert central_diff_power(3, 4.0) == 0.0

    def test_m1_value(self):
        # 2^(1+a) * sum reduces to 4^a... sanity against direct summation
        a = 1.3
        direct = 2.0 ** (1 + a) * (-1.0) * sum(
            math.comb(2, 1 + p) * (-1.0) ** p * p ** a for p in range(1, 2))
        assert central_diff_power(1, a) == pytest.approx(direct, rel=1e-13)


class TestCStandard:
    def test_one_over_pi(self):
        assert c_standard(1, 1.0) == pytest.approx(1.0 / math.pi, abs=1e-15)

    def test_reference_values(self):
        assert c_standard(2, 0.75) == pytest.approx(0.12439621568589201732,
                                                    rel=1e-13)
        assert c_standard(3, 2.7) == pytest.approx(-0.69655722024485202053,
                                                   rel=1e-13)

    def test_levy_form_agrees(self):
        for n in (1, 2, 3):
            for a in np.linspace(0.05, 1.95, 39):
                assert c_standard(n, float(a)) == pytest.approx(
                    c_standard_levy(n, float(a)), rel=1e-12)

    def test_distributional_zeros(self):
        assert c_standard(1, 2.0) == 0.0
        assert c_standard(2, 4.0) == 0.0

    def test_negative_between_two_and_four(self):
        for a in (2.3, 3.0, 3.9):
            assert c_standard(1, a) < 0.0


class TestVIntegral:
    def test_v11_is_pi(self):
        assert v_integral(1, 1.0) == pytest.approx(math.pi, rel=1e-13)

    def test_reference_value(self):
        assert v_integral(2, 1.7) == pytest.approx(3.3643202884967719711,
                                                   rel=1e-12)

    # the large orders integrate -4^m sin^(2m): the stencil's own cosine
    # sum cancels there
    @pytest.mark.parametrize("m,a", [(1, 0.4), (1, 1.9), (2, 2.7),
                                     (3, 0.9), (3, 5.5), (8, 9.1),
                                     (12, 17.3), (20, 5.5)])
    def test_closed_form_vs_quadrature(self, m, a):
        assert v_integral(m, a) == pytest.approx(
            v_integral_quadrature(m, a), rel=1e-9)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_near_even_alpha_against_mpmath(self, m):
        # at even alpha = 2j < 2m the closed form is 0/0: its power sum
        # and the sine both vanish; 90 digits carry the reference through
        # the cancellation, and 1e-40 past 2j stands in for the limit
        mp = pytest.importorskip("mpmath")
        offs, w = diff_weights(m)
        for j in range(1, m):
            for d in (0.0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3,
                      -1e-3):
                a = 2 * j + d
                with mp.workdps(90):
                    aa = mp.mpf(a) + (mp.mpf(10) ** -40 if d == 0.0 else 0)
                    half = mp.fsum(int(wp) * mp.mpf(int(p)) ** aa
                                   for p, wp in zip(offs, w) if p > 0)
                    want = float(mp.pi * half / (mp.gamma(aa + 1)
                                                 * mp.sin(mp.pi * aa / 2)))
                assert v_integral(m, a) == pytest.approx(want, rel=1e-13)

    def test_positive(self):
        for m, a in ((1, 0.2), (2, 3.3), (4, 7.7)):
            assert v_integral(m, a) > 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            v_integral(1, 2.5)


class TestUnitSphereMoment:
    def test_n1(self):
        assert unit_sphere_moment(1, 1.3) == pytest.approx(2.0, rel=1e-14)

    def test_n3_closed_form(self):
        for a in (0.5, 1.0, 2.5, 4.0):
            assert unit_sphere_moment(3, a) == pytest.approx(
                4.0 * math.pi / (a + 1.0), rel=1e-12)

    def test_n2_against_quadrature(self):
        a = 1.7
        val, _ = integrate_adaptive(
            lambda t: np.abs(np.cos(t)) ** a, 0.0, 2.0 * math.pi,
            tol=1e-12, points=[0.5 * math.pi, math.pi, 1.5 * math.pi])
        assert unit_sphere_moment(2, a) == pytest.approx(val, rel=1e-10)


class TestNormConstants:
    def test_factorization(self):
        nc = norm_constants(2, 3, 1.4)
        assert nc.a_factor == pytest.approx(nc.u_moment * nc.v_radial,
                                            rel=1e-14)
        assert nc.c_general == pytest.approx(1.0 / nc.a_factor, rel=1e-14)

    def test_a_positive(self):
        for m in (1, 2, 3, 4, 5):
            for n in (1, 2, 3):
                for a in (0.3, 1.1, 2 * m - 0.1):
                    assert norm_constants(m, n, a).a_factor > 0.0

    def test_m1_ties_to_standard(self):
        # factorized constant relates to the direct normalization as A = 2/C
        for n in (1, 2, 3):
            nc = norm_constants(1, n, 0.8)
            assert nc.a_factor == pytest.approx(2.0 / nc.c_standard,
                                                rel=1e-12)

    def test_distributional_flag(self):
        assert norm_constants(2, 1, 2.0).distributional
        assert not norm_constants(2, 1, 1.9).distributional

    def test_window(self):
        with pytest.raises(DomainError):
            norm_constants(1, 1, 2.5)


class TestADelta:
    def test_unit_value(self):
        assert a_delta(1.0, 1.0, 1.0) == pytest.approx(math.pi, rel=1e-13)

    def test_matches_radial_integral(self):
        # the continuum amplitude is the m=1 radial integral for zeta = 1
        for d in (0.3, 0.9, 1.5):
            assert a_delta(d) == pytest.approx(v_integral(1, d), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            a_delta(2.0)
        with pytest.raises(DomainError):
            a_delta(0.5, h=-1.0)
