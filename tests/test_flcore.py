"""Singular-integral representations and their plane-wave eigenvalues."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fraclap import flcore
from fraclap.constants import DomainError, cos_moment, norm_constants
from fraclap.fields import Gaussian, PlaneWave, UserField
from fraclap.flcore import (fl_apply, fl_eigenvalue, fl_order_m,
                            fl_regularized, fl_standard, sphere_rule)
from fraclap.oracle import gaussian_reference
from fraclap.quad import QuadratureError

# reference values for the unit Gaussian, computed to 20 digits with
# arbitrary-precision quadrature of the defining integrals
GAUSS_1D = {
    (0.0, 1.5): -1.4464090846320771425,
    (0.9, 1.5): 0.19928414532440982451,
    (0.4, 0.7): -0.76805671778516326923,
    (0.4, 3.4): -2.6641155719627260425,
}
GAUSS_2D_R05_A12 = -1.3526496361592911396
GAUSS_3D_R07_A08 = -0.99669882075647430155


class TestSphereRule:
    @pytest.mark.parametrize("n,measure", [(1, 2.0), (2, 2.0 * math.pi),
                                           (3, 4.0 * math.pi)])
    def test_total_weight(self, n, measure):
        dirs, wts = sphere_rule(n)
        assert np.sum(wts) == pytest.approx(measure, rel=1e-12)
        assert np.allclose(np.linalg.norm(np.atleast_2d(dirs), axis=-1), 1.0)

    def test_integrates_even_polynomial(self):
        # mean of z^2 over the sphere is 1/3 in three dimensions
        dirs, wts = sphere_rule(3)
        got = np.sum(wts * dirs[:, 2] ** 2) / (4.0 * math.pi)
        assert got == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_3d_is_legendre_times_trapezoid(self):
        # cos(theta) on Gauss-Legendre nodes (outer), phi on 2k equal steps
        dirs, wts = sphere_rule(3)
        kk = 8
        c, wc = np.polynomial.legendre.leggauss(kk)
        want_dirs, want_wts = [], []
        for ci, wi in zip(c, wc):
            for j in range(2 * kk):
                p, s = math.pi * j / kk, math.sqrt(1.0 - ci * ci)
                want_dirs.append([s * math.cos(p), s * math.sin(p), ci])
                want_wts.append(wi * math.pi / kk)
        assert np.max(np.abs(dirs - want_dirs)) <= 1e-15
        assert np.max(np.abs(wts - want_wts)) <= 1e-15

    def test_rejects_higher_dimension(self):
        with pytest.raises(DomainError):
            sphere_rule(4)


class TestStandard:
    @pytest.mark.parametrize("x,alpha", [(0.0, 1.5), (0.9, 1.5), (0.4, 0.7)])
    def test_gaussian_reference_values(self, x, alpha):
        u = Gaussian(1.0)
        res = fl_standard(u, np.array([x]), alpha)
        assert res.value == pytest.approx(GAUSS_1D[(x, alpha)], abs=2e-9)

    def test_gaussian_2d(self):
        u = Gaussian(1.0, n=2)
        x = np.array([0.5, 0.0])
        res = fl_standard(u, x, 1.2)
        assert res.value == pytest.approx(GAUSS_2D_R05_A12, abs=2e-9)

    def test_gaussian_3d(self):
        u = Gaussian(1.0, n=3)
        x = np.array([0.0, 0.0, 0.7])
        res = fl_standard(u, x, 0.8)
        assert res.value == pytest.approx(GAUSS_3D_R07_A08, abs=2e-9)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, 2.5, -0.3])
    def test_levy_window(self, alpha):
        u = Gaussian(1.0)
        with pytest.raises(DomainError):
            fl_standard(u, np.array([0.0]), alpha)

    def test_result_metadata(self):
        res = fl_standard(Gaussian(1.0), np.array([0.0]), 1.5)
        assert res.representation == "standard"
        assert res.n == 1 and res.m == 1 and res.alpha == 1.5


class TestOrderM:
    def test_matches_standard_in_levy_range(self):
        u = Gaussian(1.0)
        x = np.array([0.9])
        base = fl_order_m(u, x, 1.5, 1).value
        assert base == pytest.approx(GAUSS_1D[(0.9, 1.5)], abs=2e-9)
        for m in (2, 3):
            assert fl_order_m(u, x, 1.5, m).value == pytest.approx(
                base, rel=1e-7)

    def test_above_levy_range(self):
        u = Gaussian(1.0)
        res = fl_order_m(u, np.array([0.4]), 3.4, 2)
        assert res.value == pytest.approx(GAUSS_1D[(0.4, 3.4)], abs=5e-9)

    def test_error_carries_the_radial_error(self):
        # at small alpha the decay-radius term of the radial error grows
        # like 1/alpha and exceeds the radial tolerance it was asked for
        u, x, alpha, m, tol = Gaussian(1.0), np.array([0.3]), 0.18, 2, 1e-9
        coef = abs(norm_constants(m, 1, alpha).c_general)
        rtol = tol / max(coef, 1e-3)
        _, rerr = flcore._radial_singular(u, x, alpha, m,
                                          min(14, u.max_line_deriv), rtol)
        assert rerr > rtol
        assert fl_order_m(u, x, alpha, m, tol=tol).error >= coef * rerr

    def test_order_window(self):
        u = Gaussian(1.0)
        with pytest.raises(DomainError):
            fl_order_m(u, np.array([0.0]), 2.5, 1)
        with pytest.raises(DomainError):
            fl_order_m(u, np.array([0.0]), 4.0, 2)


class TestRegularized:
    @pytest.mark.parametrize("x,alpha,tol", [
        (0.0, 1.5, 5e-8), (0.9, 1.5, 5e-8), (0.4, 0.7, 5e-8),
        (0.4, 3.4, 2e-7),
    ])
    def test_gaussian_reference_values(self, x, alpha, tol):
        u = Gaussian(1.0)
        res = fl_regularized(u, np.array([x]), alpha)
        assert res.value == pytest.approx(GAUSS_1D[(x, alpha)], abs=tol)

    @pytest.mark.parametrize("alpha", [0.0, 2.0, 4.0])
    def test_integer_branch_exact(self, alpha):
        u = Gaussian(1.0)
        for x in (0.0, 0.7, 1.3):
            got = fl_regularized(u, np.array([x]), alpha)
            assert got.value == gaussian_reference(alpha, 1.0, x)
            assert got.error == 0.0

    def test_continuous_across_two(self):
        # the fractional branch stays within tol of the closed form however
        # close alpha comes to the even integer
        tol = 1e-9
        for n in (1, 3):
            u, x = Gaussian(1.0, n=n), np.full(n, 0.5 / math.sqrt(n))
            for alpha in (2.0 + s * d for d in (1e-3, 1e-6, 1e-9)
                          for s in (-1.0, 1.0)):
                want = TestClosedFormND.exact(n, alpha, 0.5)
                got = fl_regularized(u, x, alpha, tol=tol).value
                assert abs(got - want) <= tol

    def test_negative_alpha(self):
        with pytest.raises(DomainError):
            fl_regularized(Gaussian(1.0), np.array([0.0]), -0.1)

    def test_alpha_zero_is_negation(self):
        u = Gaussian(1.0)
        x = np.array([0.3])
        assert fl_regularized(u, x, 0.0).value == -float(u(x))

    def test_plane_wave_2d(self):
        k = 1.3
        u = PlaneWave(np.array([k, 0.0]))
        x = np.array([0.2, -0.1])
        res = fl_regularized(u, x, 1.4)
        assert complex(res.value) == pytest.approx(
            -(k ** 1.4) * complex(u(x)), rel=1e-8)


class TestApply:
    def test_each_name_runs_its_form(self):
        u, x = Gaussian(1.0), np.array([0.4])
        assert fl_apply("standard", u, x, 1.2) == fl_standard(u, x, 1.2)
        assert fl_apply("order_m", u, x, 2.5, m=2) == fl_order_m(u, x, 2.5, 2)
        assert (fl_apply("regularized", u, x, 1.2, tol=1e-10)
                == fl_regularized(u, x, 1.2))


class TestUserField:
    @pytest.mark.parametrize("rep,bound", [
        ("standard", None), ("order_m", None), ("regularized", None),
        ("standard", 30.0)],
        ids=["standard", "order_m", "regularized", "standard-bound30"])
    def test_matches_gaussian(self, rep, bound):
        # a wrapped callable runs on differenced derivatives up to order 6;
        # its derivative bound is a function of the order or one number
        g = Gaussian(1.0)
        fn = lambda pts: np.exp(-np.sum(np.atleast_2d(pts) ** 2, axis=-1))
        user = UserField(fn, n=1, decay_radius=8.0,
                         deriv_bound=bound or g.sup_line_deriv)
        x = np.array([0.3])
        form = {"standard": lambda u: fl_standard(u, x, 1.2),
                "order_m": lambda u: fl_order_m(u, x, 1.2, 2),
                "regularized": lambda u: fl_regularized(u, x, 1.2)}[rep]
        assert form(user).value == pytest.approx(form(g).value, abs=1e-7)

    def test_nan_ends_in_one_error(self, deadline):
        # NaN beyond |x| = 3, inside the declared decay radius 8: the radial
        # quadrature raises instead of bisecting without end
        g = Gaussian(1.0)
        fn = lambda pts: np.where(np.abs(pts[..., 0]) >= 3.0, np.nan,
                                  np.exp(-np.sum(pts ** 2, axis=-1)))
        user = UserField(fn, n=1, decay_radius=8.0,
                         deriv_bound=g.sup_line_deriv)
        with deadline(10.0), pytest.raises(QuadratureError, match="finite"):
            fl_standard(user, np.array([0.3]), 1.2)

    @pytest.mark.parametrize("rep", flcore.REPRESENTATIONS)
    def test_refused_beyond_one_dimension(self, rep):
        # a wrapped callable has no closed-form sphere mean in 2-D
        fn = lambda pts: np.exp(-np.sum(pts ** 2, axis=-1))
        user = UserField(fn, n=2, decay_radius=8.0, deriv_bound=30.0)
        with pytest.raises(DomainError, match="sphere mean"):
            fl_apply(rep, user, np.array([0.3, 0.1]), 1.2, m=2)


class TestClosedFormND:
    """Gaussian values in 2-D and 3-D against the closed form
    -(-Delta)^(alpha/2) exp(-|x|^2/s^2) = -s^-alpha 2^alpha
    Gamma((alpha+n)/2) / Gamma(n/2) 1F1((alpha+n)/2; n/2; -|x|^2/s^2)."""

    @staticmethod
    def exact(n, alpha, r, sigma=1.0):
        import mpmath
        a, h = mpmath.mpf(alpha), mpmath.mpf(n) / 2
        z = -(mpmath.mpf(r) / sigma) ** 2
        return float(-mpmath.mpf(sigma) ** -a * 2 ** a
                     * mpmath.gamma(a / 2 + h) / mpmath.gamma(h)
                     * mpmath.hyp1f1(a / 2 + h, h, z))

    # points on the diagonal at |x| = r for sigma = 1, and two points
    # whose reported error once fell short of the actual one
    CASES = [pytest.param(rep, alpha, n, r * np.ones(n) / math.sqrt(n), 1.0,
                          id="%s-%s-%s-%s" % (rep, alpha, n, r))
             for rep, alpha in [("standard", 0.7), ("standard", 1.6),
                                ("order_m", 2.5), ("regularized", 1.3),
                                ("regularized", 3.3)]
             for n in (2, 3) for r in (0.0, 0.8)]
    CASES.append(pytest.param("standard", 1.8382404838364503, 2,
                              np.array([-0.07115044720265384, 0.0]),
                              0.7257872456317662,
                              id="standard-1.838-2-axis-sigma0.726"))
    CASES.append(pytest.param("regularized", 4.7, 3, np.zeros(3), 1.0,
                              id="regularized-4.7-3-0.0"))

    @pytest.mark.parametrize("rep,alpha,n,x,sigma", CASES)
    def test_gaussian(self, rep, alpha, n, x, sigma):
        u = Gaussian(sigma, n=n)
        form = {"standard": lambda: fl_standard(u, x, alpha),
                "order_m": lambda: fl_order_m(u, x, alpha, 2),
                "regularized": lambda: fl_regularized(u, x, alpha)}[rep]
        want = self.exact(n, alpha, float(np.linalg.norm(x)), sigma)
        res = form()
        assert abs(res.value - want) <= 1e-9 * max(1.0, abs(want))
        assert abs(res.value - want) <= res.error

    def test_known_3d_bound_miss(self):
        # a 3-D value that the refining sphere rules once left 6.2e-11 off
        # at tol 1.4e-11 while reporting 5.3e-11
        u, alpha = Gaussian(0.6231841205930923, n=3), 3.7804087977312175
        tol = 1.3793846129180302e-11
        x = np.array([-0.5293955062823285, -0.5779815281573842,
                      0.4620526600802961])
        res = fl_order_m(u, x, alpha, 2, tol=tol)
        want = self.exact(3, alpha, float(np.linalg.norm(x)), u.sigma)
        assert abs(res.value - want) <= res.error
        assert abs(res.value - want) <= tol

    def test_tighter_tol_is_no_less_accurate(self):
        # halving the matching radius past the point where the rounding of
        # the series head takes over once made tol 1e-11 25 times less
        # accurate here than tol 1e-10
        u, x = Gaussian(1.0, n=3), np.zeros(3)
        want = self.exact(3, 4.7, 0.0)
        err = {tol: abs(fl_regularized(u, x, 4.7, tol=tol).value - want)
               for tol in (1e-10, 1e-11, 1e-12)}
        assert err[1e-11] <= err[1e-10]
        assert err[1e-12] <= err[1e-10]

    @given(st.sampled_from(["standard", "order_m", "regularized"]),
           st.integers(1, 3), st.floats(0.02, 0.98), st.floats(0.6, 1.4),
           st.lists(st.floats(-1.2, 1.2), min_size=3, max_size=3),
           st.floats(-11.0, -7.0))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_error_covers_the_closed_form(self, rep, n, frac, sigma, xs,
                                          log_tol):
        # order_m runs at m = 2; alpha spans each form's window
        alpha = frac * {"standard": 2.0, "order_m": 4.0,
                        "regularized": 5.0}[rep]
        assume(rep != "regularized" or abs(alpha - 2.0) > 2e-3
               and abs(alpha - 4.0) > 2e-3)
        u, x, tol = Gaussian(sigma, n=n), np.array(xs[:n]), 10.0 ** log_tol
        res = {"standard": lambda: fl_standard(u, x, alpha, tol=tol),
               "order_m": lambda: fl_order_m(u, x, alpha, 2, tol=tol),
               "regularized": lambda: fl_regularized(u, x, alpha, tol=tol),
               }[rep]()
        want = self.exact(n, alpha, float(np.linalg.norm(x)), sigma)
        assert abs(res.value - want) <= res.error


class TestEigenvalue:
    @pytest.mark.parametrize("rep,alpha,m", [
        ("standard", 0.5, 1), ("standard", 1.5, 1),
        ("order_m", 2.5, 2), ("order_m", 4.5, 3),
        ("regularized", 0.5, 1), ("regularized", 3.5, 1),
    ])
    def test_matches_power_law(self, rep, alpha, m):
        for k in (0.5, 1.0, 2.0):
            got = fl_eigenvalue(rep, alpha, k, n=1, m=m)
            assert got == pytest.approx(-(k ** alpha), rel=1e-7)

    @pytest.mark.parametrize("alpha", [2.707543549660725, 5.131])
    def test_regularized_meets_its_tolerance(self, alpha):
        # the cos profile's body spans ~200 periods; with one starting
        # panel its Kronrod and Gauss estimates could agree by accident
        k = 1.7
        got = fl_eigenvalue("regularized", alpha, k, tol=1e-10)
        assert abs(got + k ** alpha) <= 1e-10 * k ** alpha

    def test_dimension_independent(self):
        for n in (1, 2, 3):
            got = fl_eigenvalue("standard", 1.2, 1.5, n=n)
            assert got == pytest.approx(-(1.5 ** 1.2), rel=1e-7)

    @staticmethod
    def _count_factors(monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return cos_moment(*args)

        flcore._plane_wave_factor.cache_clear()
        monkeypatch.setattr(flcore, "cos_moment", counted)
        return calls

    def test_regularized_sweep_computes_one_cos_moment(self, monkeypatch):
        # the cos moment does not depend on k, so a sweep computes it once
        calls = self._count_factors(monkeypatch)
        for k in (0.5, 1.0, 2.0):
            fl_eigenvalue("regularized", 0.9, k)
        assert calls == [(0, 0.9, 1e-12)]

    def test_standard_sweep_computes_one_v(self, monkeypatch):
        # V(m, alpha) does not depend on k either: the default four-point
        # eig sweep computes it once for each stencil order
        calls = self._count_factors(monkeypatch)
        for rep, m in (("standard", 1), ("order_m", 2)):
            for k in (0.5, 1.0, 1.5, 2.0):
                fl_eigenvalue(rep, 1.2, k, m=m)
        assert calls == [(1, 1.2, 1e-12), (2, 1.2, 1e-12)]

    @given(st.floats(0.01, 13.9), st.floats(0.3, 3.0), st.floats(-10.0, -8.0))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_regularized_error_covers_the_power_law(self, alpha, k, log_tol):
        # the cosine tail starts where osc_power_tail's asymptotic series
        # holds at every alpha up to the field's order limit 14
        tol = 10.0 ** log_tol
        res = fl_regularized(PlaneWave([k]), np.zeros(1), alpha, tol=tol)
        got = fl_eigenvalue("regularized", alpha, k, tol=tol)
        assert got == complex(res.value).real
        assert abs(got + k ** alpha) <= res.error

    def test_plane_wave_error_covers_the_power_law(self):
        k = 1.3
        alphas = [0.05 + 0.5 * j for j in range(8)] + [3.95]
        for form, extra, limit in ((fl_standard, (), 2.0),
                                   (fl_order_m, (2,), 4.0),
                                   (fl_regularized, (), 4.0)):
            for n in (1, 2, 3):
                pw = PlaneWave(np.full(n, k / math.sqrt(n)))
                x = np.linspace(0.3, -0.4, n)
                want = [-(k ** a) * complex(pw(x)) for a in alphas]
                for a, w in zip(alphas, want):
                    for tol in (1e-8, 1e-10):
                        if a < limit:
                            res = form(pw, x, a, *extra, tol=tol)
                            assert abs(res.value - w) <= res.error, (n, a)

    def test_regularized_needs_taylor_data_beyond_alpha(self):
        # a plane wave's derivatives end at order 14
        with pytest.raises(DomainError):
            fl_eigenvalue("regularized", 14.0 + 1e-3, 1.0)

    def test_bad_inputs(self):
        with pytest.raises(DomainError):
            fl_eigenvalue("standard", 1.0, 0.0)
        with pytest.raises(DomainError):
            fl_eigenvalue("nope", 1.0, 1.0)
