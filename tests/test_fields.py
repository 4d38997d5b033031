"""Test fields: plane waves, Gaussians, and user-supplied profiles."""

import math
import warnings

import numpy as np
import pytest

from fraclap.fields import Field, Gaussian, PlaneWave, UserField, hermite_poly


class TestHermite:
    def test_first_few(self):
        t = np.array([0.7])
        assert hermite_poly(0, t)[0] == 1.0
        assert hermite_poly(1, t)[0] == pytest.approx(1.4)
        assert hermite_poly(2, t)[0] == pytest.approx(4 * 0.49 - 2)
        assert hermite_poly(3, t)[0] == pytest.approx(8 * 0.7 ** 3 - 12 * 0.7)

    def test_recurrence(self):
        t = np.linspace(-2, 2, 11)
        lhs = hermite_poly(5, t)
        rhs = 2 * t * hermite_poly(4, t) - 8 * hermite_poly(3, t)
        assert np.allclose(lhs, rhs, rtol=1e-12)


class TestPlaneWave:
    def test_call(self):
        k = np.array([0.8, -0.3])
        u = PlaneWave(k)
        x = np.array([1.0, 2.0])
        assert u(x) == pytest.approx(np.exp(1j * (0.8 - 0.6)))

    def test_line_deriv_scaling(self):
        u = PlaneWave(np.array([1.2]))
        x = np.array([0.4])
        d = np.array([1.0])
        base = u(x)
        for q in (1, 2, 5):
            assert u.line_deriv(x, d, q) == pytest.approx(
                (1.2j) ** q * base, rel=1e-12)

    def test_laplacian_power(self):
        k = np.array([0.6, 0.8])   # |k| = 1
        u = PlaneWave(k)
        x = np.array([0.3, -0.2])
        for p in (1, 2):
            assert u.laplacian_power(x, p) == pytest.approx(
                (-1.0) ** p * u(x), rel=1e-12)

    @pytest.mark.parametrize("k", [1e-300, 1e-170, 1e170, 1e300])
    def test_wavenumber_at_the_ends_of_the_doubles(self, k):
        # |k| neither underflows nor overflows where k itself does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for vec in ([k], [0.0, -k], [0.0, 0.0, k]):
                assert PlaneWave(np.array(vec)).wavenumber == k

    def test_no_decay_radius(self):
        with pytest.raises(Exception):
            PlaneWave(np.array([1.0])).decay_radius(1e-12)


class TestGaussian:
    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf,
                                       1e-300, 1e300])
    def test_rejects_sigma_whose_square_is_not_finite(self, sigma):
        # sigma^2 divides every value; 1e-300 and 1e300 square to 0 and inf
        with pytest.raises(ValueError, match="sigma"):
            Gaussian(sigma)

    def test_call_shift(self):
        u = Gaussian(2.0, center=np.array([1.0]), n=1)
        assert u(np.array([1.0])) == pytest.approx(1.0)
        assert u(np.array([3.0])) == pytest.approx(math.exp(-1.0))

    def test_on_ray_is_shifted_gaussian(self):
        u = Gaussian(1.0, n=2)
        x = np.array([0.5, 0.5])
        d = np.array([1.0, 0.0])
        r = np.linspace(-2, 2, 9)
        got = u.on_ray(x, d, r)
        want = np.exp(-((0.5 + r) ** 2 + 0.25))
        assert np.allclose(got, want, rtol=1e-13)

    def test_line_deriv_matches_finite_difference(self):
        u = Gaussian(1.3, n=2)
        x = np.array([0.4, -0.7])
        d = np.array([3.0 / 5.0, 4.0 / 5.0])
        for q, h, tol in ((2, 1e-4, 1e-6), (4, 1e-2, 1e-3)):
            # central difference of the ray restriction
            offs = np.arange(-q // 2, q // 2 + 1)
            coef = [math.comb(q, j) * (-1.0) ** j for j in range(q + 1)]
            vals = u.on_ray(x, d, offs * h)
            fd = sum(c * v for c, v in zip(coef[::-1], vals)) / h ** q
            assert u.line_deriv(x, d, q) == pytest.approx(fd, rel=tol)

    def test_laplacian_matches_hermite_form(self):
        # 1-D: Laplacian of exp(-x^2) is (4x^2 - 2) exp(-x^2)
        u = Gaussian(1.0, n=1)
        x = np.array([0.9])
        want = (4 * 0.81 - 2.0) * math.exp(-0.81)
        assert u.laplacian_power(x, 1) == pytest.approx(want, rel=1e-12)

    def test_laplacian_power_isotropy(self):
        u = Gaussian(1.0, n=2)
        r = 0.8
        a = u.laplacian_power(np.array([r, 0.0]), 2)
        b = u.laplacian_power(np.array([0.0, r]), 2)
        c = u.laplacian_power(np.array([r / math.sqrt(2)] * 2), 2)
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-10)

    def test_decay_radius(self):
        u = Gaussian(1.0, n=1)
        x = np.array([0.0])
        R = u.decay_radius(x, 1e-12)
        assert abs(u(np.array([R]))) <= 1e-12
        assert abs(u(np.array([0.5 * R]))) > 1e-12

    def test_sup_line_deriv_bounds_samples(self):
        u = Gaussian(1.0, n=1)
        sup = u.sup_line_deriv(4)
        d = np.array([1.0])
        for x0 in np.linspace(-3, 3, 25):
            val = abs(u.line_deriv(np.array([x0]), d, 4))
            assert val <= sup * (1.0 + 1e-9)


class TestUserField:
    def test_wraps_callable(self):
        fn = lambda pts: np.exp(-np.sum(np.atleast_2d(pts) ** 2, axis=-1))
        u = UserField(fn, n=1, decay_radius=8.0, deriv_bound=30.0)
        g = Gaussian(1.0, n=1)
        x = np.array([0.3])
        assert u(x) == pytest.approx(g(x), rel=1e-12)

    def test_numeric_line_derivs(self):
        fn = lambda pts: np.exp(-np.sum(np.atleast_2d(pts) ** 2, axis=-1))
        u = UserField(fn, n=1, decay_radius=8.0, deriv_bound=30.0)
        g = Gaussian(1.0, n=1)
        x = np.array([0.2])
        d = np.array([1.0])
        for q in (2, 4, 6):
            assert u.line_deriv(x, d, q) == pytest.approx(
                g.line_deriv(x, d, q), rel=1e-4)


class TestSphereMean:
    """The integral of u(x + r theta) over the unit sphere in closed form."""

    @staticmethod
    def _exact(n, w, r, sigma):
        # the Gaussian's sphere mean at |x - c| = w, 30 digits
        import mpmath
        with mpmath.workdps(30):
            w, r = mpmath.mpf(w), abs(mpmath.mpf(r))
            z = 2 * r * w / mpmath.mpf(sigma) ** 2
            peak = 2 * mpmath.pi * mpmath.exp(-((r - w) / sigma) ** 2)
            if n == 2:
                return float(peak * mpmath.besseli(0, z) * mpmath.exp(-z))
            return float(peak * (-mpmath.expm1(-2 * z) / z if z else 2))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("z", [0.0, 1e-8, 1.0, 10.0, 63.9, 64.1, 1e3,
                                   1e8])
    def test_gaussian_matches_mpmath(self, n, z):
        # r = w puts the peak at 1, so the angular factor is all there is;
        # 63.9 and 64.1 sit on either side of the switch to the series
        sigma = 0.8
        w = math.sqrt(z / 2.0) * sigma      # z = 2 r w / sigma^2 at r = w
        r = w or 0.6                        # z = 0: w = 0 and any r
        u = Gaussian(sigma, center=0.3, n=n)
        x = u.center + w * np.eye(n)[0]
        radii = np.array([r, -r])
        got = u.sphere_mean(x, radii)
        want = self._exact(n, np.linalg.norm(x - u.center), r, sigma)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gaussian_matches_a_sphere_rule(self, n):
        from fraclap.flcore import sphere_rule
        u = Gaussian(1.1, center=np.array([0.2, -0.1, 0.4])[:n], n=n)
        x, r = np.array([0.5, 0.3, -0.2])[:n], np.array([0.1, 0.7, 1.6])
        dirs, wts = sphere_rule(n)
        assert np.allclose(u.sphere_mean(x, r), u.on_ray(x, dirs, r) @ wts,
                           rtol=1e-12, atol=0.0)

    def test_one_dimension_is_the_two_point_sum(self):
        fn = lambda pts: np.exp(-np.sum(pts ** 2, axis=-1))
        x, r = np.array([0.3]), np.array([0.0, 0.4, 2.0])
        for u in (Gaussian(1.0), UserField(fn, decay_radius=8.0)):
            assert np.array_equal(u.sphere_mean(x, r),
                                  u(x + r[:, None]) + u(x - r[:, None]))


class TestFieldBase:
    def test_plane_wave_reports_wavenumber(self):
        k = np.array([0.0, 2.0])
        assert PlaneWave(k).wavenumber == pytest.approx(2.0)


class TestDirectionStack:
    """on_ray and line_deriv take an (ndirs, n) stack of directions and
    give the per-direction values along a trailing axis."""

    x = np.array([0.5, -0.2, 0.9])
    dirs = np.random.default_rng(3).standard_normal((7, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    @staticmethod
    def _fields():
        fn = lambda pts: np.exp(-np.sum((pts - 0.2) ** 2, axis=-1) / 1.7)
        return [
            (Gaussian(1.3, center=np.array([0.1, -0.4, 0.3])), range(7)),
            (PlaneWave(np.array([0.8, -1.1, 0.5])), range(7)),
            (UserField(fn, n=3, decay_radius=9.0, deriv_bound=30.0),
             (0, 2, 4, 6)),
        ]

    def test_on_ray(self):
        r = np.linspace(-1.5, 2.5, 12).reshape(3, 4)
        for u, _ in self._fields():
            got = u.on_ray(self.x, self.dirs, r)
            assert got.shape == r.shape + (len(self.dirs),)
            for j, d in enumerate(self.dirs):
                assert np.allclose(got[..., j], u.on_ray(self.x, d, r),
                                   rtol=1e-14, atol=1e-14)

    def test_line_deriv(self):
        for u, orders in self._fields():
            for q in orders:
                got = u.line_deriv(self.x, self.dirs, q)
                assert np.shape(got) == (len(self.dirs),)
                for j, d in enumerate(self.dirs):
                    one = u.line_deriv(self.x, d, q)
                    assert abs(got[j] - one) <= 1e-14 * max(1.0, abs(one))
