"""Spectral reference path: in-repo FFT, multiplier application, and the
closed-form Gaussian references.

The free-space reference values were computed with mpmath (30 digits).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fraclap.oracle import (GridField, dft_fl, fft, gaussian_reference,
                            hermite_poly, periodic_image_tail)

FREE_SPACE_A15_X0 = -1.4464090846320771425   # operator of exp(-x^2), a=1.5


def naive_dft(x):
    n = x.size
    j = np.arange(n)
    return np.exp(-2j * math.pi * np.outer(j, j) / n) @ x


class TestFFT:
    def test_matches_naive_dft(self):
        rng = np.random.default_rng(11)
        z = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert np.allclose(fft(z), naive_dft(z), atol=1e-11)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal(512) + 1j * rng.standard_normal(512)
        assert np.allclose(fft(fft(z), inverse=True), z, atol=1e-12)

    def test_impulse(self):
        z = np.zeros(8, dtype=complex)
        z[0] = 1.0
        assert np.allclose(fft(z), np.ones(8), atol=1e-14)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            fft(np.ones(12))

    @given(st.integers(min_value=2, max_value=6))
    @settings(max_examples=5, deadline=None)
    def test_parseval(self, logn):
        n = 2 ** logn
        rng = np.random.default_rng(n)
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        lhs = np.sum(np.abs(fft(z)) ** 2)
        assert lhs == pytest.approx(n * np.sum(np.abs(z) ** 2), rel=1e-12)


class TestGridField:
    def test_grid_layout(self):
        g = GridField(np.zeros(16), 8.0)
        assert g.spacing == pytest.approx(0.5)
        assert g.grid[0] == pytest.approx(-4.0)
        assert g.grid[-1] == pytest.approx(3.5)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            GridField(np.zeros(100), 8.0)
        with pytest.raises(ValueError):
            GridField(np.zeros(4), 8.0)


class TestDftFl:
    def setup_method(self):
        self.L = 32.0
        self.N = 2048
        xs = np.linspace(-self.L / 2, self.L / 2, self.N, endpoint=False)
        self.xs = xs
        self.gf = GridField(np.exp(-xs ** 2), self.L)

    def test_alpha_zero_is_negation(self):
        out = dft_fl(self.gf, 0.0)
        assert np.allclose(out, -self.gf.samples, atol=1e-12)

    def test_alpha_two_matches_closed_form(self):
        out = dft_fl(self.gf, 2.0)
        want = np.array([gaussian_reference(2, 1.0, x) for x in self.xs])
        assert np.max(np.abs(out - want)) < 1e-10

    def test_alpha_four_matches_closed_form(self):
        out = dft_fl(self.gf, 4.0)
        want = np.array([gaussian_reference(4, 1.0, x) for x in self.xs])
        assert np.max(np.abs(out - want)) < 5e-7

    def test_matches_independent_fourier_series(self):
        # direct trigonometric sum, no FFT involved
        a = 0.8
        out = dft_fl(self.gf, a)
        j = np.arange(1, 400)
        k = 2.0 * math.pi * j / self.L
        coef = -k ** a * np.sqrt(math.pi) * np.exp(-k ** 2 / 4.0)
        for x in (0.0, 1.25, -3.5):
            series = 2.0 * np.sum(coef * np.cos(k * x)) / self.L
            idx = int(round((x + self.L / 2) / self.gf.spacing))
            assert out[idx] == pytest.approx(series, abs=1e-11)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(256)
        v = rng.standard_normal(256)
        a, L = 1.3, 16.0
        lhs = dft_fl(GridField(u + 2.0 * v, L), a)
        rhs = dft_fl(GridField(u, L), a) + 2.0 * dft_fl(GridField(v, L), a)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestGaussianReference:
    def test_alpha_zero(self):
        assert gaussian_reference(0, 1.0, 0.7) == pytest.approx(
            -math.exp(-0.49), rel=1e-14)

    def test_alpha_two(self):
        # Laplacian of exp(-x^2): (4x^2 - 2) exp(-x^2)
        x = 0.9
        want = (4 * x * x - 2.0) * math.exp(-x * x)
        assert gaussian_reference(2, 1.0, x) == pytest.approx(want, rel=1e-13)

    def test_sigma_scaling(self):
        s = 1.7
        assert gaussian_reference(2, s, 0.0) == pytest.approx(
            -2.0 / s ** 2, rel=1e-13)

    def test_unsupported_alpha(self):
        with pytest.raises(ValueError):
            gaussian_reference(3, 1.0, 0.0)


class TestPeriodicImageTail:
    def test_closes_gap_to_free_space(self):
        # periodic spectral value minus free-space value must equal the
        # image-tail sum; free-space reference frozen from mpmath, and
        # scaled by sigma^-a for the narrower Gaussian exp(-(x/sigma)^2)
        L, N, a = 16.0, 1024, 1.5
        xs = np.linspace(-L / 2, L / 2, N, endpoint=False)
        for sigma in (1.0, 0.8):
            out = dft_fl(GridField(np.exp(-(xs / sigma) ** 2), L), a)
            gap = out[N // 2] - sigma ** -a * FREE_SPACE_A15_X0
            assert periodic_image_tail(0.0, a, L, sigma) == pytest.approx(
                gap, abs=1e-9)

    def test_monotone_in_box_size(self):
        a = 0.7
        tails = [abs(periodic_image_tail(0.0, a, L)) for L in (16, 32, 64)]
        assert tails[0] > tails[1] > tails[2]

    def test_local_regime_is_zero(self):
        assert periodic_image_tail(0.3, 2.0, 16.0) == 0.0

    def test_too_close_to_image_rejected(self):
        with pytest.raises(ValueError):
            periodic_image_tail(7.5, 0.9, 16.0)


class TestHermitePoly:
    def test_against_fields_module(self):
        from fraclap.fields import hermite_poly as hp2
        t = np.linspace(-2, 2, 7)
        for q in (0, 1, 4):
            assert np.allclose(hermite_poly(q, t), hp2(q, t), rtol=1e-14)
