"""Lattice potentials: validation, scaling factors, induced eigenvalues."""

import math

import numpy as np
import pytest

from fraclap.constants import (DomainError, c_standard, forward_weights,
                               unit_sphere_moment, v_integral)
from fraclap.potentials import (admissible_order, induced_difference_matrix,
                                potential_eigenvalue, ring_potential,
                                scaling_factor, validate_stiffness)

NN = ring_potential([1.0])          # nearest-neighbour spring (-1, 2, -1)
UNIT = np.arange(-1, 2)


class TestValidate:
    def test_nearest_neighbour_valid(self):
        rep = validate_stiffness(NN)
        assert rep.valid and not rep.failures
        assert np.allclose(rep.eigenvalues, [0.0, 3.0, 3.0])

    def test_identity_rejected(self):
        rep = validate_stiffness((UNIT, [0.0, 1.0, 0.0]))
        assert not rep.valid
        assert any("sum" in f for f in rep.failures)

    def test_zero_matrix_kernel_too_large(self):
        rep = validate_stiffness((UNIT, [0.0, 0.0, 0.0]))
        assert not rep.valid
        assert any("kernel" in f for f in rep.failures)

    def test_indefinite_rejected(self):
        rep = validate_stiffness((UNIT, [1.0, -2.0, 1.0]))
        assert not rep.valid
        assert any("semidefinite" in f for f in rep.failures)

    def test_asymmetric_rejected(self):
        rep = validate_stiffness((UNIT, [-2.0, 3.0, -1.0]))
        assert not rep.valid
        assert "not symmetric" in rep.failures

    @pytest.mark.parametrize("m", range(1, 9))
    def test_induced_stencils_valid(self, m):
        # the ring eigenvalues (2 sin(pi k/(2m+1)))^(2m) vanish at k = 0
        # alone; at m = 8 the smallest other one is 1.1e-7 of sum|w| = 4^8
        rep = validate_stiffness(induced_difference_matrix(m))
        assert rep.valid, rep.failures

    @pytest.mark.parametrize("v", [
        [[1.0, -1.0], [-1.0, 1.0]],                 # a dense matrix
        np.eye(3), 3.0,
        ([0], [0.0]),                               # L = 0
        ([0, 1, 2], [-1.0, 2.0, -1.0]),             # offsets not -L..L
        (UNIT, [-1.0, 2.0]),                        # one weight short
        (UNIT, [-1.0, math.nan, -1.0]),
    ])
    def test_not_a_stencil(self, v):
        with pytest.raises(DomainError):
            validate_stiffness(v)


class TestScalingFactor:
    def test_nearest_neighbour(self):
        # at odd integer alpha too: the half stencil's moment, not the
        # full stencil's signed sum
        for alpha in (0.5, 1.0, 1.7, 3.0):
            assert scaling_factor(NN, alpha) == -1.0

    def test_dilation_homogeneity(self):
        # spreading the same springs to lag 2 scales A_V by 2^alpha
        far = (np.arange(-2, 3), [-1.0, 0.0, 2.0, 0.0, -1.0])
        for alpha in (0.5, 1.3, 2.4):
            assert scaling_factor(far, alpha) == pytest.approx(
                2.0 ** alpha * scaling_factor(NN, alpha), rel=1e-14)

    def test_diagonal_irrelevant(self):
        # the lag-0 coupling, the dense matrix's diagonal
        a = scaling_factor((UNIT, [-1.0, 2.0, -1.0]), 1.2)
        b = scaling_factor((UNIT, [-1.0, 7.0, -1.0]), 1.2)
        assert a == b

    def test_ring_weights(self):
        # A_V = -sum_d weights[d-1] d^alpha: each spring at its own lag
        rng = np.random.default_rng(5)
        for _ in range(20):
            g = rng.uniform(0.1, 1.0, size=rng.integers(1, 6))
            alpha = rng.uniform(0.1, 1.9)
            want = -sum(gd * d ** alpha for d, gd in enumerate(g, start=1))
            got = scaling_factor(ring_potential(g), alpha)
            assert got == pytest.approx(want, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            scaling_factor(NN, 0.0)


class TestAdmissibleOrder:
    def test_plain_zero_sum(self):
        assert admissible_order(NN) == 2
        assert admissible_order(ring_potential([0.7, 0.2, 0.1])) == 2

    def test_second_moment_cancellation(self):
        assert admissible_order(induced_difference_matrix(2)) == 4

    def test_third_order_stencil(self):
        assert admissible_order(induced_difference_matrix(3)) == 6

    @pytest.mark.parametrize("m", range(1, 9))
    def test_no_order_cap(self, m):
        # the order-16 stencil has order 16
        assert admissible_order(induced_difference_matrix(m)) == 2 * m


class TestPotentialEigenvalue:
    def test_reference_value(self):
        got = potential_eigenvalue(NN, 1.0, 1.0, n=1)
        assert got == pytest.approx(-math.pi, abs=1e-12)

    def test_k_power_law(self):
        e1 = potential_eigenvalue(NN, 1.3, 1.0)
        e2 = potential_eigenvalue(NN, 1.3, 2.0)
        assert e2 == pytest.approx(2.0 ** 1.3 * e1, rel=1e-12)

    def test_negative_in_levy_range(self):
        for alpha in (0.4, 1.0, 1.8):
            assert potential_eigenvalue(NN, alpha, 1.0) < 0.0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            potential_eigenvalue(NN, 1.0, 0.0)
        with pytest.raises(DomainError):
            potential_eigenvalue(NN, 2.0, 1.0)       # distributional point
        with pytest.raises(DomainError):
            potential_eigenvalue(NN, 2.5, 1.0)       # beyond order 2
        with pytest.raises(DomainError):
            potential_eigenvalue((UNIT, [0.0, 1.0, 0.0]), 1.0, 1.0)
        with pytest.raises(DomainError):
            potential_eigenvalue([[1.0, -1.0], [-1.0, 1.0]], 1.0, 1.0)

    def test_induced_difference_validates(self):
        v = induced_difference_matrix(2)
        assert validate_stiffness(v).valid
        got = potential_eigenvalue(v, 1.0, 1.0)
        assert got == pytest.approx(-2.0 * math.pi, rel=1e-12)

    @pytest.mark.parametrize("m,alphas", [
        (1, (0.6, 1.3)), (2, (1.3, 2.7)), (3, (2.2, 4.6)), (4, (3.5, 7.1)),
        (5, (0.9, 8.3)), (6, (5.5, 9.3)),
    ])
    def test_matches_continuum_normalization(self, m, alphas):
        # the order-m difference energy, read as a lattice potential,
        # reproduces -(1/2) U(n, alpha) V(m, alpha) k^alpha
        v = induced_difference_matrix(m)
        for alpha in alphas:
            got = potential_eigenvalue(v, alpha, 1.0)
            want = -0.5 * unit_sphere_moment(1, alpha) * v_integral(m, alpha)
            assert got == pytest.approx(want, rel=1e-12)

    def test_sign_opposite_to_constant(self):
        # A_V and C_standard carry opposite signs wherever both are
        # defined and the potential is admissible
        rng = np.random.default_rng(7)
        for _ in range(5):
            v = ring_potential(rng.uniform(0.1, 1.0, size=2))
            for alpha in (0.5, 1.2, 1.9):
                av = scaling_factor(v, alpha)
                assert av * c_standard(1, alpha) <= 0.0


class TestInducedDifferenceMatrix:
    def test_rank_one(self):
        # the autocorrelation of the forward stencil c of (D - 1)^m: the
        # diagonal sums of the rank-one matrix c c^T
        for m in range(1, 9):
            c = forward_weights(m)[1]
            offs, w = induced_difference_matrix(m)
            assert np.array_equal(offs, np.arange(-m, m + 1))
            assert np.array_equal(w, np.correlate(c, c, "full"))

    def test_m1_is_nearest_neighbour(self):
        for got, want in zip(induced_difference_matrix(1), NN):
            assert np.array_equal(got, want)

    def test_domain(self):
        with pytest.raises(DomainError):
            induced_difference_matrix(0)
        with pytest.raises(DomainError):
            induced_difference_matrix(1.5)


class TestRingPotential:
    def test_zero_row_sums(self):
        offs, w = ring_potential([0.7, 0.2, 0.1])
        assert np.array_equal(offs, np.arange(-3, 4))
        assert np.allclose(w, [-0.1, -0.2, -0.7, 2.0, -0.7, -0.2, -0.1])
        assert np.sum(w) == pytest.approx(0.0, abs=1e-15)

    def test_valid_stiffness(self):
        rep = validate_stiffness(ring_potential([1.0, 0.3]))
        assert rep.valid, rep.failures
        rng = np.random.default_rng(11)
        for _ in range(200):
            g = rng.uniform(0.01, 1.0, size=rng.integers(1, 6))
            assert validate_stiffness(ring_potential(g)).valid

    def test_weight_constraints(self):
        for weights in ([0.0, 1.0], [1.0, -0.1], [], [[1.0]]):
            with pytest.raises(DomainError):
                ring_potential(weights)

    def test_non_finite_weights(self):
        # NaN passes both sign checks, since NaN < 0 and NaN <= 0 are False
        for weights in ([math.nan], [1.0, math.inf]):
            with pytest.raises(DomainError, match="finite"):
                ring_potential(weights)
