"""Lattice potentials: validation, scaling factors, induced eigenvalues."""

import math

import numpy as np
import pytest

from fraclap.constants import (DomainError, c_standard, unit_sphere_moment,
                               v_integral)
from fraclap.potentials import (StiffnessMatrix, admissible_order,
                                induced_difference_matrix,
                                potential_eigenvalue, ring_potential,
                                scaling_factor, validate_stiffness)

NN = [[1.0, -1.0], [-1.0, 1.0]]   # nearest-neighbour pair


class TestStiffnessMatrix:
    def test_toeplitz_construction(self):
        v = StiffnessMatrix([1.0, -1.0])
        assert np.array_equal(v.matrix, np.array(NN))
        assert v.size == 2

    def test_larger_generators(self):
        v = StiffnessMatrix([2.0, -1.0, 0.5])
        expect = np.array([[2.0, -1.0, 0.5],
                           [-1.0, 2.0, -1.0],
                           [0.5, -1.0, 2.0]])
        assert np.array_equal(v.matrix, expect)

    def test_needs_two_generators(self):
        with pytest.raises(DomainError):
            StiffnessMatrix([1.0])


class TestValidate:
    def test_nearest_neighbour_valid(self):
        rep = validate_stiffness(NN)
        assert rep.valid and not rep.failures
        assert np.allclose(sorted(rep.eigenvalues), [0.0, 2.0])

    def test_identity_rejected(self):
        rep = validate_stiffness([[1.0, 0.0], [0.0, 1.0]])
        assert not rep.valid
        assert any("sum" in f for f in rep.failures)

    def test_zero_matrix_kernel_too_large(self):
        rep = validate_stiffness([[0.0, 0.0], [0.0, 0.0]])
        assert not rep.valid
        assert any("kernel" in f for f in rep.failures)

    def test_indefinite_rejected(self):
        rep = validate_stiffness([[-1.0, 1.0], [1.0, -1.0]])
        assert not rep.valid
        assert any("semidefinite" in f for f in rep.failures)

    def test_accepts_stiffness_object(self):
        assert validate_stiffness(StiffnessMatrix([1.0, -1.0])).valid


class TestScalingFactor:
    def test_nearest_neighbour(self):
        for alpha in (0.5, 1.0, 1.7):
            assert scaling_factor(NN, alpha) == -1.0

    def test_dilation_homogeneity(self):
        # spreading the same springs to lag 2 scales A_V by 2^alpha
        near = StiffnessMatrix([1.0, -1.0])
        far = StiffnessMatrix([1.0, 0.0, -1.0])
        for alpha in (0.5, 1.3, 2.4):
            assert scaling_factor(far, alpha) == pytest.approx(
                2.0 ** alpha * scaling_factor(near, alpha), rel=1e-14)

    def test_diagonal_irrelevant(self):
        a = scaling_factor([[1.0, -1.0], [-1.0, 1.0]], 1.2)
        b = scaling_factor([[7.0, -1.0], [-1.0, 7.0]], 1.2)
        assert a == b

    def test_domain(self):
        with pytest.raises(DomainError):
            scaling_factor(NN, 0.0)


class TestAdmissibleOrder:
    def test_plain_zero_sum(self):
        assert admissible_order(NN) == 2

    def test_second_moment_cancellation(self):
        assert admissible_order(induced_difference_matrix(2)) == 4

    def test_third_order_stencil(self):
        assert admissible_order(induced_difference_matrix(3)) == 6


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
            potential_eigenvalue([[1.0, 0.0], [0.0, 1.0]], 1.0, 1.0)

    def test_validate_false_skips_checks(self):
        v = induced_difference_matrix(2)      # kernel dimension 2
        got = potential_eigenvalue(v, 1.0, 1.0, validate=False)
        assert got == pytest.approx((2.0 - 4.0) * math.pi, rel=1e-12)

    @pytest.mark.parametrize("m,alphas", [
        (1, (0.6, 1.0, 1.3)), (2, (0.6, 1.3, 2.7)),
    ])
    def test_matches_continuum_normalization(self, m, alphas):
        # the order-m difference energy, read as a lattice potential,
        # reproduces -(1/2) U(n, alpha) V(m, alpha) k^alpha
        v = induced_difference_matrix(m)
        for alpha in alphas:
            got = potential_eigenvalue(v, alpha, 1.0, validate=False)
            want = -0.5 * unit_sphere_moment(1, alpha) * v_integral(m, alpha)
            assert got == pytest.approx(want, rel=1e-10)

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
        v = induced_difference_matrix(2)
        assert np.linalg.matrix_rank(v) == 1

    def test_m1_is_nearest_neighbour(self):
        assert np.array_equal(induced_difference_matrix(1), np.array(NN))

    def test_domain(self):
        with pytest.raises(DomainError):
            induced_difference_matrix(0)
        with pytest.raises(DomainError):
            induced_difference_matrix(1.5)


class TestRingPotential:
    def test_valid_stiffness(self):
        v = ring_potential([1.0, 0.3])
        rep = validate_stiffness(v)
        assert rep.valid, rep.failures

    def test_zero_row_sums(self):
        v = ring_potential([0.7, 0.2, 0.1])
        assert np.allclose(v @ np.ones(v.shape[0]), 0.0)

    def test_weight_constraints(self):
        with pytest.raises(DomainError):
            ring_potential([0.0, 1.0])
        with pytest.raises(DomainError):
            ring_potential([1.0, -0.1])
        with pytest.raises(DomainError):
            ring_potential([])
