"""Scalar building blocks: omega, the loop parameter, and model parameters."""

import numpy as np
import pytest

from tllab.core import (
    DomainError,
    ModelParams,
    deformation_residual,
    format_spin,
    loop_parameter,
    omega,
    omega_prime,
    parse_spin,
    pi_phase,
    scaled_residual,
    solve_deformation,
    zeta,
)


def test_omega_basic_symmetries():
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = complex(rng.uniform(0.3, 2.0), rng.uniform(-1.0, 1.0))
        assert abs(omega(1.0 / u) + omega(u)) < 1e-12
        assert abs(omega(-u) + omega(u)) < 1e-12


def test_omega_prime_matches_difference_quotient():
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(10):
        u = complex(rng.uniform(0.5, 1.8), rng.uniform(-0.8, 0.8))
        fd = (omega(u + h) - omega(u - h)) / (2.0 * h)
        assert abs(omega_prime(u) - fd) < 1e-8


def test_omega_rejects_zero():
    with pytest.raises(DomainError):
        omega(0.0)


def test_loop_parameter_at_half():
    assert abs(loop_parameter(0.5) - (-2.5)) < 1e-15


def test_zeta_factorizes():
    q = 0.5
    u = 1.3 - 0.4j
    expected = omega(u / q) * omega(1.0 / (u * q))
    assert abs(zeta(u, q) - expected) < 1e-12


def test_pi_phase_special_values():
    assert abs(pi_phase(0.0) - 1.0) < 1e-15
    assert abs(pi_phase(1.0) + 1.0) < 1e-15
    assert abs(pi_phase(0.5) - 1j) < 1e-15
    assert abs(pi_phase(2.0) - 1.0) < 1e-15
    assert abs(pi_phase(-0.5) + 1j) < 1e-15


def test_deformation_parameter_spin_half_is_exact():
    big_q = solve_deformation(0.5, 1)
    assert abs(big_q - (-2.0)) < 1e-12
    assert deformation_residual(big_q, 0.5, 1) < 1e-12


def test_deformation_parameter_higher_spins():
    # published six digit values at q = 0.5
    expected = {2: -1.784976j, 3: 0.62853 - 1.335719j}
    for twice_spin, ref in expected.items():
        big_q = solve_deformation(0.5, twice_spin)
        assert abs(big_q - ref) < 5e-6, (twice_spin, big_q)
        assert deformation_residual(big_q, 0.5, twice_spin) < 1e-12


def test_deformation_defining_relation():
    # sum_{j=0}^{2s} Q^{2j} = c Q^{2s} must hold for the selected branch
    c = loop_parameter(0.5)
    for twice_spin in (1, 2, 3):
        big_q = solve_deformation(0.5, twice_spin)
        total = sum(big_q ** (2 * j) for j in range(twice_spin + 1))
        assert abs(total - c * big_q**twice_spin) < 1e-10


def test_parse_and_format_spin():
    assert parse_spin("1/2") == 1
    assert parse_spin("1") == 2
    assert parse_spin("3/2") == 3
    assert parse_spin(1.5) == 3
    assert parse_spin(2) == 4
    assert format_spin(1) == "1/2"
    assert format_spin(2) == "1"
    assert format_spin(3) == "3/2"
    with pytest.raises(DomainError):
        parse_spin("2/5")


def test_model_params_create():
    params = ModelParams.create(3, "1", q=0.5)
    assert params.site_dim == 3
    assert params.twice_spin == 2
    assert params.homogeneous
    assert abs(params.coupling - loop_parameter(0.5)) < 1e-12
    assert len(params.thetas) == 3
    weights = params.site_weights()
    assert weights.shape == (3,)


def test_model_params_rejects_resonant_inhomogeneities():
    # a theta ratio equal to a small power of q collides with an R matrix zero
    with pytest.raises(DomainError):
        ModelParams.create(2, "1/2", thetas=(1.0, 0.5))


def test_model_params_rejects_bad_deformation_value():
    with pytest.raises(DomainError):
        ModelParams.create(2, "1/2", big_q=3.7 + 0.1j)


def test_scaled_residual_zero_for_equal_arrays():
    a = np.array([[1.0 + 1j, 2.0], [0.5, -3.0j]])
    assert scaled_residual(a, a.copy()) == 0.0
    b = a.copy()
    b[0, 0] += 1e-3
    assert scaled_residual(a, b) > 1e-5
