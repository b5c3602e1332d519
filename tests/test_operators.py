"""Dense operator constructions: generators, R matrices, crossing data."""

import numpy as np

from tllab.core import ModelParams, loop_parameter, omega, zeta
from tllab.operators import (
    crossing_pair,
    embed_pair,
    hamiltonian,
    partial_transpose,
    permutation_matrix,
    r_asymptotic,
    r_matrix,
    tl_generator,
)

SPINS = ("1/2", "1", "3/2")


def _rel(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)) + np.max(np.abs(b)))


def test_permutation_swaps_factors():
    rng = np.random.default_rng(21)
    for d in (2, 3, 4):
        p = permutation_matrix(d)
        assert _rel(p @ p, np.eye(d * d)) < 1e-15
        a = rng.normal(size=d) + 1j * rng.normal(size=d)
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert _rel(p @ np.kron(a, b), np.kron(b, a)) < 1e-14


def test_generator_quadratic_relation():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        x = tl_generator(params)
        c = params.coupling
        assert _rel(x @ x, c * x) < 1e-13, spin


def test_generator_braid_relations():
    for spin in SPINS:
        params = ModelParams.create(3, spin)
        x = tl_generator(params)
        d = params.site_dim
        x1 = embed_pair(x, 1, 3, d)
        x2 = embed_pair(x, 2, 3, d)
        assert _rel(x1 @ x2 @ x1, x1) < 1e-13, spin
        assert _rel(x2 @ x1 @ x2, x2) < 1e-13, spin


def test_generator_distant_commutativity():
    params = ModelParams.create(4, "1/2")
    x = tl_generator(params)
    d = params.site_dim
    x1 = embed_pair(x, 1, 4, d)
    x3 = embed_pair(x, 3, 4, d)
    assert _rel(x1 @ x3, x3 @ x1) < 1e-14


def test_generator_is_scaled_rank_one_idempotent():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        x = tl_generator(params)
        c = params.coupling
        assert np.linalg.matrix_rank(x, tol=1e-10) == 1
        assert _rel((x / c) @ (x / c), x / c) < 1e-12


def _fused_projector(params):
    """The rank-one idempotent ((-1)^(2s)/(2s+1)) P X onto the fused module."""
    d = params.site_dim
    sign = 1.0 if params.twice_spin % 2 == 0 else -1.0
    return (sign / d) * (permutation_matrix(d) @ tl_generator(params))


def test_fused_projector_idempotent_and_proportional_to_degenerate_r():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        proj = _fused_projector(params)
        assert np.linalg.matrix_rank(proj, tol=1e-10) == 1
        assert _rel(proj @ proj, proj) < 1e-12
        r_deg = r_matrix(1.0 / params.q, params)
        # the degenerate R matrix is a scalar multiple of the projector
        scale = np.trace(r_deg) / np.trace(proj)
        assert _rel(r_deg, scale * proj) < 1e-12


def test_hamiltonian_is_bond_sum():
    for n_sites, spin in ((2, "1/2"), (3, "1"), (4, "1/2")):
        params = ModelParams.create(n_sites, spin)
        x = tl_generator(params)
        d = params.site_dim
        direct = sum(
            embed_pair(x, b, n_sites, d) for b in range(1, n_sites)
        )
        assert _rel(hamiltonian(params), direct) < 1e-14


def test_two_site_hamiltonian_spectrum():
    # one bond: eigenvalues are the loop parameter once and zero elsewhere
    params = ModelParams.create(2, "1/2")
    eigs = np.sort_complex(np.linalg.eigvals(hamiltonian(params)))
    expected = np.sort_complex(np.array([loop_parameter(0.5), 0.0, 0.0, 0.0]))
    assert np.max(np.abs(eigs - expected)) < 1e-12


def test_r_at_one_is_scaled_permutation():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        d = params.site_dim
        r1 = r_matrix(1.0, params)
        assert _rel(r1, omega(params.q) * permutation_matrix(d)) < 1e-13


def test_r_at_inverse_q_is_rank_one():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        r = r_matrix(1.0 / params.q, params)
        assert np.linalg.matrix_rank(r, tol=1e-8) == 1, spin


def test_yang_baxter_at_random_points():
    rng = np.random.default_rng(22)
    params = ModelParams.create(2, "1")
    d = params.site_dim
    eye = np.eye(d)
    u1, u2, u3 = np.exp(rng.uniform(-0.3, 0.3, 3) + 1j * rng.uniform(0, 2 * np.pi, 3))
    r12 = np.kron(r_matrix(u1 / u2, params), eye)
    r23 = np.kron(eye, r_matrix(u2 / u3, params))
    # place R13 on factors 1 and 3 of the triple product space
    p = permutation_matrix(d)
    p23 = np.kron(eye, p)
    r13 = p23 @ np.kron(r_matrix(u1 / u3, params), eye) @ p23
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    assert _rel(lhs, rhs) < 1e-12


def test_unitarity_scalar():
    rng = np.random.default_rng(23)
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        d = params.site_dim
        p = permutation_matrix(d)
        u = complex(np.exp(rng.uniform(-0.3, 0.3)) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        r = r_matrix(u, params)
        r21 = p @ r_matrix(1.0 / u, params) @ p
        assert _rel(r @ r21, zeta(u, params.q) * np.eye(d * d)) < 1e-12


def test_crossing_matrix_squares_to_sign():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        v, m = crossing_pair(params)
        d = params.site_dim
        sign = (-1.0) ** params.twice_spin
        assert _rel(v @ v, sign * np.eye(d)) < 1e-12
        assert _rel(m, v.T @ v) < 1e-12
        # m is diagonal with consecutive powers of the deformation parameter
        off = m - np.diag(np.diag(m))
        assert np.max(np.abs(off)) < 1e-12
        ratios = np.diag(m)[1:] / np.diag(m)[:-1]
        assert np.max(np.abs(ratios - ratios[0])) < 1e-10


def test_crossing_relation_of_r():
    rng = np.random.default_rng(24)
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        d = params.site_dim
        v, _ = crossing_pair(params)
        u = complex(np.exp(rng.uniform(-0.3, 0.3)) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
        v1 = np.kron(v, np.eye(d))
        lhs = r_matrix(u, params)
        rhs = v1 @ partial_transpose(r_matrix(-1.0 / (u * params.q), params), d, 2) @ v1
        assert _rel(lhs, rhs) < 1e-12, spin


def test_asymptotic_r_transpose_inverse():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        d = params.site_dim
        r_plus = r_asymptotic("+", params)
        r_minus = r_asymptotic("-", params)
        full_t = partial_transpose(partial_transpose(r_minus, d, 1), d, 2)
        assert _rel(full_t @ r_plus, np.eye(d * d)) < 1e-12
        full_t = partial_transpose(partial_transpose(r_plus, d, 1), d, 2)
        assert _rel(full_t @ r_minus, np.eye(d * d)) < 1e-12


def test_asymptotic_r_commutes_with_m_pair():
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        _, m = crossing_pair(params)
        mm = np.kron(m, m)
        for sign in ("+", "-"):
            r = r_asymptotic(sign, params)
            assert _rel(mm @ r, r @ mm) < 1e-12


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(25)
    d = 3
    op = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    for factor in (1, 2):
        assert _rel(partial_transpose(partial_transpose(op, d, factor), d, factor), op) < 1e-15
