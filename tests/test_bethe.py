"""Eigenvalue ansatz, Bethe residuals, energies, and twist bookkeeping."""

import numpy as np

import pytest

from tllab.bethe import (
    BetheSolution,
    _lambda_terms,
    bethe_residuals,
    energy,
    eval_lambda,
    newton_system,
    shift_eigenvalue,
    twist_from_roots,
)
from tllab.core import ModelParams, omega
from tllab.operators import hamiltonian
from tllab.transfer import random_thetas, transfer_matrix

SPINS = ("1/2", "1", "3/2")

# exact two site root: u = (3 + i)/sqrt(5)
ROOT_N2 = (3.0 + 1.0j) / np.sqrt(5.0)

# six digit open chain roots for N = 3
ROOTS_N3 = ((1.388730 + 0.267261j,), (1.224745 + 0.707107j,))


def test_exact_two_site_root_has_zero_residual():
    params = ModelParams.create(2, "1/2")
    res = bethe_residuals((ROOT_N2,), params, "open", scaled=True)
    assert np.max(np.abs(res)) < 1e-14


def test_tabulated_three_site_roots_are_on_shell():
    params = ModelParams.create(3, "1/2")
    for roots in ROOTS_N3:
        res = bethe_residuals(roots, params, "open", scaled=True)
        assert np.max(np.abs(res)) < 1e-5  # six digit inputs


def test_lambda_at_one_is_the_transfer_scalar():
    params = ModelParams.create(2, "1/2")
    lam = eval_lambda(1.0, (ROOT_N2,), params, "open")
    scalar = params.coupling * omega(params.q) ** 4
    assert abs(lam - scalar) < 1e-10 * (1.0 + abs(scalar))


def test_lambda_is_open_transfer_eigenvalue_for_every_spin():
    # the same root gives an eigenvalue of the transfer at each site spin
    probe = 0.93 + 0.41j
    for spin in SPINS:
        params = ModelParams.create(2, spin)
        lam = eval_lambda(probe, (ROOT_N2,), params, "open")
        eigs = np.linalg.eigvals(transfer_matrix(probe, params, "open").matrix)
        gap = np.min(np.abs(eigs - lam))
        assert gap < 1e-10 * (1.0 + abs(lam)), spin


def test_lambda_crossing_invariance():
    params = ModelParams.create(2, "1/2")
    u = 1.07 - 0.29j
    left = eval_lambda(u, (ROOT_N2,), params, "open")
    right = eval_lambda(-1.0 / (u * params.q), (ROOT_N2,), params, "open")
    assert abs(left - right) < 1e-10 * (1.0 + abs(left))


def _open_q(v, roots, q):
    """The open Q-function Q(v) = prod_k omega(v/u_k) omega(v q u_k)."""
    u = np.asarray(roots, dtype=complex)
    return complex(np.prod(omega(v / u) * omega(v * q * u)))


def test_q_function_crossing_covariance():
    # the root orbit map u_k -> -1/(q u_k) leaves the open Q function
    # invariant up to a nonzero constant, checked at two points
    q = 0.5
    roots = (1.2 + 0.4j, 0.8 - 0.3j)
    mapped = tuple(-1.0 / (q * r) for r in roots)
    x1, x2 = 0.93 + 0.41j, 1.31 - 0.17j
    r1 = _open_q(x1, mapped, q) / _open_q(x1, roots, q)
    r2 = _open_q(x2, mapped, q) / _open_q(x2, roots, q)
    assert abs(r1 - r2) < 1e-10 * (1.0 + abs(r1))


def test_energy_matches_hamiltonian_spectrum():
    params = ModelParams.create(2, "1/2")
    e = energy((ROOT_N2,), params)
    assert abs(e - params.coupling) < 1e-10
    eigs = np.linalg.eigvals(hamiltonian(params))
    assert np.min(np.abs(eigs - e)) < 1e-10


def test_empty_root_set_has_zero_energy():
    params = ModelParams.create(3, "1/2")
    assert energy((), params) == 0.0


def test_lambda_root_gradient_matches_finite_differences():
    # the batched root gradient of Lambda that builds the Slavnov matrix of
    # aba.scalar_product: d Lambda(v_j)/d u_i at every point in one call
    rng = np.random.default_rng(12)
    roots = np.array([1.25 + 0.31j, 0.92 - 0.44j])
    points = np.array([1.13 + 0.27j, 0.81 - 0.52j, 1.4 + 0.9j])
    h = 1e-6
    for weights in (None, random_thetas(3, rng, q=0.5)):
        params = ModelParams.create(3, "1/2", thetas=weights)
        (term_a, term_d), (dlog_a, dlog_d), ok = _lambda_terms(
            points[None], roots[None], params, "open", grad=True
        )
        assert ok.all()
        grad = term_a[0, :, None] * dlog_a[0] + term_d[0, :, None] * dlog_d[0]
        for j, v in enumerate(points):
            for k in range(2):
                step = np.zeros(2)
                step[k] = h
                fd = (
                    eval_lambda(v, tuple(roots + step), params, "open")
                    - eval_lambda(v, tuple(roots - step), params, "open")
                ) / (2.0 * h)
                assert abs(grad[j, k] - fd) < 1e-6 * (1.0 + abs(fd)), (j, k)


@pytest.mark.parametrize(
    "kind, sector, thetas",
    [("open", None, False), ("open", None, True), ("closed", 2, False), ("closed", 1, True)],
)
def test_newton_jacobian_matches_central_differences(kind, sector, thetas):
    # the closed chain's residuals depend on the roots through kappa as well,
    # so its Jacobian carries the d log kappa / du_i term
    rng = np.random.default_rng(11)
    weights = random_thetas(4, rng, q=0.5) if thetas else None
    params = ModelParams.create(4, "1", thetas=weights)
    fun = newton_system(params, kind, sector)
    u = np.exp(rng.uniform(-0.5, 0.5, (5, 3)) + 1j * rng.uniform(0, 2 * np.pi, (5, 3)))
    _, _, jac = fun(u)
    h = 1e-6
    for i in range(3):
        step = np.zeros(3)
        step[i] = h
        fd = (fun(u + step, jac=False)[0] - fun(u - step, jac=False)[0]) / (2.0 * h)
        scale = 1.0 + np.max(np.abs(fd), axis=-1, keepdims=True)
        assert np.max(np.abs(jac[:, :, i] - fd) / scale) < 1e-7, i


def test_twist_round_trip():
    params = ModelParams.create(3, "1/2")
    root = complex(np.sqrt(2.0))
    kappa = twist_from_roots((root,), 0, params)
    assert abs(kappa - (-1j)) < 1e-12


def test_shift_eigenvalue_is_momentum_phase():
    params = ModelParams.create(2, "1")
    for sector, root in ((0, 0.5401823), (1, 1.2169906)):
        kappa = twist_from_roots((root,), sector, params)
        sol = BetheSolution(
            kind="closed", roots=(complex(root),), sector=sector, twist=kappa
        )
        shift = shift_eigenvalue(sol, params)
        expected = np.exp(2j * np.pi * sector / 2.0)
        assert abs(shift - expected) < 1e-6, sector


def test_closed_lambda_is_transfer_eigenvalue():
    params = ModelParams.create(2, "1")
    probe = 0.93 + 0.41j
    root = 0.5401823
    kappa = twist_from_roots((root,), 0, params)
    lam = eval_lambda(probe, (complex(root),), params, "closed", kappa)
    eigs = np.linalg.eigvals(transfer_matrix(probe, params, "closed").matrix)
    assert np.min(np.abs(eigs - lam)) < 1e-5 * (1.0 + abs(lam))


def test_closed_residuals_need_twist():
    params = ModelParams.create(2, "1")
    import pytest
    from tllab.core import DomainError

    with pytest.raises(DomainError):
        bethe_residuals((0.54,), params, "closed")
