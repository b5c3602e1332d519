"""Transfer matrices: special values, commutativity, Hamiltonian limits."""

import numpy as np
import pytest

from tllab.core import ModelParams, omega
from tllab.operators import hamiltonian
from tllab.suites import shift_operator
from tllab.symmetry import generator_blocks
from tllab.transfer import (
    hamiltonian_from_transfer,
    open_monodromy_apply,
    open_transfer_apply,
    random_thetas,
    transfer_matrix,
)


def _rel(a, b):
    return np.max(np.abs(a - b)) / (1.0 + np.max(np.abs(a)) + np.max(np.abs(b)))


def test_open_transfer_at_one_is_scalar():
    for n_sites, spin in ((2, "1/2"), (3, "1/2"), (2, "1")):
        params = ModelParams.create(n_sites, spin)
        t1 = transfer_matrix(1.0, params, "open").matrix
        scalar = params.coupling * omega(params.q) ** (2 * n_sites)
        assert _rel(t1, scalar * np.eye(t1.shape[0])) < 1e-12, (n_sites, spin)


@pytest.mark.parametrize("n_sites, spin", [(3, "1"), (4, "1/2")])
def test_batched_transfer_apply_matches_dense(n_sites, spin):
    # a batch of vectors, ket and dual, goes through one sweep
    params = ModelParams.create(n_sites, spin)
    rng = np.random.default_rng(34)
    dim = params.site_dim**n_sites
    vecs = rng.normal(size=(2, 3, dim)) + 1j * rng.normal(size=(2, 3, dim))
    u = 1.07 + 0.38j
    t = transfer_matrix(u, params, "open").matrix
    for dual, want in ((False, vecs @ t.T), (True, vecs @ t)):
        got = open_transfer_apply(u, params, vecs, dual)
        assert got.shape == vecs.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), dual


@pytest.mark.parametrize("weights", ["homogeneous", "random"])
@pytest.mark.parametrize("n_sites, spin", [(3, "1"), (4, "1/2")])
def test_per_row_points_match_scalar_calls(n_sites, spin, weights):
    # one point per row gives, row by row, the one-point sweep of that row
    rng = np.random.default_rng(35)
    params = ModelParams.create(n_sites, spin)
    if weights == "random":
        params = ModelParams.create(n_sites, spin, thetas=random_thetas(n_sites, rng, params.q))
    d = params.site_dim
    rows = 5
    u = np.exp(rng.uniform(-0.3, 0.3, rows) + 1j * rng.uniform(0.0, 2.0 * np.pi, rows))
    shape = (rows,) + (d,) * (n_sites + 1)
    state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for dual in (False, True):
        for absolute in (False, True):
            got = open_monodromy_apply(u, params, state, dual, absolute)
            want = np.stack(
                [open_monodromy_apply(u[i], params, state[i], dual, absolute) for i in range(rows)]
            )
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (dual, absolute)
    # per-row points broadcast over further batch axes of open_transfer_apply
    vecs = state.reshape(rows, d, -1)
    for dual in (False, True):
        got = open_transfer_apply(u[:, None], params, vecs, dual)
        want = np.stack([open_transfer_apply(u[i], params, vecs[i], dual) for i in range(rows)])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), dual


def test_closed_transfer_at_one_is_shift():
    for n_sites, spin in ((2, "1/2"), (3, "1/2"), (2, "1"), (3, "1")):
        params = ModelParams.create(n_sites, spin)
        t1 = transfer_matrix(1.0, params, "closed").matrix
        shift = shift_operator(n_sites, params.site_dim)
        assert _rel(t1, omega(params.q) ** n_sites * shift) < 1e-12, (n_sites, spin)


def test_shift_operator_has_unit_order():
    for n_sites, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        shift = shift_operator(n_sites, d)
        power = np.linalg.matrix_power(shift, n_sites)
        assert _rel(power, np.eye(d**n_sites)) < 1e-14


def test_transfer_family_commutes_with_generic_inhomogeneities():
    rng = np.random.default_rng(31)
    for kind in ("open", "closed"):
        thetas = random_thetas(3, rng, q=0.5)
        params = ModelParams.create(3, "1/2", thetas=thetas)
        t1 = transfer_matrix(0.78 - 0.41j, params, kind).matrix
        t2 = transfer_matrix(1.23 + 0.57j, params, kind).matrix
        assert _rel(t1 @ t2, t2 @ t1) < 1e-12, kind


def test_open_transfer_crossing_invariance():
    rng = np.random.default_rng(32)
    thetas = random_thetas(2, rng, q=0.5)
    params = ModelParams.create(2, "1", thetas=thetas)
    u = 1.12 - 0.33j
    left = transfer_matrix(u, params, "open").matrix
    right = transfer_matrix(-1.0 / (u * params.q), params, "open").matrix
    assert _rel(left, right) < 1e-12


def test_hamiltonian_from_transfer_matches_direct():
    for n_sites in (2, 3, 4):
        for spin in ("1/2", "1"):
            params = ModelParams.create(n_sites, spin)
            derived = hamiltonian_from_transfer(params)
            direct = hamiltonian(params)
            assert np.max(np.abs(derived - direct)) < 1e-6, (n_sites, spin)


def test_asymptotic_trace_commutes_with_transfer():
    params = ModelParams.create(2, "1")
    trace_op = np.trace(generator_blocks(params, "+"), axis1=0, axis2=1)
    t = transfer_matrix(0.87 + 0.22j, params, "closed").matrix
    assert _rel(trace_op @ t, t @ trace_op) < 1e-12


def test_random_thetas_respect_constraints():
    rng = np.random.default_rng(33)
    q = 0.5
    thetas = random_thetas(4, rng, q=q)
    assert len(thetas) == 4
    for th in thetas:
        assert 0.8 <= abs(th) <= 1.25
    for i, ti in enumerate(thetas):
        for j, tj in enumerate(thetas):
            if i == j:
                continue
            for k in (-2, -1, 0, 1, 2):
                assert abs(ti / tj - q**k) > 1e-9


def test_transfer_eval_carries_context():
    params = ModelParams.create(2, "1/2")
    te = transfer_matrix(0.9 + 0.1j, params, "open")
    assert te.kind == "open"
    assert te.params is params
    assert te.matrix.shape == (4, 4)
