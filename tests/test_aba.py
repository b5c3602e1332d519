"""Algebraic construction of eigenstates and determinant product formulas."""

import tracemalloc

import numpy as np
import pytest

from tllab import aba, symmetry
from tllab.aba import (
    BetheVector,
    bethe_vector,
    check_highest_weight,
    contract_norm_squared,
    contract_scalar_product,
    norm_squared,
    offshell_residual,
    offshell_residuals,
    reference_state,
    scalar_product,
)
from tllab.bethe import eval_lambda
from tllab.core import DomainError, ModelParams
from tllab.solver import refine, solve_all_open, solve_sector_open
from tllab.transfer import (
    monodromy_dense,
    open_monodromy_apply,
    open_transfer,
    open_transfer_apply,
    random_thetas,
)

ROOT_N2 = (3.0 + 1.0j) / np.sqrt(5.0)


def test_reference_state_is_transfer_eigenvector():
    for spin in ("1/2", "1", "3/2"):
        params = ModelParams.create(3, spin)
        probe = 0.93 + 0.41j
        vac = reference_state(params)
        t = open_transfer(probe, params).matrix
        lam = eval_lambda(probe, (), params, "open")
        resid = np.max(np.abs(t @ vac - lam * vac)) / (1.0 + abs(lam))
        assert resid < 1e-12, spin


def _draw_values(rng, n):
    mods = np.exp(rng.uniform(np.log(0.7), np.log(1.5), n))
    return tuple(mods * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))


@pytest.mark.parametrize(
    "n_sites, spin", [(2, "1/2"), (3, "1"), (3, "3/2"), (4, "1/2")]
)
def test_matrix_free_double_row_matches_dense_blocks(n_sites, spin):
    rng = np.random.default_rng(54)
    plain = ModelParams.create(n_sites, spin)
    weighted = ModelParams.create(
        n_sites, spin, thetas=random_thetas(n_sites, rng, plain.q)
    )
    d = plain.site_dim
    dim = d**n_sites
    probe = 1.11 - 0.23j
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    full = rng.normal(size=d * dim) + 1j * rng.normal(size=d * dim)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    for params in (plain, weighted):
        dense = monodromy_dense(probe, params) @ monodromy_dense(
            probe, params, hatted=True
        )
        blocks = dense.reshape(d, dim, d, dim)
        sweep = lambda x, dual=False: open_monodromy_apply(
            probe, params, x.reshape((d,) * (n_sites + 1)), dual
        )
        assert_close(sweep(full).reshape(-1), dense @ full)
        assert_close(sweep(full, True).reshape(-1), full @ dense)
        state = np.zeros(d * dim, dtype=complex)
        state[(d - 1) * dim :] = vec
        assert_close(sweep(state)[0].reshape(-1), blocks[0, :, d - 1] @ vec)
        assert_close(sweep(state, True)[0].reshape(-1), vec @ blocks[d - 1, :, 0])
        t = open_transfer(probe, params).matrix
        assert_close(open_transfer_apply(probe, params, vec), t @ vec)
        assert_close(open_transfer_apply(probe, params, vec, dual=True), vec @ t)


@pytest.mark.parametrize("spin", ["1/2", "1", "3/2"])
def test_vanished_flags_strings_longer_than_the_chain(spin):
    # each B(u) raises the chain's S^z by 2s, from -sN at |0> to at most +sN,
    # so N + 1 of them annihilate |0>; shorter generic strings do not vanish
    rng = np.random.default_rng(55)
    params = ModelParams.create(2, spin)
    for m in (1, 2, 3):
        for dual in (False, True):
            state = bethe_vector(_draw_values(rng, m), params, dual=dual)
            assert state.vanished == (m == 3), (m, dual)


def test_on_shell_vector_is_eigenvector():
    params = ModelParams.create(2, "1/2")
    sol = refine([ROOT_N2], params, "open")
    state = bethe_vector(sol.roots, params)
    assert not state.vanished
    probe = 0.93 + 0.41j
    t = open_transfer(probe, params).matrix
    lam = eval_lambda(probe, sol.roots, params, "open")
    vec = state.vector
    resid = np.max(np.abs(t @ vec - lam * vec)) / (
        (1.0 + abs(lam)) * np.max(np.abs(vec))
    )
    assert resid < 1e-10


def test_on_shell_vector_is_eigenvector_every_spin():
    for spin in ("1", "3/2"):
        params = ModelParams.create(2, spin)
        sol = refine([ROOT_N2], params, "open")
        state = bethe_vector(sol.roots, params)
        probe = 0.93 + 0.41j
        t = open_transfer(probe, params).matrix
        lam = eval_lambda(probe, sol.roots, params, "open")
        vec = state.vector
        resid = np.max(np.abs(t @ vec - lam * vec)) / (
            (1.0 + abs(lam)) * np.max(np.abs(vec))
        )
        assert resid < 1e-9, spin


def test_offshell_expansion_random_configurations():
    rng = np.random.default_rng(51)
    for n_sites, spin, m in ((2, "1/2", 1), (3, "1/2", 2), (2, "1", 1), (3, "3/2", 1)):
        params = ModelParams.create(n_sites, spin)
        for _ in range(3):
            mods = np.exp(rng.uniform(np.log(0.7), np.log(1.5), m + 1))
            phases = rng.uniform(0.0, 2.0 * np.pi, m + 1)
            draws = mods * np.exp(1j * phases)
            rep = offshell_residual(complex(draws[0]), tuple(draws[1:]), params)
            if rep.vanished:
                continue
            assert rep.residual < 1e-8, (n_sites, spin, m)


def test_offshell_expansion_dual_vector():
    rng = np.random.default_rng(52)
    params = ModelParams.create(3, "1/2")
    mods = np.exp(rng.uniform(np.log(0.7), np.log(1.5), 3))
    phases = rng.uniform(0.0, 2.0 * np.pi, 3)
    draws = mods * np.exp(1j * phases)
    rep = offshell_residual(
        complex(draws[0]), tuple(draws[1:]), params, dual=True
    )
    assert rep.residual < 1e-8


@pytest.mark.parametrize("n_sites, spin, m", [(2, "1/2", 3), (3, "1", 2), (4, "1/2", 3)])
@pytest.mark.parametrize("dual", [False, True])
def test_batched_offshell_rows_match_one_row_calls(n_sites, spin, m, dual):
    # (2, 1/2, 3): strings longer than the chain vanish, and must be flagged
    rng = np.random.default_rng(57)
    params = ModelParams.create(n_sites, spin)
    draws = np.array([_draw_values(rng, m + 1) for _ in range(6)])
    batch = offshell_residuals(draws[:, 0], draws[:, 1:], params, dual)
    for i, row in enumerate(draws):
        one = offshell_residual(row[0], row[1:], params, dual)
        assert bool(batch.vanished[i]) == one.vanished
        assert abs(batch.residual[i] - one.residual) <= 1e-12
        assert abs(batch.eigenvalue[i] - one.eigenvalue) <= 1e-12 * abs(one.eigenvalue)
        coeffs = np.array(one.coefficients)
        assert np.max(np.abs(batch.coefficients[i] - coeffs)) <= 1e-12 * np.max(np.abs(coeffs))
    assert batch.vanished.all() == (m > n_sites)


def test_batched_offshell_raises_on_a_pole_row():
    params = ModelParams.create(3, "1/2")
    values = np.array([[1.1 + 0.2j, 0.8 - 0.3j]] * 3)
    points = np.array([0.9 + 0.4j, 1.2 - 0.1j, 0.7 + 0.5j])
    # omega(u/u_k) = 0: the point of row 1 equals its second value
    at_value = points.copy()
    at_value[1] = values[1, 1]
    with pytest.raises(DomainError, match="row 1"):
        offshell_residuals(at_value, values, params)
    # omega(u_k^2 q) = 0: a pole of lambda_k alone, not of Lambda
    at_weight = values.copy()
    at_weight[2, 0] = 1.0 / np.sqrt(params.q)
    with pytest.raises(DomainError, match="row 2"):
        offshell_residuals(points, at_weight, params)


def test_highest_weight_on_shell(monkeypatch):
    # T^+ acts by a sweep: no dense generator block is built
    def no_blocks(*args):
        raise AssertionError("generator_blocks called")

    monkeypatch.setattr(symmetry, "generator_blocks", no_blocks)
    monkeypatch.setattr(aba, "generator_blocks", no_blocks, raising=False)
    for n_sites, spin, roots in (
        (2, "1/2", [ROOT_N2]),
        (3, "1", [1.388730 + 0.267261j]),
        (4, "3/2", [1.284009 + 0.592723j, 1.396897 + 0.220635j]),
    ):
        params = ModelParams.create(n_sites, spin)
        sol = refine(roots, params, "open")
        rep = check_highest_weight(sol.roots, params)
        assert rep.annihilation_residual < 1e-10, (n_sites, spin)
        assert rep.eigen_residual < 1e-10, (n_sites, spin)


@pytest.mark.parametrize("spin", ["1", "3/2"])
def test_annihilation_residual_flags_a_descendant(monkeypatch, spin):
    # T^-_{10} psi is no highest-weight state: the lower blocks of T^+ do
    # not annihilate it, and the cancellation-free scale must show that
    params = ModelParams.create(3, spin)
    sol = refine([1.388730 + 0.267261j], params, "open")
    psi = bethe_vector(sol.roots, params).vector
    descendant = symmetry.generator_blocks(params, "-")[1, 0] @ psi
    monkeypatch.setattr(
        aba, "bethe_vector", lambda roots, p: BetheVector(tuple(roots), descendant, False, False)
    )
    assert check_highest_weight(sol.roots, params).annihilation_residual > 1e-6


def test_highest_weight_at_five_sites_spin_three_halves_stays_small():
    # the dense T^+ blocks alone would take 268 MB here; the open Bethe
    # equations do not involve the spin, so spin-1/2 roots serve
    lines = solve_all_open(ModelParams.create(5, "1/2"))
    params = ModelParams.create(5, "3/2")
    tracemalloc.start()
    try:
        rep = check_highest_weight(lines[2][0].roots, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert rep.annihilation_residual < 1e-10
    assert rep.eigen_residual < 1e-10


def test_scalar_product_against_contraction():
    rng = np.random.default_rng(53)
    for n_sites, spin, m in ((2, "1/2", 1), (3, "1/2", 1), (2, "1", 1), (4, "1/2", 2)):
        params = ModelParams.create(n_sites, spin)
        if n_sites == 2:
            sol = refine([ROOT_N2], params, "open")
        elif n_sites == 3:
            sol = refine([1.388730 + 0.267261j], params, "open")
        else:
            sol = refine(
                [1.284009 + 0.592723j, 1.396897 + 0.220635j], params, "open"
            )
        mods = np.exp(rng.uniform(np.log(0.7), np.log(1.5), m))
        phases = rng.uniform(0.0, 2.0 * np.pi, m)
        off = tuple(mods * np.exp(1j * phases))
        direct = contract_scalar_product(sol.roots, off, params)
        formula = scalar_product(sol.roots, off, params)
        rel = abs(formula - direct) / (1.0 + abs(direct))
        assert rel < 1e-6, (n_sites, spin, m)


def test_norm_against_contraction():
    for n_sites, spin in ((2, "1/2"), (2, "1"), (3, "1/2")):
        params = ModelParams.create(n_sites, spin)
        root = ROOT_N2 if n_sites == 2 else 1.388730 + 0.267261j
        sol = refine([root], params, "open")
        direct = contract_norm_squared(sol.roots, params)
        formula = norm_squared(sol.roots, params)
        rel = abs(formula - direct) / (1.0 + abs(direct))
        assert rel < 1e-6, (n_sites, spin)


def test_norm_is_scalar_product_limit():
    params = ModelParams.create(2, "1/2")
    sol = refine([ROOT_N2], params, "open")
    norm = norm_squared(sol.roots, params)
    eps = 1e-5
    shifted = tuple(r * (1.0 + eps) for r in sol.roots)
    near = scalar_product(sol.roots, shifted, params)
    assert abs(near - norm) / (1.0 + abs(norm)) < 1e-3


def test_empty_product_reduces_to_prefactor():
    params = ModelParams.create(2, "1/2")
    formula = norm_squared((), params)
    direct = contract_norm_squared((), params)
    assert abs(formula - direct) / (1.0 + abs(direct)) < 1e-12


@pytest.mark.parametrize("spin", ["1/2", "1", "3/2"])
@pytest.mark.parametrize("q", [0.3, 1.5, 0.4 + 0.3j])
def test_algebraic_states_beyond_q_half(q, spin):
    params = ModelParams.create(3, spin, q=q)
    rng = np.random.default_rng(56)
    for m in (1, 2, 3):
        for dual in (False, True):
            draws = _draw_values(rng, m + 1)
            rep = offshell_residual(draws[0], draws[1:], params, dual=dual)
            assert not rep.vanished and rep.residual < 1e-8, (m, dual)
    probe = 0.93 + 0.41j
    t = open_transfer(probe, params).matrix
    sols = solve_sector_open(params, 1)
    assert len(sols) == 2
    for sol in sols:
        lam = eval_lambda(probe, sol.roots, params, "open")
        for dual in (False, True):
            vec = bethe_vector(sol.roots, params, dual=dual).vector
            act = vec @ t if dual else t @ vec
            resid = np.max(np.abs(act - lam * vec)) / (
                (1.0 + abs(lam)) * np.max(np.abs(vec))
            )
            assert resid < 1e-9, (sol.roots, dual)
