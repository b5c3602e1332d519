"""Commutant generators, symmetry residuals, and degeneracy measurement."""

import itertools
import tracemalloc

import numpy as np
import pytest

from tllab import symmetry, transfer

from tllab.core import ModelParams
from tllab.solver import refine
from tllab.symmetry import (
    check_symmetry,
    generator_apply,
    generator_blocks,
    line_degeneracy,
    measure_degeneracy,
)
from tllab.transfer import open_transfer


def test_symmetry_report_residuals_are_tiny():
    for n_sites, spin in ((2, "1/2"), (3, "1/2"), (2, "1"), (2, "3/2"), (3, "3/2")):
        params = ModelParams.create(n_sites, spin)
        report = check_symmetry(params)
        assert report.commutator_residual < 1e-9, (n_sites, spin)
        assert report.exchange_residual < 1e-9, (n_sites, spin)
        assert report.inversion_residual < 1e-9, (n_sites, spin)


@pytest.mark.parametrize("mutation", ["R+ with T-", "two points"])
@pytest.mark.parametrize("n_sites, spin", [(2, "1/2"), (3, "3/2")])
def test_exchange_check_detects_a_broken_relation(monkeypatch, n_sites, spin, mutation):
    # the random-column exchange check must fail when its two sides no
    # longer belong together
    params = ModelParams.create(n_sites, spin)
    if mutation == "R+ with T-":
        blocks = symmetry.generator_blocks
        flip = {"+": "-", "-": "+"}
        monkeypatch.setattr(symmetry, "generator_blocks", lambda p, sign: blocks(p, flip[sign]))
    else:
        apply = symmetry.open_monodromy_apply
        calls = itertools.count()

        def shifted(u, *args, **kwargs):  # every second sweep at 1.1 u
            return apply(u * (1.1 if next(calls) % 2 else 1.0), *args, **kwargs)

        monkeypatch.setattr(symmetry, "open_monodromy_apply", shifted)
    assert check_symmetry(params).exchange_residual > 1e-6


def test_check_symmetry_stays_small():
    # no dense aux (x) aux (x) chain product and no cached dense t(u): at
    # N=3, s=3/2 the largest operator is a 64 x 64 generator block
    params = ModelParams.create(3, "3/2")
    transfer._transfer_cached.cache_clear()
    tracemalloc.start()
    try:
        check_symmetry(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert transfer._transfer_cached.cache_info().currsize == 0


def test_generator_blocks_commute_with_transfer():
    params = ModelParams.create(3, "1/2")
    t = open_transfer(0.87 + 0.33j, params).matrix
    scale = 1.0 + np.max(np.abs(t))
    for sign in ("+", "-"):
        blocks = generator_blocks(params, sign)
        for i in range(params.site_dim):
            for j in range(params.site_dim):
                gen = blocks[i, j]
                comm = gen @ t - t @ gen
                denom = scale + np.max(np.abs(gen))
                assert np.max(np.abs(comm)) / denom < 1e-11, (sign, i, j)


@pytest.mark.parametrize("spin", ["1/2", "1", "3/2"])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
def test_generator_apply_matches_dense_blocks(n_sites, spin):
    params = ModelParams.create(n_sites, spin)
    rng = np.random.default_rng(43)
    dim = params.site_dim**n_sites
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    for sign in ("+", "-"):
        dense = np.einsum("ijab,b->ija", generator_blocks(params, sign), vec)
        swept = generator_apply(params, sign, vec)
        assert np.max(np.abs(swept - dense)) <= 1e-12 * np.max(np.abs(dense)), sign
        bound = generator_apply(params, sign, vec, absolute=True)
        assert np.all(np.abs(swept) <= bound * (1.0 + 1e-12)), sign


def test_measure_degeneracy_on_synthetic_spectrum():
    rng = np.random.default_rng(41)
    eigs = np.array([2.0, 2.0, 2.0, -1.0, 0.5 + 0.5j])
    basis = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    mat = basis @ np.diag(eigs) @ np.linalg.inv(basis)

    nullity, ambiguous = measure_degeneracy(mat, 2.0)
    assert nullity == 3
    assert not ambiguous
    nullity, _ = measure_degeneracy(mat, -1.0)
    assert nullity == 1


def test_line_degeneracy_counts_vacuum_multiplet():
    # the zero root sector of the open three site chain carries the
    # dimension of the fused top module
    golden = {"1/2": 4, "1": 21, "3/2": 56}
    for spin, want in golden.items():
        params = ModelParams.create(3, spin)
        nullity, ambiguous = line_degeneracy(params, "open", ())
        assert nullity == want, spin
        assert not ambiguous


def test_line_degeneracy_of_tabulated_line():
    params = ModelParams.create(3, "1")
    sol = refine([1.388730 + 0.267261j], params, "open")
    nullity, ambiguous = line_degeneracy(params, "open", sol.roots)
    assert nullity == 3
    assert not ambiguous
