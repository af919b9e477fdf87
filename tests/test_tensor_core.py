"""Tensor-core operations against brute-force index oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from qbaxter import tensor_core as tc


def rand_matrix(rng, n):
    return rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))


def kron_oracle(a, b):
    """Direct index formula: out[i*db+k, j*db+l] = a[i,j] b[k,l]."""
    da, db = a.shape[0], b.shape[0]
    out = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        for j in range(da):
            for k in range(db):
                for l in range(db):
                    out[i * db + k, j * db + l] = a[i, j] * b[k, l]
    return out


def embed_oracle(x, m, n, dims):
    """Brute-force contraction over all multi-indices."""
    total = int(np.prod(dims))
    nfac = len(dims)
    xt = x.reshape(dims[m], dims[n], dims[m], dims[n])
    out = np.zeros((total, total), dtype=complex)
    for row in range(total):
        ridx = np.unravel_index(row, dims)
        for col in range(total):
            cidx = np.unravel_index(col, dims)
            if all(ridx[k] == cidx[k] for k in range(nfac) if k not in (m, n)):
                out[row, col] = xt[ridx[m], ridx[n], cidx[m], cidx[n]]
    return out


class TestKron:
    def test_identity(self):
        assert_allclose(tc.kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        z = 0.7 + 0.2j
        d = np.diag([1, z ** 2])
        assert_allclose(tc.kron(d, d), np.diag([1, z ** 2, z ** 2, z ** 4]))

    def test_index_formula(self):
        rng = np.random.default_rng(0)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        assert_allclose(tc.kron(a, b), kron_oracle(a, b), atol=1e-14)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_index_formula_property(self, seed, da, db):
        rng = np.random.default_rng(seed)
        a, b = rand_matrix(rng, da), rand_matrix(rng, db)
        assert_allclose(tc.kron(a, b), kron_oracle(a, b), atol=1e-13)


class TestSwap:
    def test_basis_action(self):
        p = tc.swap_p(2, 2)
        v0, v1 = np.array([1, 0]), np.array([0, 1])
        assert_allclose(p @ np.kron(v0, v1), np.kron(v1, v0))

    def test_involution(self):
        p = tc.swap_p(3, 3)
        assert_allclose(p @ p, np.eye(9), atol=1e-15)

    def test_conjugation_swaps_factors(self):
        rng = np.random.default_rng(1)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
        p = tc.swap_p(2, 3)
        assert_allclose(p @ tc.kron(a, b) @ tc.swap_p(3, 2), tc.kron(b, a), atol=1e-14)


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        assert_allclose(tc.embed(np.eye(4), 0, 1, (2, 2, 2)), np.eye(8))

    def test_swap_definition(self):
        p = tc.embed(tc.swap_p(2, 2), 0, 1, (2, 2))
        v0, v1 = np.array([1, 0]), np.array([0, 1])
        assert_allclose(p @ np.kron(v0, v1), np.kron(v1, v0))

    def test_reversed_site_order_is_swap_conjugation(self):
        rng = np.random.default_rng(2)
        x = rand_matrix(rng, 4)
        p = tc.swap_p(2, 2)
        assert_allclose(tc.embed(x, 1, 0, (2, 2)), p @ x @ p, atol=1e-14)

    def test_against_oracle(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        x = rand_matrix(rng, 6)
        for m, n in ((0, 1), (2, 0), (1, 2)):
            if dims[m] * dims[n] != x.shape[0]:
                continue
            assert_allclose(tc.embed(x, m, n, dims), embed_oracle(x, m, n, dims), atol=1e-14)

    def test_composition_matches_full_contraction(self):
        # total dimension 16 <= 64
        rng = np.random.default_rng(4)
        dims = (2, 2, 2, 2)
        x, y = rand_matrix(rng, 4), rand_matrix(rng, 4)
        lhs = tc.embed(x, 0, 2, dims) @ tc.embed(y, 1, 3, dims)
        rhs = embed_oracle(x, 0, 2, dims) @ embed_oracle(y, 1, 3, dims)
        assert_allclose(lhs, rhs, atol=1e-13)

    def test_errors(self):
        with pytest.raises(ValueError):
            tc.embed(np.eye(4), 0, 0, (2, 2))
        with pytest.raises(IndexError):
            tc.embed(np.eye(4), 0, 5, (2, 2))
        with pytest.raises(ValueError):
            tc.embed(np.eye(3), 0, 1, (2, 2))


class TestPartialTrace:
    def test_identity(self):
        assert tc.partial_trace(np.eye(12), 0, (3, 4))[0, 0] == pytest.approx(3)
        assert_allclose(tc.partial_trace(np.eye(12), 0, (3, 4)), 3 * np.eye(4))

    def test_factorized(self):
        rng = np.random.default_rng(5)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
        assert_allclose(tc.partial_trace(tc.kron(a, b), 0, (2, 3)), np.trace(a) * b, atol=1e-14)
        assert_allclose(tc.partial_trace(tc.kron(a, b), 1, (2, 3)), np.trace(b) * a, atol=1e-14)

    def test_nested_traces_match_brute_force(self):
        rng = np.random.default_rng(6)
        dims = (2, 3, 2)
        x = rand_matrix(rng, 12)
        step = tc.partial_trace(tc.partial_trace(x, 0, dims), 0, (3, 2))
        xt = x.reshape(*dims, *dims)
        oracle = np.zeros((2, 2), dtype=complex)
        for a in range(2):
            for b in range(3):
                oracle += xt[a, b, :, a, b, :]
        assert_allclose(step, oracle, atol=1e-14)

    def test_trace_of_embedding_scales_by_spectator_dim(self):
        rng = np.random.default_rng(7)
        dims = (2, 2, 3)
        x = rand_matrix(rng, 4)
        lhs = tc.partial_trace(tc.embed(x, 0, 1, dims), 2, dims)
        assert_allclose(lhs, 3 * x, atol=1e-13)


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(8)
        x = rand_matrix(rng, 12)
        once = tc.partial_transpose(x, 1, (3, 4))
        assert_allclose(tc.partial_transpose(once, 1, (3, 4)), x)

    def test_factorized(self):
        rng = np.random.default_rng(9)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
        assert_allclose(tc.partial_transpose(tc.kron(a, b), 1, (2, 3)),
                        tc.kron(a, b.T), atol=1e-14)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_involution_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rand_matrix(rng, 8)
        pt = tc.partial_transpose(x, 1, (2, 2, 2))
        assert_allclose(tc.partial_transpose(pt, 1, (2, 2, 2)), x)

    def test_product_reverses_on_transposed_factor(self):
        # operators acting only on the transposed factor: ((AB)^t_s) = B^t_s A^t_s
        rng = np.random.default_rng(10)
        dims = (2, 3)
        a = tc.embed_site(rand_matrix(rng, 3), 1, dims)
        b = tc.embed_site(rand_matrix(rng, 3), 1, dims)
        lhs = tc.partial_transpose(a @ b, 1, dims)
        rhs = tc.partial_transpose(b, 1, dims) @ tc.partial_transpose(a, 1, dims)
        assert_allclose(lhs, rhs, atol=1e-13)


class TestOrderedProduct:
    def test_empty_is_identity(self):
        dims = (3, 2, 2)
        out = tc.ordered_product([], dims)
        assert np.array_equal(out, tc.identity(tc.total_dim(dims)))

    def test_mixed_factors_match_explicit_embeds(self):
        rng = np.random.default_rng(11)
        dims = (3, 2, 2)
        x01, x21 = rand_matrix(rng, 6), rand_matrix(rng, 4)
        y0, y2, x12 = rand_matrix(rng, 3), rand_matrix(rng, 2), rand_matrix(rng, 4)
        factors = [(x01, 0, 1), (y0, 0), (x21, 2, 1), (y2, 2), (x12, 1, 2)]
        expected = tc.embed(x01, 0, 1, dims) @ tc.embed_site(y0, 0, dims) \
            @ tc.embed(x21, 2, 1, dims) @ tc.embed_site(y2, 2, dims) @ tc.embed(x12, 1, 2, dims)
        assert_allclose(tc.ordered_product(factors, dims), expected, atol=1e-12)
        # a lazy stream gives the same product
        assert_allclose(tc.ordered_product(iter(factors), dims), expected, atol=1e-12)


class TestRelErr:
    def test_equal_inputs(self):
        rng = np.random.default_rng(12)
        a = rand_matrix(rng, 5)
        assert tc.rel_err(a, a) == 0.0
        assert tc.rel_err(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0

    def test_first_order_perturbation(self):
        rng = np.random.default_rng(13)
        a = rand_matrix(rng, 4)
        a *= 3.0 / np.linalg.norm(a)
        e = rand_matrix(rng, 4)
        eps = 1e-7
        expected = eps * np.linalg.norm(e) / np.linalg.norm(a)
        assert tc.rel_err(a, a + eps * e) == pytest.approx(expected, rel=1e-6)

    def test_scaling_behaviour(self):
        # absolute below unit norm, scale-invariant above
        rng = np.random.default_rng(14)
        a = rand_matrix(rng, 3)
        b = a + 1e-3 * rand_matrix(rng, 3)
        a_small = 1e-4 * a / np.linalg.norm(a)
        b_small = 1e-4 * b / np.linalg.norm(a)
        assert tc.rel_err(10 * a_small, 10 * b_small) == pytest.approx(
            10 * tc.rel_err(a_small, b_small), rel=1e-12)
        big_a, big_b = 1e3 * a, 1e3 * b
        assert tc.rel_err(big_a, big_b) == pytest.approx(tc.rel_err(a, b), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            tc.rel_err(np.eye(2), np.eye(3))
