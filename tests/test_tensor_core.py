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


def charge_bands(rng, J, dn):
    """Random level bands on J levels (x) C^dn, zero outside the truncation."""
    coef = rng.standard_normal((dn, dn, J)) + 1j * rng.standard_normal((dn, dn, J))
    b, a, c = np.indices(coef.shape)
    coef[(c + a - b < 0) | (c + a - b >= J)] = 0.0
    return coef


def dense_factors(factors):
    """The band factors (coef, n) as dense (x, 0, n) for ordered_product."""
    return [(tc.from_bands(coef), 0, n) for coef, n in factors]


def assert_charge_blocks_match_dense(factors, dims):
    """charge_product of the band factors against the index formula on the
    ordered_product of the densified factors, read through the pair index."""
    blocks, index = tc.charge_product(iter(factors), dims)
    J, d = dims[0], tc.total_dim(dims[1:])
    assert blocks.shape == (J, d * d) and index.shape == (d, d)
    prod = blocks[:, index]
    dense = tc.ordered_product(dense_factors(factors), dims).reshape(J, d, J, d)
    m = tc.index_sums(dims[1:])
    expected = np.zeros_like(prod)
    for c in range(J):
        for r in range(d):
            for s in range(d):
                row = c + m[s] - m[r]
                others = [level for level in range(J) if level != row]
                assert not np.any(dense[others, r, c, s])
                if 0 <= row < J:
                    expected[c, r, s] = dense[row, r, c, s]
                else:
                    assert prod[c, r, s] == 0.0
    assert np.count_nonzero(expected) > J * d
    assert_allclose(prod, expected, rtol=1e-13, atol=1e-12)


class TestBands:
    # (site dimension, level count)
    SHAPES = [(1, 3), (2, 2), (2, 5), (3, 4), (4, 2)]

    def test_from_bands_places_every_band(self):
        rng = np.random.default_rng(21)
        for dn, J in self.SHAPES:
            coef = charge_bands(rng, J, dn)
            x = tc.from_bands(coef).reshape(J, dn, J, dn)
            expected = np.zeros_like(x)
            for b in range(dn):
                for a in range(dn):
                    for c in range(J):
                        if 0 <= c + a - b < J:
                            expected[c + a - b, b, c, a] = coef[b, a, c]
            assert np.array_equal(x, expected)

    def test_transpose_bands_is_the_dense_transpose(self):
        rng = np.random.default_rng(22)
        for dn, J in self.SHAPES:
            coef = charge_bands(rng, J, dn)
            assert np.array_equal(tc.from_bands(tc.transpose_bands(coef)),
                                  tc.from_bands(coef).T)

    def test_wrong_band_shape_rejected(self):
        rng = np.random.default_rng(23)
        for coef in (charge_bands(rng, 4, 3), charge_bands(rng, 3, 2), np.zeros((2, 3, 4))):
            with pytest.raises(ValueError, match="band shape"):
                tc.charge_product([(coef, 1)], (4, 2))
        with pytest.raises(ValueError, match="band shape"):
            tc.from_bands(np.zeros((2, 3, 4)))

    def test_band_entry_outside_truncation_rejected(self):
        # (b, a, c) with row level c + a - b outside 0 .. 3
        for entry in ((0, 1, 3), (1, 0, 0), (0, 2, 2), (2, 0, 1)):
            coef = charge_bands(np.random.default_rng(24), 4, 3)
            coef[entry] = 1e-300
            with pytest.raises(ValueError, match="outside the truncation"):
                tc.charge_product([(coef, 1)], (4, 3))
            with pytest.raises(ValueError, match="outside the truncation"):
                tc.from_bands(coef)


class TestChargeProduct:
    def test_index_sums(self):
        assert tc.index_sums((2, 3)).tolist() == [0, 1, 2, 1, 2, 3]
        assert tc.index_sums(()).tolist() == [0]

    def test_empty_is_identity(self):
        blocks, index = tc.charge_product([], (4, 2, 3))
        assert blocks.shape == (4, 36)
        assert all(np.array_equal(block, tc.identity(6)) for block in blocks[:, index])
        blocks, index = tc.charge_product([], (4,))
        assert blocks.shape == (4, 1) and np.array_equal(blocks, np.ones((4, 1)))
        assert index.tolist() == [[0]]

    # (dims, sites of the factors in order)
    DENSE_CASES = [((5, 2, 3), (2, 1)),
                   ((4, 2, 3, 2), (1, 3)),  # site 2 untouched
                   ((4, 2, 3, 2), (3, 1)),  # site 2 untouched, visited from the right
                   ((2, 4, 3), (1, 2)),  # site dimension above the level count
                   ((4, 2, 3, 2), (3, 2, 1)),  # the half rows' visit order
                   ((4, 2, 3, 2), (2, 1, 3))]  # out of order: a carried site on each side

    def test_pair_index_is_the_site_pair_formula(self):
        for dims in ((), (2,), (3,), (2, 3, 2), (2, 2, 2, 2)):
            index = tc.pair_index(dims)
            d = tc.total_dim(dims)
            expected = np.zeros((d, d), dtype=int)
            for r in range(d):
                for s in range(d):
                    rs = np.unravel_index(r, dims) if dims else ()
                    ss = np.unravel_index(s, dims) if dims else ()
                    for n, dn in enumerate(dims):
                        expected[r, s] = expected[r, s] * dn * dn + rs[n] * dn + ss[n]
            assert np.array_equal(index, expected)
            assert tc.pair_index(dims) is index and not index.flags.writeable

    def test_blocks_sit_in_the_site_pair_layout(self):
        # each site's band copy lands on its own (b, a) pair, in site order
        dims, rng = (4, 2, 3, 2), np.random.default_rng(16)
        coef = {n: charge_bands(rng, 4, dims[n]) for n in (1, 2, 3)}
        for sites in ((3, 2, 1), (2, 1, 3), (1, 3, 2)):
            blocks, _ = tc.charge_product([(coef[n], n) for n in sites], dims)
            pairs = blocks.reshape(4, 2, 2, 3, 3, 2, 2)
            dense = tc.ordered_product(dense_factors([(coef[n], n) for n in sites]), dims)
            dense = dense.reshape(4, 2, 3, 2, 4, 2, 3, 2)
            for c, r1, s1, r2, s2, r3, s3 in np.ndindex(pairs.shape):
                row = c + s1 + s2 + s3 - r1 - r2 - r3
                want = dense[row, r1, r2, r3, c, s1, s2, s3] if 0 <= row < 4 else 0.0
                assert_allclose(pairs[c, r1, s1, r2, s2, r3, s3], want, rtol=1e-13, atol=1e-13)

    def test_workspace_reuses_grows_and_caps(self, monkeypatch):
        ws = tc.Workspace()
        a = ws.take("a", (2, 3))
        buffer = ws["a"]
        assert a.shape == (2, 3) and np.shares_memory(a, buffer)
        assert np.shares_memory(ws.take("a", (5,)), buffer)
        ws.take("a", (7,))
        assert ws["a"] is not buffer and ws["a"].size == 7
        # 7 + 4 entries past a 10-entry budget: an array of its own, not kept
        monkeypatch.setattr(tc, "WORKSPACE_BYTES", 10 * 16)
        assert ws.take("b", (4,)).shape == (4,)
        assert list(ws) == ["a"]

    def test_workspace_product_matches_fresh_one(self):
        dims, rng = (4, 2, 3, 2), np.random.default_rng(14)
        factors = [[(charge_bands(rng, 4, dims[n]), n) for n in (1, 3)] for _ in range(2)]
        fresh = [tc.charge_product(f, dims)[0] for f in factors]
        ws = tc.Workspace()
        first, _ = tc.charge_product(factors[0], dims, ws, "row")
        buffer = ws["row"]
        assert np.array_equal(first, fresh[0]) and np.shares_memory(first, buffer)
        assert np.array_equal(tc.charge_product(factors[1], dims, ws, "row")[0], fresh[1])
        assert ws["row"] is buffer and np.array_equal(first, fresh[1])
        # without a workspace each product owns its memory
        assert not np.shares_memory(fresh[0], fresh[1])
        assert np.array_equal(fresh[0], tc.charge_product(factors[0], dims)[0])

    def test_matches_dense_product(self):
        for dims, sites in self.DENSE_CASES:
            rng = np.random.default_rng(13)
            factors = [(charge_bands(rng, dims[0], dims[n]), n) for n in sites]
            assert_charge_blocks_match_dense(factors, dims)

    def test_transposed_reversed_factors_give_row_level_blocks(self):
        # blocks of P^T = F_k^T .. F_1^T by column level, spin axes swapped, are
        # the blocks of P by row level: X[j, r, t] = P[(j, r), (j + m(r) - m(t), t)]
        for dims, sites in self.DENSE_CASES:
            rng = np.random.default_rng(13)
            factors = [(charge_bands(rng, dims[0], dims[n]), n) for n in sites]
            J, d = dims[0], tc.total_dim(dims[1:])
            X, index = tc.charge_product(
                [(tc.transpose_bands(coef), n) for coef, n in factors[::-1]], dims)
            X = X[:, index.T]
            dense = tc.ordered_product(dense_factors(factors), dims).reshape(J, d, J, d)
            m = tc.index_sums(dims[1:])
            expected = np.zeros_like(X)
            for j in range(J):
                for r in range(d):
                    for t in range(d):
                        col = j + m[r] - m[t]
                        if 0 <= col < J:
                            expected[j, r, t] = dense[j, r, col, t]
                        else:
                            assert X[j, r, t] == 0.0
            assert np.count_nonzero(expected) > J * d
            assert_allclose(X, expected, rtol=1e-13, atol=1e-12)

    def test_factor_off_site_zero_rejected(self):
        coef = charge_bands(np.random.default_rng(14), 3, 2)
        for n in (0, 3, -1):
            with pytest.raises(IndexError):
                tc.charge_product([(coef, n)], (3, 2, 2))

    def test_revisited_site_rejected(self):
        rng = np.random.default_rng(15)
        factors = [(charge_bands(rng, 3, 2), n) for n in (1, 2, 1)]
        with pytest.raises(ValueError, match="revisits site 1"):
            tc.charge_product(factors, (3, 2, 2))


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
