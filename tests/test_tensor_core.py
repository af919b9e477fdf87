"""Tensor-core operations against brute-force index oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from oracles import partial_transpose, swap_p, transpose_bands
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


class TestSwap:
    def test_basis_action(self):
        p = swap_p(2, 2)
        v0, v1 = np.array([1, 0]), np.array([0, 1])
        assert_allclose(p @ np.kron(v0, v1), np.kron(v1, v0))

    def test_involution(self):
        p = swap_p(3, 3)
        assert_allclose(p @ p, np.eye(9), atol=1e-15)

    def test_conjugation_swaps_factors(self):
        rng = np.random.default_rng(1)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
        p = swap_p(2, 3)
        assert_allclose(p @ np.kron(a, b) @ swap_p(3, 2), np.kron(b, a), atol=1e-14)


class TestEmbed:
    def test_identity_embeds_to_identity(self):
        assert_allclose(tc.embed(np.eye(4), (0, 1), (2, 2, 2)), np.eye(8))

    def test_swap_definition(self):
        p = tc.embed(swap_p(2, 2), (0, 1), (2, 2))
        v0, v1 = np.array([1, 0]), np.array([0, 1])
        assert_allclose(p @ np.kron(v0, v1), np.kron(v1, v0))

    def test_reversed_site_order_is_swap_conjugation(self):
        rng = np.random.default_rng(2)
        x = rand_matrix(rng, 4)
        p = swap_p(2, 2)
        assert_allclose(tc.embed(x, (1, 0), (2, 2)), p @ x @ p, atol=1e-14)

    def test_against_oracle(self):
        rng = np.random.default_rng(3)
        dims = (2, 3, 2)
        x = rand_matrix(rng, 6)
        for m, n in ((0, 1), (2, 0), (1, 2)):
            if dims[m] * dims[n] != x.shape[0]:
                continue
            assert_allclose(tc.embed(x, (m, n), dims), embed_oracle(x, m, n, dims), atol=1e-14)

    def test_composition_matches_full_contraction(self):
        # total dimension 16 <= 64
        rng = np.random.default_rng(4)
        dims = (2, 2, 2, 2)
        x, y = rand_matrix(rng, 4), rand_matrix(rng, 4)
        lhs = tc.embed(x, (0, 2), dims) @ tc.embed(y, (1, 3), dims)
        rhs = embed_oracle(x, 0, 2, dims) @ embed_oracle(y, 1, 3, dims)
        assert_allclose(lhs, rhs, atol=1e-13)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(2, 3), st.integers(2, 3))
    @settings(max_examples=25, deadline=None)
    def test_one_site_factors_multiply_to_kron(self, seed, da, db):
        rng = np.random.default_rng(seed)
        a, b = rand_matrix(rng, da), rand_matrix(rng, db)
        dims = (da, db)
        prod = tc.embed(a, (0,), dims) @ tc.embed(b, (1,), dims)
        assert_allclose(prod, kron_oracle(a, b), atol=1e-13)

    def test_three_sites_in_given_order(self):
        # a product operator a (x) b (x) c placed at (2, 0, 1) puts a on site 2,
        # b on site 0 and c on site 1
        rng = np.random.default_rng(5)
        dims = (3, 2, 4)
        a, b, c = rand_matrix(rng, 4), rand_matrix(rng, 3), rand_matrix(rng, 2)
        expected = tc.embed(a, (2,), dims) @ tc.embed(b, (0,), dims) @ tc.embed(c, (1,), dims)
        assert_allclose(tc.embed(np.kron(np.kron(a, b), c), (2, 0, 1), dims), expected,
                        atol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            tc.embed(np.eye(4), (0, 0), (2, 2))
        with pytest.raises(IndexError):
            tc.embed(np.eye(4), (0, 5), (2, 2))
        with pytest.raises(ValueError):
            tc.embed(np.eye(3), (0, 1), (2, 2))
        with pytest.raises(IndexError):
            tc.embed(np.eye(2), (2,), (2, 2))
        with pytest.raises(ValueError):
            tc.embed(np.eye(3), (1,), (2, 2))
        with pytest.raises(ValueError, match="expected a matrix"):
            tc.embed(np.ones(2), (0,), (2,))


class TestPartialTranspose:
    def test_involution(self):
        rng = np.random.default_rng(8)
        x = rand_matrix(rng, 12)
        once = partial_transpose(x, 1, (3, 4))
        assert_allclose(partial_transpose(once, 1, (3, 4)), x)

    def test_factorized(self):
        rng = np.random.default_rng(9)
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 3)
        assert_allclose(partial_transpose(np.kron(a, b), 1, (2, 3)),
                        np.kron(a, b.T), atol=1e-14)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_involution_property(self, seed):
        rng = np.random.default_rng(seed)
        x = rand_matrix(rng, 8)
        pt = partial_transpose(x, 1, (2, 2, 2))
        assert_allclose(partial_transpose(pt, 1, (2, 2, 2)), x)

    def test_errors(self):
        with pytest.raises(IndexError, match="site 2 out of range"):
            partial_transpose(np.eye(4), 2, (2, 2))
        with pytest.raises(ValueError, match="does not match shape"):
            partial_transpose(np.eye(3), 0, (2, 2))

    def test_product_reverses_on_transposed_factor(self):
        # operators acting only on the transposed factor: ((AB)^t_s) = B^t_s A^t_s
        rng = np.random.default_rng(10)
        dims = (2, 3)
        a = tc.embed(rand_matrix(rng, 3), (1,), dims)
        b = tc.embed(rand_matrix(rng, 3), (1,), dims)
        lhs = partial_transpose(a @ b, 1, dims)
        rhs = partial_transpose(b, 1, dims) @ partial_transpose(a, 1, dims)
        assert_allclose(lhs, rhs, atol=1e-13)


class TestOrderedProduct:
    def test_empty_is_identity(self):
        dims = (3, 2, 2)
        out = tc.ordered_product([], dims)
        assert np.array_equal(out, np.eye(math.prod(dims)))

    def test_mixed_factors_match_explicit_embeds(self):
        rng = np.random.default_rng(11)
        dims = (3, 2, 2)
        x01, x21 = rand_matrix(rng, 6), rand_matrix(rng, 4)
        y0, y2, x12 = rand_matrix(rng, 3), rand_matrix(rng, 2), rand_matrix(rng, 4)
        factors = [(x01, 0, 1), (y0, 0), (x21, 2, 1), (y2, 2), (x12, 1, 2)]
        expected = tc.embed(x01, (0, 1), dims) @ tc.embed(y0, (0,), dims) \
            @ tc.embed(x21, (2, 1), dims) @ tc.embed(y2, (2,), dims) @ tc.embed(x12, (1, 2), dims)
        assert_allclose(tc.ordered_product(factors, dims), expected, atol=1e-12)
        # a lazy stream gives the same product
        assert_allclose(tc.ordered_product(iter(factors), dims), expected, atol=1e-12)


def charge_bands(rng, J, dn):
    """Random level bands on J levels (x) C^dn, zero outside the truncation."""
    coef = rng.standard_normal((dn, dn, J)) + 1j * rng.standard_normal((dn, dn, J))
    b, a, c = np.indices(coef.shape)
    coef[(c + a - b < 0) | (c + a - b >= J)] = 0.0
    return coef


def charge_stack(rng, J, d, n):
    """A stacked (n, d, d, J) band array of random factors."""
    return np.array([charge_bands(rng, J, d) for _ in range(n)]).reshape(n, d, d, J)


def charge_blocks(bands, j0=0, j1=None):
    """charge_product's blocks of levels j0 .. j1 - 1 (every level by default) on a
    fresh workspace."""
    blocks = tc.charge_product(bands, tc.Workspace(), "rows")
    return blocks(j0, bands.shape[-1] if j1 is None else j1)


def dense_factors(bands):
    """The stacked band factors, bands[k] on site n - k, as dense (x, 0, n - k) for
    ordered_product."""
    return [(tc.from_bands(coef), 0, len(bands) - k) for k, coef in enumerate(bands)]


def dense_shape(bands):
    n, d, _, J = bands.shape
    return (J,) + (d,) * n


def assert_charge_blocks_match_dense(bands):
    """charge_product of the stacked band factors against the index formula on
    the ordered_product of the densified factors, read through the pair index."""
    dims = dense_shape(bands)
    blocks, index = charge_blocks(bands), tc.pair_index(dims[1:])
    J, d = dims[0], math.prod(dims[1:])
    assert blocks.shape == (J, d * d) and index.shape == (d, d)
    prod = blocks[:, index]
    dense = tc.ordered_product(dense_factors(bands), dims).reshape(J, d, J, d)
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
    assert np.count_nonzero(expected) > J * d or len(bands) == 0  # N = 0: ones on site 0
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
            assert np.array_equal(tc.from_bands(transpose_bands(coef)),
                                  tc.from_bands(coef).T)

    def test_wrong_band_shape_rejected(self):
        rng = np.random.default_rng(23)
        for bands in (charge_bands(rng, 4, 2), np.zeros((1, 2, 3, 4)),
                      np.zeros((2, 1, 2, 3, 4)), np.zeros(4)):
            with pytest.raises(ValueError, match="band shape"):
                tc.charge_product(bands, tc.Workspace(), "rows")
        # five axes are a batch of two stacks, each of one factor
        assert charge_blocks(np.zeros((2, 1, 2, 2, 4))).shape == (2, 4, 4)
        for coef in (np.zeros((2, 3, 4)), np.zeros((1, 2, 2, 4))):
            with pytest.raises(ValueError, match="band shape"):
                tc.from_bands(coef)

    def test_band_entry_outside_truncation_rejected(self):
        # (b, a, c) with row level c + a - b outside 0 .. 3, at each site of a stack
        for entry in ((0, 1, 3), (1, 0, 0), (0, 2, 2), (2, 0, 1)):
            for k in range(3):
                bands = charge_stack(np.random.default_rng(24), 4, 3, 3)
                bands[(k, *entry)] = 1e-300
                with pytest.raises(ValueError, match="outside the truncation"):
                    tc.charge_product(bands, tc.Workspace(), "rows")
            with pytest.raises(ValueError, match="outside the truncation"):
                tc.from_bands(bands[k])


class TestChargeProduct:
    def test_index_sums(self):
        assert tc.index_sums((2, 3)).tolist() == [0, 1, 2, 1, 2, 3]
        assert tc.index_sums(()).tolist() == [0]

    def test_empty_is_identity(self):
        # no factor: the identity on site 0 alone, one block of ones per level
        for d in (2, 3):
            blocks = charge_blocks(np.zeros((0, d, d, 4)))
            assert blocks.shape == (4, 1) and np.array_equal(blocks, np.ones((4, 1)))

    # (level count J, site dimension d, site count N): stacks on the sites N..1
    DENSE_CASES = [(3, 2, 0), (5, 2, 1), (5, 2, 2), (4, 2, 3), (3, 3, 2), (2, 4, 2)]  # d > J

    def test_pair_index_is_the_site_pair_formula(self):
        for dims in ((), (2,), (3,), (2, 3, 2), (2, 2, 2, 2)):
            index = tc.pair_index(dims)
            d = math.prod(dims)
            expected = np.zeros((d, d), dtype=int)
            for r in range(d):
                for s in range(d):
                    rs = np.unravel_index(r, dims) if dims else ()
                    ss = np.unravel_index(s, dims) if dims else ()
                    for n, dn in enumerate(dims):
                        expected[r, s] = expected[r, s] * dn * dn + rs[n] * dn + ss[n]
            assert np.array_equal(index, expected)

    def test_blocks_sit_in_the_site_pair_layout(self):
        # each site's band copy lands on its own (b, a) pair, in site order
        rng = np.random.default_rng(16)
        for n in range(4):
            bands = charge_stack(rng, 4, 2, n)
            blocks = charge_blocks(bands)
            pairs = blocks.reshape((4,) + (2,) * (2 * n))
            dims = dense_shape(bands)
            dense = tc.ordered_product(dense_factors(bands), dims).reshape(dims + dims)
            for c, *rs in np.ndindex(pairs.shape):
                r, s = rs[0::2], rs[1::2]
                row = c + sum(s) - sum(r)
                want = dense[(row, *r, c, *s)] if 0 <= row < 4 else 0.0
                assert_allclose(pairs[(c, *rs)], want, rtol=1e-13, atol=1e-13)

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
        rng = np.random.default_rng(14)
        stacks = [charge_stack(rng, 4, 2, 3) for _ in range(2)]
        fresh = [charge_blocks(bands) for bands in stacks]
        ws = tc.Workspace()
        first = tc.charge_product(stacks[0], ws, "row")(0, 4)
        buffer = ws["row"]
        assert np.array_equal(first, fresh[0]) and np.shares_memory(first, buffer)
        assert np.array_equal(tc.charge_product(stacks[1], ws, "row")(0, 4), fresh[1])
        assert ws["row"] is buffer and np.array_equal(first, fresh[1])
        assert set(ws) == {"step", "row"}
        # on workspaces of their own the products share no memory
        assert not np.shares_memory(fresh[0], fresh[1])
        assert np.array_equal(fresh[0], charge_blocks(stacks[0]))

    def test_matches_dense_product(self):
        for J, d, n in self.DENSE_CASES:
            assert_charge_blocks_match_dense(charge_stack(np.random.default_rng(13), J, d, n))

    def test_window_is_a_slice_of_the_whole_row(self):
        # every window, one level or several, at either edge or inside; each build
        # overwrites the last on the one workspace
        for J, d, n in self.DENSE_CASES:
            bands = charge_stack(np.random.default_rng(13), J, d, n)
            blocks = tc.charge_product(bands, tc.Workspace(), "rows")
            whole = blocks(0, J).copy()
            assert np.count_nonzero(whole) > 0
            for j0 in range(J):
                for j1 in range(j0 + 1, J + 1):
                    assert np.array_equal(blocks(j0, j1), whole[j0:j1])

    def test_batch_matches_single_builds(self):
        # two stacks along one leading axis, or a (2, 1) grid of them, built at once
        rng = np.random.default_rng(15)
        for J, d, n in self.DENSE_CASES:
            stacks = np.array([charge_stack(rng, J, d, n) for _ in range(2)])
            for batch in (stacks, stacks[:, None]):
                blocks = tc.charge_product(batch, tc.Workspace(), "rows")
                for j0, j1 in ((0, J), (J - 1, J), (0, 1)):
                    built = blocks(j0, j1).reshape(2, j1 - j0, -1)
                    for k in range(2):
                        assert np.array_equal(built[k], charge_blocks(stacks[k], j0, j1))

    def test_clipped_light_cone_is_exact(self):
        # at J = 3 and N = 4 the light cone c - 4 .. c + 4 of every window crosses
        # both 0 and J - 1; on Gaussian-integer bands every product is exact, so the
        # clipped blocks equal the dense product's bit for bit
        bands = np.round(3.0 * charge_stack(np.random.default_rng(17), 3, 2, 4))
        dims, D = dense_shape(bands), 2 ** 4
        dense = tc.ordered_product(dense_factors(bands), dims).reshape(3, D, 3, D)
        m, index = tc.index_sums(dims[1:]), tc.pair_index(dims[1:])
        expected = np.zeros((3, D * D), dtype=complex)
        for c, r, s in np.ndindex(3, D, D):
            if 0 <= c + m[s] - m[r] < 3:
                expected[c, index[r, s]] = dense[c + m[s] - m[r], r, c, s]
        assert np.count_nonzero(expected[:, index[0, 0]]) == 3
        blocks = tc.charge_product(bands, tc.Workspace(), "rows")
        for j0, j1 in ((0, 1), (1, 2), (2, 3), (0, 3)):
            assert np.array_equal(blocks(j0, j1), expected[j0:j1])

    def test_transposed_reversed_factors_give_row_level_blocks(self):
        # P = F_1 .. F_n, the left half row's order, has P^T = F_n^T .. F_1^T, the
        # kernel's: its blocks by column level, spin axes swapped, are the blocks
        # of P by row level, X[j, r, t] = P[(j, r), (j + m(r) - m(t), t)]
        for J, d, n in self.DENSE_CASES:
            bands = charge_stack(np.random.default_rng(13), J, d, n)
            dims, D = dense_shape(bands), d ** n
            X = charge_blocks(transpose_bands(bands))[:, tc.pair_index(dims[1:]).T]
            dense = tc.ordered_product(dense_factors(bands)[::-1], dims).reshape(J, D, J, D)
            m = tc.index_sums(dims[1:])
            expected = np.zeros_like(X)
            for j in range(J):
                for r in range(D):
                    for t in range(D):
                        col = j + m[r] - m[t]
                        if 0 <= col < J:
                            expected[j, r, t] = dense[j, r, col, t]
                        else:
                            assert X[j, r, t] == 0.0
            assert np.count_nonzero(expected) > J * D or n == 0
            assert_allclose(X, expected, rtol=1e-13, atol=1e-12)


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
