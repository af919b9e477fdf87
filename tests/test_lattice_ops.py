"""Site-local operators: closed forms, inverses, crossing partners, fusion maps."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qbaxter import tensor_core as tc
from qbaxter.errors import ParameterDomainError
from qbaxter.lattice_ops import (
    iota,
    iota_retraction,
    kv_matrix,
    ktv_matrix,
    l_bands,
    l_inverse,
    l_matrix,
    l_tilde,
    r_bands,
    r_matrix,
    r_tilde,
    tau,
    tau_section,
)
from qbaxter.qoscillator import kw_diagonal, ktw_diagonal, q_powers
from qbaxter.qoscillator import osc_a, osc_adag, osc_fd, q_power_d

Q = 0.62 + 0.11j
J = 16
R = 1.3 - 0.2j
XI = 0.21 + 0.05j
XIT = 0.1 - 0.03j


def interior(mat, row_rest, col_rest, pad):
    jr = mat.shape[0] // row_rest
    jc = mat.shape[1] // col_rest
    m = mat.reshape(jr, row_rest, jc, col_rest)[: jr - pad, :, : jc - pad, :]
    return m.reshape((jr - pad) * row_rest, (jc - pad) * col_rest)


class TestRMatrix:
    def test_z_zero(self):
        assert_allclose(r_matrix(0.0, Q), np.diag([1, Q, Q, 1]))

    def test_z_one_is_scaled_swap(self):
        assert_allclose(r_matrix(1.0, Q), (1 - Q ** 2) * tc.swap_p(2, 2), atol=1e-15)

    def test_crossing_partner_matches_transpose_pipeline(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            z = complex(0.6 + rng.random(), 0.4 * rng.random())
            pipeline = tc.partial_transpose(
                np.linalg.inv(tc.partial_transpose(r_matrix(z, Q), 0, (2, 2))), 0, (2, 2))
            assert tc.rel_err(pipeline, r_tilde(z, Q)) < 1e-12

    def test_crossing_unitarity_scalar(self):
        z = 0.83 - 0.21j
        scalar = (1 - z ** 2) * (1 - Q ** 4 * z ** 2) / ((1 - Q ** 2 * z ** 2) * (1 - Q ** 6 * z ** 2))
        assert tc.rel_err(np.linalg.inv(r_tilde(z, Q)), scalar * r_matrix(Q ** 2 * z, Q)) < 1e-12


class TestLOperator:
    def test_z_zero_block_diagonal(self):
        l0 = l_matrix(0.0, R, Q, J).reshape(J, 2, J, 2)
        for j in range(J):
            assert abs(l0[j, 0, j, 0] - R * Q ** j) < 1e-14
            assert abs(l0[j, 1, j, 1] - Q ** (-j)) < 1e-14
        assert np.abs(l0[:, 0, :, 1]).max() == 0.0

    def test_r_factorization(self):
        z = 0.87 + 0.31j
        rhs = l_matrix(z, 1.0, Q, J) @ np.kron(np.eye(J), np.diag([R, 1.0]))
        assert tc.rel_err(l_matrix(z, R, Q, J), rhs) < 1e-14

    def test_inverse_on_interior(self):
        z = 0.77 - 0.23j
        prod = l_matrix(z, R, Q, J) @ l_inverse(z, R, Q, J)
        assert np.abs(interior(prod - np.eye(2 * J), 2, 2, 2)).max() < 1e-12

    def test_inverse_singularity(self):
        with pytest.raises(ParameterDomainError):
            l_inverse(1.0, R, Q, J)

    def test_partial_transpose_closed_form(self):
        # displayed blocks of L^{t2} over W (x) V
        z = 0.91 + 0.17j
        a, adag = osc_a(J), osc_adag(Q, J)
        qd, qmd = q_power_d(Q, J, 1), q_power_d(Q, J, -1)
        blocks = np.zeros((J, 2, J, 2), dtype=complex)
        blocks[:, 0, :, 0] = R * qd
        blocks[:, 0, :, 1] = -Q * Q * z * R * (qd @ a)
        blocks[:, 1, :, 0] = -z * (qmd @ adag)
        blocks[:, 1, :, 1] = osc_fd(lambda j: Q ** (-j) * (1.0 - Q ** (2 * (j + 1)) * z * z), J)
        closed_form = blocks.reshape(2 * J, 2 * J)
        assert tc.rel_err(closed_form, tc.partial_transpose(l_matrix(z, R, Q, J), 1, (J, 2))) < 1e-14

    def test_transpose_inverse_closed_form(self):
        z = 0.66 - 0.4j
        lt2 = tc.partial_transpose(l_matrix(z, R, Q, J), 1, (J, 2))
        inv = tc.partial_transpose(l_tilde(z, R, Q, J), 1, (J, 2))
        prod = lt2 @ inv
        # backward-error scale of a product with growing entries
        scale = max(1.0, np.abs(lt2).max() * np.abs(inv).max())
        assert np.abs(interior(prod - np.eye(2 * J), 2, 2, 2)).max() < 1e-14 * scale

    def test_crossing_partner_two_construction_paths(self):
        z = 0.84 + 0.27j
        lt2 = tc.partial_transpose(l_matrix(z, R, Q, J), 1, (J, 2))
        pipeline = tc.partial_transpose(np.linalg.inv(lt2), 1, (J, 2))
        assert tc.rel_err(interior(pipeline, 2, 2, 4), interior(l_tilde(z, R, Q, J), 2, 2, 4)) < 1e-10

    def test_crossing_partner_z_zero(self):
        lt0 = l_tilde(0.0, R, Q, J).reshape(J, 2, J, 2)
        for j in range(J):
            expected = Q ** (-j) / R
            assert abs(lt0[j, 0, j, 0] - expected) < 1e-14 * max(1.0, abs(expected))
            assert abs(lt0[j, 1, j, 1] - Q ** j) < 1e-14

    def test_crossing_unitarity(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            z = complex(0.6 + 0.6 * rng.random(), 0.4 * (rng.random() - 0.5))
            prod = l_tilde(z, R, Q, J) @ (
                (1 - Q ** 2 * z ** 2) / (1 - Q ** 4 * z ** 2) * l_matrix(Q ** 2 * z, R, Q, J))
            assert np.abs(interior(prod - np.eye(2 * J), 2, 2, 3)).max() < 1e-10


def dense_wv(b00, b01, b10, b11):
    J = b00.shape[0]
    out = np.zeros((J, 2, J, 2), dtype=complex)
    out[:, 0, :, 0], out[:, 0, :, 1], out[:, 1, :, 0], out[:, 1, :, 1] = b00, b01, b10, b11
    return out.reshape(2 * J, 2 * J)


def dense_l_variants(z, r, q, J):
    """L, its inverse and the inverse of its V-transpose from the dense ladder
    matrices, as the closed forms are displayed."""
    a, adag, qd, qmd = osc_a(J), osc_adag(q, J), q_power_d(q, J, 1), q_power_d(q, J, -1)
    lm = dense_wv(r * qd, -(z / q) * (adag @ qmd), -q * z * r * (a @ qd),
                  osc_fd(lambda j: (1.0 - q ** (2 * (j + 1)) * z * z) * q ** (-j), J))
    s = 1.0 / (1.0 - z * z)
    li = dense_wv((s / r) * osc_fd(lambda j: (1.0 - q ** (2 * j) * z * z) * q ** (-j), J),
                  (s * z / (q * r)) * (qmd @ adag), s * q * z * (qd @ a), s * qd)
    s = 1.0 / (1.0 - q * q * z * z)
    lti = dense_wv((s / r) * osc_fd(lambda j: (1.0 - q ** (2 * (j + 2)) * z * z) * q ** (-j), J),
                   s * q * q * z * (a @ qd), (s * z / r) * (adag @ qmd), s * qd)
    return lm, li, lti


class TestLevelBandOracle:
    @pytest.mark.parametrize("cutoff", [2, 3, 40])
    def test_against_dense_ladders(self, cutoff):
        rng = np.random.default_rng(cutoff)
        for _ in range(4):
            q = (0.3 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
            z = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
            r = (0.5 + rng.random()) * np.exp(2j * np.pi * rng.random())
            banded = (l_matrix(z, r, q, cutoff), l_inverse(z, r, q, cutoff),
                      tc.partial_transpose(l_tilde(z, r, q, cutoff), 1, (cutoff, 2)))
            for got, want in zip(banded, dense_l_variants(z, r, q, cutoff)):
                assert got.shape == (2 * cutoff, 2 * cutoff)
                # each entry is a product of at most four rounded factors
                assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("build", [
        l_matrix, l_inverse, l_tilde, iota,
        pytest.param(lambda z, r, q, J: tc.partial_transpose(l_tilde(z, r, q, J), 1, (J, 2)),
                     id="l_transpose2_inverse")])
    def test_fractional_cutoff_rejected(self, build):
        args = (R, Q) if build is iota else (0.7 + 0.2j, R, Q)
        for cutoff in (12.7, 2.5, 12.0, True, "7"):
            with pytest.raises(ValueError, match="integer >= 2"):
                build(*args, cutoff)

    def test_numpy_integer_cutoff_accepted(self):
        z = 0.7 + 0.2j
        assert_allclose(l_matrix(z, R, Q, np.int64(12)), l_matrix(z, R, Q, 12), rtol=0, atol=0)


class TestLevelBands:
    POINTS = ((0.7 + 0.2j, R), (1.1 - 0.3j, 1.0), (0.0, R))

    @pytest.mark.parametrize("cutoff", [2, 3, 40])
    def test_l_bands_densify_to_the_block_assembly(self, cutoff):
        p = q_powers(Q, cutoff)
        for z, r in self.POINTS:
            # the four blocks: two diagonals, a sub- and a super-diagonal
            b01, b10 = -(z / Q) * ((1.0 - p(2, 2)) * p(0, -1)), -Q * z * r * p(1)
            want = dense_wv(np.diag(r * p(0)), np.diag(b01[:-1], -1), np.diag(b10[:-1], 1),
                            np.diag((1.0 - p(2, 2) * z * z) * p(0, -1)))
            assert np.array_equal(tc.from_bands(l_bands([z], r, Q, cutoff)[0]), want)
            assert np.array_equal(l_matrix(z, r, Q, cutoff), want)

    def test_r_bands_densify_to_the_display(self):
        for z in (0.0, 0.7 + 0.2j, 1.0):
            a, b, c = 1.0 - Q * Q * z * z, Q * (1.0 - z * z), (1.0 - Q * Q) * z
            want = np.array([[a, 0, 0, 0], [0, b, c, 0], [0, c, b, 0], [0, 0, 0, a]],
                            dtype=complex)
            assert np.array_equal(tc.from_bands(r_bands([z], Q)[0]), want)
            assert np.array_equal(r_matrix(z, Q), want)

    def test_band_transpose_is_the_dense_transpose(self):
        for z, r in self.POINTS:
            assert np.array_equal(tc.from_bands(tc.transpose_bands(l_bands([z], r, Q, J)[0])),
                                  l_matrix(z, r, Q, J).T)
            assert np.array_equal(tc.from_bands(tc.transpose_bands(r_bands([z], Q)[0])),
                                  r_matrix(z, Q).T)

    def test_stacks_match_one_call_per_point(self):
        zs = [z * (1.0 + 0.1 * k) for k, (z, _) in enumerate(self.POINTS)]
        for r in (1.0, R):
            stack = l_bands(zs, r, Q, J)
            assert stack.shape == (len(zs), 2, 2, J)
            for z, bands in zip(zs, stack):
                assert np.array_equal(bands, l_bands([z], r, Q, J)[0])
            for bands, transposed in zip(stack, tc.transpose_bands(stack)):
                assert np.array_equal(transposed, tc.transpose_bands(bands))
        stack = r_bands(zs, Q)
        assert stack.shape == (len(zs), 2, 2, 2)
        for z, bands in zip(zs, stack):
            assert np.array_equal(bands, r_bands([z], Q)[0])
            assert np.array_equal(tc.from_bands(bands), r_matrix(z, Q))

    def test_empty_stacks(self):
        assert l_bands([], R, Q, J).shape == (0, 2, 2, J)
        assert r_bands([], Q).shape == (0, 2, 2, 2)
        assert tc.transpose_bands(l_bands([], R, Q, J)).shape == (0, 2, 2, J)


class TestBoundaryMatrices:
    def test_kv_displays(self):
        z = 0.7 + 0.3j
        assert_allclose(kv_matrix(z, XI), np.diag([XI * z ** 2 - 1, XI - z ** 2]))
        assert_allclose(kv_matrix(1.0, XI), (XI - 1) * np.eye(2))
        assert_allclose(ktv_matrix(z, XIT, Q),
                        np.diag([Q ** 2 * XIT * z ** 2 - 1, XIT - Q ** 2 * z ** 2]))

    def test_kv_reflection_equation(self):
        rng = np.random.default_rng(2)
        for _ in range(4):
            y = complex(0.5 + rng.random(), 0.3 * rng.random())
            z = complex(0.5 + rng.random(), 0.3 * rng.random())
            k1 = tc.embed(kv_matrix(y, XI), (0,), (2, 2))
            k2 = tc.embed(kv_matrix(z, XI), (1,), (2, 2))
            ra, rb = r_matrix(y / z, Q), r_matrix(y * z, Q)
            assert tc.rel_err(ra @ k1 @ rb @ k2, k2 @ rb @ k1 @ ra) < 1e-13

    def test_left_from_right_inversion(self):
        # the left matrices arise from the inverted, reparametrized right ones;
        # on V the stated scalar needs an extra 1/xitilde to normalize
        z = 0.77 + 0.21j
        f_v = (Q ** 2 * XIT * z ** 2 - 1) * (Q ** 2 * z ** 2 - XIT)
        rhs = (f_v / XIT) * np.linalg.inv(kv_matrix(Q * z, 1.0 / XIT))
        assert tc.rel_err(ktv_matrix(z, XIT, Q), rhs) < 1e-13
        f_w = 1.0 / (1 - Q ** 2 * XIT * z ** 2)
        rhs_w = f_w * np.linalg.inv(kw_diagonal(Q * z, R, 1.0 / XIT, Q, J).dense())
        assert tc.rel_err(ktw_diagonal(z, R, XIT, Q, J).dense(), rhs_w) < 1e-12


class TestFusionIntertwiners:
    def test_iota_display(self):
        io = iota(R, Q, J).reshape(J, 2, J)
        assert abs(io[1, 0, 0] - (Q ** -1 - Q)) < 1e-15
        assert abs(io[0, 1, 0] - Q * R) < 1e-15

    def test_tau_display(self):
        ta = tau(R, Q, J).reshape(J, J, 2)
        assert ta[0, 0, 0] == 1.0
        assert abs(ta[1, 0, 1] - (Q - Q ** -1) / R) < 1e-15

    def test_tau_iota_vanishes(self):
        prod = tau(R, Q, J) @ iota(R, Q, J)
        assert np.abs(prod[: J - 1, : J - 1]).max() < 1e-13

    def test_section_and_retraction(self):
        ta, ts = tau(R, Q, J), tau_section(Q, J)
        io, ir = iota(R, Q, J), iota_retraction(R, Q, J)
        assert_allclose(ta @ ts, np.eye(J), atol=1e-13)
        assert_allclose(ir @ io, np.eye(J), atol=1e-13)
        assert np.abs(ir @ ts).max() == 0.0
        comp = io @ ir + ts @ ta - np.eye(2 * J)
        scale = max(np.abs(io).max() * np.abs(ir).max(), 1.0)
        assert np.abs(interior(comp, 2, 2, 2)).max() < 1e-13 * scale
