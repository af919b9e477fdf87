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
    kw_diagonal,
    ktw_diagonal,
    l_inverse,
    l_matrix,
    l_tilde,
    l_transpose2,
    l_transpose2_inverse,
    r_matrix,
    r_tilde,
    tau,
    tau_section,
)
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
        assert tc.rel_err(closed_form, l_transpose2(z, R, Q, J)) < 1e-14

    def test_transpose_inverse_closed_form(self):
        z = 0.66 - 0.4j
        lt2 = l_transpose2(z, R, Q, J)
        inv = l_transpose2_inverse(z, R, Q, J)
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
            k1 = tc.embed_site(kv_matrix(y, XI), 0, (2, 2))
            k2 = tc.embed_site(kv_matrix(z, XI), 1, (2, 2))
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
