"""Chain-level objects: monodromies, transfer matrices, traces, closed chain."""

import cmath

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qbaxter import chain as ch
from qbaxter import tensor_core as tc
from qbaxter.errors import ExclusionPointError, ParameterDomainError, TailCertificateError
from qbaxter.lattice_ops import kv_matrix, r_matrix


@pytest.fixture(scope="module")
def params2():
    return ch.sample_params(2, seed=11, tol=1e-10)


@pytest.fixture(scope="module")
def params0():
    return ch.sample_params(0, seed=11, tol=1e-12)


class TestChainParams:
    def test_convergence_region_enforced(self):
        with pytest.raises(ParameterDomainError):
            ch.ChainParams(q=0.5, xi=1.0, xitilde=1.0, n_sites=2, t=(1.0, 1.0))

    def test_inhomogeneity_count(self):
        with pytest.raises(ParameterDomainError):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=2, t=(1.0,))

    def test_cutoff_preflight(self):
        with pytest.raises(ParameterDomainError):
            ch.ChainParams(q=0.5, xi=0.12, xitilde=0.1, n_sites=1,
                           t=(1.0,), cutoff=4, tol=1e-12)

    def test_q_range(self):
        with pytest.raises(ParameterDomainError):
            ch.ChainParams(q=1.2, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,))

    def test_with_sites(self, params2):
        p3 = params2.with_sites(3)
        assert p3.n_sites == 3 and len(p3.t) == 3
        assert p3.t[:2] == params2.t[:2]


class TestExclusionSet:
    def test_membership(self, params2):
        assert ch.in_exclusion_set(cmath.sqrt(params2.xi), params2)
        assert ch.in_exclusion_set(-cmath.sqrt(params2.xi), params2)
        assert ch.in_exclusion_set(params2.q ** -1 / cmath.sqrt(params2.xitilde), params2)
        assert not ch.in_exclusion_set(0.0, params2)


class TestMonodromy:
    def test_empty_chain_reduces_to_boundary(self, params0):
        z = 0.8 + 0.1j
        assert_allclose(ch.monodromy_v(z, params0), kv_matrix(z, params0.xi))

    def test_reflection_relation_one_site(self, params2):
        p = params2.with_sites(1)
        q = p.q
        shape = (2, 2, 2)
        sites = (2,)
        y, z = 0.9 + 0.2j, 0.7 - 0.3j
        m1 = ch.monodromy_v(y, p, shape=shape, aux=0, sites=sites)
        m2 = ch.monodromy_v(z, p, shape=shape, aux=1, sites=sites)
        ra = tc.embed(r_matrix(y / z, q), 0, 1, shape)
        rb = tc.embed(r_matrix(y * z, q), 0, 1, shape)
        assert tc.rel_err(ra @ m1 @ rb @ m2, m2 @ rb @ m1 @ ra) < 1e-12

    def test_spin_weight_commutes(self, params2):
        y = 1.7 - 0.4j
        n = params2.n_sites
        d_full = np.kron(np.diag([1.0, y]), np.diag(ch.spin_weights(n, 1.0, y)))
        m = ch.monodromy_v(0.83 + 0.2j, params2)
        assert tc.rel_err(d_full @ m, m @ d_full) < 1e-13


class TestTransferV:
    def test_empty_chain_scalar(self, params0):
        z = 0.9 + 0.3j
        q, xi, xit = params0.q, params0.xi, params0.xitilde
        expected = (xi * z ** 2 - 1) * (q ** 2 * xit * z ** 2 - 1) \
            + (xi - z ** 2) * (xit - q ** 2 * z ** 2)
        assert abs(ch.transfer_v(z, params0)[0, 0] - expected) < 1e-13 * abs(expected)

    def test_crossing(self, params2):
        z = 1.05 + 0.3j
        q, n = params2.q, params2.n_sites
        lhs = ch.transfer_v(1.0 / (q * z), params2)
        rhs = (q * z * z) ** (-2 * (n + 1)) * ch.transfer_v(z, params2)
        assert tc.rel_err(lhs, rhs) < 1e-12

    def test_parity(self, params2):
        z = 0.77 + 0.31j
        assert tc.rel_err(ch.transfer_v(z, params2), ch.transfer_v(-z, params2)) == 0.0

    def test_entries_interpolate_in_z_squared(self, params2):
        n = params2.n_sites
        deg = 2 * (n + 1)
        # half-circle angles keep the squared nodes distinct
        nodes = [0.9 * cmath.exp(1j * cmath.pi * (k + 0.17) / (deg + 2)) for k in range(deg + 2)]
        vmat = np.vander(np.array([z ** 2 for z in nodes]), deg + 1, increasing=True)
        samples = np.array([ch.transfer_v(z, params2).reshape(-1) for z in nodes])
        coeffs, *_ = np.linalg.lstsq(vmat, samples, rcond=None)
        zh = 0.8 * cmath.exp(0.61j)
        pred = (np.vander(np.array([zh ** 2]), deg + 1, increasing=True) @ coeffs)
        actual = ch.transfer_v(zh, params2).reshape(-1)
        assert np.abs(pred - actual).max() < 1e-9 * max(1.0, np.abs(actual).max())


class TestTransferW:
    def test_origin_golden_value(self, params2):
        n = params2.n_sites
        tw0 = ch.transfer_w(0.0, params2)
        diag = np.array([1.0 / (1.0 - params2.q ** (2 * (n - 2 * bin(i).count("1")))
                                * params2.xi * params2.xitilde) for i in range(2 ** n)])
        assert tc.rel_err(tw0, np.diag(diag)) < 1e-11

    def test_empty_chain_is_constant(self, params0):
        const = 1.0 / (1.0 - params0.xi * params0.xitilde)
        for z in (0.0, 0.83 + 0.21j, 1.2 - 0.4j):
            assert abs(ch.transfer_w(z, params0)[0, 0] - const) < 1e-12 * abs(const)

    def test_sector_structure(self, params2):
        tw = ch.transfer_w(0.88 + 0.21j, params2)
        n = params2.n_sites
        for row in range(2 ** n):
            for col in range(2 ** n):
                if bin(row).count("1") != bin(col).count("1"):
                    assert abs(tw[row, col]) < 1e-13

    def test_parity(self, params2):
        z = 0.91 - 0.17j
        assert tc.rel_err(ch.transfer_w(z, params2), ch.transfer_w(-z, params2)) < 1e-14

    def test_exclusion_point_flagged(self, params2):
        with pytest.raises(ExclusionPointError):
            ch.transfer_w(cmath.sqrt(params2.xi), params2)

    def test_tail_certificate_failure(self):
        p = ch.ChainParams(q=0.6, xi=0.17, xitilde=0.17, n_sites=1, t=(1.0,),
                           cutoff=60, tol=1e-10)
        with pytest.raises(TailCertificateError):
            ch.transfer_w(0.9 + 0.1j, p, cutoff=9)

    def test_cutoff_stability(self, params2):
        z = 0.86 + 0.27j
        a = ch.transfer_w(z, params2)
        b = ch.transfer_w(z, params2, cutoff=params2.cutoff + 5)
        assert tc.rel_err(a, b) < params2.tol

    def test_q_operator_weighting(self, params2):
        z = 0.78 + 0.33j
        w = ch.spin_weights(params2.n_sites, z ** 2, 1.0)
        assert_allclose(ch.q_operator(z, params2),
                        w[:, None] * ch.transfer_w(z, params2), atol=1e-15)


class TestCoefficientPolynomials:
    def test_special_values(self, params2):
        assert ch.p_plus(1.0, params2) == 0.0
        n = params2.n_sites
        assert abs(ch.p_minus(0.0, params2) - params2.q ** (2 * n)) < 1e-14

    def test_inversion_ratio(self, params2):
        q, n = params2.q, params2.n_sites
        for z in (0.9 + 0.2j, 1.3 - 0.5j):
            lhs = ch.p_plus(1.0 / (q * z), params2) / ch.p_minus(z, params2)
            rhs = -q ** (-2 * (3 * n + 2)) * z ** (-4 * (n + 2))
            assert abs(lhs - rhs) < 1e-10 * abs(rhs)


class TestDiagonalRecursion:
    def test_empty_pattern(self, params0):
        coeffs = ch.tw_diagonal_recursion((), params0)
        assert coeffs.size == 1
        assert abs(coeffs[0] - 1.0 / (1.0 - params0.xi * params0.xitilde)) < 1e-15

    def test_raised_pattern_shifts_boundary(self, params2):
        n = params2.n_sites
        coeffs = ch.tw_diagonal_recursion((0,) * n, params2)
        expected = 1.0 / (1.0 - params2.xi * params2.q ** (2 * n) * params2.xitilde)
        assert coeffs.size == 1 or np.abs(coeffs[1:]).max() < 1e-14
        assert abs(coeffs[0] - expected) < 1e-13

    @pytest.mark.parametrize("alpha", [(1, 0), (0, 1), (1, 1)])
    def test_matches_traced_entry(self, params2, alpha):
        coeffs = ch.tw_diagonal_recursion(alpha, params2)
        idx = int("".join(map(str, alpha)), 2)
        rng = np.random.default_rng(4)
        for _ in range(5):
            z = (0.7 + 0.5 * rng.random()) * cmath.exp(2j * cmath.pi * rng.random())
            if ch.in_exclusion_set(z, params2):
                continue
            val = complex(np.polyval(coeffs[::-1], z ** 2))
            entry = ch.transfer_w(z, params2)[idx, idx]
            assert abs(entry - val) < 1e-9 * max(1.0, abs(val))

    def test_bad_pattern(self, params2):
        with pytest.raises(ValueError):
            ch.tw_diagonal_recursion((0, 2), params2)


class TestTotalSpin:
    def test_single_site(self):
        assert_allclose(ch.total_spin(1), np.diag([1.0, -1.0]))

    def test_highest_weight(self, params2):
        n = params2.n_sites
        v = np.zeros(2 ** n)
        v[0] = 1.0
        assert_allclose(ch.total_spin(n) @ v, n * v)

    def test_commutes_with_transfer(self, params2):
        tv = ch.transfer_v(0.81 + 0.23j, params2)
        sig = ch.total_spin(params2.n_sites)
        assert tc.rel_err(sig @ tv, tv @ sig) < 1e-13


class TestSpinSector:
    def test_indices_not_an_argument(self):
        with pytest.raises(TypeError):
            ch.SpinSector(1, 2, indices=(0,))


class TestClosedChain:
    def test_twist_validation(self, params2):
        bad = ch.ChainParams(q=params2.q, xi=params2.xi, xitilde=params2.xitilde,
                             n_sites=params2.n_sites, t=params2.t, zeta=1.5,
                             cutoff=params2.cutoff, tol=params2.tol)
        with pytest.raises(ParameterDomainError):
            ch.closed_transfer_v(0.9, bad)

    def test_origin_golden_value(self, params2):
        n = params2.n_sites
        tw0 = ch.closed_transfer_w(0.0, params2)
        ref = np.diag(np.array([1.0 / (1.0 - params2.zeta * params2.q ** (n - 2 * bin(i).count("1")))
                                for i in range(2 ** n)], dtype=complex))
        assert tc.rel_err(tw0, ref) < 1e-11

    def test_functional_relation(self, params2):
        q = params2.q
        for z in (0.9 + 0.25j, 0.7 - 0.4j):
            lhs = ch.closed_transfer_v(z, params2) @ ch.closed_q(z, params2)
            rhs = ch.closed_p_plus(z, params2) * ch.closed_q(q * z, params2) \
                + ch.closed_p_minus(z, params2) * ch.closed_q(z / q, params2)
            assert tc.rel_err(lhs, rhs) < 1e-9

    def test_entries_polynomial_degree_bound(self, params2):
        n, d = params2.n_sites, params2.dim
        nodes = [0.95 * cmath.exp(2j * cmath.pi * (k + 0.31) / (2 * n + 2))
                 for k in range(2 * n + 2)]
        vmat = np.vander(np.array(nodes), 2 * n + 1, increasing=True)
        samples = np.array([ch.closed_q(z, params2).reshape(-1) for z in nodes])
        coeffs, *_ = np.linalg.lstsq(vmat, samples, rcond=None)
        zh = 0.85 * cmath.exp(1.13j)
        pred = (np.vander(np.array([zh]), 2 * n + 1, increasing=True) @ coeffs).reshape(d, d)
        assert tc.rel_err(pred, ch.closed_q(zh, params2)) < 1e-9

    def test_cutoff_stability(self, params2):
        z = 0.77 + 0.2j
        a = ch.closed_transfer_w(z, params2)
        b = ch.closed_transfer_w(z, params2, cutoff=params2.cutoff + 5)
        assert tc.rel_err(a, b) < params2.tol
