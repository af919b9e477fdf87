"""Chain-level objects: monodromies, transfer matrices, traces, closed chain."""

import cmath
import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import closed_fock_trace, open_fock_trace, transpose_bands
from qbaxter import chain as ch
from qbaxter import tensor_core as tc
from qbaxter.errors import (
    ExclusionPointError,
    OverflowGuardError,
    ParameterDomainError,
    QBaxterError,
    TailCertificateError,
)
from qbaxter.lattice_ops import ktv_matrix, kv_matrix, l_bands, l_matrix, r_bands, r_matrix
from qbaxter.qoscillator import (
    FockDiagonal,
    kw_diagonal,
    ktw_diagonal,
    validate_count,
    validate_cutoff,
)

HUGE = 10 ** 400  # an integer too large for a float


def huge_id(value):
    """Test id 10**400 for HUGE (and -HUGE), pytest's own for anything else."""
    return repr(value).replace(str(HUGE), "10**400") if value in (HUGE, -HUGE) else None


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
        # the parameters no longer weigh the cutoff against the tail ratio: a cutoff below
        # the 2N + 4 levels the open trace's fixed sum reads raises at the trace
        p = ch.ChainParams(q=0.5, xi=0.12, xitilde=0.1, n_sites=1, t=(1.0,), cutoff=4, tol=1e-12)
        with pytest.raises(TailCertificateError, match="cutoff 4 is below 6"):
            ch.transfer_w(0.83 + 0.21j, p)
        slow = ch.ChainParams(q=0.5, xi=0.2, xitilde=0.2, n_sites=1, t=(1.0,), cutoff=8, tol=1e-12)
        assert slow.tail_ratio ** slow.cutoff > slow.tol

    def test_q_range(self):
        with pytest.raises(ParameterDomainError):
            ch.ChainParams(q=1.2, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,))

    def test_negative_site_count(self):
        with pytest.raises(ParameterDomainError, match="n_sites"):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=-1, t=())

    def test_zero_inhomogeneity(self):
        with pytest.raises(ParameterDomainError, match="inhomogeneities"):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=2, t=(1.0, 0.0))

    @pytest.mark.parametrize("xi, xitilde", [(0.0, 0.1), (0.1, 0.0)])
    def test_zero_boundary_parameter(self, xi, xitilde):
        with pytest.raises(ParameterDomainError, match="boundary"):
            ch.ChainParams(q=0.5, xi=xi, xitilde=xitilde, n_sites=1, t=(1.0,))

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-10, True, "1e-9", HUGE],
                             ids=huge_id)
    def test_tol_must_be_finite_positive(self, tol):
        with pytest.raises(ParameterDomainError, match="tol"):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,), tol=tol)

    @pytest.mark.parametrize("radius", [float("nan"), float("inf"), -1.0, True, "0.05", HUGE],
                             ids=huge_id)
    def test_exclusion_radius_must_be_finite_nonnegative(self, radius):
        with pytest.raises(ParameterDomainError, match="exclusion_radius"):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,),
                           exclusion_radius=radius)

    @pytest.mark.parametrize("field, value", [
        ("q", float("nan")), ("q", "0.6"), ("q", True), ("q", None),
        ("xi", float("nan")), ("xi", complex(0.1, float("inf"))), ("xitilde", float("inf")),
        ("xitilde", "0.1"), ("zeta", float("nan")), ("zeta", True),
        ("t", (float("inf"),)), ("t", (float("nan"),)), ("t", (None,)), ("t", ("1.0",)),
        ("t", (True,)), ("t", 1.0), ("q", HUGE), ("xi", complex(1.7e308, 1.7e308)),
        ("zeta", -HUGE), ("t", (HUGE,))], ids=huge_id)
    def test_complex_field_must_be_finite_number(self, field, value):
        params = dict(q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,))
        with pytest.raises(ParameterDomainError, match=rf"^{field}\b"):
            ch.ChainParams(**{**params, field: value})

    def test_zero_exclusion_radius_accepted(self):
        p = ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,),
                           exclusion_radius=0.0)
        assert p.exclusion_radius == 0.0

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0, True, "1e-9", HUGE],
                             ids=huge_id)
    def test_sampler_tol_must_be_finite_positive(self, tol):
        with pytest.raises(ParameterDomainError, match="tol"):
            ch.sample_params(2, seed=3, tol=tol)

    @pytest.mark.parametrize("radius", [float("nan"), -1.0, True, "0.05"])
    def test_sampler_exclusion_radius_must_be_finite_nonnegative(self, radius):
        with pytest.raises(ParameterDomainError, match="exclusion_radius"):
            ch.sample_params(2, seed=1, exclusion_radius=radius)

    @pytest.mark.parametrize("seed", [True, -1, 1.5, "1"])
    def test_sampler_seed_must_be_nonnegative_integer(self, seed):
        with pytest.raises(ParameterDomainError, match="seed"):
            ch.sample_params(2, seed)

    def test_numpy_seed_accepted(self):
        assert ch.sample_params(2, np.int64(3)) == ch.sample_params(2, 3)

    def test_fractional_cutoff_rejected(self):
        with pytest.raises(ParameterDomainError, match="cutoff"):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,), cutoff=40.7)
        with pytest.raises(ParameterDomainError, match="cutoff"):
            ch.sample_params(2, seed=3, cutoff=40.7)

    @pytest.mark.parametrize("cutoff", ["7", "50", True])
    def test_string_and_bool_cutoff_rejected(self, cutoff):
        with pytest.raises(ParameterDomainError, match="cutoff"):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,), cutoff=cutoff)
        with pytest.raises(ParameterDomainError, match="cutoff"):
            ch.sample_params(2, seed=1, cutoff=cutoff)

    def test_integral_float_cutoff_rejected(self):
        with pytest.raises(ParameterDomainError, match="cutoff"):
            ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,), cutoff=41.0)

    @pytest.mark.parametrize("n_sites", [2.0, True])
    def test_non_integer_site_count_rejected(self, n_sites):
        t = (1.0,) * int(n_sites)
        with pytest.raises(ParameterDomainError, match="n_sites"):
            ch.ChainParams(q=0.5, xi=0.01, xitilde=0.01, n_sites=n_sites, t=t)
        with pytest.raises(ParameterDomainError, match="n_sites"):
            ch.sample_params(n_sites, seed=3)

    def test_with_sites(self, params2):
        p3 = params2.with_sites(3)
        assert p3.n_sites == 3 and len(p3.t) == 3
        assert p3.t[:2] == params2.t[:2]


# every count the package takes: the field its error names, its least value, a call with it
COUNTS = {
    "ChainParams.n_sites": ("n_sites", 0, lambda p, v: ch.ChainParams(
        q=0.5, xi=0.01, xitilde=0.01, n_sites=v, t=(1.0, 1.0))),
    "ChainParams.cutoff": ("cutoff", 2, lambda p, v: ch.ChainParams(
        q=0.5, xi=0.1, xitilde=0.1, n_sites=1, t=(1.0,), cutoff=v)),
    "sample_params.n_sites": ("n_sites", 0, lambda p, v: ch.sample_params(v, 3)),
    "sample_params.seed": ("seed", 0, lambda p, v: ch.sample_params(2, v)),
    "sample_params.cutoff": ("cutoff", 2, lambda p, v: ch.sample_params(2, 3, cutoff=v)),
    "with_sites": ("n_sites", 0, lambda p, v: p.with_sites(v)),
    "transfer_w.cutoff": ("cutoff", 2, lambda p, v: ch.transfer_w(0.83 + 0.21j, p, cutoff=v)),
    "l_matrix.J": ("cutoff", 2, lambda p, v: l_matrix(0.7 + 0.2j, 1.0, p.q, v)),
    "kw_diagonal.J": ("cutoff", 2, lambda p, v: kw_diagonal(0.83 + 0.21j, 1.0, p.xi, p.q, v)),
}


class TestCountRule:
    @pytest.mark.parametrize("entry, value", [
        (entry, value) for entry, (_, least, _) in COUNTS.items()
        for value in (True, 2.5, 41.0, "3", None, least - 1, HUGE)
        # a trace's cutoff=None asks for its params.cutoff
        if not (value is None and entry == "transfer_w.cutoff")],
        ids=huge_id)
    def test_non_count_rejected(self, params2, entry, value):
        field, _, call = COUNTS[entry]
        with pytest.raises(ParameterDomainError, match=rf"^{field}\b"):
            call(params2, value)

    def test_numpy_counts_come_back_as_int(self, params2):
        for value in (np.int64(2), np.int32(40), np.uint8(2)):
            assert validate_count("n", value, 2) == value
            assert type(validate_count("n", value, 2)) is type(validate_cutoff(value)) is int
        p = ch.sample_params(np.int64(2), np.int64(3), cutoff=np.int64(41))
        assert p == ch.sample_params(2, 3, cutoff=41)
        p = ch.ChainParams(q=0.5, xi=0.1, xitilde=0.1, n_sites=np.int64(1), t=(1.0,),
                           cutoff=np.int64(41))
        assert type(p.n_sites) is type(p.cutoff) is int
        assert type(params2.with_sites(np.int64(3)).n_sites) is int
        z = 0.83 + 0.21j
        assert np.array_equal(ch.transfer_w(z, params2, cutoff=np.int64(41)),
                              ch.transfer_w(z, params2, cutoff=41))


SPECTRAL = (ch.transfer_v, ch.transfer_w, ch.q_operator,
            ch.closed_transfer_v, ch.closed_transfer_w, ch.closed_q)


@pytest.mark.parametrize("z", [float("nan"), float("inf"), "0.5", True, None, HUGE,
                               complex(1.7e308, 1.7e308)], ids=huge_id)
@pytest.mark.parametrize("function", SPECTRAL, ids=lambda f: f.__name__)
def test_spectral_point_must_be_finite_number(params2, function, z):
    with pytest.raises(ParameterDomainError, match=r"^z\b"):
        function(z, params2)


@pytest.mark.parametrize("n_sites, seed", [(2, 1), (3, 1), (3, 3), (4, 11)])
@pytest.mark.parametrize("function", SPECTRAL, ids=lambda f: f.__name__)
def test_spectral_point_type_leaves_rows_bit_equal(function, n_sites, seed):
    # numpy's complex arithmetic rounds z / t and t * z differently from Python's
    p = ch.sample_params(n_sites, seed, tol=1e-10)
    for z in (0.83 + 0.21j, 1.1 - 0.3j, -0.7 + 0.45j, 0.35 + 0.9j):
        assert np.array_equal(function(z, p), function(np.complex128(z), p))


@pytest.mark.parametrize("n_sites", [1, 2, 3])
def test_extreme_spectral_points_give_finite_rows_or_typed_errors(n_sites):
    # past about |z| = 1e154 a row's entries or their squares leave floating range
    with np.errstate(all="ignore"):
        for seed, function in itertools.product(range(6), SPECTRAL):
            p = ch.sample_params(n_sites, seed)
            for z in (1e20, 1e40, 1e80, 1e160, 1e300, 1.7e308):
                try:
                    out = function(z, p)
                except QBaxterError:
                    continue
                assert np.isfinite(out).all(), (function.__name__, seed, z)


def test_spin_weights_beyond_floating_range_raise_the_guard():
    for top in (1e200, 1e200 + 0j):
        with pytest.raises(OverflowGuardError, match="spin weight"):
            ch.spin_weights(3, top, 1.0)


class TestExclusionSet:
    def test_membership(self, params2):
        # the set holds the left boundary diagonal's poles only; the right one is a polynomial
        root_xi = cmath.sqrt(params2.xi)
        for i in range(params2.n_sites):
            assert not ch.in_exclusion_set(params2.q ** i * root_xi, params2)
            assert not ch.in_exclusion_set(-params2.q ** i * root_xi, params2)
        assert ch.in_exclusion_set(params2.q ** -1 / cmath.sqrt(params2.xitilde), params2)
        assert not ch.in_exclusion_set(0.0, params2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_q_defined_at_q_powers_of_root_xi(self, n, seed):
        # +-q^i sqrt(xi), i < N, are no poles of the Fock trace: Q is finite there and obeys TQ
        p = ch.sample_params(n, seed, tol=1e-10)
        q = p.q
        for z in (s * q ** i * cmath.sqrt(p.xi) for i in range(n) for s in (1, -1)):
            qz = ch.q_operator(z, p)
            assert np.isfinite(qz).all()
            lhs = (1.0 - q * q * z ** 4) * ch.transfer_v(z, p) @ qz
            rhs = ch.p_plus(z, p) * ch.q_operator(q * z, p) \
                + ch.p_minus(z, p) * ch.q_operator(z / q, p)
            assert tc.rel_err(lhs, rhs) < 1e-8

    def test_poles_beyond_floating_range_are_not_near(self):
        # on some of these draws a pole near |z|, or its distance to z, leaves floating range
        for n, seed in itertools.product((1, 2, 3), range(12)):
            assert not ch.in_exclusion_set(1.7e308, ch.sample_params(n, seed))

    def test_far_left_pole(self):
        # at |q| near 1 the pole q^(-600) / sqrt(xitilde) ~ 1.82 is still near the unit circle
        p = ch.ChainParams(q=0.999, xi=0.1, xitilde=1.0, n_sites=1, t=(1.0,))
        pole = 0.999 ** -600
        assert ch.in_exclusion_set(pole, p)
        with pytest.raises(ExclusionPointError):
            ch.transfer_w(pole + 1e-4, p)


def dense_monodromy_v(z, p):
    """The double-row monodromy on C^2 (x) V^(x N), densely materialized."""
    n = p.n_sites
    return ch.monodromy_v(z, p, shape=(2,) * (n + 1), aux=0, sites=range(1, n + 1))


def dense_aux_trace(weights, mono):
    """sum_a weights[a] <a| mono |a> over the leading two-dimensional factor."""
    d = mono.shape[0] // 2
    return np.einsum("a,aiaj->ij", weights, mono.reshape(2, d, 2, d))


ORACLE_Z = (0.83 + 0.21j, -1.1 + 0.4j, 0.5 - 0.95j)


class TestMonodromy:
    def test_empty_chain_reduces_to_boundary(self, params0):
        z = 0.8 + 0.1j
        assert_allclose(dense_monodromy_v(z, params0), kv_matrix(z, params0.xi))

    def test_reflection_relation_one_site(self, params2):
        p = params2.with_sites(1)
        q = p.q
        shape = (2, 2, 2)
        sites = (2,)
        y, z = 0.9 + 0.2j, 0.7 - 0.3j
        m1 = ch.monodromy_v(y, p, shape=shape, aux=0, sites=sites)
        m2 = ch.monodromy_v(z, p, shape=shape, aux=1, sites=sites)
        ra = tc.embed(r_matrix(y / z, q), (0, 1), shape)
        rb = tc.embed(r_matrix(y * z, q), (0, 1), shape)
        assert tc.rel_err(ra @ m1 @ rb @ m2, m2 @ rb @ m1 @ ra) < 1e-12

    def test_spin_weight_commutes(self, params2):
        y = 1.7 - 0.4j
        n = params2.n_sites
        d_full = np.kron(np.diag([1.0, y]), np.diag(ch.spin_weights(n, 1.0, y)))
        m = dense_monodromy_v(0.83 + 0.2j, params2)
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

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_dense_trace(self, n, seed):
        p = ch.sample_params(n, seed=seed, tol=1e-10)
        for z in ORACLE_Z:
            ktv = np.diagonal(ktv_matrix(z, p.xitilde, p.q))
            dense = dense_aux_trace(ktv, dense_monodromy_v(z, p))
            assert tc.rel_err(ch.transfer_v(z, p), dense) <= 1e-13

    @pytest.mark.parametrize("n", [0, 2, 4])
    def test_exact_sums_ignore_cutoff_and_tol(self, n):
        # both two-level traces and the closed Fock trace are fixed sums, never certified;
        # the closed trace reads tol only to check its rounding, which leaves the bits alone
        p = ch.sample_params(n, seed=3, tol=1e-10)
        other = dataclasses.replace(p, cutoff=p.cutoff + 7, tol=1e-12)
        for z, fn in itertools.product(ORACLE_Z, (ch.transfer_v, ch.closed_transfer_v,
                                                  ch.closed_transfer_w, ch.closed_q)):
            assert np.array_equal(fn(z, other), fn(z, p))

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
            ch.transfer_w(params2.q ** -1 / cmath.sqrt(params2.xitilde), params2)

    def test_tail_certificate_failure(self):
        # the two fixed sums agree from lead 2 on, 8 levels; cutoff 7 allows lead 1 at most
        p = ch.ChainParams(q=0.6, xi=0.17, xitilde=0.17, n_sites=1, t=(1.0,),
                           cutoff=60, tol=1e-10)
        z = 0.9 + 0.1j
        with pytest.raises(TailCertificateError):
            ch.transfer_w(z, p, cutoff=7)
        assert tc.rel_err(ch.transfer_w(z, p, cutoff=8), ch.transfer_w(z, p)) < p.tol

    def test_cutoff_stability(self, params2):
        z = 0.86 + 0.27j
        a = ch.transfer_w(z, params2)
        b = ch.transfer_w(z, params2, cutoff=params2.cutoff + 5)
        assert tc.rel_err(a, b) < params2.tol

    @pytest.mark.parametrize("fn", [ch.transfer_w, ch.q_operator, ch.closed_transfer_w,
                                    ch.closed_q])
    @pytest.mark.parametrize("cutoff", [0, 1, 12.7, "7", "50", True])
    def test_bad_cutoff_override_rejected(self, params2, fn, cutoff):
        # an override is held to the rule ChainParams applies, never replaced or truncated;
        # the exact closed traces take no cutoff at all
        error = TypeError if fn in (ch.closed_transfer_w, ch.closed_q) else ParameterDomainError
        with pytest.raises(error, match="cutoff"):
            fn(0.86 + 0.27j, params2, cutoff=cutoff)

    def test_overflow_guard_only_at_reached_levels(self, params2, monkeypatch):
        # one kw level pushed beyond double range; the fixed sum reads levels 0 .. 2N + 3,
        # so kw level 39 never enters a pairing window (levels j - N .. j + N), while kw
        # level 5 first does at ktw level 3
        z = 0.86 + 0.27j
        clean = ch.transfer_w(z, params2)

        def raise_kw_level(level):
            def kw_with_huge_level(*args):
                kw = kw_diagonal(*args)
                log_mag = kw.log_mag.copy()
                log_mag[level] += 800.0
                return FockDiagonal(kw.mantissa, log_mag)
            monkeypatch.setattr(ch, "kw_diagonal", kw_with_huge_level)

        raise_kw_level(params2.cutoff - 1)
        assert np.array_equal(ch.transfer_w(z, params2), clean)
        raise_kw_level(5)
        with pytest.raises(OverflowGuardError, match=r"levels \(3, 5\)"):
            ch.transfer_w(z, params2)

        # N = 5 sums its 14 levels in one stack, levels 0-13.  kw level 36 pairs with
        # none of them, so the result is unchanged; kw levels 18 and 10 first pair with
        # ktw levels 13 and 5, so the stack ends before them and the sum raises on the next
        p = ch.sample_params(5, seed=3, tol=1e-10)
        monkeypatch.setattr(ch, "kw_diagonal", kw_diagonal)
        clean = ch.transfer_w(z, p)
        stacks = []
        fixed_sum = ch._fixed_sum

        def recording_sum(levels, *args):
            def recorded(j0, j1):
                out = levels(j0, j1)
                stacks.append((j0, j1, len(out)))
                return out
            return fixed_sum(recorded, *args)

        monkeypatch.setattr(ch, "_fixed_sum", recording_sum)
        assert np.array_equal(ch.transfer_w(z, p), clean)
        assert stacks == [(0, 14, 14)]
        stacks.clear()
        raise_kw_level(36)
        assert np.array_equal(ch.transfer_w(z, p), clean)
        assert stacks == [(0, 14, 14)]
        for level, reached in ((18, 13), (10, 5)):
            stacks.clear()
            raise_kw_level(level)
            with pytest.raises(OverflowGuardError, match=fr"levels \({reached}, {level}\)"):
                ch.transfer_w(z, p)
            assert stacks == [(0, 14, reached)]

    def test_far_spectral_points_match_the_direct_sum_or_raise(self):
        # at |z| = 1e8 and 1e10 the levels grow for some 40 levels before they fall at the
        # tail ratio; a sum that stopped on falling level norms was 6.9% off at seed 0,
        # z = 1e8, and 100% at 1e10, with no error
        compared = 0
        for seed, z in itertools.product(range(4), (1e8, 1e10)):
            p = ch.sample_params(1, seed)
            try:
                got = ch.q_operator(z, p)
            except TailCertificateError:
                continue
            expected = ch.spin_weights(1, z * z, 1.0)[:, None] * open_fock_trace(z, p)
            assert tc.rel_err(got, expected) <= p.tol, (seed, z)
            compared += 1
        assert compared

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_slow_tail_certifies_at_the_default_cutoff(self, n, seed):
        # tail ratio 0.95, where a direct sum to 1e-10 needs some 500 levels: the fixed sum
        # reads 2N + 4 of them, or 4N + 6 after one retry
        p = ch.sample_params(n, seed, tol=1e-10)
        scale = math.sqrt(0.95 / p.tail_ratio)
        p = dataclasses.replace(p, xi=p.xi * scale, xitilde=p.xitilde * scale, cutoff=40)
        z = 0.83 + 0.21j
        assert tc.rel_err(ch.transfer_w(z, p), open_fock_trace(z, p)) <= 1e-13

    def test_q_operator_weighting(self, params2):
        z = 0.78 + 0.33j
        w = ch.spin_weights(params2.n_sites, z ** 2, 1.0)
        assert_allclose(ch.q_operator(z, params2),
                        w[:, None] * ch.transfer_w(z, params2), atol=1e-15)


def dense_trace(z, p, J):
    """transfer_w from dense half products on J levels, summed directly over the levels
    0 .. J - N - 1, whose light cones the truncation leaves whole."""
    n, d = p.n_sites, p.dim
    shape = (J,) + (2,) * n
    left = [(l_matrix(t * z, 1.0, p.q, J), 0, k + 1) for k, t in enumerate(p.t)]
    right = [(l_matrix(z / t, 1.0, p.q, J), 0, k + 1) for k, t in enumerate(p.t)][::-1]
    X = tc.ordered_product(left, shape).reshape(J, d, J, d)
    Y = tc.ordered_product(right, shape).reshape(J, d, J, d)
    kw = kw_diagonal(z, 1.0, p.xi, p.q, J)
    ktw = ktw_diagonal(z, 1.0, p.xitilde, p.q, J)
    return sum(ktw.mantissa[j] * kw.mantissa[k] * np.exp(ktw.log_mag[j] + kw.log_mag[k])
               * (X[j, :, k, :] @ Y[k, :, j, :])
               for j in range(J - n) for k in range(max(0, j - n), j + n + 1))


class TestBandedTraceOracle:
    """The charge-blocked traces against their direct sums, deep enough to drop no digit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_matches_dense_half_products(self, n, seed):
        p = ch.sample_params(n, seed=seed, tol=1e-10)
        for z in (0.83 + 0.21j, 1.1 - 0.3j):
            tw, closed = open_fock_trace(z, p), closed_fock_trace(z, p)
            w_open = ch.spin_weights(n, z ** 2, 1.0)[:, None]
            w_closed = ch.spin_weights(n, z, 1.0)[:, None]
            assert tc.rel_err(ch.transfer_w(z, p), tw) < 1e-13
            assert tc.rel_err(ch.q_operator(z, p), w_open * tw) < 1e-13
            assert tc.rel_err(ch.closed_transfer_w(z, p), closed) < 1e-13
            assert tc.rel_err(ch.closed_q(z, p), w_closed * closed) < 1e-13

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_open_oracle_is_the_dense_level_sum(self, n, seed):
        # the oracle's path products and scales against dense half products: 60 levels
        # leave a tail ratio of at most 0.5 below 1e-16
        p = ch.sample_params(n, seed=seed, tol=1e-10)
        for z in (0.83 + 0.21j, 1.1 - 0.3j, 3.0):
            assert tc.rel_err(open_fock_trace(z, p), dense_trace(z, p, 60)) < 1e-14


GRID = list(itertools.product([1, 2, 3], [0.1, 0.5, 0.8, 0.95], [0.3, 0.6, 0.9]))


@pytest.mark.parametrize("n, ratio, qmod", GRID)
def test_grid_meets_tol(n, ratio, qmod):
    # the draw's phases with |q| and the tail ratio set, at cutoff 40: the fixed sum meets
    # tol against the direct sum in every case.  At |q| = 0.9, |z| = 3 and tail ratio 0.95
    # (0.8 at N = 3) the last retry reads levels up to 39, whose paths climb N levels past
    # the cutoff, so these 4 cases need the bands built above it
    p = ch.sample_params(n, 0, tol=1e-10)
    scale = math.sqrt(ratio * qmod ** (2 * n) / abs(p.xi * p.xitilde))
    p = dataclasses.replace(p, q=qmod * p.q / abs(p.q), xi=p.xi * scale,
                            xitilde=p.xitilde * scale, cutoff=40)
    for zmod in (0.3, 1.0, 3.0):
        z = zmod * cmath.exp(0.37j)
        assert tc.rel_err(ch.transfer_w(z, p), open_fock_trace(z, p)) <= p.tol, zmod


class TestCertifiedSumStacks:
    """The open trace's certified fixed sum, and the closed trace's fixed sum, give the
    same bits whatever stacks their levels come in."""

    @staticmethod
    def at_most(size, monkeypatch):
        """Let every stack a fixed sum asks for hold at most size levels."""
        fixed_sum = ch._fixed_sum

        def limited_sum(levels, *args):
            return fixed_sum(lambda j0, j1: levels(j0, min(j1, j0 + size)), *args)

        monkeypatch.setattr(ch, "_fixed_sum", limited_sum)

    @pytest.mark.parametrize("fn", [ch.transfer_w, ch.closed_transfer_w])
    @pytest.mark.parametrize("n", [0, 3, 5])
    def test_stack_size_leaves_bits_unchanged(self, fn, n, monkeypatch):
        p = ch.sample_params(n, seed=3, tol=1e-10)
        z = 0.83 + 0.21j
        whole = fn(z, p)
        for size in (1, 3, p.cutoff):
            with monkeypatch.context() as m:
                self.at_most(size, m)
                m.setattr(ch, "_STACK_ENTRIES", size * 4 ** n)  # the fixed sum's stacks
                assert np.array_equal(fn(z, p), whole)

    def test_synthetic_levels_match_the_reference(self):
        # random sector blocks of an N = 3 chain, each an exponential polynomial in the
        # level with the open trace's nodes x_s = xx q^(2s), s = -3 .. 6: the fixed sum of
        # levels 0 .. 2N + 3 is the whole series sum_s C_s / (1 - x_s), whatever the stacks
        n, xx, q = 3, 0.3 * 0.6 ** 6 * cmath.exp(0.4j), 0.6 * cmath.exp(1.1j)
        x = np.array([xx * q ** (2 * s) for s in range(-n, n + 4)])
        rng = np.random.default_rng(7)
        size = len(ch._layout(n).entries)
        coef = rng.standard_normal((len(x), size)) + 1j * rng.standard_normal((len(x), size))
        flat = (x ** np.arange(2 * n + 4)[:, None]) @ coef
        series = (coef / (1 - x)[:, None]).sum(axis=0)
        weights, scale, check = ch._open_weights(xx, q, n, 0)
        sums = []
        for stack in (1, 3, 2 * n + 4):
            def levels(j0, j1):
                return flat[j0:min(j1, j0 + stack)].copy()  # the sum overwrites its stacks
            sums.append(ch._fixed_sum(levels, weights, n, scale, 1e-10, check))
        got = sums[0].ravel()[ch._layout(n).entries]
        assert np.abs(got - series).max() <= 1e-14 * np.abs(series).max()
        assert all(np.array_equal(sums[0], other) for other in sums[1:])

    def test_tail_ratio_underflowing_to_zero(self, monkeypatch):
        # |xi * xitilde| underflows: every node is 0, so the fixed sum adds its levels
        p = ch.ChainParams(q=0.5, xi=1e-200, xitilde=1e-200, n_sites=1, t=(1.0,))
        assert p.tail_ratio == 0.0
        whole = ch.transfer_w(0.83 + 0.21j, p)
        assert np.all(np.isfinite(whole))
        self.at_most(1, monkeypatch)
        assert np.array_equal(ch.transfer_w(0.83 + 0.21j, p), whole)

    def test_exhausted_cutoff_raises_the_same_error(self, monkeypatch):
        p = ch.ChainParams(q=0.6, xi=0.17, xitilde=0.17, n_sites=1, t=(1.0,),
                           cutoff=60, tol=1e-10)
        z = 0.9 + 0.1j
        with pytest.raises(TailCertificateError) as whole:
            ch.transfer_w(z, p, cutoff=7)
        assert "cutoff 7 exhausted" in str(whole.value)
        for size in (1, 3, 9):
            with monkeypatch.context() as m:
                self.at_most(size, m)
                with pytest.raises(TailCertificateError) as stacked:
                    ch.transfer_w(z, p, cutoff=7)
            assert str(stacked.value) == str(whole.value)


def in_threads(calls, timeout=60.0):
    """Run each zero-argument call on a thread of its own, all at once; their results."""
    results = [None] * len(calls)

    def run(i):
        results[i] = calls[i]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads)
    return results


class TestWorkspace:
    """The row builds, pairings and level sums share one workspace per thread;
    no result is a view of it."""

    P5 = ch.sample_params(5, seed=3, tol=1e-10)
    Z1, Z2 = 0.83 + 0.21j, 1.1 - 0.3j
    FUNCTIONS = (ch.q_operator, ch.transfer_w, ch.closed_q, ch.transfer_v)

    def test_results_outlive_later_calls(self):
        held = [f(self.Z1, self.P5) for f in self.FUNCTIONS]
        for f in self.FUNCTIONS:
            f(self.Z2, self.P5)
        for a, f in zip(held, self.FUNCTIONS):
            assert np.array_equal(a, f(self.Z1, self.P5))
            assert not any(np.shares_memory(a, b) for b in ch._workspace().values())

    def test_threads_match_serial(self):
        zs = [self.Z1, self.Z2, 0.9 + 0.4j, 0.6 - 0.6j]
        serial = [ch.q_operator(z, self.P5) for z in zs]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # more threads than cores, each evaluating its own point three times
            results = in_threads([lambda z=z: [ch.q_operator(z, self.P5) for _ in range(3)]
                                  for z in zs])
        finally:
            sys.setswitchinterval(switch)
        for expected, repeats in zip(serial, results):
            assert all(np.array_equal(expected, q) for q in repeats)

    def test_steady_state_grows_no_buffer(self):
        ws = ch._workspace()
        ch.q_operator(self.Z1, self.P5)
        before = dict(ws)
        ch.q_operator(self.Z2, self.P5)
        assert ws.keys() == before.keys()
        assert all(ws[role] is buffer for role, buffer in before.items())

    def test_stays_within_budget(self, monkeypatch):
        # a Q at N = 5 needs about 1.4 MiB of buffers; a fresh thread starts empty
        expected = ch.q_operator(self.Z1, self.P5)
        monkeypatch.setattr(tc, "WORKSPACE_BYTES", 2 ** 20)

        def q_and_kept():
            q = ch.q_operator(self.Z1, self.P5)
            return q, sum(b.nbytes for b in ch._workspace().values())

        ((q, kept),) = in_threads([q_and_kept])
        assert np.array_equal(q, expected)
        assert 0 < kept <= 2 ** 20


class TestHalfRowTranspose:
    """_half_products hands the kernel the plain bands of the right half row's
    points and the band transpose of the left half row's, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_left_half_is_the_band_transpose(self, n, monkeypatch):
        p, z = ch.sample_params(n, seed=3, tol=1e-10), 0.83 + 0.21j
        ts = p.t[::-1]
        points = [t * z for t in ts] + [z / t for t in ts]
        site_bands = [lambda us, r=r, J=J: l_bands(us, r, p.q, J)
                      for J in (2, 3, 40) for r in (1.0, 1.3 - 0.2j)]
        handed, charge_product = [], tc.charge_product

        def capture(bands, *args):
            handed.append(bands.copy())
            return charge_product(bands, *args)

        monkeypatch.setattr(tc, "charge_product", capture)
        for bands in site_bands + [lambda us: r_bands(us, p.q)]:
            ch._half_products(bands, z, p)
            plain = bands(points)
            assert handed[-1].shape == (2, n) + plain.shape[1:]
            for got, want in zip(handed[-1], (transpose_bands(plain[:n]), plain[n:])):
                assert got.tobytes() == want.tobytes()
        assert len(handed) == 7


class TestLevelProtocol:
    """Every levels(j0, j1) returns one (k, C(2N, N)) array on the thread's "run"
    buffer, the sector blocks of each level one after another."""

    ROLES = {"step", "rows", "x", "y", "run"}

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_one_flat_array_per_stack(self, n, monkeypatch):
        monkeypatch.setattr(ch._threads, "workspace", tc.Workspace(), raising=False)
        p, z, j0, j1 = ch.sample_params(n, seed=3, tol=1e-10), 0.83 + 0.21j, 2, 5
        J, layout = p.cutoff, ch._layout(n)
        down, states = layout.down, layout.states

        def bands(us):
            return l_bands(us, 1.0, p.q, J)

        rows = ch._half_products(bands, z, p)
        index = tc.pair_index((2,) * n)
        left, right = rows(0, J).copy()
        X, Y = left[:, index.T], right[:, index]
        w = np.random.default_rng(n).standard_normal((J, 2 * n + 1)) + 0.5j
        opened = ch._open_levels(rows, n, lambda a, b: w[a:b])(j0, j1)
        assert opened.shape == (j1 - j0, math.comb(2 * n, n))
        assert np.shares_memory(opened, ch._workspace()["run"])
        lo = 0
        for m, S in enumerate(states):
            hi = lo + len(S) ** 2
            for i, j in enumerate(range(j0, j1)):
                # _open_levels: the rows of X[j] meet Y[j] through t at w[j - j0, n + m - m(t)]
                block = (X[j][S] * w[j, n + m - down]) @ Y[j][:, S]
                assert_allclose(opened[i, lo:hi].reshape(len(S), -1), block, rtol=1e-13,
                                atol=1e-13 * np.abs(block).max())
            lo = hi
        closed = ch._closed_levels(bands, z, p)(j0, j1)
        assert np.shares_memory(closed, ch._workspace()["run"])
        expected = [[Y[j][np.ix_(S, S)] for S in states] for j in range(j0, j1)]
        assert np.array_equal(closed, [np.concatenate([b.ravel() for b in e]) for e in expected])
        ch.q_operator(z, p)
        # a row over one site takes no "step", and a row over none no buffer at all
        roles = {0: {"x", "y", "run"}, 1: self.ROLES - {"step"}}.get(n, self.ROLES)
        assert set(ch._workspace()) == roles


class TestRowsOnDemand:
    """A stack's rows are built once the sum asks for it, and a stack's half rows
    once its paired weights are known: each level the sum's stacks hold exactly
    once, open and closed, and none of a stack whose paired weight overflows."""

    @staticmethod
    def record(monkeypatch):
        """The windows of every row build, and the (j0, levels) of every stack a fixed
        sum is handed, in call order."""
        windows, stacks = [], []
        charge_product = tc.charge_product

        def recording_product(bands, *args):
            blocks = charge_product(bands, *args)

            def recorded(j0, j1):
                windows.append((j0, j1))
                return blocks(j0, j1)
            return recorded

        def recording(level_sum):
            def recording_sum(levels, *args):
                def recorded(j0, j1):
                    out = levels(j0, j1)
                    stacks.append((j0, len(out)))
                    return out
                return level_sum(recorded, *args)
            return recording_sum

        monkeypatch.setattr(tc, "charge_product", recording_product)
        monkeypatch.setattr(ch, "_fixed_sum", recording(ch._fixed_sum))
        return windows, stacks

    def check_built_once(self, fn, n, size, monkeypatch):
        """fn's kernel windows are the stacks its fixed sum is handed, stacks of at
        most size levels: each level of a pass built once, lead + 2N + 4 levels a pass
        for lead = 0, 2N + 2, .."""
        p = ch.sample_params(n, seed=3, tol=1e-10)
        z = 0.83 + 0.21j
        whole = fn(z, p)
        if size is not None:
            TestCertifiedSumStacks.at_most(size, monkeypatch)
        windows, stacks = self.record(monkeypatch)
        assert np.array_equal(fn(z, p), whole)
        assert windows == [(j0, j0 + k) for j0, k in stacks]
        starts = [i for i, (j0, _) in enumerate(stacks) if j0 == 0] + [len(stacks)]
        passes = [stacks[a:b] for a, b in zip(starts, starts[1:])]
        for one, lead in zip(passes, [0, 2 * n + 2, 4 * n + 4]):
            assert [j0 for j0, _ in one] == [0, *np.cumsum([k for _, k in one])[:-1]]
            assert sum(k for _, k in one) == lead + 2 * n + 4
        assert len(passes) <= 2

    @pytest.mark.parametrize("n", [0, 3, 5])
    @pytest.mark.parametrize("size", [1, 3, None])
    def test_each_summed_level_built_once(self, n, size, monkeypatch):
        self.check_built_once(ch.transfer_w, n, size, monkeypatch)

    @pytest.mark.parametrize("fn", [ch.closed_transfer_w, ch.closed_q])
    @pytest.mark.parametrize("n", [0, 3, 5])
    @pytest.mark.parametrize("size", [1, 3, None])
    def test_closed_row_built_per_stack(self, fn, n, size, monkeypatch):
        # the fixed sum's stacks of at most size levels hold levels 0 .. 2N once each
        p, z = ch.sample_params(n, seed=3, tol=1e-10), 0.83 + 0.21j
        whole = fn(z, p)
        if size is not None:
            monkeypatch.setattr(ch, "_STACK_ENTRIES", size * 4 ** n)
        windows, stacks = self.record(monkeypatch)
        assert np.array_equal(fn(z, p), whole)
        step = size or 2 * n + 1  # every stack fits whole at N <= 5
        assert windows == [(j0, min(2 * n + 1, j0 + step)) for j0 in range(0, 2 * n + 1, step)]
        assert stacks == [(j0, j1 - j0) for j0, j1 in windows]

    def test_no_row_of_an_overflowing_stack(self, monkeypatch):
        # kw level 16 first pairs with ktw level 11 at N = 5, in the first stack:
        # its weights stop that stack at level 11 and raise on the next one
        p = ch.sample_params(5, seed=3, tol=1e-10)

        def kw_with_huge_level(*args):
            kw = kw_diagonal(*args)
            log_mag = kw.log_mag.copy()
            log_mag[16] += 800.0
            return FockDiagonal(kw.mantissa, log_mag)

        monkeypatch.setattr(ch, "kw_diagonal", kw_with_huge_level)
        windows, stacks = self.record(monkeypatch)
        with pytest.raises(OverflowGuardError, match=r"levels \(11, 16\)"):
            ch.transfer_w(0.83 + 0.21j, p)
        assert stacks == [(0, 11)]
        assert windows == [(0, 11)]

    @pytest.mark.parametrize("fn, n, seed", [
        (ch.q_operator, 5, 3), (ch.q_operator, 4, 3), (ch.q_operator, 4, 11),
        (ch.closed_q, 3, 1), (ch.closed_q, 3, 3)])
    def test_one_stack_when_the_theoretical_tail_fits(self, fn, n, seed, monkeypatch):
        # the open trace's 2N + 4 levels and the closed trace's 2N + 1 fit one stack, and
        # these open sums agree at once
        p = ch.sample_params(n, seed=seed, tol=1e-10)
        windows, stacks = self.record(monkeypatch)
        fn(0.83 + 0.21j, p)
        assert len(stacks) == len(windows) == 1

    @pytest.mark.parametrize("n, seed, passes", [(5, 3, [(0, 14)]), (3, 4, [(0, 10), (0, 18)])])
    def test_levels_read_per_pass(self, n, seed, passes, monkeypatch):
        # one Q reads 2N + 4 levels; at N = 3, seed 4 (|q| = 0.77) the two sums disagree
        # there, and it reads them again after 2N + 2 leading levels
        p = ch.sample_params(n, seed=seed, tol=1e-10)
        windows, stacks = self.record(monkeypatch)
        ch.q_operator(0.83 + 0.21j, p)
        assert windows == passes
        assert stacks == [(j0, j1 - j0) for j0, j1 in passes]


class TestPairGathers:
    """The S^z layout, with the pairing's and the closed gather's positions in
    the site-pair layout, is built once per N, read-only, and follows its formulas."""

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_cached_read_only_and_by_formula(self, n):
        layout = ch._layout(n)
        assert ch._layout(n) is layout
        arrays = [a for a in layout if isinstance(a, np.ndarray)] + list(layout.states)
        assert len(arrays) == 5 + n + 1 and all(not a.flags.writeable for a in arrays)
        # C-ordered, as the gathers through them need
        assert layout.cols.flags.c_contiguous and layout.wsel.flags.c_contiguous
        down, states, d = layout.down, layout.states, 2 ** n
        order = np.concatenate(states)

        def position(r, s):
            # the pairs (r_k, s_k) in site order, site 1 slowest
            out = 0
            for k in reversed(range(n)):
                out = out * 4 + 2 * (r >> k & 1) + (s >> k & 1)
            return out

        assert layout.cols.tolist() == [[position(t, order[c]) for t in range(d)]
                                        for c in range(d)]
        assert layout.wsel.tolist() == [[n + down[order[r]] - down[t] for t in range(d)]
                                        for r in range(d)]
        assert layout.entries.tolist() == [r * d + s for idx in states for r in idx for s in idx]
        assert layout.pair_entries.tolist() == [position(r, s) for idx in states
                                                for r in idx for s in idx]


@pytest.mark.parametrize("n", [0, 1, 3])
def test_windows_by_formula(n):
    # row j holds v[j - n .. j + n], fill outside v
    v = np.arange(1.0, 6.0)
    padded = [-np.inf] * n + v.tolist() + [-np.inf] * n
    assert ch._windows(v, n, -np.inf).tolist() == [padded[j:j + 2 * n + 1] for j in range(5)]
    # through one index, built once per (size, n) and read-only
    index = ch._window_index(5, n)
    assert ch._window_index(5, n) is index and not index.flags.writeable


@pytest.mark.parametrize("n", [0, 1, 4])
def test_sector_runs_by_formula(n):
    # each S^z sector's range in the down-count order, its size and its range
    # among the flat sector blocks, one after another
    layout = ch._layout(n)
    assert len(layout.runs) == len(layout.states) == n + 1
    c = lo = 0
    for m, ((R, D, start, end), states) in enumerate(zip(layout.runs, layout.states)):
        assert D == math.comb(n, m) and R == slice(c, c + D)
        assert states.tolist() == np.flatnonzero(layout.down == m).tolist()
        assert (start, end) == (lo, lo + D * D)
        c, lo = c + D, end
    assert lo == len(layout.entries)


class TestCutoffFloor:
    """A cutoff below the 2N + 4 levels the open trace's fixed sum reads can never
    certify, so it raises before any row is built."""

    def test_sampler_grows_the_cutoff_to_the_stop_rule_floor(self):
        for n in (0, 5, 18, 19, 25):
            assert ch.sample_params(n, seed=0).cutoff >= max(40, 2 * n + 4)
        assert ch.sample_params(19, seed=0).cutoff >= 42

    def test_raises_before_building_a_row(self, monkeypatch):
        p = ch.sample_params(2, seed=3, tol=1e-10)
        z = 0.83 + 0.21j
        charge_product = tc.charge_product

        def no_rows(*args):
            charge_product(*args)

            def blocks(j0, j1):
                raise AssertionError("a row was built")
            return blocks

        monkeypatch.setattr(tc, "charge_product", no_rows)
        for fn in (ch.transfer_w, ch.q_operator):
            with pytest.raises(TailCertificateError, match="cutoff 7 is below 8"):
                fn(z, p, cutoff=7)

    def test_floor_comes_after_the_other_preflights(self):
        p = ch.sample_params(2, seed=3, tol=1e-10)
        with pytest.raises(ExclusionPointError):
            ch.transfer_w(p.q ** -1 / cmath.sqrt(p.xitilde), p, cutoff=7)

    def test_first_cutoff_above_the_floor_can_certify(self):
        # a small enough tail ratio clears on the fixed sum's 2N + 4 levels, the floor itself
        p = ch.sample_params(2, seed=0, tol=1e-9)
        z = 0.83 + 0.21j
        tiny = dataclasses.replace(p, xi=p.xi * 1e-30)
        assert tc.rel_err(ch.transfer_w(z, tiny, cutoff=8), open_fock_trace(z, tiny)) < 1e-9


class TestSixSites:
    """One open and one closed TQ triple at N = 6, gated as in the benchmark."""

    def test_tq_relations(self):
        p = ch.sample_params(6, seed=3, tol=1e-10)
        q, z = p.q, 0.91 + 0.37j
        assert not any(ch.in_exclusion_set(w, p) for w in (z, q * z, z / q))
        lhs = (1.0 - q * q * z ** 4) * ch.transfer_v(z, p) @ ch.q_operator(z, p)
        rhs = ch.p_plus(z, p) * ch.q_operator(q * z, p) + ch.p_minus(z, p) * ch.q_operator(z / q, p)
        assert tc.rel_err(lhs, rhs) < 1e-8
        lhs = ch.closed_transfer_v(z, p) @ ch.closed_q(z, p)
        rhs = ch.closed_p_plus(z, p) * ch.closed_q(q * z, p) \
            + ch.closed_p_minus(z, p) * ch.closed_q(z / q, p)
        assert tc.rel_err(lhs, rhs) < 1e-9


class TestSevenSites:
    """One open and one closed TQ triple at N = 7, gated as in the benchmark."""

    def test_tq_relations(self):
        p = ch.sample_params(7, seed=3, tol=1e-10)
        q, z = p.q, 0.91 + 0.37j
        assert not any(ch.in_exclusion_set(w, p) for w in (z, q * z, z / q))
        lhs = (1.0 - q * q * z ** 4) * ch.transfer_v(z, p) @ ch.q_operator(z, p)
        rhs = ch.p_plus(z, p) * ch.q_operator(q * z, p) + ch.p_minus(z, p) * ch.q_operator(z / q, p)
        assert tc.rel_err(lhs, rhs) < 1e-8
        lhs = ch.closed_transfer_v(z, p) @ ch.closed_q(z, p)
        rhs = ch.closed_p_plus(z, p) * ch.closed_q(q * z, p) \
            + ch.closed_p_minus(z, p) * ch.closed_q(z / q, p)
        assert tc.rel_err(lhs, rhs) < 1e-9


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
        with pytest.raises(ParameterDomainError):
            ch.tw_diagonal_recursion((0, 2), params2)


class TestTotalSpin:
    def test_commutes_with_transfer(self, params2):
        tv = ch.transfer_v(0.81 + 0.23j, params2)
        n = params2.n_sites
        sig = np.diag(n - 2.0 * tc.index_sums((2,) * n))
        assert tc.rel_err(sig @ tv, tv @ sig) < 1e-13


class TestSpinSector:
    def test_indices_and_weights_follow_down_count(self):
        n, top, bottom = 4, 0.7 + 0.2j, 1.3 - 0.1j
        downs = [bin(i).count("1") for i in range(2 ** n)]
        for m in range(n + 1):
            assert ch._layout(n).states[m].tolist() == [i for i, k in enumerate(downs) if k == m]
        expected = [top ** (n - k) * bottom ** k for k in downs]
        assert np.array_equal(ch.spin_weights(n, top, bottom), np.array(expected))


class TestClosedChain:
    def test_twist_validation(self, params2):
        bad = ch.ChainParams(q=params2.q, xi=params2.xi, xitilde=params2.xitilde,
                             n_sites=params2.n_sites, t=params2.t, zeta=1.5,
                             cutoff=params2.cutoff, tol=params2.tol)
        with pytest.raises(ParameterDomainError):
            ch.closed_transfer_v(0.9, bad)

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("seed", [3, 11])
    def test_transfer_v_matches_dense_trace(self, n, seed):
        p = ch.sample_params(n, seed=seed, tol=1e-10)
        shape = (2,) * (n + 1)
        for z in ORACLE_Z:
            row = [(r_matrix(z / p.t[k], p.q), 0, k + 1) for k in reversed(range(n))]
            dense = dense_aux_trace([1.0, p.zeta], tc.ordered_product(row, shape))
            assert tc.rel_err(ch.closed_transfer_v(z, p), dense) <= 1e-13

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("ratio", [0.8, 0.9])
    def test_near_the_twist_boundary_matches_the_direct_sum(self, ratio, n):
        # |zeta| |q|^(-N) = ratio, where a direct sum needs some 170 (0.8) or 350 (0.9) levels
        compared = 0
        for seed in range(4):
            p = ch.sample_params(n, seed, tol=1e-10, identity_grade=True)
            p = dataclasses.replace(p, zeta=p.zeta / abs(p.zeta) * ratio * abs(p.q) ** n)
            expected = closed_fock_trace(0.83 + 0.21j, p)
            if not np.isfinite(expected).all():
                continue  # the oracle's own direct sum left floating range: no reference
            assert tc.rel_err(ch.closed_transfer_w(0.83 + 0.21j, p), expected) <= 1e-13
            compared += 1
        assert compared

    @pytest.mark.parametrize("q, ratio, n", [(q, 0.5, n) for q in (0.95, 0.99) for n in (4, 6)]
                             + [(q, 0.9, n) for q in (0.95, 0.99) for n in (2, 4)])
    def test_clustered_nodes_match_the_direct_sum(self, q, ratio, n):
        # real q near 1 and real zeta put the nodes zeta q^s close together near 1, where the
        # 2N + 1 tail weights alone lost up to 2.5e-7; N stops at 6 (0.5) and 4 (0.9) because
        # the oracle holds all its levels at once
        p = ch.sample_params(n, 0, tol=1e-10, identity_grade=True)
        p = dataclasses.replace(p, q=q, zeta=ratio * q ** n)
        assert tc.rel_err(ch.closed_transfer_w(0.83 + 0.21j, p),
                          closed_fock_trace(0.83 + 0.21j, p)) <= 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_one_node_near_one_stays_in_floating_range(self, n):
        # |q| = 0.3 and real zeta at ratio 0.99 put only x_(-N) near 1; the leading levels
        # stop before q^(-2J) or the raw levels leave floating range, and at z = 0 the trace
        # is diag(1 / (1 - zeta q^(N - 2m)))
        p = ch.sample_params(n, 0, tol=1e-10, identity_grade=True)
        p = dataclasses.replace(p, q=0.3, xi=0.01 * 0.3 ** n, xitilde=0.01 * 0.3 ** n,
                                zeta=0.99 * 0.3 ** n)
        ref = np.diag([1.0 / (1.0 - p.zeta * 0.3 ** (n - 2 * bin(i).count("1")))
                       for i in range(2 ** n)]).astype(complex)
        assert tc.rel_err(ch.closed_transfer_w(0.0, p), ref) <= 1e-13
        assert np.isfinite(ch.closed_transfer_w(0.83 + 0.21j, p)).all()

    def test_rounding_beyond_tol_rejected(self, params2):
        # nodes within 1e-2 of 1 outrun the leading levels; a tol below the rounding of any sum
        with pytest.raises(ParameterDomainError, match="site trace rounds to about"):
            ch.closed_transfer_w(0.83 + 0.21j, dataclasses.replace(
                ch.sample_params(4, 0, tol=1e-10), q=0.999, zeta=0.99 * 0.999 ** 4))
        with pytest.raises(ParameterDomainError, match="site trace rounds to about"):
            ch.closed_q(0.83 + 0.21j, dataclasses.replace(params2, tol=1e-17))

    def test_far_spectral_point_needs_no_level_norm(self):
        # entries near 4e159, whose squares leave floating range, sum to a finite Q
        assert np.isfinite(ch.closed_q(1e80, ch.sample_params(1, 0))).all()

    def test_cutoff_stability(self, params2):
        # the exact closed trace reads no cutoff: a larger one gives the same bits
        z = 0.77 + 0.2j
        a = ch.closed_transfer_w(z, params2)
        b = ch.closed_transfer_w(z, dataclasses.replace(params2, cutoff=params2.cutoff + 5))
        assert np.array_equal(a, b)
