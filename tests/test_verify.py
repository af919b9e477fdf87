"""The identity battery as a library: every named check passes at generic parameters."""

import cmath
import re

import numpy as np
import pytest

from qbaxter import bethe as bt
from qbaxter import chain as ch
from qbaxter import verify as vf
from qbaxter.errors import (
    ConvergenceError,
    ExclusionPointError,
    ParameterDomainError,
    QBaxterError,
)


@pytest.fixture(scope="module")
def params():
    return ch.sample_params(2, seed=101, tol=1e-10, identity_grade=True)


def test_ybe(params):
    res = vf.check_ybe(params, seed=3)
    assert res.passed and res.residual < 1e-11


def test_reflection(params):
    res = vf.check_reflection(params, seed=3)
    assert res.passed and res.residual < 1e-10


def test_reflection_redraws_a_point_on_a_boundary_pole(params, monkeypatch):
    # the first draw meets a pole of the left boundary matrix, so it is drawn again
    ktw_diagonal, points = vf.ktw_diagonal, []

    def first_on_a_pole(y, *args):
        points.append(y)
        if len(points) == 1:
            raise ExclusionPointError(f"{y} on a pole")
        return ktw_diagonal(y, *args)

    monkeypatch.setattr(vf, "ktw_diagonal", first_on_a_pole)
    res = vf.check_reflection(params, seed=3)
    assert res.passed and points[1] != points[0]


def test_fusion(params):
    res = vf.check_fusion(params, seed=3)
    assert res.passed and res.residual < 1e-10


def test_row_fusion_and_monodromy(params):
    res = vf.check_row_fusion_and_monodromy(params, seed=3)
    assert res.passed and res.residual < 1e-9


def test_split_trace(params):
    res = vf.check_split_trace(params, seed=3)
    assert res.passed and res.residual < 1e-12


def test_tq(params):
    res = vf.check_tq(params, seed=3)
    assert res.passed
    assert "degeneration-at-quartic-point" in res.notes


def test_tq_skips_an_excluded_quartic_point(params, monkeypatch):
    # with the first quartic point z0 = q^(-1/2), q z0 and z0 / q excluded, the
    # degeneration is read at the next one: a Q at any of the three would raise
    q = params.q
    z0 = cmath.sqrt(1.0 / q)
    excluded, in_exclusion_set = (z0, q * z0, z0 / q), ch.in_exclusion_set
    monkeypatch.setattr(ch, "in_exclusion_set", lambda z, p: (
        min(abs(z - w) for w in excluded) < 1e-12 or in_exclusion_set(z, p)))
    res = vf.check_tq(params, seed=3)
    assert res.passed and "degeneration-at-quartic-point" in res.notes


def test_tq_empty_chain():
    p = ch.sample_params(0, seed=5, tol=1e-12)
    res = vf.check_tq(p, seed=1)
    assert res.passed and res.residual < 1e-11


def test_commutators(params):
    thm, conj = vf.check_commutators(params, seed=3)
    assert thm.passed and not thm.conjecture
    assert conj.passed and conj.conjecture


def test_crossing(params):
    res = vf.check_crossing(params, seed=3)
    assert res.passed
    assert "conjecture" in res.notes


def test_polynomiality(params):
    diag, off, rec = vf.check_polynomiality(params, seed=3)
    assert diag.passed and off.passed and rec.passed
    assert not off.conjecture  # two sites are theorem-backed


def test_polynomiality_flags_conjecture_beyond_two_sites():
    p = ch.sample_params(3, seed=41, tol=1e-10)
    diag, off, rec = vf.check_polynomiality(p, seed=2)
    assert off.conjecture
    assert diag.passed and off.passed and rec.passed


def test_n2_closed_forms(params):
    res = vf.check_n2_closed_forms(params, seed=3)
    assert res.passed
    assert "coefficient" in res.notes


def test_closed_chain(params):
    res = vf.check_closed_chain(params, seed=3)
    assert res.passed


def test_closed_chain_invertibility_reads_log_det(monkeypatch):
    # a nonsingular T^W whose determinant underflows, as at N = 11 on seed-0 draws:
    # scaled by 1e-120 away from z = 0, the 4 x 4 closed T^W has det ~ 1e-480
    p = ch.sample_params(2, seed=3, tol=1e-10)
    closed_transfer_w = ch.closed_transfer_w
    monkeypatch.setattr(ch, "closed_transfer_w", lambda z, params: (
        closed_transfer_w(z, params) * (1e-120 if z != 0 else 1.0)))
    assert np.linalg.det(ch.closed_transfer_w(0.8 + 0.3j, p)) == 0.0
    res = vf.check_closed_chain(p, seed=3)
    assert res.passed and "'invertibility'" not in res.notes
    assert "log|det T^W_closed| = -" in res.notes


def test_closed_chain_flags_a_singular_transfer(monkeypatch):
    # T^W zero away from z = 0: slogdet's sign is 0, and the invertibility sub-residual fails
    p = ch.sample_params(2, seed=3, tol=1e-10)
    closed_transfer_w = ch.closed_transfer_w
    monkeypatch.setattr(ch, "closed_transfer_w", lambda z, params: (
        closed_transfer_w(z, params) * (0.0 if z != 0 else 1.0)))
    res = vf.check_closed_chain(p, seed=3)
    assert not res.passed and res.residual == 1.0 and "'invertibility': 1.0" in res.notes


def test_spectrum_suite(params):
    results = vf.spectrum_suite(params, seed=3)
    records = vf.spectral_records(params, 3, 3)
    assert all(r.passed for r in results)
    assert len(records) == params.dim


def test_bethe_suite(params):
    results = vf.bethe_suite(params, seed=3)
    assert all(r.passed for r in results)


def test_bethe_suite_counts_unpolished_root_sets(params, monkeypatch):
    # a root set whose Newton polish stalls keeps its raw roots and is counted
    def stalled(roots, params, max_iter=50):
        raise ConvergenceError("Newton refinement stalled")

    monkeypatch.setattr(bt, "refine_bethe_newton", stalled)
    results = {r.name: r for r in vf.bethe_suite(params, seed=3)}
    count = len(vf.spectral_records(params, 3, 3))
    assert results["bethe-residuals"].notes.endswith(f"; {count} root sets left unpolished")


@pytest.mark.parametrize("seed", [3, 11])
def test_bethe_suite_polishes_large_roots(seed):
    # at N = 4 these draws have roots |y| ~ 10 whose raw Bethe residuals carry
    # the rounding of the Q coefficients; Newton polishing stops at the rounding floor
    p = ch.sample_params(4, seed=seed, tol=1e-10)
    results = {r.name: r for r in vf.bethe_suite(p, seed=seed)}
    for name in ("bethe-residuals", "bethe-residuals-functional-form", "bethe-aba-eigenvalue"):
        assert results[name].passed, (name, results[name].residual)
    before = float(results["bethe-residuals"].notes.split("; ")[1].split()[0])
    assert results["bethe-residuals"].residual < before
    assert "unpolished" not in results["bethe-residuals"].notes


# (N, seed) -> each check that fails there, with the residual measured when the
# case was listed: at N = 6, seed 3 (|q| = 0.34) the product constraint exceeds its
# gate by what Q's rounding amplifies to on the coefficient circle, and both Bethe
# residuals fail at roots near q-strings, whose double-precision rounding alone
# leaves a residual near 1e-5
_SWEEP_FAILURES = {
    (6, 3): {"bethe-product-constraint": 1.5e-7, "bethe-residuals": 1.1e-5,
             "bethe-residuals-functional-form": 1.3e-5},
}


def _sweep_case(n_sites, seed):
    fails = _SWEEP_FAILURES.get((n_sites, seed))
    if fails is None:
        return pytest.param(n_sites, seed, id=f"N{n_sites}-seed{seed}")
    reason = f"N = {n_sites}, seed {seed}: " + ", ".join(f"{k} {v:.1e}" for k, v in fails.items())
    return pytest.param(n_sites, seed, id=f"N{n_sites}-seed{seed}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=reason))


_SWEEP = [(n, s) for n in range(2, 6) for s in range(12)] + [(6, s) for s in range(4)]


@pytest.mark.parametrize("n_sites, seed", [_sweep_case(n, s) for n, s in _SWEEP])
def test_bethe_suite_seeded_sweep(n_sites, seed):
    # no draw may raise: an expected failure is an assertion, never an exception
    p = ch.sample_params(n_sites, seed=seed, tol=1e-10)
    failed = {r.name: r.residual for r in vf.bethe_suite(p, seed=seed) if not r.passed}
    assert not failed, failed


@pytest.mark.parametrize("suite", ["n2-closed-forms", "crossing", "tq", "commutators",
                                   "polynomiality", "spectrum", "bethe"])
def test_sampler_exhaustion_is_typed(suite):
    # an exclusion radius of 50 covers every point the suites draw and every Q node circle
    p = ch.sample_params(2, seed=3, tol=1e-10, exclusion_radius=50.0)
    with pytest.raises(QBaxterError, match="exclusion set"):
        vf.run_suite(suite, p, 3)


@pytest.mark.parametrize("suite", ["spectrum", "bethe"])
@pytest.mark.parametrize("samples", [0, -2, ()], ids=["zero", "negative", "empty-tuple"])
def test_spectral_suites_reject_no_samples(params, suite, samples):
    # with no sample point the eigen-residual and interpolation checks would be vacuous
    with pytest.raises(QBaxterError, match="at least one sample point"):
        vf.run_suite(suite, params, 3, samples)


def test_spectral_sample_in_exclusion_set_rejected(params):
    # q^(-1) / sqrt(xitilde) is a pole of the Fock trace, so Q at the sample raises
    pole = complex(params.q ** -1 / np.sqrt(params.xitilde))
    with pytest.raises(ExclusionPointError, match=re.escape(f"z = {pole:.6f} is within")):
        vf.spectral_records(params, 3, [0.9 + 0.2j, pole])


def test_dense_safe_cutoff_needs_a_dense_window():
    # at |q| = 0.001 the level-8 boundary entries leave floating range
    p = ch.ChainParams(q=0.001, xi=1e-4, xitilde=1e-4, n_sites=1, t=(1.0,))
    with pytest.raises(ParameterDomainError, match="no usable dense Fock window"):
        vf.dense_safe_cutoff(p, 40)


def test_spectral_samples_normalized_before_the_cache(params):
    # a list or a numpy array of points is the tuple of them, a numpy integer the count
    points = (0.9 + 0.1j, 0.8 - 0.3j)
    assert not any(ch.in_exclusion_set(z, params) for z in points)
    records = vf.spectral_records(params, 3, points)
    assert [z for z, _ in records[0].tv_samples] == list(points)
    assert vf.spectral_records(params, 3, list(points)) is records
    assert vf.spectral_records(params, 3, np.array(points)) is records
    counted = vf.spectral_records(params, 3, 2)
    assert vf.spectral_records(params, 3, np.int64(2)) is counted


@pytest.mark.parametrize("suite", ["spectrum", "bethe"])
@pytest.mark.parametrize("samples", [True, 2.0, "3", [[0.9, 0.1]], [True], np.array(0.9)],
                         ids=["bool", "float", "string", "nested", "bool-point", "0-d-array"])
def test_spectral_suites_reject_malformed_samples(params, suite, samples):
    # neither hashed as given (a bare TypeError) nor read as a count (True as 1)
    for call in (vf.spectral_records, lambda *args: vf.run_suite(suite, *args)):
        with pytest.raises(QBaxterError, match="at least one sample point"):
            call(params, 3, samples)


def test_run_suite_gives_every_suite_a_list(params):
    for suite in vf.SUITES:
        out = vf.run_suite(suite, params, 3, 2)
        assert isinstance(out, list) and out, suite
        assert all(isinstance(r, vf.CheckResult) for r in out), suite


def test_unknown_suite(params):
    with pytest.raises(ParameterDomainError, match="unknown suite 'nope'"):
        vf.run_suite("nope", params)


def test_determinism(params):
    a = vf.check_tq(params, seed=9)
    b = vf.check_tq(params, seed=9)
    assert a == b


def test_result_gate():
    res = vf.CheckResult(name="x", residual=2e-8, tolerance=1e-8)
    assert not res.passed
    res = vf.CheckResult(name="x", residual=0.5e-8, tolerance=1e-8)
    assert res.passed


def test_cutoff_stability_meta(params, monkeypatch):
    """Every certified trace gives the same bits under a level budget capped at 40."""
    z = 0.83 + 0.27j
    for fn in (ch.transfer_w, ch.q_operator):
        a = fn(z, params)
        with monkeypatch.context() as m:
            m.setattr(ch, "_MAX_LEVELS", 40)
            assert params.cutoff == 40
            assert np.array_equal(fn(z, params), a)
