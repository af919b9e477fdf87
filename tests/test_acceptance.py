"""Acceptance criteria.

Each test drives one numbered criterion at its stated tolerance against
parameters from the generic sampler (seeds fixed below) and prints a one-line
verdict; run with `pytest tests/test_acceptance.py -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest

from oracles import phi21, pochhammer
from qbaxter import chain as ch
from qbaxter import tensor_core as tc
from qbaxter import verify as vf

SEED = 2024


def report(number, ok, detail):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def generic():
    return {n: ch.sample_params(n, seed=SEED + n, cutoff=45, tol=1e-11)
            for n in range(4)}


@pytest.fixture(scope="module")
def golden():
    return {n: ch.sample_params(n, seed=SEED + n, cutoff=60, tol=1e-13)
            for n in range(4)}


def test_criterion_01_identity_battery():
    tol = 1e-8
    start = time.monotonic()
    params = ch.sample_params(2, seed=SEED, tol=1e-10, identity_grade=True)
    residuals = {
        "yang-baxter": vf.check_ybe(params, seed=1).residual,
        "reflection": vf.check_reflection(params, seed=1).residual,
        "fusion": vf.check_fusion(params, seed=1).residual,
        "row-fusion": vf.check_row_fusion_and_monodromy(params, seed=1).residual,
    }
    elapsed = time.monotonic() - start
    worst = max(residuals.values())
    ok = worst < tol and elapsed < 120.0
    report(1, ok, f"identity battery N in {{1,2}}: worst residual {worst:.2e} "
                  f"(tol {tol:.0e}), runtime {elapsed:.1f}s (< 120s)")


def test_criterion_02_tq_relation(generic):
    tol = 1e-8
    worst = 0.0
    n3_time = 0.0
    for n in range(4):
        start = time.monotonic()
        res = vf.check_tq(generic[n], seed=2)
        elapsed = time.monotonic() - start
        if n == 3:
            n3_time = elapsed
        worst = max(worst, res.residual)
    ok = worst < tol and n3_time < 300.0
    report(2, ok, f"functional relation N in {{0..3}}: worst residual {worst:.2e} "
                  f"(tol {tol:.0e}), N=3 runtime {n3_time:.1f}s (< 300s)")


def test_criterion_03_golden_values(golden):
    p2 = golden[2]
    n = 2
    origin = ch.transfer_w(0.0, p2)
    diag = np.diag(np.array([1.0 / (1.0 - p2.q ** (2 * (n - 2 * bin(i).count("1")))
                                    * p2.xi * p2.xitilde) for i in range(4)], dtype=complex))
    r_origin = tc.rel_err(origin, diag)

    p0 = golden[0]
    const = 1.0 / (1.0 - p0.xi * p0.xitilde)
    r_const = max(abs(ch.transfer_w(z, p0)[0, 0] - const) / abs(const)
                  for z in (0.0, 0.83 + 0.21j, 1.1 - 0.35j))

    q, xi, xit = p2.q, p2.xi, p2.xitilde
    t1, t2 = p2.t
    den = (1.0 - q * q * xi * xit) * (1.0 - xi * xit)
    r_entry = r_diff = 0.0
    count = 0
    rng = np.random.default_rng(77)
    while count < 3:
        z = (0.7 + 0.5 * rng.random()) * np.exp(2j * np.pi * rng.random())
        if ch.in_exclusion_set(z, p2):
            continue
        count += 1
        tw = ch.transfer_w(z, p2)
        lone = q * z * z * (1 - q * q) * (t1 - xit / t1) * (t2 - xi / t2) / den
        r_entry = max(r_entry, abs(tw[2, 1] - lone) / max(1.0, abs(lone)))
        diff = q * q * z * z * ((t1 ** 2 + t1 ** -2 - t2 ** 2 - t2 ** -2) / (1 - q * q * xi * xit)
                                - (q - 1 / q) ** 2 * (xi - xit) / den)
        r_diff = max(r_diff, abs((tw[1, 1] - tw[2, 2]) - diff) / max(1.0, abs(diff)))

    ok = r_origin < 1e-12 and r_const < 1e-12 and r_entry < 1e-10 and r_diff < 1e-10
    report(3, ok, f"golden values: origin {r_origin:.2e} (1e-12), empty-chain constant "
                  f"{r_const:.2e} (1e-12), lone entry {r_entry:.2e} (1e-10), "
                  f"diagonal difference {r_diff:.2e} (1e-10)")


def test_criterion_04_commutators(generic):
    tol = 1e-9
    worst_thm = worst_conj = 0.0
    for n in (1, 2, 3):
        thm, conj = vf.check_commutators(generic[n], seed=4)
        worst_thm = max(worst_thm, thm.residual)
        worst_conj = max(worst_conj, conj.residual)
        assert conj.conjecture
    ok = worst_thm < tol and worst_conj < tol
    report(4, ok, f"commutators N<=3: theorem pairs {worst_thm:.2e}, conjectured "
                  f"Q-family pair {worst_conj:.2e} (both tol {tol:.0e}, latter flagged)")


def test_criterion_05_crossing(generic):
    tol = 1e-8
    worst = max(vf.check_crossing(generic[n], seed=5).residual for n in (1, 2, 3))
    ok = worst < tol
    report(5, ok, f"inversion symmetry of both families N<=3: worst {worst:.2e} (tol {tol:.0e})")


def test_criterion_06_polynomiality(generic):
    tol_poly, tol_rec = 1e-8, 1e-9
    worst_poly = worst_rec = 0.0
    conj_flags = []
    for n in (1, 2, 3):
        diag, off, rec = vf.check_polynomiality(generic[n], seed=6)
        worst_poly = max(worst_poly, diag.residual, off.residual)
        worst_rec = max(worst_rec, rec.residual)
        conj_flags.append(off.conjecture)
    ok = worst_poly < tol_poly and worst_rec < tol_rec and conj_flags == [False, False, True]
    report(6, ok, f"degree-bounded interpolation N<=3: worst held-out {worst_poly:.2e} "
                  f"(tol {tol_poly:.0e}); recursion oracle {worst_rec:.2e} (tol {tol_rec:.0e}); "
                  f"off-diagonal flags {conj_flags}")


def test_criterion_07_bethe_pipeline(generic):
    pair_tol, prod_tol, res_tol, eig_tol, state_tol = 1e-6, 1e-8, 1e-6, 1e-6, 1e-5
    detail = {}
    ok = True
    for n in (2, 3):
        results = {r.name: r for r in vf.bethe_suite(generic[n], seed=7)}
        ok = ok and results["bethe-pairing"].residual < pair_tol
        ok = ok and results["bethe-product-constraint"].residual < prod_tol
        ok = ok and results["bethe-residuals"].residual < res_tol
        ok = ok and results["bethe-aba-eigenvalue"].residual < eig_tol
        ok = ok and results["bethe-aba-state"].residual < state_tol
        detail[n] = {k.replace("bethe-", ""): f"{v.residual:.1e}" for k, v in results.items()}
    report(7, ok, f"root pipeline N in {{2,3}}: {detail}")


def test_criterion_08_closed_chain(generic, golden):
    tol_tq, tol_golden = 1e-9, 1e-12
    worst_tq = worst_golden = 0.0
    for n in (1, 2, 3):
        res = vf.check_closed_chain(generic[n], seed=8)
        worst_tq = max(worst_tq, res.residual)
        p = golden[n]
        tw0 = ch.closed_transfer_w(0.0, p)
        ref = np.diag(np.array([1.0 / (1.0 - p.zeta * p.q ** (n - 2 * bin(i).count("1")))
                                for i in range(2 ** n)], dtype=complex))
        worst_golden = max(worst_golden, tc.rel_err(tw0, ref))
    ok = worst_tq < tol_tq and worst_golden < tol_golden
    report(8, ok, f"closed chain N<=3: functional relation {worst_tq:.2e} (1e-9), "
                  f"twisted trace at origin {worst_golden:.2e} (1e-12)")


def test_criterion_09_truncation_stability(generic):
    from qbaxter.errors import TailCertificateError

    worst = 0.0
    for n in (1, 2, 3):
        p = generic[n]
        z = 0.87 + 0.24j
        for fn in (ch.transfer_w, ch.q_operator, ch.closed_transfer_w):
            a = fn(z, p)
            b = fn(z, p, cutoff=p.cutoff + 5)
            worst = max(worst, tc.rel_err(a, b))
            # also compare at the smallest certifying cutoff, where +5 genuinely
            # extends the summed range
            lo = p.cutoff
            while lo > 6:
                try:
                    fn(z, p, cutoff=lo - 1)
                    lo -= 1
                except TailCertificateError:
                    break
            worst = max(worst, tc.rel_err(fn(z, p, cutoff=lo), fn(z, p, cutoff=lo + 5)))
    ok = worst < generic[1].tol
    report(9, ok, f"truncation stability: worst change under cutoff+5 is {worst:.2e} "
                  f"(declared tol {generic[1].tol:.0e})")


def test_criterion_10_q_series_identities():
    tol = 1e-10
    rng = np.random.default_rng(SEED)
    worst_gauss = worst_heine = 0.0
    count = 0
    while count < 20:
        q = (0.3 + 0.5 * rng.random()) * np.exp(0.5j * rng.random())
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        c = complex(rng.normal(), rng.normal()) * 0.4
        x = c / (a * b)
        if abs(x) > 0.7:
            continue
        count += 1
        lhs = phi21(a, b, c, x, q)
        rhs = pochhammer(c / a, math.inf, q) * pochhammer(c / b, math.inf, q) \
            / (pochhammer(x, math.inf, q) * pochhammer(c, math.inf, q))
        worst_gauss = max(worst_gauss, abs(lhs - rhs) / max(1.0, abs(rhs)))
    count = 0
    while count < 20:
        q = (0.3 + 0.5 * rng.random()) * np.exp(0.5j * rng.random())
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        c = complex(rng.normal(), rng.normal()) * 0.5
        x = complex(rng.normal(), rng.normal()) * 0.3
        if abs(x) > 0.7 or abs(1 - c) < 0.05 or abs(1 - c / q ** 2) < 0.05:
            continue
        count += 1
        lhs = phi21(a, b, c, x, q)
        rhs = phi21(a, b, c / q ** 2, x, q) \
            - (c * x / q ** 2) * (1 - a) * (1 - b) / ((1 - c / q ** 2) * (1 - c)) \
            * phi21(q ** 2 * a, q ** 2 * b, q ** 2 * c, x, q)
        worst_heine = max(worst_heine, abs(lhs - rhs) / max(1.0, abs(lhs)))
    ok = worst_gauss < tol and worst_heine < tol
    report(10, ok, f"q-series summation {worst_gauss:.2e} and contiguous relation "
                   f"{worst_heine:.2e} over 20 admissible draws each (tol {tol:.0e})")
