"""The identity battery.

Each check evaluates one family of operator identities at randomly sampled
spectral points and reports the worst relative residual as a CheckResult.
Checks are deterministic given (params, seed); conjectured properties are
flagged so reports never conflate them with proven identities.

Identities carrying the Fock space restrict their residuals to the interior
band (the top 2N+2 levels are the truncation shadow), and densely
materialized boundary matrices use a reduced cutoff chosen so all entries
stay inside floating range.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

from . import bethe as bt
from . import chain as ch
from . import tensor_core as tc
from .errors import ConvergenceError, ExclusionPointError, ParameterDomainError
from .lattice_ops import (
    iota,
    iota_retraction,
    kv_matrix,
    ktv_matrix,
    l_inverse,
    l_matrix,
    l_tilde,
    r_matrix,
    r_tilde,
    tau,
    tau_section,
)
from .qoscillator import kw_diagonal, ktw_diagonal, validate_count

DEFAULT_TOL = 1e-8
EXACT_TOL = 1e-10


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool = field(init=False)
    conjecture: bool = False
    params_digest: dict = field(default_factory=dict)
    notes: str = ""

    def __post_init__(self):
        self.residual = float(self.residual)
        self.passed = bool(self.residual < self.tolerance)


def _cx(v):
    v = complex(v)
    return [v.real, v.imag]


def params_digest(params: ch.ChainParams, seed: int) -> dict:
    return {
        "seed": int(seed),
        "q": _cx(params.q),
        "xi": _cx(params.xi),
        "xitilde": _cx(params.xitilde),
        "zeta": _cx(params.zeta),
        "t": [_cx(v) for v in params.t],
        "n_sites": params.n_sites,
        "cutoff": params.cutoff,
        "tol": params.tol,
    }


def dense_safe_cutoff(params: ch.ChainParams, requested: int) -> int:
    """Largest Fock cutoff up to requested whose dense boundary factors stay in range.

    The level-j boundary entries scale like |q|^(-j^2) and pick up up to 2N+4
    further inverse powers inside monodromy products.
    """
    lnq = abs(math.log(abs(params.q)))
    pad = 2 * params.n_sites + 4
    j = 2
    while lnq * ((j + 1) ** 2 + pad * (j + 1)) < 600.0 and j < requested:
        j += 1
    if j < 8:
        raise ParameterDomainError(
            f"|q| = {abs(params.q):.3f} leaves no usable dense Fock window for identity checks")
    return j


def _interior(mat, row_rest: int, col_rest: int, pad: int):
    """Drop the truncation-shadow levels from both Fock indices."""
    jr = mat.shape[0] // row_rest
    jc = mat.shape[1] // col_rest
    m = mat.reshape(jr, row_rest, jc, col_rest)[: jr - pad, :, : jc - pad, :]
    return m.reshape((jr - pad) * row_rest, (jc - pad) * col_rest)


def _result(name, residual, tol, params, seed, notes="", conjecture=False) -> CheckResult:
    return CheckResult(name=name, residual=residual, tolerance=tol, conjecture=conjecture,
                       params_digest=params_digest(params, seed), notes=notes)


def _acc(d, key, val):
    d[key] = max(d.get(key, 0.0), float(val))


def _worst(name, worst, tol, params, seed, *notes) -> CheckResult:
    """Result at the largest sub-residual in worst; its notes list worst, then
    the given notes, joined by "; "."""
    return _result(name, max(worst.values()), tol, params, seed,
                   "; ".join((f"sub-residuals {worst}",) + notes))


# ---------------------------------------------------------------------------
# Yang-Baxter
# ---------------------------------------------------------------------------

def check_ybe(params: ch.ChainParams, seed: int = 0) -> CheckResult:
    """All three Yang-Baxter equations at random spectral triples, plus r-covariance."""
    rng = np.random.default_rng(seed)
    q = params.q
    J = dense_safe_cutoff(params, 20)
    pad = 3
    worst = {}
    r_values = [1.0, 1.4 - 0.2j, 0.7 + 0.5j]
    for _ in range(5):
        z1, z2, z3 = (bt.random_point(rng) for _ in range(3))
        sh = (2, 2, 2)
        r12 = tc.embed(r_matrix(z1 / z2, q), (0, 1), sh)
        r13 = tc.embed(r_matrix(z1 / z3, q), (0, 2), sh)
        r23 = tc.embed(r_matrix(z2 / z3, q), (1, 2), sh)
        _acc(worst, "vvv", tc.rel_err(r12 @ r13 @ r23, r23 @ r13 @ r12))
        for r in r_values:
            sh = (J, 2, 2)
            l12 = tc.embed(l_matrix(z1 / z2, r, q, J), (0, 1), sh)
            l13 = tc.embed(l_matrix(z1 / z3, r, q, J), (0, 2), sh)
            r23 = tc.embed(r_matrix(z2 / z3, q), (1, 2), sh)
            lhs = l12 @ l13 @ r23
            rhs = r23 @ l13 @ l12
            _acc(worst, "wvv", tc.rel_err(_interior(lhs, 4, 4, pad), _interior(rhs, 4, 4, pad)))
        sh = (2, 2, J)
        r = r_values[1]
        r12 = tc.embed(r_matrix(z1 / z2, q), (0, 1), sh)
        l13 = tc.embed(l_matrix(z1 / z3, r, q, J), (2, 0), sh)
        l23 = tc.embed(l_matrix(z2 / z3, r, q, J), (2, 1), sh)
        lhs = (r12 @ l13 @ l23).reshape(4, J, 4, J)[:, : J - pad, :, : J - pad]
        rhs = (l23 @ l13 @ r12).reshape(4, J, 4, J)[:, : J - pad, :, : J - pad]
        _acc(worst, "vvw", tc.rel_err(
            lhs.reshape(4 * (J - pad), -1), rhs.reshape(4 * (J - pad), -1)))
    return _worst("yang-baxter", worst, DEFAULT_TOL, params, seed, f"Fock cutoff {J}",
                  f"r-covariance over {len(r_values)} values")


# ---------------------------------------------------------------------------
# reflection equations
# ---------------------------------------------------------------------------

def check_reflection(params: ch.ChainParams, seed: int = 0) -> CheckResult:
    """All four reflection equations; the left pair both directly and in the
    inverted, reparametrized form."""
    rng = np.random.default_rng(seed)
    q, xi, xit = params.q, params.xi, params.xitilde
    J = dense_safe_cutoff(params, 20)
    pad = 4
    r = 1.15 - 0.25j
    worst = {}
    eye2 = np.eye(2, dtype=complex)
    eyej = np.eye(J, dtype=complex)

    def clear(y):  # y and y/q off the poles of the left boundary matrix
        try:
            ktw_diagonal(y, r, xit, q, J), ktw_diagonal(y / q, r, xit, q, J)
        except ExclusionPointError:
            return False
        return True

    for _ in range(4):
        y = bt.draw_points(rng, 1, clear)[0]
        z = bt.random_point(rng)
        k1 = tc.embed(kv_matrix(y, xi), (0,), (2, 2))
        k2 = tc.embed(kv_matrix(z, xi), (1,), (2, 2))
        ra, rb = r_matrix(y / z, q), r_matrix(y * z, q)
        _acc(worst, "vv-right", tc.rel_err(ra @ k1 @ rb @ k2, k2 @ rb @ k1 @ ra))

        kw1 = np.kron(kw_diagonal(y, r, xi, q, J).dense(), eye2)
        kv2 = np.kron(eyej, kv_matrix(z, xi))
        la, lb = l_matrix(y / z, r, q, J), l_matrix(y * z, r, q, J)
        lhs = la @ kw1 @ lb @ kv2
        rhs = kv2 @ lb @ kw1 @ la
        _acc(worst, "wv-right", tc.rel_err(_interior(lhs, 2, 2, pad), _interior(rhs, 2, 2, pad)))

        kt1 = tc.embed(ktv_matrix(y, xit, q), (0,), (2, 2))
        kt2 = tc.embed(ktv_matrix(z, xit, q), (1,), (2, 2))
        rt = r_tilde(y * z, q)
        rinv = np.linalg.inv(r_matrix(y / z, q))
        _acc(worst, "vv-left", tc.rel_err(kt2 @ rt @ kt1 @ rinv, rinv @ kt1 @ rt @ kt2))

        ktw1 = np.kron(ktw_diagonal(y, r, xit, q, J).dense(), eye2)
        ktv2 = np.kron(eyej, ktv_matrix(z, xit, q))
        lt = l_tilde(y * z, r, q, J)
        linv = l_inverse(y / z, r, q, J)
        lhs = ktv2 @ lt @ ktw1 @ linv
        rhs = linv @ ktw1 @ lt @ ktv2
        _acc(worst, "wv-left", tc.rel_err(_interior(lhs, 2, 2, pad), _interior(rhs, 2, 2, pad)))

        # inverted and reparametrized (y, z) -> (y/q, z/q) form of the left equation
        ktw_inv = np.kron(np.linalg.inv(ktw_diagonal(y / q, r, xit, q, J).dense()), eye2)
        ktv_inv = np.kron(eyej, np.linalg.inv(ktv_matrix(z / q, xit, q)))
        lhs = la @ ktw_inv @ lb @ ktv_inv
        rhs = ktv_inv @ lb @ ktw_inv @ la
        _acc(worst, "wv-left-alt", tc.rel_err(
            _interior(lhs, 2, 2, pad), _interior(rhs, 2, 2, pad)))
    return _worst("reflection", worst, DEFAULT_TOL, params, seed, f"Fock cutoff {J}")


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

def check_fusion(params: ch.ChainParams, seed: int = 0) -> CheckResult:
    """The two bulk and four boundary fusion identities with their exact scalars."""
    rng = np.random.default_rng(seed)
    q, xi, xit = params.q, params.xi, params.xitilde
    J = dense_safe_cutoff(params, 20)
    pad = 3
    eye2 = np.eye(2, dtype=complex)
    eyej = np.eye(J, dtype=complex)
    worst = {}
    for _ in range(3):
        z = bt.random_point(rng)
        r = 1.0 + 0.6 * (rng.random() - 0.5) + 0.4j * (rng.random() - 0.5)
        io = iota(r, q, J)
        ta = tau(r, q, J)
        io_i = np.kron(io, eye2)
        ta_i = np.kron(ta, eye2)
        sh = (J, 2, 2)
        l13 = tc.embed(l_matrix(z, r, q, J), (0, 2), sh)
        r23 = tc.embed(r_matrix(z, q), (1, 2), sh)
        lhs = l13 @ r23 @ io_i
        rhs = (1.0 - z * z) * io_i @ l_matrix(q * z, q * r, q, J)
        _acc(worst, "bulk-raise", tc.rel_err(_interior(lhs, 4, 2, pad), _interior(rhs, 4, 2, pad)))
        lhs = ta_i @ l13 @ r23
        rhs = q * (1.0 - q * q * z * z) * l_matrix(z / q, r / q, q, J) @ ta_i
        _acc(worst, "bulk-lower", tc.rel_err(_interior(lhs, 2, 4, pad), _interior(rhs, 2, 4, pad)))

        mid = np.kron(kw_diagonal(z, r, xi, q, J).dense(), eye2) \
            @ l_matrix(z * z, r, q, J) @ np.kron(eyej, kv_matrix(z, xi))
        lhs = mid @ io
        rhs = (1.0 - z ** 4) * (xi - q * q * z * z) * io @ kw_diagonal(q * z, q * r, xi, q, J).dense()
        _acc(worst, "boundary-right-raise",
             tc.rel_err(_interior(lhs, 2, 1, pad), _interior(rhs, 2, 1, pad)))
        lhs = ta @ mid
        rhs = r * (xi * z * z - 1.0) * kw_diagonal(z / q, r / q, xi, q, J).dense() @ ta
        _acc(worst, "boundary-right-lower",
             tc.rel_err(_interior(lhs, 1, 2, pad), _interior(rhs, 1, 2, pad)))

        mid = np.kron(eyej, ktv_matrix(z, xit, q)) @ l_tilde(z * z, r, q, J) \
            @ np.kron(ktw_diagonal(z, r, xit, q, J).dense(), eye2)
        lhs = mid @ io
        rhs = (xit - q * q * z * z) / (1.0 - q * q * z ** 4) \
            * io @ ktw_diagonal(q * z, q * r, xit, q, J).dense()
        _acc(worst, "boundary-left-raise",
             tc.rel_err(_interior(lhs, 2, 1, pad), _interior(rhs, 2, 1, pad)))
        lhs = ta @ mid
        rhs = (1.0 - q ** 4 * z ** 4) / (1.0 - q * q * z ** 4) * (xit * z * z - 1.0) / r \
            * ktw_diagonal(z / q, r / q, xit, q, J).dense() @ ta
        _acc(worst, "boundary-left-lower",
             tc.rel_err(_interior(lhs, 1, 2, pad), _interior(rhs, 1, 2, pad)))
    return _worst("fusion", worst, DEFAULT_TOL, params, seed, f"Fock cutoff {J}")


# ---------------------------------------------------------------------------
# monodromy exchange and row fusion
# ---------------------------------------------------------------------------

def check_row_fusion_and_monodromy(params: ch.ChainParams, seed: int = 0) -> CheckResult:
    """Factorized exchange identities of the two monodromies and the row-fusion
    relations with their polynomial scalars, at N in {1, 2}."""
    rng = np.random.default_rng(seed)
    worst = {}
    for n in (1, 2):
        p = params.with_sites(n)
        q = p.q
        J = dense_safe_cutoff(p, 16)
        d = 2 ** n
        shape = (J, 2) + (2,) * n
        sites = tuple(range(2, n + 2))
        row = ((J,) + (2,) * n, 0, range(1, n + 1))  # the Fock row alone
        pad = 2 * n + 2
        r = 1.1 - 0.3j
        y, z = bt.random_point(rng), bt.random_point(rng)
        mw = ch.monodromy_w(y, r, p, shape, 0, sites)
        mv = ch.monodromy_v(z, p, shape, 1, sites)
        lab_yz = tc.embed(l_matrix(y * z, r, q, J), (0, 1), shape)
        lab_yoz = tc.embed(l_matrix(y / z, r, q, J), (0, 1), shape)

        # interleaved double rows: per-site (L, R) pairs, then the boundary group
        # Kw . L(yz) . Kv, then the right-row pairs; the swapped product
        # reverses the order inside every group
        groups = [((l_matrix(p.t[k] * y, r, q, J), 0, s), (r_matrix(p.t[k] * z, q), 1, s))
                  for k, s in enumerate(sites)]
        groups.append(((kw_diagonal(y, r, p.xi, q, J).dense(), 0),
                       (l_matrix(y * z, r, q, J), 0, 1), (kv_matrix(z, p.xi), 1)))
        groups += [((l_matrix(y / p.t[k], r, q, J), 0, sites[k]),
                    (r_matrix(z / p.t[k], q), 1, sites[k])) for k in reversed(range(n))]
        prod = tc.ordered_product([f for g in groups for f in g], shape)
        _acc(worst, f"factorized-exchange-N{n}", tc.rel_err(
            _interior(mw @ lab_yz @ mv, 2 * d, 2 * d, pad),
            _interior(prod, 2 * d, 2 * d, pad)))

        prod2 = tc.ordered_product([f for g in groups for f in g[::-1]], shape)
        _acc(worst, f"factorized-exchange-swapped-N{n}", tc.rel_err(
            _interior(mv @ lab_yz @ mw, 2 * d, 2 * d, pad),
            _interior(prod2, 2 * d, 2 * d, pad)))

        _acc(worst, f"monodromy-exchange-N{n}", tc.rel_err(
            _interior(lab_yoz @ mw @ lab_yz @ mv, 2 * d, 2 * d, pad),
            _interior(mv @ lab_yz @ mw @ lab_yoz, 2 * d, 2 * d, pad)))

        z0 = bt.random_point(rng)
        mwz = ch.monodromy_w(z0, r, p, shape, 0, sites)
        mvz = ch.monodromy_v(z0, p, shape, 1, sites)
        core = tc.embed(ktv_matrix(z0, p.xitilde, q), (1,), shape) \
            @ tc.embed(l_tilde(z0 * z0, r, q, J), (0, 1), shape) \
            @ tc.embed(ktw_diagonal(z0, r, p.xitilde, q, J).dense(), (0,), shape) \
            @ mwz @ tc.embed(l_matrix(z0 * z0, r, q, J), (0, 1), shape) @ mvz
        io_i = np.kron(iota(r, q, J), np.eye(d))
        ta_i = np.kron(tau(r, q, J), np.eye(d))
        scalar = 1.0 / (1.0 - q * q * z0 ** 4)
        rhs = ch.p_plus(z0, p) * scalar * io_i \
            @ np.kron(ktw_diagonal(q * z0, q * r, p.xitilde, q, J).dense(), np.eye(d)) \
            @ ch.monodromy_w(q * z0, q * r, p, *row)
        _acc(worst, f"row-raise-N{n}", tc.rel_err(
            _interior(core @ io_i, 2 * d, d, pad + 2), _interior(rhs, 2 * d, d, pad + 2)))
        rhs = ch.p_minus(z0, p) * scalar \
            * np.kron(ktw_diagonal(z0 / q, r / q, p.xitilde, q, J).dense(), np.eye(d)) \
            @ ch.monodromy_w(z0 / q, r / q, p, *row) @ ta_i
        _acc(worst, f"row-lower-N{n}", tc.rel_err(
            _interior(ta_i @ core, d, 2 * d, pad + 2), _interior(rhs, d, 2 * d, pad + 2)))

        dr = np.kron(np.eye(J), np.diag(ch.spin_weights(n, r, 1.0)))
        lhs = np.kron(ktw_diagonal(y, r, p.xitilde, q, J).dense(), np.eye(d)) \
            @ ch.monodromy_w(y, r, p, *row)
        rhs = dr @ np.kron(ktw_diagonal(y, 1.0, p.xitilde, q, J).dense(), np.eye(d)) \
            @ ch.monodromy_w(y, 1.0, p, *row) @ dr
        _acc(worst, f"r-factorization-N{n}", tc.rel_err(
            _interior(lhs, d, d, pad), _interior(rhs, d, d, pad)))
    return _worst("row-fusion-monodromy", worst, DEFAULT_TOL, params, seed)


# ---------------------------------------------------------------------------
# split trace
# ---------------------------------------------------------------------------

def check_split_trace(params: ch.ChainParams, seed: int = 0) -> CheckResult:
    """Trace decomposition through the split short exact sequence.

    Checked for the identity, for the projector onto the embedded copy, and for
    random interior-banded operators.  The residual is normalized by the larger
    partial trace, since the two sides cancel huge intermediate summands.
    """
    rng = np.random.default_rng(seed)
    q = params.q
    J = dense_safe_cutoff(params, 14)
    r = 1.2 + 0.3j
    io = iota(r, q, J)
    ta = tau(r, q, J)
    ts = tau_section(q, J)
    ir = iota_retraction(r, q, J)
    worst = {}

    def split_residual(theta):
        tr_b = np.trace(theta)
        tr_a = np.trace(ir @ theta @ io)
        tr_c = np.trace(ta @ theta @ ts)
        scale = max(1.0, abs(tr_a), abs(tr_c), abs(tr_b))
        return abs(tr_b - tr_a - tr_c) / scale

    _acc(worst, "identity", split_residual(np.eye(2 * J, dtype=complex)))
    _acc(worst, "projector", split_residual(io @ ir))
    proj_c = np.trace(ta @ (io @ ir) @ ts)
    _acc(worst, "projector-complement-trace", abs(proj_c))
    for _ in range(4):
        theta = np.zeros((J, 2, J, 2), dtype=complex)
        for jrow in range(J - 3):
            for jcol in range(max(0, jrow - 2), min(J - 3, jrow + 3)):
                theta[jrow, :, jcol, :] = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        _acc(worst, "random-banded", split_residual(theta.reshape(2 * J, 2 * J)))
    return _worst("split-trace", worst, EXACT_TOL, params, seed, f"Fock cutoff {J}")


# ---------------------------------------------------------------------------
# functional relations
# ---------------------------------------------------------------------------

def _tq_point(rng, params):
    """Random z with z, qz, z/q all clear of the exclusion set and q^2 z^4 off 1."""
    q = params.q
    return bt.draw_points(rng, 1, lambda z: abs(1.0 - q * q * z ** 4) >= 0.05 and not any(
        ch.in_exclusion_set(w, params) for w in (z, q * z, z / q)))[0]


def check_tq(params: ch.ChainParams, seed: int = 0) -> CheckResult:
    """The functional relation tying the two transfer families, plus its
    degeneration at the zero of the left-hand scalar."""
    rng = np.random.default_rng(seed)
    q = params.q
    worst = {}
    for _ in range(5):
        z = _tq_point(rng, params)
        lhs = (1.0 - q * q * z ** 4) * ch.transfer_v(z, params) @ ch.q_operator(z, params)
        rhs = ch.p_plus(z, params) * ch.q_operator(q * z, params) \
            + ch.p_minus(z, params) * ch.q_operator(z / q, params)
        _acc(worst, "functional-relation", tc.rel_err(lhs, rhs))
    for k in range(4):
        z0 = cmath.sqrt(1.0 / q) * cmath.exp(1j * math.pi * k / 2.0)
        if any(ch.in_exclusion_set(w, params) for w in (z0, q * z0, z0 / q)):
            continue
        a = ch.p_plus(z0, params) * ch.q_operator(q * z0, params)
        b = ch.p_minus(z0, params) * ch.q_operator(z0 / q, params)
        _acc(worst, "degeneration-at-quartic-point",
             float(np.linalg.norm(a + b) / max(np.linalg.norm(a), np.linalg.norm(b), 1e-300)))
        break
    return _worst("tq-relation", worst, DEFAULT_TOL, params, seed, f"N={params.n_sites}")


def check_commutators(params: ch.ChainParams, seed: int = 0):
    """Commutativity of the transfer family (theorems) and of the Q-family
    (reported as a conjecture check)."""
    rng = np.random.default_rng(seed)
    worst_thm = {}
    worst_conj = 0.0
    for _ in range(5):
        y = _tq_point(rng, params)
        z = _tq_point(rng, params)
        tv_y, tv_z = ch.transfer_v(y, params), ch.transfer_v(z, params)
        q_y, q_z = ch.q_operator(y, params), ch.q_operator(z, params)
        _acc(worst_thm, "tt", tc.rel_err(tv_y @ tv_z, tv_z @ tv_y))
        _acc(worst_thm, "qt", tc.rel_err(q_y @ tv_z, tv_z @ q_y))
        worst_conj = max(worst_conj, tc.rel_err(q_y @ q_z, q_z @ q_y))
        u = 0.4 + rng.random() + 0.3j * rng.random()
        du = np.diag(ch.spin_weights(params.n_sites, u, 1.0))
        _acc(worst_thm, "q-spinweight", tc.rel_err(q_y @ du, du @ q_y))
    thm = _worst("commutators", worst_thm, 1e-9, params, seed)
    conj = _result("commutators-qq", worst_conj, 1e-9, params, seed,
                   "commutativity of the Q-family is conjectural; reported separately",
                   conjecture=True)
    return [thm, conj]


def check_crossing(params: ch.ChainParams, seed: int = 0) -> CheckResult:
    """Inversion symmetry z -> 1/(q z) of both transfer families.

    The Q-operator version rests on the commutativity conjecture in general,
    which the notes record; the residual is held to the same tolerance.
    """
    rng = np.random.default_rng(seed)
    q = params.q
    n = params.n_sites
    worst = {}
    ratios = []
    for z in bt.draw_points(rng, 3, lambda z: not any(
            ch.in_exclusion_set(w, params) for w in (z, 1.0 / (q * z))), 0.8, 1.3):
        tv = ch.transfer_v(z, params)
        tv_cross = ch.transfer_v(1.0 / (q * z), params)
        _acc(worst, "finite-family", tc.rel_err(tv_cross, (q * z * z) ** (-2 * (n + 1)) * tv))
        qo = ch.q_operator(z, params)
        qo_cross = ch.q_operator(1.0 / (q * z), params)
        _acc(worst, "q-family", tc.rel_err(qo_cross, (q * z * z) ** (-2 * n) * qo))
        ratios.append(float(np.linalg.norm(qo_cross) / np.linalg.norm(qo)
                            / abs((q * z * z) ** (-2 * n))))
    return _worst("crossing", worst, DEFAULT_TOL, params, seed,
                  f"scalar-exponent ratios {ratios} (should be ~1)",
                  "Q-version conditional on the commutativity conjecture")


def check_polynomiality(params: ch.ChainParams, seed: int = 0):
    """Entrywise polynomial interpolation of the Q-operator in z^2 with held-out
    nodes (diagonal entries theorem-backed, off-diagonal conjectural), plus the
    site-peeling recursion oracle for diagonal entries."""
    rng = np.random.default_rng(seed)
    n = params.n_sites
    d = params.dim
    deg = 2 * n
    coeffs = bt.circle_coefficients(lambda y: ch.q_operator(cmath.sqrt(y), params), deg + 2,
                                    1.0 / params.q)[:deg + 1]
    holdout = bt.spectrum_nodes(params, seed + 2, 3)
    diag_err, off_err = 0.0, 0.0
    for z in holdout:
        actual = ch.q_operator(z, params)
        pred = ((z * z) ** np.arange(deg + 1) @ coeffs.reshape(deg + 1, -1)).reshape(d, d)
        scale = max(1.0, float(np.linalg.norm(actual)))
        err = np.abs(pred - actual) / scale
        diag_err = max(diag_err, float(np.max(np.diag(err))))
        off = err - np.diag(np.diag(err))
        off_err = max(off_err, float(np.max(off)))

    rec_err = 0.0
    if n == 0:
        patterns = [()]
    else:
        patterns = [tuple(int(b) for b in np.binary_repr(i, width=n))
                    for i in rng.permutation(d)[: min(d, 4)]]
    rec_nodes = bt.spectrum_nodes(params, seed + 3, 5)
    tw = {z: ch.transfer_w(z, params) for z in rec_nodes}
    for alpha in patterns:
        coeff = ch.tw_diagonal_recursion(alpha, params)
        idx = int("".join(str(b) for b in alpha), 2) if n else 0
        for z in rec_nodes:
            val = complex(np.polyval(coeff[::-1], z ** 2))
            rec_err = max(rec_err, abs(tw[z][idx, idx] - val) / max(1.0, abs(val)))

    res_diag = _result("polynomiality-diagonal", diag_err, DEFAULT_TOL, params, seed,
                       f"degree <= {deg} in z^2, {len(holdout)} held-out nodes")
    res_off = _result("polynomiality-offdiagonal", off_err, DEFAULT_TOL, params, seed,
                      "off-diagonal polynomiality is conjectural beyond two sites",
                      conjecture=params.n_sites > 2)
    res_rec = _result("recursion-oracle", rec_err, 1e-9, params, seed,
                      f"{len(patterns)} diagonal patterns against the traced entries")
    return [res_diag, res_off, res_rec]


def check_n2_closed_forms(params: ch.ChainParams, seed: int = 0):
    """Two-site closed forms: the lone off-diagonal entry, its inversion image,
    the diagonal difference, and z-independence of the entry ratios."""
    p = params.with_sites(2)
    q, xi, xit = p.q, p.xi, p.xitilde
    t1, t2 = p.t
    zs = bt.draw_points(np.random.default_rng(seed), 4, lambda z: not ch.in_exclusion_set(z, p))
    den = (1.0 - q * q * xi * xit) * (1.0 - xi * xit)
    worst = {}
    ratios1, ratios2 = [], []
    coeff_echo = q * (1.0 - q * q) * (t1 - xit / t1) * (t2 - xi / t2) / den
    for z in zs:
        tw = ch.transfer_w(z, p)
        # rows/columns ordered v00, v01, v10, v11; entry^{in}_{out} = mat[out, in]
        lone = tw[2, 1]
        _acc(worst, "offdiagonal-entry", abs(lone - coeff_echo * z * z) / max(1.0, abs(lone)))
        mirrored = tw[1, 2]
        pred = q * z * z * (1.0 - q * q) * (1.0 / t1 - xit * t1) * (1.0 / t2 - xi * t2) / den
        _acc(worst, "offdiagonal-inversion", abs(mirrored - pred) / max(1.0, abs(mirrored)))
        diff = tw[1, 1] - tw[2, 2]
        pred = q * q * z * z * ((t1 ** 2 + t1 ** -2 - t2 ** 2 - t2 ** -2) / (1.0 - q * q * xi * xit)
                                - (q - 1.0 / q) ** 2 * (xi - xit) / den)
        _acc(worst, "diagonal-difference", abs(diff - pred) / max(1.0, abs(diff)))
        ratios1.append(diff / lone)
        ratios2.append(diff / mirrored)
    for seq in (ratios1, ratios2):
        spread = max(abs(a - b) for a in seq for b in seq) / max(1.0, max(abs(a) for a in seq))
        _acc(worst, "ratio-z-independence", spread)
    return _worst("n2-closed-forms", worst, EXACT_TOL, params, seed,
                  f"z^2 coefficient of the lone entry = {_cx(coeff_echo)}")


def check_closed_chain(params: ch.ChainParams, seed: int = 0):
    """Closed-chain functional relation, commutators, degree bound, the twisted
    trace at the origin, and generic invertibility."""
    rng = np.random.default_rng(seed)
    q = params.q
    n = params.n_sites
    d = params.dim
    worst = {}
    for _ in range(3):
        z = bt.random_point(rng)
        tv = ch.closed_transfer_v(z, params)
        lhs = tv @ ch.closed_q(z, params)
        rhs = ch.closed_p_plus(z, params) * ch.closed_q(q * z, params) \
            + ch.closed_p_minus(z, params) * ch.closed_q(z / q, params)
        _acc(worst, "functional-relation", tc.rel_err(lhs, rhs))
        y = bt.random_point(rng)
        a = ch.closed_q(y, params)
        _acc(worst, "commutator", tc.rel_err(a @ tv, tv @ a))
    tw0 = ch.closed_transfer_w(0.0, params)
    ref = np.diag(np.array([1.0 / (1.0 - params.zeta * q ** (n - 2 * bin(i).count("1")))
                            for i in range(d)], dtype=complex))
    _acc(worst, "twisted-trace-origin", tc.rel_err(tw0, ref))
    coeffs = bt.circle_coefficients(lambda z: ch.closed_q(z, params), 2 * n + 2, 0.95)
    zh = 0.85 * cmath.exp(0.91j)
    pred = (zh ** np.arange(2 * n + 1) @ coeffs[:-1].reshape(2 * n + 1, -1)).reshape(d, d)
    actual = ch.closed_q(zh, params)
    _acc(worst, "degree-bound", tc.rel_err(pred, actual))
    # |det| falls about geometrically in N (3.5e-166 at N = 10, seed 0) and det underflows
    # to 0.0 on nonsingular matrices; slogdet's sign is 0 only for a singular LU
    sign, logdet = np.linalg.slogdet(ch.closed_transfer_w(bt.random_point(rng), params))
    if sign == 0:
        worst["invertibility"] = 1.0
    return _worst("closed-chain", worst, 1e-9, params, seed,
                  f"log|det T^W_closed| = {logdet:.3f} (generic invertibility)")


# ---------------------------------------------------------------------------
# spectrum and Bethe suites
# ---------------------------------------------------------------------------

def spectral_samples(samples):
    """samples as the spectral suites read them: a positive count (an integer, not
    a bool) as an int, or a nonempty list, tuple or numpy array of finite numbers
    (not bools) as a tuple of complex.  Anything else raises ParameterDomainError."""
    if isinstance(samples, numbers.Integral) and not isinstance(samples, bool) and samples > 0:
        return int(samples)
    points = samples.tolist() if isinstance(samples, np.ndarray) else samples
    if isinstance(points, (list, tuple)) and points and all(
            isinstance(z, numbers.Number) and not isinstance(z, bool) for z in points):
        return tuple(ch._finite_number(f"samples[{i}]", z) for i, z in enumerate(points))
    raise ParameterDomainError("samples: the spectral suites need at least one sample point, "
                               f"as a positive count or a sequence of points, got {samples!r}")


def spectral_records(params: ch.ChainParams, seed: int, samples):
    """The joint spectrum (SpectrumRecords) both spectral suites read, at a probe
    drawn from seed and at spectral_samples(samples): a count of points drawn
    clear of the exclusion set, or the points given.  Memoized on the samples so
    normalized."""
    return _spectral_records(params, seed, spectral_samples(samples))


@functools.lru_cache(maxsize=1)
def _spectral_records(params: ch.ChainParams, seed: int, samples):
    """spectral_records at a count or a tuple of complex points."""
    z_probe = _tq_point(np.random.default_rng(seed), params)
    z_samples = (list(samples) if isinstance(samples, tuple)
                 else bt.spectrum_nodes(params, seed + 11, samples))
    return tuple(bt.joint_spectrum(params, z_probe, z_samples, seed=seed))


def spectrum_suite(params: ch.ChainParams, seed: int = 0, samples=3):
    """Joint diagonalization quality: sector counting, eigen-residuals of the
    finite-family eigenvalue samples, and held-out interpolation of each
    Q-eigenvalue, on spectral_records(params, seed, samples)."""
    records = spectral_records(params, seed, samples)
    n = params.n_sites
    count_err = 0.0 if len(records) == 2 ** n else 1.0
    sector_sizes = dict(Counter(rec.m_down for rec in records))
    binom_ok = all(sector_sizes.get(m, 0) == math.comb(n, m) for m in range(n + 1))
    return [
        _result("spectrum-sector-count", count_err + (0.0 if binom_ok else 1.0), 0.5,
                params, seed, f"sector multiplicities {sector_sizes}"),
        _result("spectrum-eigenresidual", max(r.tv_residual for r in records), DEFAULT_TOL,
                params, seed, f"{len(records)} joint eigenvectors"),
        _result("spectrum-q-interpolation", max(r.q_fit_error for r in records), DEFAULT_TOL,
                params, seed, "held-out validation of each Q-eigenvalue polynomial"),
    ]


def bethe_suite(params: ch.ChainParams, seed: int = 0, samples=3):
    """End-to-end root pipeline on spectral_records(params, seed, samples):
    factorization, product constraint, Newton polishing, Bethe residuals in
    both forms, the eigenvalue formula at the samples, and Bethe states; the
    pairing and product checks read the coefficients of each Q-eigenvalue."""
    records = spectral_records(params, seed, samples)
    tv0 = ch.transfer_v(records[0].tv_samples[0][0], params)  # every record shares the samples
    pair_err = prod_err = res_err = pq_err = eig_err = state_err = form_gap = raw_err = 0.0
    stalled = 0
    for rec in records:
        roots = bt.factorize_q_eigenvalue(rec, params)
        pair_err = max(pair_err, roots.pairing_error)
        prod_err = max(prod_err, roots.product_error)
        raw_err = max(raw_err, float(np.max(bt.bethe_residual(roots, params), initial=0.0)))
        # the Chebyshev roots inherit the rounding of the circle coefficients, which
        # large |Y| magnify; Newton on the Bethe system restores the lost digits
        try:
            roots = replace(roots, roots=bt.refine_bethe_newton(roots.roots, params)[0])
        except ConvergenceError:
            stalled += 1
        r1 = bt.bethe_residual(roots, params)
        r2 = bt.bethe_residual_pq_form(roots, params)
        res_err = max(res_err, float(np.max(r1, initial=0.0)))
        pq_err = max(pq_err, float(np.max(r2, initial=0.0)))
        form_gap = max(form_gap, float(np.max(np.abs(r1 - r2), initial=0.0)))
        for z, lam in rec.tv_samples:
            lam_pred = bt.aba_eigenvalue(z, roots.roots, params)
            eig_err = max(eig_err, abs(lam - lam_pred) / max(1.0, abs(lam)))
        if roots.m_roots <= 2:
            state = bt.aba_state(roots.roots, params)
            lam0 = rec.tv_samples[0][1]
            state_err = max(state_err, float(
                np.linalg.norm(tv0 @ state - lam0 * state)
                / (np.linalg.norm(state) * max(1.0, abs(lam0)))))
    return [
        _result("bethe-pairing", pair_err, 1e-6, params, seed,
                "involution symmetry of the Q-eigenvalue coefficients"),
        _result("bethe-product-constraint", prod_err, DEFAULT_TOL, params, seed,
                "product of the squared roots against q^(-2M)"),
        _result("bethe-residuals", res_err, 1e-6, params, seed,
                f"z-independent Bethe system at the Newton-polished roots; {raw_err:.2e} "
                f"before polishing" + (f"; {stalled} root sets left unpolished" if stalled else "")),
        _result("bethe-residuals-functional-form", pq_err, 1e-6, params, seed,
                f"functional form; gap to the product form {form_gap:.2e}"),
        _result("bethe-aba-eigenvalue", eig_err, 1e-6, params, seed,
                "Bethe-ansatz eigenvalue formula at the sampled points"),
        _result("bethe-aba-state", state_err, 1e-5, params, seed,
                "Bethe states as eigenvectors, sectors with at most two roots"),
    ]


# suite name -> check; the spectral suites also take the samples of spectral_records
_RUNNERS = {
    "ybe": check_ybe,
    "reflection": check_reflection,
    "fusion": check_fusion,
    "row-fusion": check_row_fusion_and_monodromy,
    "split-trace": check_split_trace,
    "tq": check_tq,
    "commutators": check_commutators,
    "crossing": check_crossing,
    "polynomiality": check_polynomiality,
    "n2-closed-forms": check_n2_closed_forms,
    "closed-chain": check_closed_chain,
    "spectrum": spectrum_suite,
    "bethe": bethe_suite,
}

SUITES = tuple(_RUNNERS)
SPECTRAL_SUITES = ("spectrum", "bethe")


def run_suite(name: str, params: ch.ChainParams, seed: int = 0, samples=3):
    """Run one named suite; returns a list of CheckResults.  seed is a count
    (validate_count); samples (a positive count or a sequence of points, see
    spectral_samples) reaches the spectral suites only."""
    if name not in _RUNNERS:
        raise ParameterDomainError(f"unknown suite {name!r}; expected one of {SUITES} or 'all'")
    seed = validate_count("seed", seed)
    args = (params, seed, samples) if name in SPECTRAL_SUITES else (params, seed)
    out = _RUNNERS[name](*args)
    return out if isinstance(out, list) else [out]
