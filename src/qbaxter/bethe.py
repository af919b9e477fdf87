"""Spectrum extraction and Bethe-root analysis.

The commuting family is diagonalized sector by sector, each Q-eigenvalue is
interpolated as a polynomial and factorized into root pairs, and the resulting
roots are checked against the Bethe equations and against a fully independent
algebraic-Bethe-ansatz construction of eigenvectors and eigenvalues.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import chain as chain_mod
from .chain import ChainParams, SpinSector, in_exclusion_set
from .errors import ConvergenceError, ParameterDomainError, QBaxterError
from .lattice_ops import kv_matrix, ktv_matrix


class SpectrumError(QBaxterError):
    """Joint diagonalization or eigenvalue factorization failed."""


@dataclass
class SpectrumRecord:
    """One joint eigenvector with its sampled and interpolated eigenvalues."""

    sector: SpinSector
    vector: np.ndarray                # unit vector on the full 2^N space
    tv_samples: list                  # [(z, eigenvalue of the finite transfer matrix)]
    q_samples: list                   # [(z, eigenvalue of the Q-operator)]
    q_poly: np.ndarray                # ascending coefficients in Z = z^2, length <= 2N+1
    tv_residual: float = 0.0          # worst eigen-residual over the samples
    q_fit_error: float = 0.0          # held-out interpolation deviation

    def q_value(self, z: complex) -> complex:
        return complex(np.polyval(self.q_poly[::-1], complex(z) ** 2))


@dataclass
class BetheRootSet:
    """Factorized zero data of one Q-eigenvalue."""

    m_roots: int
    f: complex
    roots: np.ndarray                 # y_1..y_M (principal square roots)
    pairing_error: float              # worst relative mismatch of the involution pairing
    product_error: float              # deviation of prod(Y) from q^(-2M)
    degenerate: bool = False          # a pair sits at an involution fixed point

    @property
    def roots_squared(self) -> np.ndarray:
        return self.roots ** 2


def _eig_sorted(mat: np.ndarray):
    vals, vecs = np.linalg.eig(mat)
    order = np.lexsort((vals.imag.round(9), vals.real.round(9)))
    return vals[order], vecs[:, order]


def _min_gap(vals: np.ndarray) -> float:
    if vals.size < 2:
        return math.inf
    gap = math.inf
    for i in range(vals.size):
        for j in range(i + 1, vals.size):
            gap = min(gap, abs(vals[i] - vals[j]))
    return gap


def spectrum_nodes(params: ChainParams, seed: int, count: int, closed: bool = False):
    """Sample points on a circle that stay clear of the trace poles."""
    rng = np.random.default_rng(seed)
    nodes = []
    attempts = 0
    while len(nodes) < count:
        attempts += 1
        if attempts > 200 * count:
            raise SpectrumError("could not place sample nodes clear of the exclusion set")
        z = (0.75 + 0.5 * rng.random()) * cmath.exp(2j * math.pi * rng.random())
        if not closed and in_exclusion_set(z, params):
            continue
        if any(abs(z - w) < 0.02 for w in nodes):
            continue
        nodes.append(z)
    return nodes


def joint_spectrum(params: ChainParams, z_probe: complex, z_samples, seed: int = 0,
                   closed: bool = False):
    """Simultaneously diagonalize the commuting family, sector by sector.

    Degenerate clusters within a sector are resolved by re-diagonalizing a
    random small admixture of the Q-operator at a second probe point.  Returns
    one SpectrumRecord per joint eigenvector, ordered by sector then by the
    probe eigenvalue.
    """
    n = params.n_sites
    d = 2 ** n
    rng = np.random.default_rng(seed)
    if closed:
        tv = chain_mod.closed_transfer_v
        qq = chain_mod.closed_q
    else:
        tv = chain_mod.transfer_v
        qq = chain_mod.q_operator
    if not closed and in_exclusion_set(z_probe, params):
        raise ParameterDomainError("probe point lies in the exclusion set")
    t_probe = tv(z_probe, params)
    probe2 = None
    records = []
    z_samples = [complex(z) for z in z_samples]
    tv_mats = {z: tv(z, params) for z in z_samples}
    q_mats = {z: qq(z, params) for z in z_samples}

    fit_nodes = spectrum_nodes(params, seed + 1, 2 * n + 4, closed=closed)
    holdout_nodes = spectrum_nodes(params, seed + 2, 3, closed=closed)
    q_fit = {z: qq(z, params) for z in fit_nodes}
    q_hold = {z: qq(z, params) for z in holdout_nodes}

    for m_down in range(n + 1):
        sector = SpinSector(m_down, n)
        idx = np.array(sector.indices)
        block = t_probe[np.ix_(idx, idx)]
        vals, vecs = _eig_sorted(block)
        scale = max(1.0, float(np.linalg.norm(block)))
        tries = 0
        while _min_gap(vals) < 1e3 * params.tol * scale and tries < 3:
            tries += 1
            if probe2 is None:
                probe2 = spectrum_nodes(params, seed + 7, 1, closed=closed)[0]
            mu = 10.0 ** (-tries) * cmath.exp(2j * math.pi * rng.random())
            mixed = block + mu * qq(probe2, params)[np.ix_(idx, idx)]
            vals_m, vecs = _eig_sorted(mixed)
            vals = np.array([vecs[:, k].conj() @ block @ vecs[:, k]
                             / (vecs[:, k].conj() @ vecs[:, k]) for k in range(idx.size)])
        if _min_gap(vals) < 1e3 * params.tol * scale and tries >= 3:
            raise SpectrumError(f"unresolved degeneracy in sector M={m_down} after 3 probes")

        for k in range(idx.size):
            v = np.zeros(d, dtype=complex)
            v[idx] = vecs[:, k]
            v /= np.linalg.norm(v)
            tv_s, q_s = [], []
            worst = 0.0
            for z in z_samples:
                lam = v.conj() @ (tv_mats[z] @ v)
                worst = max(worst, float(np.linalg.norm(tv_mats[z] @ v - lam * v))
                            / max(1.0, abs(lam)))
                tv_s.append((z, complex(lam)))
                q_s.append((z, complex(v.conj() @ (q_mats[z] @ v))))
            coeffs, fit_err = _fit_q_polynomial(v, q_fit, q_hold, 2 * n, closed, n, m_down)
            records.append(SpectrumRecord(sector=sector, vector=v, tv_samples=tv_s,
                                          q_samples=q_s, q_poly=coeffs,
                                          tv_residual=worst, q_fit_error=fit_err))
    return records


def _fit_q_polynomial(v, q_fit, q_hold, degree, closed, n, m_down):
    """Least-squares interpolation of one Q-eigenvalue with held-out validation.

    Open chain: polynomial in Z = z^2 of degree <= 2N.  Closed chain: the
    eigenvalue is z^(N-M) times a polynomial in Z of degree <= M, so the known
    prefactor is divided out before fitting.
    """
    nodes = list(q_fit)
    vals = np.array([v.conj() @ (q_fit[z] @ v) for z in nodes])
    if closed:
        pref = np.array([z ** (n - m_down) for z in nodes])
        vals = vals / pref
        degree = m_down
    zsq = np.array([z ** 2 for z in nodes])
    vmat = np.vander(zsq, degree + 1, increasing=True)
    coeffs, *_ = np.linalg.lstsq(vmat, vals, rcond=None)
    err = 0.0
    scale = max(1.0, float(np.max(np.abs(vals))))
    for z, mat in q_hold.items():
        actual = complex(v.conj() @ (mat @ v))
        if closed:
            actual /= z ** (n - m_down)
        pred = complex(np.polyval(coeffs[::-1], z ** 2))
        err = max(err, abs(pred - actual) / scale)
    return coeffs, err


# ---------------------------------------------------------------------------
# factorization of Q-eigenvalues
# ---------------------------------------------------------------------------

def factorize_q_eigenvalue(record: SpectrumRecord, params: ChainParams,
                           pair_tol: float = 1e-6) -> BetheRootSet:
    """Split one Q-eigenvalue into its zero at the origin and paired roots.

    The 2M nonzero roots (in Z = z^2) must form orbits of the involution
    Y -> q^(-2)/Y; greedy matching is attempted first, with an optimal
    assignment fallback.  Also checks the product constraint prod Y = q^(-2M).
    """
    n = params.n_sites
    m = record.sector.m_down
    q = params.q
    coeffs = np.asarray(record.q_poly, dtype=complex)
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise SpectrumError("Q-eigenvalue is identically zero")
    # structural zeros: coefficients below Z^(N-M) and above Z^(N+M)
    low = coeffs[:n - m]
    high = coeffs[n + m + 1:]
    struct_err = 0.0
    if low.size:
        struct_err = max(struct_err, float(np.max(np.abs(low))) / scale)
    if high.size:
        struct_err = max(struct_err, float(np.max(np.abs(high))) / scale)
    if struct_err > 1e-5:
        raise SpectrumError(
            f"Q-eigenvalue does not have the expected degree window for M={m} "
            f"(structural residual {struct_err:.2e})")
    core = coeffs[n - m:n + m + 1]
    f = complex(core[-1])
    if m == 0:
        return BetheRootSet(m_roots=0, f=f, roots=np.zeros(0, dtype=complex),
                            pairing_error=struct_err, product_error=0.0)
    big_y = np.roots(core[::-1] / f)
    prod_err = abs(np.prod(big_y) - q ** (-2 * m)) / abs(q ** (-2 * m))

    pairs, pairing_err, degenerate = _pair_under_involution(big_y, q, pair_tol)
    reps = []
    for i, j in pairs:
        yi, yj = big_y[i], big_y[j]
        rep = yi if abs(yi) >= abs(yj) else yj
        reps.append(rep)
    reps.sort(key=lambda w: (round(w.real, 9), round(w.imag, 9)))
    roots = np.array([cmath.sqrt(w) for w in reps], dtype=complex)
    return BetheRootSet(m_roots=m, f=f, roots=roots,
                        pairing_error=max(pairing_err, struct_err),
                        product_error=float(prod_err), degenerate=degenerate)


def _pair_under_involution(big_y, q, pair_tol):
    """Match the multiset of roots into orbits of Y -> q^(-2)/Y."""
    m2 = big_y.size
    psi = q ** (-2) / big_y

    def rel(i, j):
        return abs(big_y[j] - psi[i]) / max(abs(psi[i]), 1e-300)

    fixed_scale = min(abs(y - fp) / max(abs(fp), 1e-300)
                      for y in big_y for fp in (q ** -1, -q ** -1)) if m2 else math.inf
    degenerate = fixed_scale < 1e-4

    unused = set(range(m2))
    pairs = []
    worst = 0.0
    ok = True
    while unused:
        i = min(unused)
        unused.remove(i)
        best, best_err = None, math.inf
        for j in unused:
            e = rel(i, j)
            if e < best_err:
                best, best_err = j, e
        if best is None or best_err > pair_tol:
            ok = False
            break
        unused.remove(best)
        pairs.append((i, best))
        worst = max(worst, best_err)
    if ok:
        return pairs, worst, degenerate

    # optimal-assignment fallback on the full relative-distance matrix
    cost = np.full((m2, m2), 1e9)
    for i in range(m2):
        for j in range(m2):
            if i != j:
                cost[i, j] = rel(i, j)
    rows, cols = linear_sum_assignment(cost)
    perm = dict(zip(rows.tolist(), cols.tolist()))
    worst = max(rel(i, perm[i]) for i in range(m2))
    if worst > pair_tol or any(perm[perm[i]] != i for i in range(m2)):
        raise SpectrumError(
            f"no involution pairing of the Q-eigenvalue roots within {pair_tol:.1e} "
            f"(worst mismatch {worst:.2e}); parameters may be non-generic")
    seen = set()
    pairs = []
    for i in range(m2):
        if i not in seen:
            seen.update((i, perm[i]))
            pairs.append((i, perm[i]))
    return pairs, worst, degenerate


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------

def _bethe_sides(big_y: np.ndarray, params: ChainParams):
    """Left and right sides of the z-independent Bethe system at each root."""
    q, xi, xit = params.q, params.xi, params.xitilde
    n, m = params.n_sites, big_y.size
    lhs = np.zeros(m, dtype=complex)
    rhs = np.zeros(m, dtype=complex)
    for i, y2 in enumerate(big_y):
        left = (1.0 - xit * y2) * (1.0 - xi * y2)
        right = q ** (2 * (n - m)) * (xit - q * q * y2) * (xi - q * q * y2)
        for tn in params.t:
            left *= (1.0 - q * q * y2 * tn * tn) * (1.0 - q * q * y2 / (tn * tn))
            right *= (1.0 - y2 * tn * tn) * (1.0 - y2 / (tn * tn))
        for j, w2 in enumerate(big_y):
            if j == i:
                continue
            left *= (1.0 - y2 / (q * q * w2)) * (1.0 - y2 * w2)
            right *= (1.0 - q * q * y2 / w2) * (q ** -2 - q * q * y2 * w2)
        lhs[i] = left
        rhs[i] = right
    return lhs, rhs


def bethe_residual(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    """Relative residual of the z-independent Bethe system at each root."""
    if roots.m_roots == 0:
        return np.zeros(0)
    lhs, rhs = _bethe_sides(roots.roots_squared, params)
    return np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)


def bethe_residual_pq_form(roots: BetheRootSet, params: ChainParams) -> np.ndarray:
    """Residual of the functional form p_+(y) Q(qy) + p_-(y) Q(q^-1 y) = 0.

    The eigenvalue is reconstructed from the factorized root data, so this is
    an algebraically equivalent route to bethe_residual.
    """
    if roots.m_roots == 0:
        return np.zeros(0)
    q = params.q

    def q_eig(z):
        out = roots.f * z ** (2 * (params.n_sites - roots.m_roots))
        for y in roots.roots:
            out *= (z * z - y * y) * (z * z - q ** (-2) / (y * y))
        return out

    res = []
    for y in roots.roots:
        a = chain_mod.p_plus(y, params) * q_eig(q * y)
        b = chain_mod.p_minus(y, params) * q_eig(y / q)
        res.append(abs(a + b) / max(abs(a), abs(b), 1e-300))
    return np.array(res)


def closed_bethe_residual(roots_squared, params: ChainParams) -> np.ndarray:
    """Relative residual of the closed-chain Bethe system with twist."""
    big_y = np.asarray(roots_squared, dtype=complex)
    q, zeta = params.q, params.zeta
    m = big_y.size
    out = np.zeros(m)
    for i, y2 in enumerate(big_y):
        left = 1.0 + 0.0j
        right = q ** params.n_sites * zeta
        for tn in params.t:
            left *= 1.0 - q * q * y2 / (tn * tn)
            right *= 1.0 - y2 / (tn * tn)
        for j, w2 in enumerate(big_y):
            if j == i:
                continue
            left *= q * q - y2 / w2
            right *= 1.0 - q * q * y2 / w2
        out[i] = abs(left - right) / max(abs(left), abs(right), 1e-300)
    return out


# ---------------------------------------------------------------------------
# algebraic Bethe ansatz oracle
# ---------------------------------------------------------------------------

def _abc(z: complex, q: complex):
    return 1.0 - q * q * z * z, q * (1.0 - z * z), z * (1.0 - q * q)


def aba_f(z: complex, q: complex) -> complex:
    """Shear coefficient mixing the two diagonal monodromy blocks."""
    den = q * q * z ** 4 - 1.0
    if abs(den) < 1e-13 * (1 + abs(q * q * z ** 4)):
        raise ParameterDomainError("shear coefficient has a pole at z^4 = q^(-2)")
    return z * z * (1.0 - q * q) / den


def aba_blocks(z: complex, params: ChainParams):
    """Auxiliary-space blocks (A, B, C, D) of the double-row monodromy."""
    d = params.dim
    mono = chain_mod.monodromy_v(z, params)
    return (mono[:d, :d], mono[:d, d:], mono[d:, :d], mono[d:, d:])


def aba_dtilde(z: complex, params: ChainParams) -> np.ndarray:
    """Sheared lower diagonal block whose exchange relation closes."""
    a, _, _, dd = aba_blocks(z, params)
    return dd + aba_f(z, params.q) * a


def aba_coefficients(z: complex, y: complex, params: ChainParams) -> dict:
    """All scalar functions of the exchange relations and the vacuum data."""
    q = params.q
    ayz, byz, cyz = _abc(y * z, q)
    ayoz, byoz, cyoz = _abc(y / z, q)
    azoy, bzoy, czoy = _abc(z / y, q)
    if min(abs(byoz), abs(ayz), abs(bzoy)) < 1e-12:
        raise ParameterDomainError("exchange-relation coefficient hits a pole at this (z, y)")
    alpha1 = ayoz * byz / (byoz * ayz)
    alpha2 = -cyoz * byz / (byoz * ayz)
    alpha4 = -cyz / ayz
    beta1 = (ayz ** 2 - cyz ** 2) * azoy / (ayz * byz * bzoy)
    beta2 = -(ayz ** 2 - cyz ** 2) * czoy / (ayz * byz * bzoy)
    beta3 = -cyz * czoy * (ayoz * bzoy + byoz * azoy) / (byoz * ayz * bzoy ** 2)
    beta4 = cyz * (cyoz * czoy * bzoy + byoz * azoy ** 2) / (byoz * ayz * bzoy ** 2)
    fz = aba_f(z, q)
    fy = aba_f(y, q)
    alpha2t = alpha2 - alpha4 * fy
    beta2t = beta2 + alpha4 * fz
    beta4t = beta4 - beta2 * fy + alpha2t * fz
    gamma_plus, gamma_minus = _aba_gammas(z, fz, params)
    phi_plus = gamma_plus * alpha2t + gamma_minus * beta4t
    phi_minus = gamma_plus * alpha4 + gamma_minus * beta2t
    return {
        "alpha1": alpha1, "alpha2": alpha2, "alpha2t": alpha2t, "alpha4": alpha4,
        "beta1": beta1, "beta2": beta2, "beta2t": beta2t, "beta3": beta3,
        "beta4": beta4, "beta4t": beta4t,
        "gamma_plus": gamma_plus, "gamma_minus": gamma_minus,
        "phi_plus": phi_plus, "phi_minus": phi_minus,
        "f_z": fz, "f_y": fy,
    }


def _aba_gammas(z: complex, fz: complex, params: ChainParams):
    """Left-boundary weights gamma_+ and gamma_- of the sheared block decomposition."""
    ktv = ktv_matrix(z, params.xitilde, params.q)
    return ktv[0, 0] - fz * ktv[1, 1], ktv[1, 1]


def aba_vacuum_values(z: complex, params: ChainParams):
    """Vacuum eigenvalues delta_+ and delta_- of the raised and sheared diagonal blocks."""
    q = params.q
    kv = kv_matrix(z, params.xi)
    dplus = kv[0, 0]
    dminus = kv[1, 1] + aba_f(z, q) * kv[0, 0]
    for tn in params.t:
        dplus *= _abc(z / tn, q)[0] * _abc(z * tn, q)[0]
        dminus *= _abc(z / tn, q)[1] * _abc(z * tn, q)[1]
    return complex(dplus), complex(dminus)


def aba_state(roots, params: ChainParams) -> np.ndarray:
    """Bethe state: the ordered product of creation blocks on the raised vacuum."""
    ys = list(np.asarray(roots, dtype=complex))
    if len(ys) > params.n_sites:
        raise ParameterDomainError("more creation operators than sites")
    omega = np.zeros(params.dim, dtype=complex)
    omega[0] = 1.0
    v = omega
    for y in ys:
        v = aba_blocks(y, params)[1] @ v
    return v


def aba_eigenvalue(z: complex, roots, params: ChainParams) -> complex:
    """Transfer-matrix eigenvalue predicted by the Bethe-ansatz formula."""
    ys = np.asarray(roots, dtype=complex)
    q = params.q
    gamma_plus, gamma_minus = _aba_gammas(z, aba_f(z, q), params)
    dplus, dminus = aba_vacuum_values(z, params)
    prod_a = 1.0 + 0.0j
    prod_b = 1.0 + 0.0j
    for y in ys:
        co = aba_coefficients(z, y, params)
        prod_a *= co["alpha1"]
        prod_b *= co["beta1"]
    return complex(gamma_plus * prod_a * dplus + gamma_minus * prod_b * dminus)


def aba_bethe_residual(roots, params: ChainParams) -> np.ndarray:
    """Per-root residual of the Bethe-ansatz unwanted-term cancellation.

    Uses the z-independent reduced forms of the two structure functions, so no
    spectator point is needed.
    """
    ys = np.asarray(roots, dtype=complex)
    q, xit = params.q, params.xitilde
    out = np.zeros(ys.size)
    for i, y in enumerate(ys):
        phat_plus = (1.0 - y ** 4) / (1.0 - q * q * y ** 4) * (1.0 - xit * y * y)
        phat_minus = xit / (q * q) - y * y
        dplus, dminus = aba_vacuum_values(y, params)
        prod_a = 1.0 + 0.0j
        prod_b = 1.0 + 0.0j
        for j, w in enumerate(ys):
            if j == i:
                continue
            co = aba_coefficients(y, w, params)
            prod_a *= co["alpha1"]
            prod_b *= co["beta1"]
        term1 = phat_plus * dplus * prod_a
        term2 = phat_minus * dminus * prod_b
        out[i] = abs(term1 + term2) / max(abs(term1), abs(term2), 1e-300)
    return out


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------

def _bethe_system(big_y: np.ndarray, params: ChainParams):
    """Residual vector and analytic Jacobian of the Bethe system in Y = y^2."""
    q, xi, xit = params.q, params.xi, params.xitilde
    n, m = params.n_sites, big_y.size
    lhs, rhs = _bethe_sides(big_y, params)
    res = lhs - rhs
    jac = np.zeros((m, m), dtype=complex)
    for i, y2 in enumerate(big_y):
        dl = -xit / (1.0 - xit * y2) - xi / (1.0 - xi * y2)
        dr = -q * q / (xit - q * q * y2) - q * q / (xi - q * q * y2)
        for tn in params.t:
            for t2 in (tn * tn, 1.0 / (tn * tn)):
                dl += -q * q * t2 / (1.0 - q * q * y2 * t2)
                dr += -t2 / (1.0 - y2 * t2)
        for j, w2 in enumerate(big_y):
            if j == i:
                continue
            dl += -1.0 / (q * q * w2) / (1.0 - y2 / (q * q * w2)) - w2 / (1.0 - y2 * w2)
            dr += -q * q / w2 / (1.0 - q * q * y2 / w2) \
                - q * q * w2 / (q ** -2 - q * q * y2 * w2)
            dl_k = y2 / (q * q * w2 * w2) / (1.0 - y2 / (q * q * w2)) \
                - y2 / (1.0 - y2 * w2)
            dr_k = q * q * y2 / (w2 * w2) / (1.0 - q * q * y2 / w2) \
                - q * q * y2 / (q ** -2 - q * q * y2 * w2)
            jac[i, j] = lhs[i] * dl_k - rhs[i] * dr_k
        jac[i, i] = lhs[i] * dl - rhs[i] * dr
    return res, jac, lhs, rhs


def refine_bethe_newton(seed_roots, params: ChainParams, max_iter: int = 50,
                        target: float = 1e-12):
    """Damped Newton iteration on the Bethe system in the squared roots.

    Accepts either a BetheRootSet or a plain array of roots y_i; returns the
    refined roots (same container kind) and the final normalized residual.
    """
    container = isinstance(seed_roots, BetheRootSet)
    ys = seed_roots.roots if container else np.asarray(seed_roots, dtype=complex)
    big_y = ys.astype(complex) ** 2
    if big_y.size == 0:
        return (seed_roots, 0.0) if container else (ys, 0.0)

    def norm_res(res, lhs, rhs):
        return float(np.max(np.abs(res) / np.maximum(
            np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)))

    res, jac, lhs, rhs = _bethe_system(big_y, params)
    best = norm_res(res, lhs, rhs)
    for _ in range(max_iter):
        if best < target:
            break
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in Newton refinement") from exc
        lam = 1.0
        improved = False
        for _ in range(12):
            trial = big_y + lam * step
            res_t, jac_t, lhs_t, rhs_t = _bethe_system(trial, params)
            if norm_res(res_t, lhs_t, rhs_t) < best or lam == 1.0 and \
                    float(np.linalg.norm(res_t)) < float(np.linalg.norm(res)):
                big_y, res, jac, lhs, rhs = trial, res_t, jac_t, lhs_t, rhs_t
                best = norm_res(res, lhs, rhs)
                improved = True
                break
            lam /= 2.0
        if not improved:
            raise ConvergenceError(
                f"Newton refinement stalled at residual {best:.2e}")
    else:
        if best >= target:
            raise ConvergenceError(
                f"Newton refinement did not reach {target:.1e} in {max_iter} steps")
    refined = np.array([cmath.sqrt(w) for w in big_y], dtype=complex)
    if container:
        out = BetheRootSet(m_roots=seed_roots.m_roots, f=seed_roots.f, roots=refined,
                           pairing_error=seed_roots.pairing_error,
                           product_error=seed_roots.product_error,
                           degenerate=seed_roots.degenerate)
        return out, best
    return refined, best


# ---------------------------------------------------------------------------
# closed-chain pipeline
# ---------------------------------------------------------------------------

def factorize_closed_q_eigenvalue(record: SpectrumRecord, params: ChainParams) -> np.ndarray:
    """Nonzero squared roots of one closed-chain Q-eigenvalue."""
    m = record.sector.m_down
    coeffs = np.asarray(record.q_poly, dtype=complex)
    if m == 0:
        return np.zeros(0, dtype=complex)
    lead = coeffs[-1]
    if abs(lead) < 1e-12 * float(np.max(np.abs(coeffs))):
        raise SpectrumError("closed Q-eigenvalue has unexpected degree")
    return np.roots(coeffs[::-1] / lead)
