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
from numpy.polynomial.chebyshev import chebroots

from . import chain as chain_mod
from .chain import ChainParams, SpinSector, in_exclusion_set
from .errors import ConvergenceError, ExclusionPointError, ParameterDomainError, QBaxterError
from .lattice_ops import kv_matrix, ktv_matrix, r_bands, r_weights


class SpectrumError(QBaxterError):
    """Joint diagonalization or eigenvalue factorization failed."""


@dataclass
class SpectrumRecord:
    """One joint eigenvector with its sampled and interpolated eigenvalues."""

    sector: SpinSector
    vector: np.ndarray                # unit vector on the full 2^N space
    tv_samples: list                  # [(z, eigenvalue of the finite transfer matrix)]
    q_samples: list                   # [(z, eigenvalue of the Q-operator)]
    q_poly: np.ndarray                # 2N+1 ascending coefficients in Z = z^2
    tv_residual: float = 0.0          # worst eigen-residual over the samples
    q_fit_error: float = 0.0          # held-out interpolation deviation


@dataclass
class BetheRootSet:
    """Factorized zero data of one Q-eigenvalue."""

    m_roots: int
    f: complex
    roots: np.ndarray                 # y_1..y_M (principal square roots)
    pairing_error: float              # involution asymmetry of the eigenvalue coefficients
    product_error: float              # deviation of prod(Y) from q^(-2M)

    @property
    def roots_squared(self) -> np.ndarray:
        return self.roots ** 2


def _eig_sorted(mat: np.ndarray):
    vals, vecs = np.linalg.eig(mat)
    order = np.lexsort((vals.imag.round(9), vals.real.round(9)))
    return vals[order], vecs[:, order]


def _min_gap(vals: np.ndarray) -> float:
    gaps = np.abs(vals[:, None] - vals)[np.triu_indices(vals.size, 1)]
    return float(np.min(gaps, initial=math.inf))


def random_point(rng, lo=0.55, hi=1.25) -> complex:
    """r e^(i phi) with r uniform on [lo, hi] and phi uniform on [0, 2 pi)."""
    return (lo + (hi - lo) * rng.random()) * cmath.exp(2j * math.pi * rng.random())


def draw_points(rng, count: int, clear, lo=0.55, hi=1.25):
    """count random_point draws z for which clear(z) holds, each at least 0.02
    from the points kept before it.

    A rejected draw is redrawn, up to 200 draws per point in all; running out
    raises SpectrumError.
    """
    points = []
    for _ in range(200 * count):
        if len(points) == count:
            break
        z = random_point(rng, lo, hi)
        if clear(z) and all(abs(z - w) >= 0.02 for w in points):
            points.append(z)
    if len(points) < count:
        raise SpectrumError(
            f"drew {len(points)} of {count} points clear of the exclusion set in "
            f"{200 * count} tries at radii [{lo}, {hi}]")
    return points


def spectrum_nodes(params: ChainParams, seed: int, count: int):
    """Sample points on the annulus 0.75 <= |z| <= 1.25 clear of the trace poles."""
    return draw_points(np.random.default_rng(seed), count,
                       lambda z: not in_exclusion_set(z, params), 0.75, 1.25)


# node rotations tried in turn, in units of the node spacing
_PHASES = (0.37, 0.62, 0.12, 0.87)


def circle_coefficients(f, count: int, radius: complex) -> np.ndarray:
    """Taylor coefficients c_0..c_(count-1) of f by the trapezoidal rule on a circle.

    f is sampled at the nodes radius * exp(2 pi i (k + phi) / count),
    k = 0..count-1, and the coefficients are read off by one FFT: exact up to
    rounding when f is a polynomial of degree < count, otherwise each higher
    coefficient aliases onto c_(k mod count).  f may return arrays; their
    coefficients stack along the first axis.  The rotation phi is the first
    entry of _PHASES at which no node makes f raise ExclusionPointError.
    """
    k = np.arange(count)
    for phi in _PHASES:
        nodes = radius * np.exp(2j * math.pi * (k + phi) / count)
        try:
            vals = np.array([f(x) for x in nodes])
        except ExclusionPointError:
            continue
        scale = (count * nodes[0] ** k).reshape((count,) + (1,) * (vals.ndim - 1))
        return np.fft.fft(vals, axis=0) / scale
    raise SpectrumError(f"every node circle of radius {abs(radius):.3g} meets the exclusion set")


def joint_spectrum(params: ChainParams, z_probe: complex, z_samples, seed: int = 0):
    """Simultaneously diagonalize the commuting family, sector by sector.

    Degenerate clusters within a sector are resolved by re-diagonalizing a
    random small admixture of the Q-operator at a second probe point.  Returns
    one SpectrumRecord per joint eigenvector, ordered by sector then by the
    probe eigenvalue; a mixed sector is ordered by the eigenvalues of the
    admixture.  Every operator here conserves S^z, so a sector's records are
    read off its blocks alone.

    Each Q-eigenvalue is a polynomial of degree <= 2N in Z = z^2; its
    coefficients come from circle_coefficients on 2N+2 nodes of |Z| = 1/|q|.
    The held-out check compares the polynomial with the eigenvalues at
    z_samples, of which there must be at least one, and also counts the
    out-of-degree coefficient there.
    """
    n = params.n_sites
    d = 2 ** n
    rng = np.random.default_rng(seed)
    if in_exclusion_set(z_probe, params):
        raise ParameterDomainError("probe point lies in the exclusion set")
    z_samples = [complex(z) for z in z_samples]
    if not z_samples:
        raise SpectrumError("joint_spectrum needs at least one sample point, got 0")
    t_probe = chain_mod.transfer_v(z_probe, params)
    q_probe2 = None
    records = []
    tv_mats = [chain_mod.transfer_v(z, params) for z in z_samples]
    q_mats = [chain_mod.q_operator(z, params) for z in z_samples]
    q_coeffs = circle_coefficients(lambda y: chain_mod.q_operator(cmath.sqrt(y), params),
                                   2 * n + 2, 1.0 / params.q)
    x = (np.array(z_samples) ** 2)[:, None]

    for m_down, idx in enumerate(chain_mod._sectors(n)[3]):
        sector = SpinSector(m_down, n)
        blk = np.ix_(idx, idx)
        block = t_probe[blk]
        vals, vecs = _eig_sorted(block)
        scale = max(1.0, float(np.linalg.norm(block)))
        for tries in range(1, 4):
            if _min_gap(vals) >= 1e3 * params.tol * scale:
                break
            if q_probe2 is None:
                q_probe2 = chain_mod.q_operator(spectrum_nodes(params, seed + 7, 1)[0], params)
            mu = 10.0 ** (-tries) * cmath.exp(2j * math.pi * rng.random())
            vals, vecs = _eig_sorted(block + mu * q_probe2[blk])
        if _min_gap(vals) < 1e3 * params.tol * scale:
            raise SpectrumError(f"unresolved degeneracy in sector M={m_down} after 3 probes")

        # row i of lam, mu and coeffs holds v^H M_i v for each column v of V
        V = vecs / np.linalg.norm(vecs, axis=0)
        tv, qv, cv = (np.stack([mat[blk] for mat in mats]) @ V
                      for mats in (tv_mats, q_mats, q_coeffs))
        lam, mu, coeffs = (np.sum(V.conj() * mv, axis=1) for mv in (tv, qv, cv))
        worst = np.max(np.linalg.norm(tv - lam[:, None] * V, axis=1)
                       / np.maximum(1.0, np.abs(lam)), axis=0)
        miss = np.maximum(np.abs(np.polyval(coeffs[-2::-1], x) - mu),
                          np.abs(coeffs[-1] * x ** (2 * n + 1)))
        fit_err = np.max(miss / np.maximum(1.0, np.abs(mu)), axis=0)
        for k in range(idx.size):
            v = np.zeros(d, dtype=complex)
            v[idx] = V[:, k]
            records.append(SpectrumRecord(
                sector=sector, vector=v, tv_samples=list(zip(z_samples, lam[:, k].tolist())),
                q_samples=list(zip(z_samples, mu[:, k].tolist())), q_poly=coeffs[:-1, k],
                tv_residual=float(worst[k]), q_fit_error=float(fit_err[k])))
    return records


# ---------------------------------------------------------------------------
# factorization of Q-eigenvalues
# ---------------------------------------------------------------------------

def _degree_window(q_poly, n: int, m: int):
    """Coefficients N-M..N+M of a Q-eigenvalue, all others being zero.

    Returns them with the structural residual: the largest other coefficient
    relative to the largest one.  Raises SpectrumError above 1e-5.
    """
    coeffs = np.asarray(q_poly, dtype=complex)
    scale = float(np.max(np.abs(coeffs)))
    if scale == 0.0:
        raise SpectrumError("Q-eigenvalue is identically zero")
    inside = np.zeros(coeffs.size, dtype=bool)
    inside[n - m:n + m + 1] = True
    struct_err = float(np.max(np.abs(coeffs[~inside]), initial=0.0)) / scale
    if struct_err > 1e-5:
        raise SpectrumError(
            f"Q-eigenvalue does not have the expected degree window for M={m} "
            f"(structural residual {struct_err:.2e})")
    return coeffs[inside], struct_err


def factorize_q_eigenvalue(record: SpectrumRecord, params: ChainParams) -> BetheRootSet:
    """Split one Q-eigenvalue into its zero at the origin and paired roots.

    The coefficients a_k in Z = z^2 must vanish outside Z^(N-M)..Z^(N+M).  In
    w = qZ the eigenvalue is Z^N sum_k beta_k w^k, k = -M..M, with
    beta_k = a_(N+k) q^(-k); the involution Y -> q^(-2)/Y of its 2M roots is
    w -> 1/w, so beta_(-k) = beta_k.  pairing_error is the largest
    |beta_k - beta_(-k)| relative to max|beta| (or the structural residual,
    if larger); product_error is |beta_(-M)/beta_M - 1|, which is prod Y
    against q^(-2M).  With x = (w + 1/w)/2 the symmetric sum is
    beta_0 + sum_k 2 beta_k T_k(x), whose M Chebyshev roots give each root
    pair at once: w = x +- sqrt(x^2 - 1), |w| >= 1, and Y = w/q.
    """
    n = params.n_sites
    m = record.sector.m_down
    q = params.q
    core, struct_err = _degree_window(record.q_poly, n, m)
    f = complex(core[-1])
    if m == 0:
        return BetheRootSet(m_roots=0, f=f, roots=np.zeros(0, dtype=complex),
                            pairing_error=struct_err, product_error=0.0)
    beta = core * q ** -np.arange(-m, m + 1)
    pairing_err = float(np.max(np.abs(beta - beta[::-1]))) / float(np.max(np.abs(beta)))
    prod_err = abs(beta[0] / beta[-1] - 1.0)
    sym = (beta[m:] + beta[m::-1]) / 2.0
    x = chebroots(np.concatenate([sym[:1], 2.0 * sym[1:]]))
    s = np.sqrt(x * x - 1.0 + 0j)
    w = np.where(np.abs(x + s) >= np.abs(x - s), x + s, x - s)
    big_y = sorted(w / q, key=lambda y: (round(y.real, 9), round(y.imag, 9)))
    roots = np.array([cmath.sqrt(y) for y in big_y], dtype=complex)
    return BetheRootSet(m_roots=m, f=f, roots=roots,
                        pairing_error=max(pairing_err, struct_err),
                        product_error=float(prod_err))


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


# ---------------------------------------------------------------------------
# algebraic Bethe ansatz oracle
# ---------------------------------------------------------------------------

def aba_f(z: complex, q: complex) -> complex:
    """Shear coefficient mixing the two diagonal monodromy blocks."""
    den = q * q * z ** 4 - 1.0
    if abs(den) < 1e-13 * (1 + abs(q * q * z ** 4)):
        raise ParameterDomainError("shear coefficient has a pole at z^4 = q^(-2)")
    return z * z * (1.0 - q * q) / den


def aba_coefficients(z: complex, y: complex, params: ChainParams) -> dict:
    """The scalar functions of the exchange relations of B(y) with the sheared
    diagonal blocks A(z) and D~(z) (alpha1, alpha2t, alpha4; beta1, beta2t,
    beta4t), and the unwanted-term weights phi_plus and phi_minus."""
    q = params.q
    ayz, byz, cyz = r_weights(y * z, q)
    ayoz, byoz, cyoz = r_weights(y / z, q)
    azoy, bzoy, czoy = r_weights(z / y, q)
    if min(abs(byoz), abs(ayz), abs(bzoy)) < 1e-12:
        raise ParameterDomainError("exchange-relation coefficient hits a pole at this (z, y)")
    alpha1 = ayoz * byz / (byoz * ayz)
    alpha2 = -cyoz * byz / (byoz * ayz)
    alpha4 = -cyz / ayz
    beta1 = (ayz ** 2 - cyz ** 2) * azoy / (ayz * byz * bzoy)
    beta2 = -(ayz ** 2 - cyz ** 2) * czoy / (ayz * byz * bzoy)
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
        "alpha1": alpha1, "alpha2t": alpha2t, "alpha4": alpha4,
        "beta1": beta1, "beta2t": beta2t, "beta4t": beta4t,
        "phi_plus": phi_plus, "phi_minus": phi_minus,
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
        dplus *= r_weights(z / tn, q)[0] * r_weights(z * tn, q)[0]
        dminus *= r_weights(z / tn, q)[1] * r_weights(z * tn, q)[1]
    return complex(dplus), complex(dminus)


def aba_state(roots, params: ChainParams) -> np.ndarray:
    """Bethe state: the ordered product of creation operators B(y) on the raised
    vacuum.  B(y) raises the down count by one; on a state v of down count
    mu - 1 it is read off transfer_v's half rows X, Y at y (chain._half_products):
    (B v)[r] = sum_t X[0][r, t] kv[m(r) - m(t)] (Y[1] v)[t] for the rows r of
    down count mu, through the states t of down counts mu - 1 and mu (m the
    down count, kv the diagonal of K^V)."""
    ys = list(np.asarray(roots, dtype=complex))
    n = params.n_sites
    if len(ys) > n:
        raise ParameterDomainError("more creation operators than sites")
    down, _, _, states = chain_mod._sectors(n)
    v = np.zeros(params.dim, dtype=complex)
    v[0] = 1.0
    for mu, y in enumerate(ys, start=1):
        left, right, index = chain_mod._half_products(lambda w: r_bands(w, params.q), y, params)
        kv = np.diagonal(kv_matrix(y, params.xi))
        s, r = states[mu - 1], states[mu]
        t = np.concatenate((s, r))
        w = kv[mu - down[t]] * (right[1][index[np.ix_(t, s)]] @ v[s])
        v = np.zeros(params.dim, dtype=complex)
        v[r] = left[0][index.T[np.ix_(r, t)]] @ w
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


def refine_bethe_newton(roots, params: ChainParams, max_iter: int = 50):
    """Damped Newton iteration on the Bethe system in the squared roots.

    Takes an array of roots y_i; returns the refined roots and the final
    normalized residual.  The iteration stops at 1e-12 or at the rounding
    floor of the residual, whichever is larger: rounding each Y_j to double
    precision alone moves residual i by up to
    eps (sum_j |J_ij Y_j| + |lhs_i| + |rhs_i|), relative to
    max(|lhs_i|, |rhs_i|), so no iterate can certify less.
    """
    target = 1e-12
    big_y = np.asarray(roots, dtype=complex) ** 2
    if big_y.size == 0:
        return big_y, 0.0

    def norm_res(res, lhs, rhs):
        return float(np.max(np.abs(res) / np.maximum(
            np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)))

    def rounding_floor(big_y, jac, lhs, rhs):
        spread = np.abs(jac) @ np.abs(big_y) + np.abs(lhs) + np.abs(rhs)
        return np.finfo(float).eps * norm_res(spread, lhs, rhs)

    res, jac, lhs, rhs = _bethe_system(big_y, params)
    best = norm_res(res, lhs, rhs)
    for _ in range(max_iter):
        if best < max(target, rounding_floor(big_y, jac, lhs, rhs)):
            break
        try:
            step = np.linalg.solve(jac, -res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular Jacobian in Newton refinement") from exc
        lam = 1.0
        improved = False
        for _ in range(12):
            trial = big_y + lam * step
            # a trial on a pole of the system, such as q^-2 = q^2 Y_i Y_j, is rejected
            with np.errstate(divide="ignore", invalid="ignore"):
                res_t, jac_t, lhs_t, rhs_t = _bethe_system(trial, params)
            finite = np.isfinite(res_t).all() and np.isfinite(jac_t).all()
            if finite and (norm_res(res_t, lhs_t, rhs_t) < best or lam == 1.0 and
                           float(np.linalg.norm(res_t)) < float(np.linalg.norm(res))):
                big_y, res, jac, lhs, rhs = trial, res_t, jac_t, lhs_t, rhs_t
                best = norm_res(res, lhs, rhs)
                improved = True
                break
            lam /= 2.0
        if not improved:
            raise ConvergenceError(
                f"Newton refinement stalled at residual {best:.2e}")
    else:
        if best >= max(target, rounding_floor(big_y, jac, lhs, rhs)):
            raise ConvergenceError(
                f"Newton refinement did not reach {target:.1e} in {max_iter} steps")
    return np.array([cmath.sqrt(w) for w in big_y], dtype=complex), best
