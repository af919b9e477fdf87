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

from . import chain as ch
from .errors import ConvergenceError, ExclusionPointError, ParameterDomainError, QBaxterError
from .lattice_ops import kv_matrix, ktv_matrix, r_bands, r_weights


class SpectrumError(QBaxterError):
    """Joint diagonalization or eigenvalue factorization failed."""


@dataclass
class SpectrumRecord:
    """One joint eigenvector with its sampled and interpolated eigenvalues."""

    m_down: int                       # down spins of the S^z sector
    vector: np.ndarray                # unit vector on the full 2^N space
    tv_samples: list                  # [(z, eigenvalue of the finite transfer matrix)]
    q_samples: list                   # [(z, eigenvalue of the Q-operator)]
    q_poly: np.ndarray                # 2N+1 ascending coefficients in Z = z^2
    tv_residual: float = 0.0          # worst eigen-residual over the samples
    q_fit_error: float = 0.0          # held-out interpolation deviation


@dataclass
class BetheRootSet:
    """Factorized zero data of one Q-eigenvalue."""

    f: complex
    roots: np.ndarray                 # y_1..y_M (principal square roots)
    pairing_error: float              # involution asymmetry of the eigenvalue coefficients
    product_error: float              # deviation of prod(Y) from q^(-2M)


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

    Disks of radius 0.01 about such points are disjoint and lie on the annulus
    widened by 0.01, so a count above ((hi + 0.01)^2 - max(lo - 0.01, 0)^2) / 0.01^2
    cannot be met: it raises SpectrumError before the first draw.  A rejected
    draw is redrawn, up to 200 draws for each point; running out raises
    SpectrumError.
    """
    room = ((hi + 0.01) ** 2 - max(lo - 0.01, 0.0) ** 2) / 0.01 ** 2
    if count > room:
        raise SpectrumError(f"{count} points 0.02 apart cannot fit on the annulus "
                            f"{lo} <= |z| <= {hi}, which holds at most {math.floor(room)}")
    points = np.empty(count, dtype=complex)
    for k in range(count):
        for _ in range(200):
            z = random_point(rng, lo, hi)
            if clear(z) and np.all(np.abs(z - points[:k]) >= 0.02):
                break
        else:
            raise SpectrumError(f"drew {k} of {count} points clear of the exclusion set; "
                                f"200 tries found no next one at radii [{lo}, {hi}]")
        points[k] = z
    return points.tolist()


def spectrum_nodes(params: ch.ChainParams, seed: int, count: int):
    """Sample points on the annulus 0.75 <= |z| <= 1.25 clear of the trace poles."""
    return draw_points(np.random.default_rng(seed), count,
                       lambda z: not ch.in_exclusion_set(z, params), 0.75, 1.25)


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


def joint_spectrum(params: ch.ChainParams, z_probe: complex, z_samples, seed: int = 0):
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
    z_samples = [complex(z) for z in z_samples]
    if not z_samples:
        raise SpectrumError("joint_spectrum needs at least one sample point, got 0")
    t_probe = ch.transfer_v(z_probe, params)
    q_probe2 = None
    records = []
    tv_mats = [ch.transfer_v(z, params) for z in z_samples]
    q_mats = [ch.q_operator(z, params) for z in z_samples]
    q_coeffs = circle_coefficients(lambda y: ch.q_operator(cmath.sqrt(y), params),
                                   2 * n + 2, 1.0 / params.q)
    x = (np.array(z_samples) ** 2)[:, None]

    for m_down, idx in enumerate(ch._layout(n).states):
        blk = np.ix_(idx, idx)
        block = t_probe[blk]
        vals, vecs = _eig_sorted(block)
        scale = max(1.0, float(np.linalg.norm(block)))
        for tries in range(1, 4):
            if _min_gap(vals) >= 1e3 * params.tol * scale:
                break
            if q_probe2 is None:
                q_probe2 = ch.q_operator(spectrum_nodes(params, seed + 7, 1)[0], params)
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
                m_down=m_down, vector=v, tv_samples=list(zip(z_samples, lam[:, k].tolist())),
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


def factorize_q_eigenvalue(record: SpectrumRecord, params: ch.ChainParams) -> BetheRootSet:
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
    m = record.m_down
    q = params.q
    core, struct_err = _degree_window(record.q_poly, n, m)
    f = complex(core[-1])
    beta = core * q ** -np.arange(-m, m + 1)
    pairing_err = float(np.max(np.abs(beta - beta[::-1]))) / float(np.max(np.abs(beta)))
    # the vacuum's empty product is q^0 exactly, but numpy's complex x / x can miss 1 by an ulp
    prod_err = abs(beta[0] / beta[-1] - 1.0) if m else 0.0
    sym = (beta[m:] + beta[m::-1]) / 2.0
    x = chebroots(np.concatenate([sym[:1], 2.0 * sym[1:]]))
    s = np.sqrt(x * x - 1.0 + 0j)
    w = np.where(np.abs(x + s) >= np.abs(x - s), x + s, x - s)
    big_y = sorted(w / q, key=lambda y: (round(y.real, 9), round(y.imag, 9)))
    roots = np.array([cmath.sqrt(y) for y in big_y], dtype=complex)
    return BetheRootSet(f=f, roots=roots, pairing_error=max(pairing_err, struct_err),
                        product_error=float(prod_err))


# ---------------------------------------------------------------------------
# Bethe equations
# ---------------------------------------------------------------------------

def _bethe_system(big_y: np.ndarray, params: ch.ChainParams):
    """Difference, Jacobian and sides of the z-independent Bethe system in Y = y^2.

    Side i is a constant times factors a + b Y_i and, over j != i, factors
    g = u + v Y_i Y_j^p, all read off one table; its Jacobian row is side i times
    d_i log(a + b Y_i) = b / (a + b Y_i), d_i log g = v Y_j^p / g, d_j log g = p (g - u) / (Y_j g).
    """
    q2, xi, xit, m = params.q ** 2, params.xi, params.xitilde, big_y.size
    t2 = [t for tn in params.t for t in (tn * tn, 1.0 / (tn * tn))]
    # (constant, singles (a, b), pairs (u, v, p)) of the left side, then of the right
    table = ((1.0, [(1.0, -xit), (1.0, -xi)] + [(1.0, -q2 * t) for t in t2],
              [(1.0, -1.0 / q2, -1), (1.0, -1.0, 1)]),
             (q2 ** (params.n_sites - m), [(xit, -q2), (xi, -q2)] + [(1.0, -t) for t in t2],
              [(1.0, -q2, -1), (1.0 / q2, -q2, 1)]))
    sides, jacs = np.zeros((2, m), dtype=big_y.dtype), np.zeros((2, m, m), dtype=big_y.dtype)
    for s, (const, singles, pairs) in enumerate(table):
        for i, yi in enumerate(big_y):
            side, dlog = const, [0.0] * m
            for a, b in singles:
                f = a + b * yi
                side *= f
                dlog[i] += b / f
            for j, yj in enumerate(big_y):
                for u, v, p in pairs if j != i else ():
                    w = v * yj ** p
                    g = u + w * yi
                    side *= g
                    dlog[i] += w / g
                    dlog[j] += p * (g - u) / (yj * g)
            sides[s, i] = side
            jacs[s, i] = np.multiply(dlog, side)
    return sides[0] - sides[1], jacs[0] - jacs[1], sides[0], sides[1]


def _relative(res, lhs, rhs) -> np.ndarray:
    """|res| relative to the larger of |lhs| and |rhs|, entry by entry."""
    return np.abs(res) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)


def bethe_residual(roots: BetheRootSet, params: ch.ChainParams) -> np.ndarray:
    """Relative residual of the z-independent Bethe system at each root."""
    with np.errstate(divide="ignore", invalid="ignore"):  # the unread Jacobian's, at a pole
        res, _, lhs, rhs = _bethe_system(roots.roots ** 2, params)
    return _relative(res, lhs, rhs)


def bethe_residual_pq_form(roots: BetheRootSet, params: ch.ChainParams) -> np.ndarray:
    """Residual of the functional form p_+(y) Q(qy) + p_-(y) Q(q^-1 y) = 0.

    The eigenvalue is reconstructed from the factorized root data, so this is
    an algebraically equivalent route to bethe_residual.
    """
    q = params.q

    def q_eig(z):
        out = roots.f * z ** (2 * (params.n_sites - roots.roots.size))
        for y in roots.roots:
            out *= (z * z - y * y) * (z * z - q ** (-2) / (y * y))
        return out

    res = []
    for y in roots.roots:
        a = ch.p_plus(y, params) * q_eig(q * y)
        b = ch.p_minus(y, params) * q_eig(y / q)
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


def _aba_products(z: complex, ys, q: complex):
    """The products over the roots y of alpha1 and beta1, the coefficients of
    B(y) A(z) and B(y) D~(z) in the exchange relations of A(z) and D~(z) with B(y)."""
    prod_a = prod_b = 1.0 + 0.0j
    for y in ys:
        ayz, byz, cyz = r_weights(y * z, q)
        ayoz, byoz, _ = r_weights(y / z, q)
        azoy, bzoy, _ = r_weights(z / y, q)
        if min(abs(byoz), abs(ayz), abs(bzoy)) < 1e-12:
            raise ParameterDomainError("exchange-relation coefficient hits a pole at this (z, y)")
        prod_a *= ayoz * byz / (byoz * ayz)
        prod_b *= (ayz ** 2 - cyz ** 2) * azoy / (ayz * byz * bzoy)
    return prod_a, prod_b


def aba_vacuum_values(z: complex, params: ch.ChainParams):
    """Vacuum eigenvalues delta_+ and delta_- of the raised and sheared diagonal blocks."""
    q = params.q
    kv = kv_matrix(z, params.xi)
    dplus = kv[0, 0]
    dminus = kv[1, 1] + aba_f(z, q) * kv[0, 0]
    for tn in params.t:
        a_over, b_over, _ = r_weights(z / tn, q)
        a_times, b_times, _ = r_weights(z * tn, q)
        dplus *= a_over * a_times
        dminus *= b_over * b_times
    return complex(dplus), complex(dminus)


def aba_state(roots, params: ch.ChainParams) -> np.ndarray:
    """Bethe state: the ordered product of creation operators B(y) on the raised
    vacuum.  B(y) raises the down count by one; on a state v of down count
    mu - 1 it is read off transfer_v's half rows X, Y at y (chain._half_products):
    (B v)[r] = sum_t X[0][r, t] kv[m(r) - m(t)] (Y[1] v)[t] for the rows r of
    down count mu, through the states t of down counts mu - 1 and mu (m the
    down count, kv the diagonal of K^V), each gathered through the layout's cols."""
    ys = list(np.asarray(roots, dtype=complex))
    n = params.n_sites
    if len(ys) > n:
        raise ParameterDomainError("more creation operators than sites")
    layout = ch._layout(n)
    v = np.zeros(params.dim, dtype=complex)
    v[0] = 1.0
    for mu, y in enumerate(ys, start=1):
        rows = ch._half_products(lambda w: r_bands(w, params.q), y, params)
        left, right = rows(0, 2)
        kv = np.diagonal(kv_matrix(y, params.xi))
        (S, *_), (R, *_) = layout.runs[mu - 1:mu + 1]
        s, r = layout.states[mu - 1], layout.states[mu]
        t = np.concatenate((s, r))
        # both gathers C-ordered, as an F-ordered one rounds the matvec differently
        w = kv[mu - layout.down[t]] * (right[1][layout.cols[S].T[t]] @ v[s])
        v = np.zeros(params.dim, dtype=complex)
        v[r] = left[0][np.take(layout.cols[R], t, 1)] @ w
    return v


def aba_eigenvalue(z: complex, roots, params: ch.ChainParams) -> complex:
    """Transfer-matrix eigenvalue predicted by the Bethe-ansatz formula."""
    ys = np.asarray(roots, dtype=complex)
    q = params.q
    ktv = ktv_matrix(z, params.xitilde, q)
    gamma_plus, gamma_minus = ktv[0, 0] - aba_f(z, q) * ktv[1, 1], ktv[1, 1]
    dplus, dminus = aba_vacuum_values(z, params)
    prod_a, prod_b = _aba_products(z, ys, q)
    return complex(gamma_plus * prod_a * dplus + gamma_minus * prod_b * dminus)


# ---------------------------------------------------------------------------
# Newton refinement
# ---------------------------------------------------------------------------

def refine_bethe_newton(roots, params: ch.ChainParams, max_iter: int = 50):
    """Damped Newton iteration on the Bethe system in the squared roots.

    Takes an array of roots y_i; returns the refined roots and the final
    normalized residual, the iterate held in long double where the platform has
    it.  The iteration stops at 1e-12 or at the rounding floor of the residual,
    whichever is larger: rounding each Y_j to that precision eps alone moves
    residual i by up to eps (sum_j |J_ij Y_j| + |lhs_i| + |rhs_i|), relative to
    max(|lhs_i|, |rhs_i|), so no iterate can certify less.
    """
    target = 1e-12
    big_y = np.asarray(roots, dtype=np.clongdouble) ** 2

    def norm_res(res, lhs, rhs):
        return float(np.max(_relative(res, lhs, rhs), initial=0.0))

    def rounding_floor(big_y, jac, lhs, rhs):
        spread = np.abs(jac) @ np.abs(big_y) + np.abs(lhs) + np.abs(rhs)
        return np.finfo(np.longdouble).eps * norm_res(spread, lhs, rhs)

    res, jac, lhs, rhs = _bethe_system(big_y, params)
    best = norm_res(res, lhs, rhs)
    for _ in range(max_iter):
        if best < max(target, rounding_floor(big_y, jac, lhs, rhs)):
            break
        try:
            step = np.linalg.solve(jac.astype(complex), -res.astype(complex))
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
