"""Reference implementations that only the tests read: dense ladder operators of
the truncated q-oscillator, q-Pochhammer symbols and the basic hypergeometric
sum, the swap and partial transpose of a tensor product, the transpose of an
operator given by its level bands, the open chain's Fock trace and the closed
chain's twisted Fock trace summed level by level, and the exchange coefficients
and unwanted-term residual of the algebraic Bethe ansatz.

The package computes none of these; the tests compare its results against them.
"""

from __future__ import annotations

import math

import numpy as np

from qbaxter.bethe import _aba_products, aba_f, aba_vacuum_values
from qbaxter.chain import ChainParams
from qbaxter.errors import ConvergenceError, ExclusionPointError, ParameterDomainError
from qbaxter.lattice_ops import ktv_matrix, l_matrix, r_weights
from qbaxter.qoscillator import validate_cutoff


# ---------------------------------------------------------------------------
# truncated q-oscillator
# ---------------------------------------------------------------------------

def osc_a(J: int) -> np.ndarray:
    """Lowering operator: a(w^{j+1}) = w^j, a(w^0) = 0."""
    J = validate_cutoff(J)
    m = np.zeros((J, J), dtype=complex)
    idx = np.arange(J - 1)
    m[idx, idx + 1] = 1.0
    return m


def osc_adag(q: complex, J: int) -> np.ndarray:
    """Raising operator: adag(w^j) = (1 - q^(2(j+1))) w^{j+1}, with adag(w^{J-1}) = 0."""
    J = validate_cutoff(J)
    m = np.zeros((J, J), dtype=complex)
    for j in range(J - 1):
        m[j + 1, j] = 1.0 - q ** (2 * (j + 1))
    return m


def osc_fd(f, J: int) -> np.ndarray:
    """Diagonal operator f(D): w^j -> f(j) w^j for a scalar function f of the level."""
    J = validate_cutoff(J)
    return np.diag(np.array([f(j) for j in range(J)], dtype=complex))


def q_power_d(q: complex, J: int, exponent: int = 1) -> np.ndarray:
    """Convenience diagonal q^(exponent * D)."""
    return osc_fd(lambda j: q ** (exponent * j), J)


# ---------------------------------------------------------------------------
# q-series
# ---------------------------------------------------------------------------

def pochhammer(x: complex, j, q: complex) -> complex:
    """q^2-shifted factorial (x)_j = prod_{i=0}^{j-1} (1 - q^{2i} x).

    Negative j uses the reciprocal branch prod_{i=1}^{-j} (1 - q^{-2i} x)^{-1};
    j = math.inf evaluates the convergent infinite product (requires |q| < 1).
    """
    x = complex(x)
    q = complex(q)
    if j == math.inf:
        if not abs(q) < 1:
            raise ParameterDomainError("infinite product needs |q| < 1")
        out = 1.0 + 0.0j
        i = 0
        fac = x
        while abs(fac) > 1e-18:
            out *= 1.0 - fac
            i += 1
            fac = q ** (2 * i) * x
            if i > 100000:  # |q| extremely close to 1
                raise ConvergenceError("infinite q-product did not terminate")
        return out
    j = int(j)
    if j >= 0:
        out = 1.0 + 0.0j
        for i in range(j):
            out *= 1.0 - q ** (2 * i) * x
        return out
    out = 1.0 + 0.0j
    for i in range(1, -j + 1):
        fac = 1.0 - q ** (-2 * i) * x
        if abs(fac) < 1e-14 * (1.0 + abs(q ** (-2 * i) * x)):
            raise ExclusionPointError(f"negative-branch factor vanishes at i={i}")
        out /= fac
    return out


def phi21(a: complex, b: complex, c: complex, x: complex, q: complex,
          tol: float = 1e-14, max_terms: int = 100000) -> complex:
    """Basic hypergeometric sum sum_j (a)_j (b)_j / ((q^2)_j (c)_j) x^j.

    Stops once the current term is relatively small *and* the geometric tail
    bound built from the empirical term ratio clears the tolerance.
    """
    q = complex(q)
    x = complex(x)
    if not abs(q) < 1:
        raise ParameterDomainError("phi21 needs |q| < 1")
    if abs(x) >= 1:
        raise ConvergenceError(f"phi21 series diverges for |x| = {abs(x):.3f} >= 1")
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    prev_mag = 1.0
    for j in range(max_terms):
        den = (1.0 - q ** (2 * (j + 1))) * (1.0 - q ** (2 * j) * c)
        if abs(1.0 - q ** (2 * j) * c) < 1e-14 * (1.0 + abs(q ** (2 * j) * c)):
            raise ExclusionPointError("phi21 lower parameter hits q^(2k), k <= 0")
        term = term * (1.0 - q ** (2 * j) * a) * (1.0 - q ** (2 * j) * b) * x / den
        total += term
        mag = abs(term)
        ratio = max(abs(x), mag / prev_mag if prev_mag > 0 else abs(x))
        prev_mag = mag if mag > 0 else prev_mag
        if ratio < 1.0:
            tail = mag * ratio / (1.0 - ratio)
            scale = max(abs(total), 1e-300)
            if mag <= tol * scale and tail <= tol * scale:
                return total
    raise ConvergenceError("phi21 did not certify convergence within max_terms")


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

def swap_p(dim_a: int, dim_b: int) -> np.ndarray:
    """Permutation operator P(u (x) u') = u' (x) u."""
    p = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for i in range(dim_a):
        for j in range(dim_b):
            p[j * dim_a + i, i * dim_b + j] = 1.0
    return p


def partial_transpose(x, site: int, shape) -> np.ndarray:
    """Transpose the indices of one tensor factor only (involutive)."""
    dims = tuple(int(s) for s in shape)
    if not 0 <= site < len(dims):
        raise IndexError(f"site {site} out of range for shape {dims}")
    d = math.prod(dims)
    x = np.asarray(x, dtype=complex)
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} does not match shape {dims}")
    pre = math.prod(dims[:site])
    post = math.prod(dims[site + 1:])
    t = x.reshape(pre, dims[site], post, pre, dims[site], post)
    return t.transpose(0, 4, 2, 3, 1, 5).reshape(d, d)


def transpose_bands(coef) -> np.ndarray:
    """The level bands (tensor_core.from_bands) of x^T from those of x,
    coefT[..., b, a, c] = coef[..., a, b, c + a - b], zero where c + a - b leaves
    0 .. J - 1, for one band array or a stack of them along the leading axes."""
    coef = np.asarray(coef, dtype=complex)
    dn, J = coef.shape[-3], coef.shape[-1]
    b, a, c = np.indices((dn, dn, J))
    inside = (c + a - b >= 0) & (c + a - b < J)
    out = np.zeros_like(coef)
    out[..., inside] = coef[..., a[inside], b[inside], (c + a - b)[inside]]
    return out


# ---------------------------------------------------------------------------
# open chain
# ---------------------------------------------------------------------------

def open_fock_trace(z: complex, params: ChainParams, tol: float = 1e-17) -> np.ndarray:
    """The open chain's Fock trace sum_j T_j, T_j = sum_k ktw_j kw_k X[j, k] Y[k, j] the
    level-j block of the double row (X = L_1(t_1 z) .. L_N(t_N z) and Y = L_N(z / t_N) ..
    L_1(z / t_1), site k's L-operator at r = 1 on W (x) V_k, paired with the boundary
    diagonals kw and ktw of qoscillator), summed directly, level by level, with no stop
    rule: the levels grow while q^(2j) |u|^2 > 1 for a point u = t_k z or z / t_k, so the
    sum takes twice as many levels as that, then 2N + 4 and the levels at which rho^j <
    tol (1 - rho), rho the tail ratio.

    Each entry of a half row is one path, one L entry per site, each moving the level by
    at most one: at column level c, (a -> b) = (0 -> 0) q^c, (0 -> 1) -u q^(c + 1) (one
    level down), (1 -> 1) (1 - q^(2c + 2) u^2) q^(-c) and (1 -> 0) -(u / q) (1 - q^(2c + 2))
    q^(-c) (one level up), 1 a down spin.  So X[(j, r), (k, s)] and Y[(k, s), (j, t)] are
    q^(j (N - 2 m(s))) and q^(j (N - 2 m(t))) times products over the level offsets from j
    (m the down count), and kw_k / kw_j = q^(-2j (k - j) - (k - j)^2) prod_i (q^(2i) z^2 -
    xi)^(+-1) over the levels i between.  The powers of q^j of a term of T_j in sector m then
    add to 2N - 4m, and ktw_j kw_j = prod_(1 <= i <= j) -xitilde (q^(2i) z^2 - xi) /
    prod_(0 <= i <= j) (1 - q^(2i + 2) xitilde z^2), whose factors tend to xi xitilde: its
    running product
    times q^(2N - 4m) per level is sector m's scale at level j.  No intermediate holds the
    growth |q|^(-Nj) of a half row or |q|^(-j^2) of kw, and a scale underflows only once
    its level is negligible.
    """
    n, d, q = params.n_sites, params.dim, params.q
    xi, xit, z2 = params.xi, params.xitilde, complex(z) ** 2
    rise = math.log(max([1.0] + [abs(u) ** 2 for t in params.t for u in (z * t, z / t)]))
    rho, depth = params.tail_ratio, 2 * n + 4 + 2 * math.ceil(rise / -math.log(abs(q) ** 2))
    if rho > 0:
        depth += math.ceil(math.log(tol * (1.0 - rho)) / math.log(rho)) + 1
    j = np.arange(depth)[:, None, None]
    q2j = q ** (2.0 * j)  # underflows to 0 only where q^(2j) no longer enters
    bits = (np.arange(d)[:, None] >> np.arange(n)[::-1]) & 1  # [state, site], site 1 first
    down = bits.sum(axis=1)

    def paths(points, sites, offset):
        """[j, r, s]: the path from (j + offset[r, s], s) to (j + end, r) through the factors
        of sites in turn, over q^(j (N - 2 m(s))); zero where a level leaves 0 .. inf."""
        out = np.ones((depth, d, d), dtype=complex)
        o = np.broadcast_to(offset, (depth, d, d))
        inside = j + o >= 0
        for i in sites:
            b, a, u, qo = bits[:, i][:, None], bits[:, i][None, :], points[i], q ** o
            out = out * np.where(a == 0, np.where(b == 0, qo, -u * q * qo),
                                 np.where(b == 1, 1.0 - q2j * q * q * qo * qo * u * u,
                                          -(u / q) * (1.0 - q2j * q * q * qo * qo)) / qo)
            o = o + a - b
            inside &= j + o >= 0
        return np.where(inside, out, 0.0)

    shift = down[:, None] - down[None, :]  # [r, s]: m(r) - m(s), the level X starts above j
    left = paths([t * z for t in params.t], range(n)[::-1], shift)  # [j, r, s] of X
    right = paths([z / t for t in params.t], range(n), 0)  # [j, s, t] of Y
    # kw_(j + delta) / kw_j over q^(-2 j delta), delta = m(r) - m(s) in -n .. n
    steps = q2j[:, :, 0] * q ** (2.0 * np.arange(-n + 1, n + 1)) * z2 - xi  # i = j - n + 1 .. j + n
    ratio = np.ones((depth, 2 * n + 1), dtype=complex)  # [j, n + delta]
    for delta in range(1, n + 1):
        ratio[:, n + delta] = ratio[:, n + delta - 1] * steps[:, n + delta - 1]
        ratio[:, n - delta] = ratio[:, n - delta + 1] / steps[:, n - delta]
    ratio *= q ** -(np.arange(-n, n + 1) ** 2.0)
    blocks = (left * ratio[:, n + shift]) @ right
    # ktw_j kw_j q^(j (2N - 4m)), a running product per level
    levels = np.arange(1, depth)
    factor = -xit * (q ** (2.0 * levels) * z2 - xi) / (1.0 - q ** (2.0 * levels + 2) * xit * z2)
    scale = np.cumprod(np.concatenate(
        [np.full((1, n + 1), 1.0 / (1.0 - q * q * xit * z2)),
         factor[:, None] * q ** (2.0 * n - 4.0 * np.arange(n + 1))]), axis=0)
    same = down[:, None] == down[None, :]
    return np.where(same, np.einsum("jr,jrs->rs", scale[:, down], blocks), 0.0)


# ---------------------------------------------------------------------------
# closed chain
# ---------------------------------------------------------------------------

def closed_fock_trace(z: complex, params: ChainParams, tol: float = 1e-15) -> np.ndarray:
    """The closed chain's twisted Fock trace sum_j zeta^j B_j, B_j the block at Fock
    level j of L_N(z/t_N) .. L_1(z/t_1) (site k's L-operator at r = 1 on W (x) V_k),
    summed directly, level by level, through the first level j at which
    rho^j < tol (1 - rho), rho = |zeta| |q|^(-N) the twist ratio.

    Each of the N factors moves the level by at most one, so B_j reads L only on
    levels j - N .. j + N, the window each level is computed on.  zeta^j is split
    evenly between the start vector and the N factors, which keeps the growth
    |q|^(-Nj) of the unweighted blocks out of the intermediates.  A level that
    still leaves floating range shows as a non-finite entry of the result; the
    dense L on J = depth + N + 1 levels raises OverflowGuardError once q^(-2J) does.
    """
    n, d, zeta = params.n_sites, params.dim, params.zeta
    rho = abs(zeta) * abs(params.q) ** (-n)
    depth = math.ceil(math.log(tol * (1.0 - rho)) / math.log(rho)) + 1
    w, J = 2 * n + 1, depth + n + 1
    share = zeta ** (np.arange(depth) / (n + 1))
    # v[j, u, r, s]: level j - n + u and spins r of the image of w^j (x) s
    v = np.zeros((depth, w, d, d), dtype=complex)
    v[:, n] = share[:, None, None] * np.eye(d)
    for k in range(n):  # site k + 1, L_1 first
        dense = l_matrix(z / params.t[k], 1.0, params.q, J).reshape(J, 2, J, 2)
        dense = np.pad(dense, ((n, 0), (0, 0), (n, 0), (0, 0)))  # levels -n .. -1 hold zeros
        windows = np.stack([dense[j:j + w, :, j:j + w] for j in range(depth)])
        v = np.einsum("juxvy,jvayb->juaxb", windows * share[:, None, None, None, None],
                      v.reshape(depth, w, 2 ** k, 2, -1), optimize=True)
    return v.reshape(depth, w, d, d)[:, n].sum(axis=0)


# ---------------------------------------------------------------------------
# algebraic Bethe ansatz
# ---------------------------------------------------------------------------

def aba_coefficients(z: complex, y: complex, params: ChainParams) -> dict:
    """The scalar functions of the exchange relations of B(y) with the sheared
    diagonal blocks A(z) and D~(z) (alpha1, alpha2t, alpha4; beta1, beta2t,
    beta4t), and the unwanted-term weights phi_plus and phi_minus."""
    q = params.q
    alpha1, beta1 = _aba_products(z, (y,), q)
    ayz, byz, cyz = r_weights(y * z, q)
    _, byoz, cyoz = r_weights(y / z, q)
    azoy, bzoy, czoy = r_weights(z / y, q)
    alpha2 = -cyoz * byz / (byoz * ayz)
    alpha4 = -cyz / ayz
    beta2 = -(ayz ** 2 - cyz ** 2) * czoy / (ayz * byz * bzoy)
    beta4 = cyz * (cyoz * czoy * bzoy + byoz * azoy ** 2) / (byoz * ayz * bzoy ** 2)
    fz = aba_f(z, q)
    fy = aba_f(y, q)
    alpha2t = alpha2 - alpha4 * fy
    beta2t = beta2 + alpha4 * fz
    beta4t = beta4 - beta2 * fy + alpha2t * fz
    ktv = ktv_matrix(z, params.xitilde, q)
    gamma_plus, gamma_minus = ktv[0, 0] - fz * ktv[1, 1], ktv[1, 1]
    return {"alpha1": alpha1, "alpha2t": alpha2t, "alpha4": alpha4,
            "beta1": beta1, "beta2t": beta2t, "beta4t": beta4t,
            "phi_plus": gamma_plus * alpha2t + gamma_minus * beta4t,
            "phi_minus": gamma_plus * alpha4 + gamma_minus * beta2t}


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
        prod_a, prod_b = _aba_products(y, np.delete(ys, i), q)
        term1 = phat_plus * dplus * prod_a
        term2 = phat_minus * dminus * prod_b
        out[i] = abs(term1 + term2) / max(abs(term1), abs(term2), 1e-300)
    return out
