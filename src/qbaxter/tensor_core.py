"""Dense complex linear algebra on labelled tensor products, and a
charge-blocked product for operators that conserve one factor's level plus
the index sum of the others.

All operators are plain complex ndarrays in row-major convention with the
leftmost tensor factor slowest-varying, so a matrix on C^a (x) C^b has row
index i_a * b + i_b.  A "shape" is the tuple of local dimensions of the
factors; every site index below refers to a position in that tuple.
"""

from __future__ import annotations

import numpy as np


def total_dim(shape) -> int:
    d = 1
    for s in shape:
        d *= int(s)
    return d


def _as_matrix(x) -> np.ndarray:
    m = np.asarray(x, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim={m.ndim}")
    return m


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


def kron(a, b) -> np.ndarray:
    """Kronecker product with the left factor slowest."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def swap_p(dim_a: int, dim_b: int) -> np.ndarray:
    """Permutation operator P(u (x) u') = u' (x) u."""
    p = np.zeros((dim_a * dim_b, dim_a * dim_b), dtype=complex)
    for i in range(dim_a):
        for j in range(dim_b):
            p[j * dim_a + i, i * dim_b + j] = 1.0
    return p


def embed(x, m: int, n: int, shape) -> np.ndarray:
    """Embed a two-factor operator so its first factor acts at site m, second at site n.

    Sites may come in either order; m > n transposes the factor layout, which
    realizes the usual X_{21}-style subscript convention.
    """
    dims = tuple(int(s) for s in shape)
    nfac = len(dims)
    if m == n:
        raise ValueError("embed needs two distinct sites")
    if not (0 <= m < nfac and 0 <= n < nfac):
        raise IndexError(f"site indices ({m}, {n}) out of range for shape {dims}")
    dm, dn = dims[m], dims[n]
    x = _as_matrix(x)
    if x.shape != (dm * dn, dm * dn):
        raise ValueError(f"operator shape {x.shape} does not match sites of dims ({dm}, {dn})")

    t = x.reshape(dm, dn, dm, dn)
    rest = [k for k in range(nfac) if k not in (m, n)]
    for k in rest:
        t = np.tensordot(t, np.eye(dims[k], dtype=complex), axes=0)
    # axis layout: (row_m, row_n, col_m, col_n, row_r1, col_r1, ...)
    row_axes = [0] * nfac
    col_axes = [0] * nfac
    row_axes[m], row_axes[n] = 0, 1
    col_axes[m], col_axes[n] = 2, 3
    for i, k in enumerate(rest):
        row_axes[k] = 4 + 2 * i
        col_axes[k] = 5 + 2 * i
    t = t.transpose(row_axes + col_axes)
    d = total_dim(dims)
    return np.ascontiguousarray(t.reshape(d, d))


def embed_site(x, site: int, shape) -> np.ndarray:
    """Embed a single-factor operator at the given site, identity elsewhere."""
    dims = tuple(int(s) for s in shape)
    if not 0 <= site < len(dims):
        raise IndexError(f"site {site} out of range for shape {dims}")
    x = _as_matrix(x)
    if x.shape != (dims[site], dims[site]):
        raise ValueError(f"operator shape {x.shape} does not match site dim {dims[site]}")
    pre = total_dim(dims[:site])
    post = total_dim(dims[site + 1:])
    return kron(kron(identity(pre), x), identity(post))


def ordered_product(factors, shape) -> np.ndarray:
    """Left-to-right product of embedded site factors; the identity when there are none.

    Each factor is (x, site) for a one-site operator or (x, m, n) for a
    two-site operator placed as in embed.  Factors may come from a lazy
    iterator; each embedded factor is released before the next is built.
    """
    out = None
    for x, *sites in factors:
        f = embed_site(x, *sites, shape) if len(sites) == 1 else embed(x, *sites, shape)
        out = f if out is None else out @ f
        del f
    return identity(total_dim(shape)) if out is None else out


def index_sums(shape) -> np.ndarray:
    """Sum of the factor indices of each basis state, in basis order.

    For spin-1/2 factors this is the number of lowered (index 1) sites.
    """
    out = np.zeros(1, dtype=int)
    for s in shape:
        out = np.add.outer(out, np.arange(int(s))).ravel()
    return out


def _widen(prod, x, n, carried, dims):
    """Charge blocks of the carried sites times x on site n, which joins them:
    new[c, (r, b), (s, a)] = old[c + a - b, r, s] x[c + a - b, b, c, a], the
    site-n indices b, a placed between the carried sites before and after n."""
    pre = total_dim(dims[s] for s in carried if s < n)
    post = total_dim(dims[s] for s in carried if s > n)
    carried.add(n)
    J, dn = x.shape[:2]
    old = prod.reshape(J, pre, post, pre, post)
    out = np.empty((J, pre, dn, post, pre, dn, post), dtype=complex)
    for b in range(dn):
        for a in range(dn):
            shift = a - b
            lo, hi = max(0, -shift), J - max(0, shift)
            coef = np.diagonal(x[:, b, :, a], -shift)
            block = out[:, :, b, :, :, a, :]
            if not coef.any():
                block[...] = 0.0
                continue
            block[:lo] = 0.0
            block[hi:] = 0.0
            np.multiply(old[lo + shift:hi + shift], coef[:, None, None, None, None],
                        out=block[lo:hi])
    k = prod.shape[1] * dn
    return out.reshape(J, k, k)


def charge_product(factors, shape) -> np.ndarray:
    """Left-to-right product of two-site factors that conserve the charge
    site-0 level + index sum, kept as one block per site-0 column level.

    Each factor is (x, 0, n): x acts on sites 0 and n as in embed, and
    x[(l, b), (c, a)] vanishes unless l + b = c + a; no two factors share a
    site n.  The product P then vanishes unless its site-0 levels differ by
    m(s) - m(r), m the index_sums of the remaining sites, and comes back as
    C[c, r, s] = P[(c + m(s) - m(r), r), (c, s)]; row levels outside the range
    of site 0 give zero entries.

    The blocks carry only the sites visited so far, in site order whatever
    the visit order; each factor widens them by one scaled, level-shifted copy
    per pair of site indices (about (4/3) J 4^N per pass over N spin sites),
    and sites no factor touches join at the end as the identity.
    """
    dims = tuple(int(s) for s in shape)
    J = dims[0]
    carried = set()
    charges = {dn: np.add.outer(np.arange(J), np.arange(dn)) for dn in set(dims[1:])}
    off_charge = {dn: np.not_equal.outer(charge, charge) for dn, charge in charges.items()}
    prod = np.ones((J, 1, 1), dtype=complex)
    for x, m, n in factors:
        if m != 0 or not 0 < n < len(dims):
            raise IndexError(f"charge factor must act on site 0 and a site in 1..{len(dims) - 1}")
        if n in carried:
            raise ValueError(f"charge factor revisits site {n}")
        dn = dims[n]
        x = _as_matrix(x)
        if x.shape != (J * dn, J * dn):
            raise ValueError(f"operator shape {x.shape} does not match sites of dims ({J}, {dn})")
        x = x.reshape(J, dn, J, dn)
        if x[off_charge[dn]].any():
            raise ValueError("charge factor does not conserve site-0 level + site-n index")
        prod = _widen(prod, x, n, carried, dims)
    for n in range(1, len(dims)):
        if n not in carried:
            prod = _widen(prod, identity(J * dims[n]).reshape(J, dims[n], J, dims[n]), n,
                          carried, dims)
    return prod


def partial_transpose(x, site: int, shape) -> np.ndarray:
    """Transpose the indices of one tensor factor only (involutive)."""
    dims = tuple(int(s) for s in shape)
    if not 0 <= site < len(dims):
        raise IndexError(f"site {site} out of range for shape {dims}")
    d = total_dim(dims)
    x = _as_matrix(x)
    if x.shape != (d, d):
        raise ValueError(f"operator shape {x.shape} does not match shape {dims}")
    pre = total_dim(dims[:site])
    post = total_dim(dims[site + 1:])
    t = x.reshape(pre, dims[site], post, pre, dims[site], post)
    return t.transpose(0, 4, 2, 3, 1, 5).reshape(d, d)


def frob(a) -> float:
    return float(np.linalg.norm(np.asarray(a)))


def rel_err(a, b) -> float:
    """Frobenius distance normalized by max(1, |a|_F, |b|_F).

    Near-zero operands are therefore compared absolutely; equal inputs give 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return frob(a - b) / max(1.0, frob(a), frob(b))
