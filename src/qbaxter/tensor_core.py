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


def _level_shifts(x):
    """(b, a, cols, src, coef) for each pair of site indices of a charge factor
    x[l, b, c, a]: column level c in cols of the new product reads level
    c + a - b in src of the old, scaled by coef = x[c + a - b, b, c, a]."""
    J, dn = x.shape[:2]
    for b in range(dn):
        for a in range(dn):
            shift = a - b
            yield (b, a, slice(max(0, -shift), J - max(0, shift)),
                   slice(max(0, shift), J - max(0, -shift)), np.diagonal(x[:, b, :, a], -shift))


def _widen(prod, x, pre, post):
    """Charge blocks times x on a site they do not carry yet, placed between
    pre and post states of the carried sites:
    new[c, (r, b), (s, a)] = old[c + a - b, r, s] x[c + a - b, b, c, a]."""
    J, dn = x.shape[:2]
    old = prod.reshape(J, pre, post, pre, post)
    out = np.empty((J, pre, dn, post, pre, dn, post), dtype=complex)
    for b, a, cols, src, coef in _level_shifts(x):
        block = out[:, :, b, :, :, a, :]
        if not coef.any():
            block[...] = 0.0
            continue
        block[:cols.start] = 0.0
        block[cols.stop:] = 0.0
        np.multiply(old[src], coef[:, None, None, None, None], out=block[cols])
    k = prod.shape[1] * dn
    return out.reshape(J, k, k)


def _revisit(prod, x, pre, post):
    """Charge blocks times x on a carried site between pre and post states:
    one scaled slice update of that site's column axis per pair of indices."""
    J, dn = x.shape[:2]
    k = prod.shape[1]
    old = prod.reshape(J, k, pre, dn, post)
    out = np.zeros_like(old)
    for b, a, cols, src, coef in _level_shifts(x):
        if coef.any():
            out[cols, :, :, a, :] += old[src, :, :, b, :] * coef[:, None, None, None]
    return out.reshape(J, k, k)


def charge_product(factors, shape) -> np.ndarray:
    """Left-to-right product of two-site factors that conserve the charge
    site-0 level + index sum, kept as one block per site-0 column level.

    Each factor is (x, 0, n): x acts on sites 0 and n as in embed, and
    x[(l, b), (c, a)] vanishes unless l + b = c + a; or (x, 0) with x diagonal
    on site 0, which scales block c by x[c, c].  The product P then
    vanishes unless its site-0 levels differ by m(s) - m(r), m the index_sums
    of the remaining sites, and comes back as
    C[c, r, s] = P[(c + m(s) - m(r), r), (c, s)]; row levels outside the range
    of site 0 give zero entries.

    The blocks carry only the sites visited so far, in site order whatever
    the visit order (a right half row visits N..1).  A factor on a new site
    widens them by one scaled, level-shifted copy per pair of site indices
    and multiplies no identity; a factor on a carried site updates that
    site's column axis.  Sites no factor touches join at the end as the
    identity.  One pass over N spin sites costs about (4/3) J 4^N for J
    levels, instead of N J 4^N for factors applied to the full blocks; each
    revisit costs O(J 4^N).
    """
    dims = tuple(int(s) for s in shape)
    J = dims[0]
    carried = set()

    def times(prod, x, n):
        pre = total_dim(dims[s] for s in carried if s < n)
        post = total_dim(dims[s] for s in carried if s > n)
        if n in carried:
            return _revisit(prod, x, pre, post)
        carried.add(n)
        return _widen(prod, x, pre, post)

    charges = {dn: np.add.outer(np.arange(J), np.arange(dn)) for dn in set(dims[1:])}
    off_charge = {dn: np.not_equal.outer(charge, charge) for dn, charge in charges.items()}
    prod = np.ones((J, 1, 1), dtype=complex)
    for x, m, *rest in factors:
        if m != 0 or rest and not 0 < rest[0] < len(dims):
            raise IndexError(f"charge factor must act on site 0 (and a site in 1..{len(dims) - 1})")
        x = _as_matrix(x)
        if not rest:
            if x.shape != (J, J) or np.any(x[~np.eye(J, dtype=bool)]):
                raise ValueError("one-site charge factor must be diagonal on site 0")
            prod *= np.diagonal(x)[:, None, None]
            continue
        n = rest[0]
        dn = dims[n]
        if x.shape != (J * dn, J * dn):
            raise ValueError(f"operator shape {x.shape} does not match sites of dims ({J}, {dn})")
        x = x.reshape(J, dn, J, dn)
        if x[off_charge[dn]].any():
            raise ValueError("charge factor does not conserve site-0 level + site-n index")
        prod = times(prod, x, n)
    for n in range(1, len(dims)):
        if n not in carried:
            prod = times(prod, identity(J * dims[n]).reshape(J, dims[n], J, dims[n]), n)
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
