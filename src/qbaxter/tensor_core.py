"""Dense complex linear algebra on labelled tensor products.

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


def partial_trace(x, site: int, shape) -> np.ndarray:
    """Trace out one tensor factor."""
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
    out = np.einsum("aibcid->abcd", t)
    return out.reshape(pre * post, pre * post)


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
