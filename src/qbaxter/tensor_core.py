"""Dense complex linear algebra on labelled tensor products, and a
charge-blocked product for operators that conserve one factor's level plus
the index sum of the others.

All operators are plain complex ndarrays in row-major convention with the
leftmost tensor factor slowest-varying, so a matrix on C^a (x) C^b has row
index i_a * b + i_b.  A "shape" is the tuple of local dimensions of the
factors; every site index below refers to a position in that tuple.
"""

from __future__ import annotations

import functools
import math

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


@functools.lru_cache(maxsize=16)
def _band_layout(dn: int, J: int):
    """Read-only: the mask of the band entries [b, a, c] whose row level c + a - b
    leaves 0 .. J - 1, the flat indices of the others, their flat indices in the
    dense matrix, and the flat index of entry [a, b, c + a - b] for each."""
    b, a, c = np.indices((dn, dn, J))
    row = c + a - b
    outside = (row < 0) | (row >= J)
    inside = np.flatnonzero(~outside)
    dense = ((row * dn + b) * J * dn + c * dn + a).ravel()[inside]
    swapped = ((a * dn + b) * J + row).ravel()[inside]
    for arr in (outside, inside, dense, swapped):
        arr.setflags(write=False)
    return outside, inside, dense, swapped


def _check_bands(coef, J: int, dn: int) -> np.ndarray:
    """coef as a complex (dn, dn, J) band array with nothing outside the truncation."""
    coef = np.asarray(coef, dtype=complex)
    if coef.shape != (dn, dn, J):
        raise ValueError(f"band shape {coef.shape} does not match sites of dims ({J}, {dn})")
    if coef[_band_layout(dn, J)[0]].any():
        raise ValueError("band entry outside the truncation of site 0")
    return coef


def from_bands(coef) -> np.ndarray:
    """The operator x on J levels (x) C^dn with level bands coef[b, a, c] =
    x[(c + a - b, b), (c, a)]; every other entry of x is zero."""
    dn, _, J = np.shape(coef)
    _, inside, dense, _ = _band_layout(dn, J)
    out = np.zeros((J * dn) ** 2, dtype=complex)
    out[dense] = np.take(_check_bands(coef, J, dn), inside)
    return out.reshape(J * dn, J * dn)


def transpose_bands(coef) -> np.ndarray:
    """The level bands of x^T from those of x, coefT[..., b, a, c] = coef[..., a, b, c + a - b],
    for one band array or a stack of them along the leading axes."""
    _, inside, _, swapped = _band_layout(coef.shape[-3], coef.shape[-1])
    flat = coef.shape[:-3] + (math.prod(coef.shape[-3:]),)
    out = np.zeros(flat, dtype=complex)
    out[..., inside] = coef.reshape(flat)[..., swapped]
    return out.reshape(coef.shape)


@functools.lru_cache(maxsize=32)
def pair_index(dims) -> np.ndarray:
    """Read-only: the flat position of each entry [r, s] of a matrix on sites of
    dims, in product order, within their site-pair layout, where the index pairs
    (r_n, s_n) follow one another in site order."""
    n, d = len(dims), total_dim(dims)
    pairs = np.arange(d * d).reshape([dn for dn in dims for _ in "rs"])
    out = pairs.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(d, d)
    out.setflags(write=False)
    return out


# Largest total a Workspace keeps, in bytes: at N = 8, J = 40, seed 0, one BLAS thread, a Q's
# 93 MiB kept took 73-84 ms and 0-1 page faults against 91-104 ms and 554-1,065 with none kept.
WORKSPACE_BYTES = 2 ** 27


class Workspace(dict):
    """Work buffers by role: take(role, shape) hands out an uninitialised complex
    array on role's flat buffer, which grows only when a request does not fit; a
    grown buffer past WORKSPACE_BYTES in all is handed out but not kept."""

    def take(self, role, shape) -> np.ndarray:
        n, buffer = math.prod(shape), self.get(role)
        if buffer is None or buffer.size < n:
            buffer = self[role] = np.empty(n, dtype=complex)
            if sum(b.nbytes for b in self.values()) > WORKSPACE_BYTES:
                return self.pop(role).reshape(shape)
        return buffer[:n].reshape(shape)


def _widen(prod, coef, n, carried, dims, pad, pad_out, workspace, role):
    """Charge blocks of the carried sites times the band factor coef on site n,
    which joins them: new[c, P, (b, a), Q] = old[c + a - b, P, Q] coef[b, a, c],
    P and Q the index pairs of the carried sites before and after n (P is empty,
    and each copy one run per level, when n precedes them all).  old carries pad
    zero levels on each side, so every shifted read is in range; new carries
    pad_out and is written on role's buffer of workspace."""
    pre = math.prod(dims[s] ** 2 for s in carried if s < n)
    post = math.prod(dims[s] ** 2 for s in carried if s > n)
    carried.add(n)
    dn, _, J = coef.shape
    old = prod.reshape(J + 2 * pad, pre, post)
    out = workspace.take(role, (J + 2 * pad_out, pre, dn, dn, post))
    out[:pad_out] = out[pad_out + J:] = 0.0
    for b in range(dn):
        for a in range(dn):
            lo = pad + a - b
            np.multiply(old[lo:lo + J], coef[b, a, :, None, None],
                        out=out[pad_out:pad_out + J, :, b, a])
    return out.reshape(J + 2 * pad_out, -1)


def charge_product(factors, shape, workspace=None, role="product"):
    """Left-to-right product of two-site factors that conserve the charge
    site-0 level + index sum, kept as one block per site-0 column level, and
    the pair_index of the remaining sites that reads it.

    Each factor is (coef, n): the level bands coef[b, a, c] = x[(c + a - b, b),
    (c, a)] of an operator x on sites 0 and n as in embed (see from_bands),
    shape (dims[n], dims[n], J), zero where c + a - b leaves 0 .. J - 1; no two
    factors share a site n.  The product P then vanishes unless its site-0
    levels differ by m(s) - m(r), m the index_sums of the remaining sites, and
    comes back as C of shape (J, prod dims[n]^2) with C[c, index[r, s]] =
    P[(c + m(s) - m(r), r), (c, s)]; row levels outside the range of site 0
    give zero entries.

    The blocks carry the sites visited so far, each site's index pair together
    and in site order whatever the visit order, and zero levels on each side up
    to the last factor; each factor widens them by one scaled, level-shifted
    copy per band, and sites no factor touches join at the end as the identity.
    The steps alternate between the buffers "step" and role of workspace (a
    fresh Workspace by default), so that the blocks come back on role's.
    """
    dims = tuple(int(s) for s in shape)
    J = dims[0]
    steps = []
    for coef, n in factors:
        if not 0 < n < len(dims):
            raise IndexError(f"charge factor must act on a site in 1..{len(dims) - 1}")
        if n in (m for _, m in steps):
            raise ValueError(f"charge factor revisits site {n}")
        steps.append((_check_bands(coef, J, dims[n]), n))
    steps += [(np.eye(dims[n], dtype=complex)[:, :, None].repeat(J, axis=2), n)
              for n in range(1, len(dims)) if n not in (m for _, m in steps)]
    pad = max(dims[1:], default=1) - 1
    prod = np.zeros((J + 2 * pad, 1), dtype=complex)
    prod[pad:pad + J] = 1.0
    carried = set()
    workspace = Workspace() if workspace is None else workspace
    for i, (coef, n) in enumerate(steps):
        prod = _widen(prod, coef, n, carried, dims, pad, pad if i + 1 < len(steps) else 0,
                      workspace, "step" if (len(steps) - i) % 2 == 0 else role)
    return prod, pair_index(dims[1:])


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
