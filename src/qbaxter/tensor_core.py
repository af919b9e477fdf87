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


def embed(x, sites, shape) -> np.ndarray:
    """Place an operator on the given distinct sites, identity elsewhere.

    x acts on its own factors in the order of sites, so a two-site x placed at
    (1, 0) realizes the usual X_{21}-style subscript convention.  The result is
    one broadcast product of x with the identity on the other sites, written
    through a transposed view of the output into site order.
    """
    dims = tuple(int(s) for s in shape)
    sites = tuple(sites)
    if len(set(sites)) != len(sites):
        raise ValueError(f"embed needs distinct sites, got {sites}")
    if not all(0 <= s < len(dims) for s in sites):
        raise IndexError(f"sites {sites} out of range for shape {dims}")
    rest = [s for s in range(len(dims)) if s not in sites]
    own, other = [dims[s] for s in sites], [dims[s] for s in rest]
    x = np.asarray(x, dtype=complex)
    if x.shape != (math.prod(own),) * 2:
        raise ValueError(f"operator shape {x.shape} does not match sites of dims {tuple(own)}")
    d, axes = math.prod(dims), [*sites, *rest]
    out = np.empty((d, d), dtype=complex)
    view = out.reshape(dims + dims).transpose(axes + [len(dims) + a for a in axes])
    ones, eye = [1] * len(rest), np.eye(math.prod(other), dtype=complex)
    np.multiply(x.reshape(own + ones + own + ones),
                eye.reshape([1] * len(own) + other + [1] * len(own) + other), out=view)
    return out


def ordered_product(factors, shape) -> np.ndarray:
    """Left-to-right product of embedded site factors; the identity when there are none.

    Each factor is (x, *sites), an operator and the sites it is placed on as in
    embed.  Factors may come from a lazy iterator; each embedded factor is
    released before the next is built.
    """
    out = None
    for x, *sites in factors:
        f = embed(x, sites, shape)
        out = f if out is None else out @ f
        del f
    return np.eye(math.prod(shape), dtype=complex) if out is None else out


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
    """Read-only: the flat indices of the band entries [b, a, c] whose row level
    c + a - b leaves 0 .. J - 1, those of the others, and their flat indices in
    the dense matrix."""
    b, a, c = np.indices((dn, dn, J))
    row = c + a - b
    outside = (row < 0) | (row >= J)
    outside, inside = np.flatnonzero(outside), np.flatnonzero(~outside)
    dense = ((row * dn + b) * J * dn + c * dn + a).ravel()[inside]
    for arr in (outside, inside, dense):
        arr.setflags(write=False)
    return outside, inside, dense


def _check_bands(coef, ndim: int) -> np.ndarray:
    """coef as a complex band array of ndim axes (..., d, d, J), once zero past the truncation."""
    coef = np.asarray(coef, dtype=complex)
    if coef.ndim != ndim or coef.shape[-3] != coef.shape[-2]:
        raise ValueError(f"band shape {coef.shape} needs {ndim} axes ending in (d, d, J)")
    outside = _band_layout(*coef.shape[-2:])[0]  # 2 per d = 2 band array
    if coef.reshape(-1, math.prod(coef.shape[-3:])).take(outside, 1).any():
        raise ValueError("band entry outside the truncation")
    return coef


def from_bands(coef) -> np.ndarray:
    """The operator x on J levels (x) C^dn with level bands coef[b, a, c] =
    x[(c + a - b, b), (c, a)]; every other entry of x is zero."""
    coef = _check_bands(coef, 3)
    dn, _, J = coef.shape
    _, inside, dense = _band_layout(dn, J)
    out = np.zeros((J * dn) ** 2, dtype=complex)
    out[dense] = np.take(coef, inside)
    return out.reshape(J * dn, J * dn)


def pair_index(dims) -> np.ndarray:
    """The flat position of each entry [r, s] of a matrix on sites of dims, in
    product order, within their site-pair layout, where the index pairs (r_n, s_n)
    follow one another in site order."""
    n, d = len(dims), math.prod(dims)
    pairs = np.arange(d * d).reshape([dn for dn in dims for _ in "rs"])
    return pairs.transpose([*range(0, 2 * n, 2), *range(1, 2 * n, 2)]).reshape(d, d)


# Largest total a Workspace keeps, in bytes: a Q keeps 5.7 MiB at N = 8, 91 MiB at N = 10 and
# outgrows it from N = 11 on, a closed Q 1.9-123 MiB at N = 8-11 (J = 40, seed 0, one BLAS
# thread); at N = 8 a Q took 24-28 ms and 0 page faults, and 25-43 ms and 0-20,096 with none kept.
WORKSPACE_BYTES = 2 ** 27


class Workspace(dict):
    """Work buffers by role: take(role, shape) is an uninitialised complex array on role's
    flat buffer, grown only when a request does not fit and kept within WORKSPACE_BYTES in all."""

    def take(self, role, shape) -> np.ndarray:
        n, buffer = math.prod(shape), self.get(role)
        if buffer is None or buffer.size < n:
            buffer = self[role] = np.empty(n, dtype=complex)
            if sum(b.nbytes for b in self.values()) > WORKSPACE_BYTES:
                return self.pop(role).reshape(shape)
        return buffer[:n].reshape(shape)


def _widen(prod, shift, coef, workspace, role):
    """Charge blocks of the visited sites (pairs Q) times the band factor coef on a
    new site before them all, new[c, (b, a), Q] = old[c + shift + a - b, Q] coef[b, a, c]
    on role's buffer of workspace, one run per level, and zero where old holds no such
    level: there the row level c + a - b leaves the truncation, so coef is zero too."""
    *batch, d, _, k = coef.shape
    out, m = workspace.take(role, (*batch, k, d, d, prod.shape[-1])), prod.shape[-2]
    for b in range(d):
        for a in range(d):
            s = shift + a - b
            lo = 0 if s >= 0 else min(k, -s)
            hi = k if m - s >= k else max(lo, m - s)
            if lo < hi:
                np.multiply(prod[..., lo + s:hi + s, :], coef[..., b, a, lo:hi, None],
                            out=out[..., lo:hi, b, a, :])
            if lo:
                out[..., :lo, b, a, :] = 0.0
            if hi < k:
                out[..., hi:, b, a, :] = 0.0
    return out.reshape(*batch, k, -1)


def charge_product(bands, workspace, role):
    """The product P = F_n .. F_1 of two-site factors that conserve the charge site-0
    level + index sum, as blocks(j0, j1) of its site-0 column levels j0 .. j1 - 1.

    bands is an (n, d, d, J) band array, or a stack of them on leading axes: bands[k]
    holds the level bands (from_bands) of the factor on site 0 (J levels) and site
    n - k (dimension d), as in embed.  P vanishes unless its site-0 levels differ by
    m(s) - m(r), m the index_sums of the sites 1 .. n, and blocks(j0, j1) is C of shape
    (..., j1 - j0, d^(2n)), C[c - j0, index[r, s]] = P[(c + m(s) - m(r), r), (c, s)]
    for index = pair_index((d,) * n), zero where that row level leaves 0 .. J - 1;
    with no factor, C is ones.  Level c reads only levels c - (d - 1) n .. c + (d - 1) n
    of the first factor, and only those in 0 .. J - 1, where the bands live: blocks
    widens ones on that light cone clipped to 0 .. J - 1, and each factor keeps its own
    light cone, d - 1 levels narrower on each side, clipped the same way, alternating
    between the buffers "step" and role of workspace so that C lives on role's until
    the next call.  The levels the clip drops would hold exact zeros: it changes no value.
    """
    bands = _check_bands(bands, max(np.ndim(bands), 4))
    *batch, n, d, _, J = bands.shape

    def blocks(j0, j1):
        lo = max(0, j0 - (d - 1) * n)
        prod = np.ones((*batch, min(J, j1 + (d - 1) * n) - lo, 1), dtype=complex)
        for k in range(n):
            reach = (d - 1) * (n - 1 - k)
            c0, c1 = max(0, j0 - reach), min(J, j1 + reach)
            prod = _widen(prod, c0 - lo, bands[..., k, :, :, c0:c1], workspace,
                          ("step", role)[(n - k) % 2])
            lo = c0
        return prod

    return blocks


def rel_err(a, b) -> float:
    """Frobenius distance normalized by max(1, |a|_F, |b|_F).

    Near-zero operands are therefore compared absolutely; equal inputs give 0.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a), np.linalg.norm(b)))
