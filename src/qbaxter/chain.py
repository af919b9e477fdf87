"""Global objects on the N-site chain.

Double-row monodromies, the two transfer matrices, the Q-operator built from a
certified truncated Fock trace, coefficient polynomials, a diagonal-entry
recursion oracle, and the closed-chain analogues.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
import sys
import threading
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import tensor_core as tc
from .errors import (
    ExclusionPointError,
    OverflowGuardError,
    ParameterDomainError,
    TailCertificateError,
)
from .lattice_ops import kv_matrix, ktv_matrix, l_bands, l_matrix, l_row_bands, r_bands, r_matrix
from .qoscillator import LOG_HUGE, kw_diagonal, ktw_diagonal, validate_count, validate_cutoff


def _check_scalars(tol, exclusion_radius):
    """Reject a tol not finite and positive, an exclusion radius not finite and nonnegative;
    a number too large for a float is not finite."""
    for name, v, least in (("tol", tol, "positive"),
                           ("exclusion_radius", exclusion_radius, "nonnegative")):
        if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                or not abs(v) <= sys.float_info.max or v < 0.0 or v == 0.0 and least == "positive"):
            raise ParameterDomainError(f"{name} must be finite and {least}, got {v!r}")


def _finite_number(name, v) -> complex:
    """v as a complex once it is a number, not a bool, whose parts and modulus are finite
    floats; a number too large for a float is not finite."""
    if isinstance(v, bool) or not isinstance(v, numbers.Complex) or not (
            abs(v.real) <= sys.float_info.max >= abs(v.imag)
            and math.hypot(v.real, v.imag) < math.inf):
        raise ParameterDomainError(f"{name} must be a finite number, got {v!r}")
    return complex(v)


@dataclass(frozen=True)
class ChainParams:
    """Full parameter pack for one chain.

    The trace convergence condition |xi * xitilde| < |q|^(2N) is enforced at
    construction together with a preflight check that the configured Fock
    cutoff can certify the geometric tail down to tol/10.
    """

    q: complex
    xi: complex
    xitilde: complex
    n_sites: int
    t: tuple
    zeta: complex = 0.0
    cutoff: int = 40
    tol: float = 1e-9
    exclusion_radius: float = 0.05

    def __post_init__(self):
        for name in ("q", "xi", "xitilde", "zeta"):
            object.__setattr__(self, name, _finite_number(name, getattr(self, name)))
        if not 0.0 < abs(self.q) < 1.0:
            raise ParameterDomainError(f"need 0 < |q| < 1, got |q| = {abs(self.q):.4f}")
        _check_scalars(self.tol, self.exclusion_radius)
        object.__setattr__(self, "n_sites", validate_count("n_sites", self.n_sites))
        object.__setattr__(self, "cutoff", validate_cutoff(self.cutoff))
        if not np.iterable(self.t):
            raise ParameterDomainError(f"t must be a sequence of numbers, got {self.t!r}")
        t = tuple(_finite_number(f"t[{i}]", v) for i, v in enumerate(self.t))
        if len(t) != self.n_sites:
            raise ParameterDomainError(
                f"expected {self.n_sites} inhomogeneities, got {len(t)}")
        if any(v == 0 for v in t):
            raise ParameterDomainError("inhomogeneities must be nonzero")
        object.__setattr__(self, "t", t)
        if self.xi == 0 or self.xitilde == 0:
            raise ParameterDomainError("boundary parameters must be nonzero")
        rho = self.tail_ratio
        if rho >= 1.0:
            raise ParameterDomainError(
                f"|xi*xitilde| = {abs(self.xi * self.xitilde):.3e} must stay below "
                f"|q|^(2N) = {abs(self.q) ** (2 * self.n_sites):.3e} for the trace to converge")
        if rho ** self.cutoff >= self.tol / 10.0:
            raise ParameterDomainError(
                f"cutoff {self.cutoff} cannot certify tail ratio {rho:.3f} down to tol/10")

    @property
    def tail_ratio(self) -> float:
        """Geometric ratio |xi*xitilde| |q|^(-2N) governing the traced series."""
        return abs(self.xi * self.xitilde) * abs(self.q) ** (-2 * self.n_sites)

    @property
    def dim(self) -> int:
        return 2 ** self.n_sites

    def with_sites(self, n_sites: int) -> "ChainParams":
        """Derive a chain with a different site count, reusing leading inhomogeneities.

        Growing the chain tightens the convergence condition, so the boundary
        parameters are scaled to keep the tail ratio unchanged.
        """
        n_sites = validate_count("n_sites", n_sites)
        if n_sites <= len(self.t):
            t = self.t[:n_sites]
        else:
            t = self.t + tuple(1.0 + 0.25 * k / (k + 1) for k in range(n_sites - len(self.t)))
        scale = abs(self.q) ** (n_sites - self.n_sites)
        return replace(self, n_sites=n_sites, t=t, xi=self.xi * scale,
                       xitilde=self.xitilde * scale)


class _Layout(NamedTuple):
    """The S^z layout of n_sites spins (m the down count, order the states in
    down-count order), for down count 0 .. n_sites one after another."""

    down: np.ndarray          # m of each product state
    runs: tuple               # per sector: range R in order, size D, range lo .. hi in entries
    states: tuple             # per sector: its states in product order
    entries: np.ndarray       # the flat matrix entries the sector blocks fill, block by block
    cols: np.ndarray          # [c, t]: pair-layout position (tc.pair_index) of entry (t, order[c])
    pair_entries: np.ndarray  # the pair-layout positions of entries
    wsel: np.ndarray          # [r, t]: paired weight n_sites + m(order[r]) - m(t)


@functools.lru_cache(maxsize=32)
def _layout(n_sites: int) -> _Layout:
    """The S^z layout of n_sites spins, built once per n_sites as read-only arrays."""
    d, down = 2 ** n_sites, tc.index_sums((2,) * n_sites)
    order = np.argsort(down, kind="stable")
    order.setflags(write=False)  # and so every sector's states, its views
    sizes = np.bincount(down).tolist()
    ends, blocks = np.cumsum(sizes).tolist(), np.cumsum(np.square(sizes)).tolist()
    runs = tuple(zip(map(slice, [0] + ends, ends), sizes, [0] + blocks, blocks))
    states = tuple(order[R] for R, *_ in runs)
    entries = np.concatenate([(idx[:, None] * d + idx).ravel() for idx in states])
    index = tc.pair_index((2,) * n_sites)
    layout = _Layout(down, runs, states, entries, index.T[order], index.ravel()[entries],
                     n_sites + down[order][:, None] - down)
    for arr in layout:
        if isinstance(arr, np.ndarray):
            arr.setflags(write=False)
    return layout


def sample_params(n_sites: int, seed: int, cutoff: int = 40, tol: float = 1e-9,
                  exclusion_radius: float = 0.05, identity_grade: bool = False) -> ChainParams:
    """Generic parameter draw staying safely inside the convergence region.

    |q| is uniform on [0.3, 0.8] with random phase, the boundary product is
    pinned to c * |q|^(2N) with c in [0.1, 0.5], and the inhomogeneities sit on
    a mildly perturbed unit circle.  identity_grade narrows |q| to [0.5, 0.75],
    which keeps densely materialized boundary matrices in floating range for
    the operator-identity battery.  The cutoff is grown, if necessary, until
    the drawn tail ratio certifies with three decades of margin and the stop
    rule of the certified sum can stop, so sampled parameters never sit on the
    edge of the trace certificate.
    """
    n_sites, seed = validate_count("n_sites", n_sites), validate_count("seed", seed)
    cutoff = validate_cutoff(cutoff)
    _check_scalars(tol, exclusion_radius)
    rng = np.random.default_rng(seed)
    lo, hi = (0.5, 0.75) if identity_grade else (0.3, 0.8)
    qmod = lo + (hi - lo) * rng.random()
    q = qmod * cmath.exp(2j * math.pi * rng.random())
    c = 0.1 + 0.4 * rng.random()
    split = math.exp(0.6 * (rng.random() - 0.5))
    ximod = math.sqrt(c) * qmod ** n_sites * split
    xitmod = math.sqrt(c) * qmod ** n_sites / split
    if ximod == 0.0 or xitmod == 0.0:  # before the N inhomogeneities are drawn
        raise ParameterDomainError("boundary parameters must be nonzero")
    xi = ximod * cmath.exp(2j * math.pi * rng.random())
    xitilde = xitmod * cmath.exp(2j * math.pi * rng.random())
    t = tuple((1.0 + 0.2 * (rng.random() - 0.5)) * cmath.exp(2j * math.pi * rng.random())
              for _ in range(n_sites))
    zeta = 0.3 * qmod ** n_sites * cmath.exp(2j * math.pi * rng.random())
    rho = c  # |xi * xitilde| / |q|^(2N) by construction
    needed = int(math.ceil(math.log(tol / 1000.0) / math.log(rho))) + 1
    # at least the 2N + 4 levels the certified sum reads before its stop rule can stop
    cutoff = max(cutoff, needed, 2 * n_sites + 4)
    return ChainParams(q=q, xi=xi, xitilde=xitilde, n_sites=n_sites, t=t, zeta=zeta,
                       cutoff=cutoff, tol=tol, exclusion_radius=exclusion_radius)


def in_exclusion_set(z: complex, params: ChainParams) -> bool:
    """True when z is within the exclusion radius of a pole of the Fock trace.

    The poles are the left boundary diagonal's, +-q^(-k) / sqrt(xitilde), k >= 1;
    only those whose modulus |q|^(-k) / |sqrt(xitilde)| lies within the radius
    of |z| can be that close, so only they are tested (one more k on each side
    absorbs the rounding of the logarithms).
    """
    z = complex(z)
    delta = params.exclusion_radius
    q = params.q
    inv_sqrt_xit = 1.0 / cmath.sqrt(params.xitilde)
    ln_q = -math.log(abs(q))
    ln_sqrt_xit = math.log(abs(params.xitilde)) / 2.0
    k_lo = math.ceil((math.log(max(abs(z) - delta, 1e-300)) + ln_sqrt_xit) / ln_q)
    k_hi = math.floor((math.log(max(abs(z) + delta, 1e-300)) + ln_sqrt_xit) / ln_q)
    pts = [q ** (-k) * inv_sqrt_xit for k in range(max(1, k_lo - 1), k_hi + 2)]
    return any(abs(z - p) < delta or abs(z + p) < delta for p in pts)


def spin_weights(n_sites: int, top: complex, bottom: complex) -> np.ndarray:
    """Diagonal of diag(top, bottom)^(x N) in the product basis."""
    per_down = np.array([top ** (n_sites - m) * bottom ** m for m in range(n_sites + 1)],
                        dtype=complex)
    return per_down[_layout(n_sites).down]


# ---------------------------------------------------------------------------
# open-chain monodromies and transfer matrices
# ---------------------------------------------------------------------------

def _double_row(site_op, boundary, z: complex, params: ChainParams, aux: int, sites):
    """Factors of the double row: the left half row site_op(t_1 z) .. site_op(t_N z),
    boundary at aux, and the right half row site_op(z/t_N) .. site_op(z/t_1)."""
    pairs = list(zip(params.t, sites))
    left = ((site_op(t * z), aux, s) for t, s in pairs)
    right = ((site_op(z / t), aux, s) for t, s in reversed(pairs))
    return itertools.chain(left, [(boundary, aux)], right)


def monodromy_v(z: complex, params: ChainParams, shape, aux: int, sites) -> np.ndarray:
    """Double-row monodromy with the two-dimensional auxiliary space at aux,
    densely materialized on the given shape for identity checks and oracles."""
    factors = _double_row(lambda w: r_matrix(w, params.q), kv_matrix(z, params.xi),
                          z, params, aux, sites)
    return tc.ordered_product(factors, shape)


def monodromy_w(z: complex, r: complex, params: ChainParams, shape, aux: int,
                sites) -> np.ndarray:
    """Double-row monodromy with the Fock auxiliary space at aux (cutoff
    shape[aux]), densely materialized on the given shape.

    The central boundary factor grows super-exponentially in the Fock level, so
    this form is only available while its entries stay in floating range; the
    traced objects below never materialize it.
    """
    J = shape[aux]
    kw = kw_diagonal(z, r, params.xi, params.q, J)
    factors = _double_row(lambda w: l_matrix(w, r, params.q, J), kw.dense(),
                          z, params, aux, sites)
    return tc.ordered_product(factors, shape)


# Largest stack the certified sum asks for and builds rows for, in entries of d x d level terms:
# one level at N >= 8, where a Q took 26-28 ms and 48 MB (seed 0, one BLAS thread), against
# 21-23 ms and 62 MB at 2 ** 18 and 19-24 ms and 138 MB uncapped; every stack fits whole at N <= 5.
_STACK_ENTRIES = 2 ** 16
_threads = threading.local()  # .workspace: this thread's tc.Workspace


def _workspace() -> tc.Workspace:
    """This thread's workspace, shared by its row builds, level pairings and level sums."""
    return _threads.__dict__.setdefault("workspace", tc.Workspace())


def _certified_sum(levels, n_sites: int, J: int, rho_theory: float, j_min: int,
                   tol_eff: float, what: str) -> np.ndarray:
    """Sum the level terms 0 .. J - 1 until a geometric tail certificate clears
    tol_eff.

    The terms are block diagonal in the S^z sectors of n_sites spins (_layout).
    levels(j0, j1) returns levels j0 .. j1 - 1, or a nonempty leading part of
    them, as one (k, E) array for the sum to overwrite, row i the sector blocks
    of level j0 + i in the order of _layout's entries.  The first stack asked for
    holds the levels over which a geometric tail of ratio rho_theory from a unit
    level-0 term falls below tol_eff (at least j_min) and the two calm levels
    the rule needs to stop, each later one the levels the certificate's own
    estimate still needs, at most _STACK_ENTRIES entries of d x d terms.  A
    cumsum per stack adds as one level at a time.

    From level j_min on, the remainder after a level of norm s is estimated as
    s rho / (1 - rho), with rho the larger of rho_theory and the empirical
    ratio of consecutive level norms; the sum stops once that estimate clears
    tol_eff relative to the running total on two consecutive levels.  The stop
    is a heuristic, not a proof: the estimate bounds the remainder only if the
    level norms decay at least geometrically at ratio rho from j_min on.
    """
    d = 2 ** n_sites
    total = np.zeros(len(_layout(n_sites).entries), dtype=complex)
    prev_norm, calm, last_tail, scale, j0 = None, 0, math.inf, 1.0, 0
    want = max(j_min, math.ceil(math.log(tol_eff, rho_theory)) if rho_theory else 0) + 2
    while j0 < J and calm < 2:
        if j0 >= j_min and 0.0 < last_tail < math.inf:
            want += math.ceil(math.log(tol_eff * scale / last_tail) / math.log(rho))
        # row i holds the sector blocks of level j0 + i, then their running total
        run = levels(j0, min(J, j0 + max(1, min(_STACK_ENTRIES // d ** 2, want))))
        k = len(run)
        parts = run.view(np.float64)
        norms = np.sqrt(np.einsum("ij,ij->i", parts, parts))
        run[0] += total
        np.cumsum(run, axis=0, out=run)
        scales = np.maximum(1.0, np.sqrt(np.einsum("ij,ij->i", parts, parts)))
        for i, norm in enumerate(norms.tolist()):
            if j0 + i >= j_min:
                scale = float(scales[i])
                rho = max(rho_theory, norm / prev_norm) if prev_norm else rho_theory
                last_tail = norm * rho / (1.0 - rho) if rho < 1.0 else math.inf
                calm = calm + 1 if last_tail < tol_eff * scale else 0
                if calm >= 2:
                    break
            prev_norm = norm
        total[:] = run[i]
        j0 += k
        want = j_min + 2 - j0 if j0 < j_min else 2 - calm
    # a sum through the full cutoff is certified by the same geometric bound
    # applied at the top level
    if calm < 2 and not last_tail < tol_eff * scale:
        raise TailCertificateError(f"Fock cutoff {J} exhausted before the {what} cleared tol/10")
    return _from_sectors(total, n_sites)


def _from_sectors(flat, n_sites: int) -> np.ndarray:
    """The operator on n_sites spins whose S^z-sector blocks lie one after
    another in flat."""
    d = 2 ** n_sites
    out = np.zeros(d * d, dtype=complex)
    out[_layout(n_sites).entries] = flat
    return out.reshape(d, d)


def _exact_sum(levels, n_sites: int) -> np.ndarray:
    """levels(0, 2) summed whole: a two-level auxiliary trace needs no certificate."""
    return _from_sectors(levels(0, 2).sum(axis=0), n_sites)


def _half_products(row_bands, z: complex, params: ChainParams):
    """rows(j0, j1), views of the half rows until the thread's next row build, from
    row_bands(ws), the level bands of the left half row's transposed factors at the
    first N points ws and of the right half row's at the last N, one stack
    (lattice_ops.l_row_bands; r_bands, as R is its own transpose): for the left half
    row P by row level, X[j, r, t] = P[(j, r), (j + m(r) - m(t), t)] = rows[0][j - j0,
    index[t, r]] (m the down count, index = tc.pair_index((2,) * N), as _layout's
    cols reads it), built as P^T = F_N^T .. F_1^T, and for the right one
    Y[j] = rows[1][j - j0, index]."""
    ts, n = params.t[::-1], params.n_sites
    bands = row_bands([t * z for t in ts] + [z / t for t in ts])
    return tc.charge_product(bands.reshape((2, n) + bands.shape[-3:]), _workspace(), "rows")


def _open_levels(rows, n_sites: int, weights):
    """levels(j0, j1) of the double-row trace of the half rows X, Y (_half_products)
    for _certified_sum, on the thread's "run" buffer until the next call; a stack's
    rows(j0, j1) are built once w = weights(j0, j1), the paired boundary weights of
    levels j - n .. j + n, is known.  A stack puts the rows of X[j] and columns of
    Y[j] in down-count order, where sector m is one range R; its rows meet Y[j]
    through each state t at weight w[j - j0, n + m - m(t)], and sector m's block of
    level j is (x[j][R] @ y[j][R]^T)."""
    layout, d, ws = _layout(n_sites), 2 ** n_sites, _workspace()
    size = len(layout.entries)

    def levels(j0, j1):
        k = len(w := weights(j0, j1))
        left, right = rows(j0, j0 + k)
        # X's rows and Y's columns in down-count order; x times w[:, wsel], staged on y
        x, y, run = ws.take("x", (k, d, d)), ws.take("y", (k, d, d)), ws.take("run", (k, size))
        np.take(left, layout.cols, 1, x, "clip")  # unbuffered
        np.multiply(x, np.take(w, layout.wsel, 1, y, "clip"), out=x)
        np.take(right, layout.cols, 1, y, "clip")
        # sector m's slice of run is contiguous within each level, so its reshape is a view
        for R, D, lo, hi in layout.runs:
            np.matmul(x[:, R], y[:, R].transpose(0, 2, 1), out=run[:, lo:hi].reshape(k, D, D))
        return run

    return levels


@functools.lru_cache(maxsize=32)
def _window_index(size: int, n: int) -> np.ndarray:
    """Read-only, built once per (size, n): row j holds j .. j + 2n."""
    index = np.arange(size)[:, None] + np.arange(2 * n + 1)
    index.setflags(write=False)
    return index


def _windows(v, n: int, fill) -> np.ndarray:
    """Row j holds v[j - n .. j + n], with fill for the entries outside v."""
    return np.concatenate(([fill] * n, v, [fill] * n))[_window_index(len(v), n)]


def transfer_v(z: complex, params: ChainParams) -> np.ndarray:
    """Finite-auxiliary transfer matrix, entries polynomial in z^2: transfer_w on C^2."""
    z = _finite_number("z", z)
    n = params.n_sites
    kv = _windows(np.diagonal(kv_matrix(z, params.xi)), n, 0.0)
    w = np.diagonal(ktv_matrix(z, params.xitilde, params.q))[:, None] * kv
    rows = _half_products(lambda u: r_bands(u, params.q), z, params)
    return _exact_sum(_open_levels(rows, n, lambda j0, j1: w[j0:j1]), n)


def transfer_w(z: complex, params: ChainParams, cutoff=None) -> np.ndarray:
    """Fock-auxiliary transfer matrix via the overflow-safe certified trace.

    The half rows of L-factors are paired level by level with the boundary
    diagonals in log space, which keeps every materialized block bounded.  A
    stack of levels ends before the first level whose paired weight leaves
    floating range, which raises OverflowGuardError only once the sum gets there.
    """
    z = _finite_number("z", z)
    J = params.cutoff if cutoff is None else validate_cutoff(cutoff)
    n = params.n_sites
    j_min = 2 * n + 2  # the first level the tail certificate reads
    if J <= j_min:
        raise TailCertificateError(f"Fock cutoff {J} is below {j_min + 1}, the fewest levels "
                                   "the tail certificate can clear with")
    if in_exclusion_set(z, params):
        raise ExclusionPointError(
            f"z = {z:.6f} is within {params.exclusion_radius} of a trace pole")
    kw = kw_diagonal(z, 1.0, params.xi, params.q, J)
    ktw = ktw_diagonal(z, 1.0, params.xitilde, params.q, J)
    # kw levels j - n .. j + n, paired with ktw level j, are row j of the
    # windows over kw padded by n on each side
    kw_mant, kw_log = _windows(kw.mantissa, n, 0.0), _windows(kw.log_mag, n, -np.inf)

    def weights(j0, j1):
        lg = ktw.log_mag[j0:j1, None] + kw_log[j0:j1]
        huge = lg > LOG_HUGE
        fits = int(np.logical_and.accumulate(~huge.any(axis=1)).sum())
        if fits == 0:
            k = j0 - n + int(np.argmax(huge[0]))
            raise OverflowGuardError(
                f"paired boundary weight at levels ({j0}, {k}) exceeds floating range")
        j1, lg = j0 + fits, lg[:fits]
        return ktw.mantissa[j0:j1, None] * kw_mant[j0:j1] * np.exp(lg)

    rows = _half_products(lambda u: l_row_bands(u, 1.0, params.q, J), z, params)
    return _certified_sum(_open_levels(rows, n, weights), n, J, params.tail_ratio, j_min,
                          params.tol / 10.0, "tail certificate")


def q_operator(z: complex, params: ChainParams, cutoff=None) -> np.ndarray:
    """Q-operator: the spin-weighted Fock transfer matrix at r = 1."""
    w = spin_weights(params.n_sites, _finite_number("z", z) ** 2, 1.0)
    t = transfer_w(z, params, cutoff=cutoff)
    return np.multiply(w[:, None], t, out=t)


def p_plus(z: complex, params: ChainParams) -> complex:
    q, xi, xit = params.q, params.xi, params.xitilde
    z = complex(z)
    out = (1.0 - z ** 4) * (xit - q * q * z * z) * (xi - q * q * z * z)
    for tn in params.t:
        out *= (1.0 - tn * tn * z * z) * (1.0 - z * z / (tn * tn))
    return out


def p_minus(z: complex, params: ChainParams) -> complex:
    q, xi, xit = params.q, params.xi, params.xitilde
    z = complex(z)
    out = q ** (2 * params.n_sites) * (1.0 - q ** 4 * z ** 4) \
        * (1.0 - xit * z * z) * (1.0 - xi * z * z)
    for tn in params.t:
        out *= (1.0 - q * q * tn * tn * z * z) * (1.0 - q * q * z * z / (tn * tn))
    return out


# ---------------------------------------------------------------------------
# diagonal-entry recursion oracle
# ---------------------------------------------------------------------------

def tw_diagonal_recursion(alpha, params: ChainParams) -> np.ndarray:
    """Diagonal Fock-transfer entry at the given site pattern, as ascending
    polynomial coefficients in Z = z^2.

    Peels sites off the front of the chain: a raised site leaves the left
    boundary shift unchanged up to q^2, a lowered site mixes the q^(-2)-shifted
    and unshifted entries with polynomial coefficients.  The recursion is pure
    polynomial algebra, so no convergence condition is needed along the way.
    """
    alpha = tuple(alpha)
    if len(alpha) != params.n_sites or any(b not in (0, 1) for b in alpha):
        raise ParameterDomainError("alpha must be a 0/1 pattern of length n_sites")
    q, xi = params.q, params.xi

    def rec(bits, ts, xit) -> np.ndarray:
        if not bits:
            return np.array([1.0 / (1.0 - xi * xit)], dtype=complex)
        head, rest_bits = bits[0], bits[1:]
        u = ts[0]
        if head == 0:
            return rec(rest_bits, ts[1:], q * q * xit)
        p_shift = rec(rest_bits, ts[1:], xit / (q * q))
        p_same = rec(rest_bits, ts[1:], xit)
        # coefficient (1 - q^2 Z / xit)(1 - xit Z) on the shifted entry
        quad = np.array([1.0, -(xit + q * q / xit), q * q], dtype=complex)
        s = (xit * u - 1.0 / u) * (u / xit - 1.0 / u)
        lin = np.array([0.0, -q * q * s], dtype=complex)
        out = np.convolve(quad, p_shift)
        out[:-1] += np.convolve(lin, p_same)  # p_shift and p_same have one length
        return out

    return rec(alpha, params.t, params.xitilde)


# ---------------------------------------------------------------------------
# closed chain
# ---------------------------------------------------------------------------

def _require_twist(params: ChainParams) -> complex:
    zeta = params.zeta
    bound = abs(params.q) ** params.n_sites
    if zeta == 0 or abs(zeta) >= bound:
        raise ParameterDomainError(
            f"closed-chain twist needs 0 < |zeta| < |q|^N = {bound:.3e}, got |zeta| = {abs(zeta):.3e}")
    return zeta


def _closed_levels(site_bands, z: complex, params: ChainParams):
    """levels(j0, j1) of the twisted trace of the single row for _certified_sum,
    from the stacked level bands site_bands(ws) at the points ws, on the thread's
    "run" buffer: zeta^j times charge block j between equal down counts (row
    level j), in the order of _layout's entries, built for that stack only."""
    blocks = tc.charge_product(site_bands([z / t for t in params.t[::-1]]), _workspace(), "rows")
    entries = _layout(params.n_sites).pair_entries

    def levels(j0, j1):
        # Python's power: numpy's zeta ** np.arange(J) rounds differently
        weights = np.array([params.zeta ** j for j in range(j0, j1)])[:, None]
        run = _workspace().take("run", (j1 - j0, len(entries)))
        np.multiply(weights, np.take(blocks(j0, j1), entries, 1, run, "clip"), out=run)
        return run

    return levels


def closed_transfer_v(z: complex, params: ChainParams) -> np.ndarray:
    """Twisted trace of the single-row monodromy over the two-dimensional auxiliary."""
    z = _finite_number("z", z)
    _require_twist(params)
    return _exact_sum(_closed_levels(lambda w: r_bands(w, params.q), z, params), params.n_sites)


def closed_transfer_w(z: complex, params: ChainParams, cutoff=None) -> np.ndarray:
    """Twisted Fock trace of the single-row monodromy, with tail certificate."""
    z = _finite_number("z", z)
    zeta = _require_twist(params)
    J = params.cutoff if cutoff is None else validate_cutoff(cutoff)
    n = params.n_sites
    j_min = n + 2  # the first level the tail certificate reads
    if J <= j_min:
        raise TailCertificateError(f"Fock cutoff {J} is below {j_min + 1}, the fewest levels "
                                   "the closed-trace tail certificate can clear with")
    rho_theory = abs(zeta) * abs(params.q) ** (-n)
    tol_eff = params.tol / 10.0
    if rho_theory ** J >= tol_eff:
        raise TailCertificateError(
            f"cutoff {J} cannot certify the closed-trace tail ratio {rho_theory:.3f} down to tol/10")
    return _certified_sum(_closed_levels(lambda w: l_bands(w, 1.0, params.q, J), z, params),
                          n, J, rho_theory, j_min, tol_eff, "closed-trace tail certificate")


def closed_q(z: complex, params: ChainParams, cutoff=None) -> np.ndarray:
    """Closed-chain Q-operator; entries polynomial in z of degree <= 2N."""
    w = spin_weights(params.n_sites, _finite_number("z", z), 1.0)
    t = closed_transfer_w(z, params, cutoff=cutoff)
    return np.multiply(w[:, None], t, out=t)


def closed_p_plus(z: complex, params: ChainParams) -> complex:
    zeta = _require_twist(params)
    out = zeta
    for tn in params.t:
        out *= 1.0 - complex(z) ** 2 / (tn * tn)
    return out


def closed_p_minus(z: complex, params: ChainParams) -> complex:
    q = params.q
    out = q ** params.n_sites
    for tn in params.t:
        out *= 1.0 - q * q * complex(z) ** 2 / (tn * tn)
    return out
