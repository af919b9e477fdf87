"""Truncated q-deformed oscillator: ladder operators, q-series helpers, and the
infinite-dimensional boundary matrices with overflow-safe exponent bookkeeping.

The Fock space keeps the states w^0 .. w^{J-1}.  The raising operator maps the
top state to zero, so every operator is total; accuracy of traced quantities is
governed by tail certificates, not by the boundary row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ExclusionPointError, OverflowGuardError

# exp() of anything above this leaves double range
_LOG_HUGE = 700.0


def validate_cutoff(J: int) -> int:
    J = int(J)
    if J < 2:
        raise ValueError(f"Fock cutoff must be >= 2, got {J}")
    return J


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


def pochhammer(x: complex, j, q: complex) -> complex:
    """q^2-shifted factorial (x)_j = prod_{i=0}^{j-1} (1 - q^{2i} x).

    Negative j uses the reciprocal branch prod_{i=1}^{-j} (1 - q^{-2i} x)^{-1};
    j = math.inf evaluates the convergent infinite product (requires |q| < 1).
    """
    x = complex(x)
    q = complex(q)
    if j == math.inf:
        if not abs(q) < 1:
            raise ValueError("infinite product needs |q| < 1")
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
        raise ValueError("phi21 needs |q| < 1")
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


@dataclass(frozen=True)
class FockDiagonal:
    """Diagonal Fock operator stored as unit-modulus mantissas and natural-log magnitudes.

    Entry j is mantissa[j] * exp(log_mag[j]).  Keeping the magnitude in log form
    lets super-exponentially growing and decaying boundary matrices be paired
    without ever materializing out-of-range floats.
    """

    mantissa: np.ndarray
    log_mag: np.ndarray

    def __post_init__(self):
        if self.mantissa.shape != self.log_mag.shape or self.mantissa.ndim != 1:
            raise ValueError("mantissa and log_mag must be 1-d arrays of equal length")

    def diagonal(self) -> np.ndarray:
        if np.max(self.log_mag) > _LOG_HUGE:
            j = int(np.argmax(self.log_mag))
            raise OverflowGuardError(
                f"diagonal entry {j} has log-magnitude {self.log_mag[j]:.1f}, beyond double range")
        return self.mantissa * np.exp(self.log_mag)

    def dense(self) -> np.ndarray:
        return np.diag(self.diagonal())


def _accumulate_diagonal(factors) -> FockDiagonal:
    """Running product of per-level factors, renormalized into (mantissa, log) form."""
    mant = []
    logs = []
    m = 1.0 + 0.0j
    s = 0.0
    for fac in factors:
        mag = abs(fac)
        if mag == 0.0:
            m, s = 0.0 + 0.0j, 0.0
        elif m == 0.0:
            pass  # once a level vanishes, everything above it stays zero
        else:
            m *= fac / mag
            s += math.log(mag)
        mant.append(m)
        logs.append(s)
    return FockDiagonal(np.array(mant, dtype=complex), np.array(logs, dtype=float))


def kw_diagonal(z: complex, r: complex, xi: complex, q: complex, J: int) -> FockDiagonal:
    """Right boundary matrix on the Fock space.

    Diagonal entries (q/r)^j prod_{i=1..j} (z^2 - q^{-2i} xi); normalized so the
    level-0 entry is 1.  Entries grow like |q|^{-j^2}, hence the log bookkeeping.
    """
    J = validate_cutoff(J)

    def factors():
        yield 1.0 + 0.0j
        for j in range(1, J):
            yield (q / r) * (z * z - q ** (-2 * j) * xi)

    return _accumulate_diagonal(factors())


def ktw_diagonal(z: complex, r: complex, xitilde: complex, q: complex, J: int) -> FockDiagonal:
    """Left boundary matrix on the Fock space.

    Diagonal entries q^{j^2} r^j (-xitilde)^j / prod_{i=0..j} (1 - q^{2i} q^2 xitilde z^2).
    Raises if z^2 sits on one of the poles q^{-2k} / xitilde, k >= 1.
    """
    J = validate_cutoff(J)

    def factors():
        den0 = 1.0 - q * q * xitilde * z * z
        _check_pole(den0, 1)
        yield 1.0 / den0
        for j in range(1, J):
            den = 1.0 - q ** (2 * (j + 1)) * xitilde * z * z
            _check_pole(den, j + 1)
            yield q ** (2 * j - 1) * r * (-xitilde) / den

    def _check_pole(den, k):
        if abs(den) < 1e-13 * (1.0 + abs(q ** (2 * k) * xitilde * z * z)):
            raise ExclusionPointError(
                f"z^2 within roundoff of the pole q^(-2{k}) / xitilde of the left boundary matrix")

    return _accumulate_diagonal(factors())
