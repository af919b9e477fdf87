"""Truncated q-deformed oscillator: the infinite-dimensional boundary matrices
with overflow-safe exponent bookkeeping.

The Fock space keeps the states w^0 .. w^{J-1}.  The raising operator maps the
top state to zero, so every operator is total; accuracy of traced quantities is
governed by tail certificates, not by the boundary row.
"""

from __future__ import annotations

import functools
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ExclusionPointError, OverflowGuardError, ParameterDomainError

# exp() of anything above this leaves double range
LOG_HUGE = 700.0


def validate_count(name: str, value, least: int = 0) -> int:
    """value as an int, once it is an integer (numpy's too, not a bool) no smaller than
    least and small enough for a float, which every count here meets in float arithmetic."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ParameterDomainError(f"{name} must be an integer >= {least}, got {value!r}")
    if value > sys.float_info.max:
        raise ParameterDomainError(f"{name} is too large for a float")
    return int(value)


def validate_cutoff(J: int) -> int:
    """The Fock cutoff J as an int: a count of at least 2 levels."""
    return validate_count("cutoff", J, 2)


@functools.lru_cache(maxsize=16, typed=True)
def q_powers(q: complex, J: int):
    """The run p(a, b, n=J, *scales) = [q ** (a + b j) for j in range(n)] times each
    of scales in turn, for exponents -2J .. 2J + 2: read-only, built once per arguments
    from a per-(q, J) table of Python's q ** k, as are the boundary diagonals' factors.

    The level bands and boundary diagonals are pinned to Python's power, which
    rounds differently from numpy's.  A power outside floating range raises
    OverflowGuardError.
    """
    try:
        table = np.array([q ** k for k in range(-2 * J, 2 * J + 3)], dtype=complex)
    except OverflowError:
        raise OverflowGuardError(f"q ** {-2 * J} leaves floating range at cutoff {J}") from None
    table.setflags(write=False)

    @functools.lru_cache(maxsize=64, typed=True)
    def run(a, b=1, n=J, *scales):
        out = functools.reduce(np.multiply, scales, table[2 * J + a::b][:n])
        out.setflags(write=False)
        return out

    return run


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
        if np.max(self.log_mag) > LOG_HUGE:
            j = int(np.argmax(self.log_mag))
            raise OverflowGuardError(
                f"diagonal entry {j} has log-magnitude {self.log_mag[j]:.1f}, beyond double range")
        return self.mantissa * np.exp(self.log_mag)

    def dense(self) -> np.ndarray:
        return np.diag(self.diagonal())


def _accumulate_diagonal(factors: np.ndarray) -> FockDiagonal:
    """Running product of per-level factors, renormalized into (mantissa, log) form;
    from the first vanishing factor on, every level is zero (mantissa 0, log 0)."""
    mag = np.abs(factors)
    live = mag.size if np.count_nonzero(mag) == mag.size else int((mag == 0.0).argmax())
    mant = np.zeros(mag.size, dtype=complex)
    logs = np.zeros(mag.size)
    np.multiply.accumulate(factors[:live] / mag[:live], out=mant[:live])
    np.add.accumulate(np.log(mag[:live]), out=logs[:live])
    return FockDiagonal(mant, logs)


def kw_diagonal(z: complex, r: complex, xi: complex, q: complex, J: int) -> FockDiagonal:
    """Right boundary matrix on the Fock space.

    Diagonal entries (q/r)^j prod_{i=1..j} (z^2 - q^{-2i} xi); normalized so the
    level-0 entry is 1.  Entries grow like |q|^{-j^2}, hence the log bookkeeping.
    """
    J = validate_cutoff(J)
    steps = (q / r) * (z * z - q_powers(q, J)(-2, -2, J - 1, xi))
    return _accumulate_diagonal(np.concatenate(([1.0], steps)))


def ktw_diagonal(z: complex, r: complex, xitilde: complex, q: complex, J: int) -> FockDiagonal:
    """Left boundary matrix on the Fock space.

    Diagonal entries q^{j^2} r^j (-xitilde)^j / prod_{i=0..j} (1 - q^{2i} q^2 xitilde z^2).
    Raises if z^2 sits on one of the poles q^{-2k} / xitilde, k >= 1.
    """
    J = validate_cutoff(J)
    p = q_powers(q, J)
    pole = p(2, 2, J, xitilde) * z * z
    den = 1.0 - pole
    near = np.abs(den) < 1e-13 * (1.0 + np.abs(pole))
    if near.any():
        k = int(np.argmax(near)) + 1
        raise ExclusionPointError(
            f"z^2 within roundoff of the pole q^({-2 * k}) / xitilde of the left boundary matrix")
    factors = np.concatenate(([1.0], p(1, 2, J - 1, r, -xitilde)))
    return _accumulate_diagonal(factors / den)
