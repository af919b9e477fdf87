"""Site-local operators of the open chain.

Everything here acts on the two-dimensional site space V, the truncated Fock
space W, or a product of the two.  Operators on W (x) V keep W as the slow
(first) factor; the 2x2 block structure over V is assembled explicitly so the
displayed closed forms transcribe directly.
"""

from __future__ import annotations

import numpy as np

from . import tensor_core as tc
from .errors import ParameterDomainError
from .qoscillator import (  # kw_diagonal and ktw_diagonal are re-exported
    kw_diagonal,
    ktw_diagonal,
    osc_a,
    osc_adag,
    osc_fd,
    q_power_d,
    validate_cutoff,
)


def _wv_blocks(b00, b01, b10, b11) -> np.ndarray:
    """Assemble an operator on W (x) V from its four W-valued blocks."""
    J = b00.shape[0]
    out = np.zeros((J, 2, J, 2), dtype=complex)
    out[:, 0, :, 0] = b00
    out[:, 0, :, 1] = b01
    out[:, 1, :, 0] = b10
    out[:, 1, :, 1] = b11
    return out.reshape(2 * J, 2 * J)


def r_matrix(z: complex, q: complex) -> np.ndarray:
    """Trigonometric 4x4 R-matrix in the basis (00, 01, 10, 11)."""
    a = 1.0 - q * q * z * z
    b = q * (1.0 - z * z)
    c = (1.0 - q * q) * z
    return np.array(
        [
            [a, 0, 0, 0],
            [0, b, c, 0],
            [0, c, b, 0],
            [0, 0, 0, a],
        ],
        dtype=complex,
    )


def r_tilde(z: complex, q: complex) -> np.ndarray:
    """Crossing partner ((R^{t1})^{-1})^{t1}, via its closed form in terms of R(q^2 z)."""
    scalar = (1.0 - z * z) * (1.0 - q ** 4 * z * z) / (
        (1.0 - q * q * z * z) * (1.0 - q ** 6 * z * z))
    return np.linalg.inv(scalar * r_matrix(q * q * z, q))


def _ladder(q: complex, J: int):
    """The truncated a, adag, q^D and q^(-D) shared by the L-variants."""
    return osc_a(J), osc_adag(q, J), q_power_d(q, J, 1), q_power_d(q, J, -1)


def l_matrix(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """L-operator on W (x) V."""
    a, adag, qd, qmd = _ladder(q, J)
    b00 = r * qd
    b01 = -(z / q) * (adag @ qmd)
    b10 = -q * z * r * (a @ qd)
    b11 = osc_fd(lambda j: (1.0 - q ** (2 * (j + 1)) * z * z) * q ** (-j), J)
    return _wv_blocks(b00, b01, b10, b11)


def l_inverse(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Closed-form inverse of the L-operator; exact on the interior Fock band.

    Singular at z^2 = 1.
    """
    a, adag, qd, qmd = _ladder(q, J)
    if abs(z * z - 1.0) < 1e-12:
        raise ParameterDomainError("L-operator is not invertible at z^2 = 1")
    s = 1.0 / (1.0 - z * z)
    b00 = (s / r) * osc_fd(lambda j: (1.0 - q ** (2 * j) * z * z) * q ** (-j), J)
    b01 = (s * z / (q * r)) * (qmd @ adag)
    b10 = s * q * z * (qd @ a)
    b11 = s * qd
    return _wv_blocks(b00, b01, b10, b11)


def l_transpose2(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Partial transpose of the L-operator over the V factor."""
    return tc.partial_transpose(l_matrix(z, r, q, J), 1, (J, 2))


def l_transpose2_inverse(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Closed-form inverse of l_transpose2; singular at z^2 = q^{-2}."""
    a, adag, qd, qmd = _ladder(q, J)
    if abs(q * q * z * z - 1.0) < 1e-12:
        raise ParameterDomainError("partial transpose of L is not invertible at q^2 z^2 = 1")
    s = 1.0 / (1.0 - q * q * z * z)
    b00 = (s / r) * osc_fd(lambda j: (1.0 - q ** (2 * (j + 2)) * z * z) * q ** (-j), J)
    b01 = s * q * q * z * (a @ qd)
    b10 = (s * z / r) * (adag @ qmd)
    b11 = s * qd
    return _wv_blocks(b00, b01, b10, b11)


def l_tilde(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Crossing partner ((L^{t2})^{-1})^{t2}: the V-transpose of l_transpose2_inverse.

    Satisfies l_tilde(z, r)^{-1} = (1 - q^2 z^2)/(1 - q^4 z^2) * l_matrix(q^2 z, r)
    on the interior Fock band.
    """
    return tc.partial_transpose(l_transpose2_inverse(z, r, q, J), 1, (J, 2))


def kv_matrix(z: complex, xi: complex) -> np.ndarray:
    """Right boundary matrix on V: diag(xi z^2 - 1, xi - z^2)."""
    return np.diag(np.array([xi * z * z - 1.0, xi - z * z], dtype=complex))


def ktv_matrix(z: complex, xitilde: complex, q: complex) -> np.ndarray:
    """Left boundary matrix on V: diag(q^2 xitilde z^2 - 1, xitilde - q^2 z^2)."""
    return np.diag(np.array(
        [q * q * xitilde * z * z - 1.0, xitilde - q * q * z * z], dtype=complex))


def iota(r: complex, q: complex, J: int) -> np.ndarray:
    """Fusion intertwiner W -> W (x) V.

    iota(w^j) = (q^{-j-1} - q^{j+1}) w^{j+1} (x) v^0 + q^{j+1} r w^j (x) v^1,
    with the w^J component dropped by the truncation.
    """
    J = validate_cutoff(J)
    out = np.zeros((J, 2, J), dtype=complex)
    for j in range(J):
        if j + 1 < J:
            out[j + 1, 0, j] = q ** (-j - 1) - q ** (j + 1)
        out[j, 1, j] = q ** (j + 1) * r
    return out.reshape(2 * J, J)


def tau(r: complex, q: complex, J: int) -> np.ndarray:
    """Fusion intertwiner W (x) V -> W.

    tau(w^j (x) v^0) = q^j w^j and tau(w^j (x) v^1) = (q^{j+1} - q^{-j-1}) r^{-1} w^{j+1}.
    """
    J = validate_cutoff(J)
    out = np.zeros((J, J, 2), dtype=complex)
    for j in range(J):
        out[j, j, 0] = q ** j
        if j + 1 < J:
            out[j + 1, j, 1] = (q ** (j + 1) - q ** (-j - 1)) / r
    return out.reshape(J, 2 * J)


def tau_section(q: complex, J: int) -> np.ndarray:
    """Right inverse of tau: w^j -> q^{-j} w^j (x) v^0."""
    J = validate_cutoff(J)
    out = np.zeros((J, 2, J), dtype=complex)
    for j in range(J):
        out[j, 0, j] = q ** (-j)
    return out.reshape(2 * J, J)


def iota_retraction(r: complex, q: complex, J: int) -> np.ndarray:
    """Left inverse of iota vanishing on the image of tau_section.

    Solved column by column from the two defining conditions: annihilating the
    image of tau_section forces the v^0 columns to zero, after which the left
    inverse condition pins each v^1 column to q^{-j-1} r^{-1} w^j.
    """
    J = validate_cutoff(J)
    out = np.zeros((J, J, 2), dtype=complex)
    for j in range(J):
        pivot = q ** (j + 1) * r
        if abs(pivot) < 1e-280:
            raise ParameterDomainError(f"retraction pivot underflows at Fock level {j}")
        out[j, j, 1] = 1.0 / pivot
    return out.reshape(J, 2 * J)
