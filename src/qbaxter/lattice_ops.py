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
from .qoscillator import q_powers, validate_cutoff


def _fock_bands(b00, b01, b10, b11) -> np.ndarray:
    """Level bands (tc.from_bands) of a charge-conserving operator on W (x) V
    from its four W-blocks, each one level band of J entries listed from the top,
    or of a stack of such operators along the leading axes the bands broadcast to.

    b00 and b11 are the diagonals of their blocks, b01 the sub-diagonal of the
    (v^0, v^1) block (row level one above the column level) and b10 the
    super-diagonal of the (v^1, v^0) block; the last entry of each of these two
    falls outside the truncation.
    """
    shape = np.broadcast_shapes(*map(np.shape, (b00, b01, b10, b11)))
    out = np.zeros(shape[:-1] + (2, 2, shape[-1]), dtype=complex)
    out[..., 0, 0, :], out[..., 1, 1, :] = b00, b11
    out[..., 0, 1, :-1] = b01[..., :-1]
    out[..., 1, 0, 1:] = b10[..., :-1]
    return out


def r_weights(z: complex, q: complex):
    """The three entries a, b, c of the R-matrix."""
    return 1.0 - q * q * z * z, q * (1.0 - z * z), (1.0 - q * q) * z


def r_bands(zs, q: complex) -> np.ndarray:
    """Stacked level bands of the R-matrix at each z of zs, first factor read as two levels."""
    w = np.array([(0.0, *r_weights(z, q)) for z in zs], dtype=complex).reshape(-1, 4)
    return w[:, [[[1, 2], [3, 0]], [[0, 3], [2, 1]]]]  # the entries 0, a, b, c


def r_matrix(z: complex, q: complex) -> np.ndarray:
    """Trigonometric 4x4 R-matrix in the basis (00, 01, 10, 11)."""
    return tc.from_bands(r_bands([z], q)[0])


def r_tilde(z: complex, q: complex) -> np.ndarray:
    """Crossing partner ((R^{t1})^{-1})^{t1}, via its closed form in terms of R(q^2 z)."""
    scalar = (1.0 - z * z) * (1.0 - q ** 4 * z * z) / (
        (1.0 - q * q * z * z) * (1.0 - q ** 6 * z * z))
    return np.linalg.inv(scalar * r_matrix(q * q * z, q))


def l_bands(zs, r: complex, q: complex, J: int) -> np.ndarray:
    """Level bands of the L-operator on W (x) V at each spectral parameter of
    zs, stacked; the scalar factors are Python's, one per z, as for a single z."""
    p = q_powers(q, validate_cutoff(J))
    scalars = np.array([(-(z / q), -q * z * r, z) for z in zs], dtype=complex).reshape(-1, 3, 1)
    b01, b10, z = scalars[:, 0], scalars[:, 1], scalars[:, 2]
    return _fock_bands(b00=r * p(0), b01=b01 * ((1.0 - p(2, 2)) * p(0, -1)),
                       b10=b10 * p(1), b11=(1.0 - p(2, 2) * z * z) * p(0, -1))


def l_matrix(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """L-operator on W (x) V."""
    return tc.from_bands(l_bands([z], r, q, J)[0])


def l_inverse(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Closed-form inverse of the L-operator; exact on the interior Fock band.

    Singular at z^2 = 1.
    """
    p = q_powers(q, validate_cutoff(J))
    if abs(z * z - 1.0) < 1e-12:
        raise ParameterDomainError("L-operator is not invertible at z^2 = 1")
    s = 1.0 / (1.0 - z * z)
    return tc.from_bands(_fock_bands(b00=(s / r) * ((1.0 - p(0, 2) * z * z) * p(0, -1)),
                                     b01=(s * z / (q * r)) * (p(-1, -1) * (1.0 - p(2, 2))),
                                     b10=s * q * z * p(0), b11=s * p(0)))


def l_transpose2(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Partial transpose of the L-operator over the V factor."""
    return tc.partial_transpose(l_matrix(z, r, q, J), 1, (J, 2))


def l_transpose2_inverse(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Closed-form inverse of l_transpose2, the V-transpose of l_tilde; singular
    at z^2 = q^{-2}.  It conserves level - index, not the charge."""
    return tc.partial_transpose(l_tilde(z, r, q, J), 1, (J, 2))


def l_tilde(z: complex, r: complex, q: complex, J: int) -> np.ndarray:
    """Crossing partner ((L^{t2})^{-1})^{t2} in closed form.

    Satisfies l_tilde(z, r)^{-1} = (1 - q^2 z^2)/(1 - q^4 z^2) * l_matrix(q^2 z, r)
    on the interior Fock band.
    """
    p = q_powers(q, validate_cutoff(J))
    if abs(q * q * z * z - 1.0) < 1e-12:
        raise ParameterDomainError("partial transpose of L is not invertible at q^2 z^2 = 1")
    s = 1.0 / (1.0 - q * q * z * z)
    return tc.from_bands(_fock_bands(b00=(s / r) * ((1.0 - p(4, 2) * z * z) * p(0, -1)),
                                     b01=(s * z / r) * ((1.0 - p(2, 2)) * p(0, -1)),
                                     b10=s * q * q * z * p(1), b11=s * p(0)))


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
