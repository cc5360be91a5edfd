"""Two-qubit Werner states, Bloch-vector measurements, and joint outcome tables.

Conventions used throughout the package:

* computational basis = sigma_z eigenbasis,
* the maximally entangled reference state is the singlet (|01> - |10>)/sqrt(2),
* measurement outcomes are labelled +1 / -1 and a projective qubit measurement
  along unit vector ``u`` has effects (1 +/- u.sigma)/2.

With these choices the singlet correlation law is
``<u.sigma (x) v.sigma> = -u.v``, which fixes every closed form downstream.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

ATOL = 1e-12
EIG_ATOL = 1e-10  # most negative eigenvalue a density matrix may have
_INF = math.inf

OUTCOMES = (1, -1)

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

X_AXIS = np.array([1.0, 0.0, 0.0])
Y_AXIS = np.array([0.0, 1.0, 0.0])
Z_AXIS = np.array([0.0, 0.0, 1.0])

#: Singlet state vector (|01> - |10>)/sqrt(2) in the computational basis.
SINGLET_KET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


def as_array(name: str, value, dtype=float) -> np.ndarray:
    """``value`` as a ``dtype`` array; ValueError for an int past float range, as numpy refuses."""
    try:
        return np.asarray(value, dtype=dtype)
    except OverflowError:
        raise ValueError(f"{name} has an entry past float range") from None


def as_unit_vector(v) -> np.ndarray:
    """Return ``v`` as a float array, rejecting non-unit-norm vectors."""
    vec = as_array("measurement direction", v)
    if vec.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {vec.shape}")
    norm = math.hypot(*vec)  # scaled: a huge finite vector does not overflow
    if not abs(norm - 1.0) <= ATOL:  # NaN-safe
        raise ValueError(f"measurement direction must be unit norm, got |v| = {norm}")
    return vec


def _shown(value) -> str:
    """``repr(value)`` for a message; an int past Python's int-to-string limit by its bit length."""
    try:
        return repr(value)
    except ValueError:  # also a Fraction holding such an int
        return f"a number of {int(value).bit_length()} bits"


def as_int(name: str, value, lo, hi) -> int:
    """``value`` as an int in [lo, hi], hi may be inf; ValueError for a bool, a non-int or outside."""
    if type(value) is not int:  # numpy ints pass; an int skips the type test on hot paths
        try:
            if isinstance(value, bool):
                raise TypeError
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {_shown(value)}") from None
    if not lo <= value <= hi:
        raise ValueError(f"{name} must lie in [{lo}, {hi}], got {_shown(value)}")
    return value


def as_real(name: str, value, lo: float, hi: float) -> float:
    """``value`` as a finite float in [lo, hi]; ValueError for a non-real, NaN, +-inf or outside.

    Ints, floats, numpy scalars and Fractions pass; bools, None, strings, complex numbers and
    arrays do not.  A number past float range reads as +-inf.  An infinite end prints as open.
    Pass float ends: a float compares with an int more slowly.
    """
    if type(value) is not float:  # a float skips the type test on hot paths
        if type(value) is not int and (isinstance(value, bool)
                                       or not isinstance(value, numbers.Real)):
            raise ValueError(f"{name} must be a real number, got {_shown(value)}")
        try:
            value = float(value)
        except OverflowError:  # an int or Fraction past 1.8e308
            value = math.inf if value > 0 else -math.inf
    if not (lo <= value <= hi and value - value == 0.0):  # inf - inf and NaN are NaN
        low, high = (repr(float(end)).removesuffix(".0") for end in (lo, hi))  # 1.0 prints as 1
        interval = f"{'(' if lo == -_INF else '['}{low}, {high}{')' if hi == _INF else ']'}"
        raise ValueError(f"{name} must lie in {interval}, got {value}")
    return value


def as_visibility(mu) -> float:
    """``mu`` as a float; ValueError unless it lies in [0, 1]."""
    return as_real("mixing probability", mu, 0.0, 1.0)


def as_settings_count(m) -> int:
    """``m`` as an int; ValueError unless it is 2 or 3."""
    return as_int("settings count", m, 2, 3)


def as_angles(alpha_deg, phi_deg) -> tuple[float, float]:
    """The misalignment angles in degrees as floats; ValueError unless both are finite."""
    return (as_real("misalignment angle alpha", alpha_deg, -_INF, _INF),
            as_real("misalignment angle phi", phi_deg, -_INF, _INF))


def as_list(name: str, values) -> list:
    """``values`` as a list; ValueError for a string or a bare number, which are not lists."""
    if not isinstance(values, (str, bytes)):
        try:
            return list(values)
        except TypeError:
            pass
    raise ValueError(f"{name} must be a list of numbers, got {_shown(values)}")


def dot(x, y) -> np.ndarray:
    """u.v over the last axis of ``(..., 3)`` arrays, each rounded as ``np.dot`` rounds it."""
    return np.matmul(x[..., None, :], y[..., :, None])[..., 0, 0]


def werner_state(mu: float) -> np.ndarray:
    """Return the 4x4 density matrix mu |psi_s><psi_s| + (1 - mu)/4 I."""
    mu = as_visibility(mu)
    singlet = np.outer(SINGLET_KET, SINGLET_KET.conj())
    return mu * singlet + (1.0 - mu) / 4.0 * np.eye(4, dtype=complex)


def validate_density_matrix(rho) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity of a 4x4 density matrix."""
    mat = as_array("density matrix", rho, complex)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    if not np.allclose(mat, mat.conj().T, atol=ATOL, rtol=0.0):
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(mat).real - 1.0) > ATOL:
        raise ValueError(f"density matrix trace is {np.trace(mat).real}, expected 1")
    eigs = np.linalg.eigvalsh(mat)
    if eigs.min() < -EIG_ATOL:
        raise ValueError(f"density matrix has negative eigenvalue {eigs.min()}")
    return mat


def bloch_projector(u, outcome: int) -> np.ndarray:
    """Projector (1 + outcome * u.sigma)/2 onto the ``outcome`` eigenspace."""
    vec = as_unit_vector(u)
    if outcome not in OUTCOMES:
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    u_dot_sigma = sum(c * p for c, p in zip(vec, PAULIS))
    return 0.5 * (np.eye(2, dtype=complex) + outcome * u_dot_sigma)


@dataclass(frozen=True)
class JointTable:
    """2x2 joint outcome probabilities p(a, b) for one measurement setting.

    Row index 0/1 is Alice's outcome +1/-1, column index likewise for Bob.
    ``probs`` is checked on construction and read-only; read it as an array,
    e.g. ``probs.sum(axis=1)`` for Alice's marginal or ``correlation(probs)``.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = as_array("joint table", self.probs)
        if probs.shape != (2, 2):
            raise ValueError(f"joint table must be 2x2, got shape {probs.shape}")
        # negated comparisons: a NaN entry fails them
        if not (probs.min() >= -ATOL and probs.max() <= 1.0 + ATOL):
            raise ValueError(f"joint table entries must lie in [0, 1], got {probs}")
        if not abs(probs.sum() - 1.0) <= ATOL:
            raise ValueError(f"joint table entries sum to {probs.sum()}, expected 1")
        probs = np.clip(probs, 0.0, 1.0)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def correlation(probs) -> np.ndarray:
    """<a b> of ``(..., 2, 2)`` tables, summed over the cells in row-major order."""
    return ((probs[..., 0, 0] - probs[..., 0, 1]) - probs[..., 1, 0]) + probs[..., 1, 1]


def joint_table_trace(rho, a_vec, b_vec) -> JointTable:
    """Joint table via the Born rule, p(a, b) = tr[(P_a (x) P_b) rho]."""
    mat = validate_density_matrix(rho)
    probs = np.empty((2, 2))
    for i, a in enumerate(OUTCOMES):
        proj_a = bloch_projector(a_vec, a)
        for j, b in enumerate(OUTCOMES):
            proj_b = bloch_projector(b_vec, b)
            probs[i, j] = np.real(np.trace(np.kron(proj_a, proj_b) @ mat))
    return JointTable(probs)


def werner_probs(mu, alice, bob) -> np.ndarray:
    """Werner tables (1 - a b mu u.v)/4 of ``(..., 3)`` directions, clipped as JointTable clips."""
    products = np.array([[1.0, -1.0], [-1.0, 1.0]])  # a b, laid out as a table
    overlaps = mu * dot(alice, bob)
    return np.clip((1.0 - products * overlaps[..., None, None]) / 4.0, 0.0, 1.0)


def joint_table_closed(mu: float, a_vec, b_vec) -> JointTable:
    """Werner-state joint table in closed form, p(a, b) = (1 - a b mu u.v)/4."""
    return JointTable(werner_probs(as_visibility(mu), as_unit_vector(a_vec), as_unit_vector(b_vec)))


def mub_settings(m: int, alpha_deg: float = 0.0, phi_deg: float = 0.0):
    """Mutually orthogonal measurement directions with Alice misaligned.

    Bob's directions are fixed: (z, x) for ``m=2`` and (z, y, x) for ``m=3``.
    Alice's plane is rotated in-plane by ``alpha_deg`` and tilted by
    ``phi_deg`` (her in-plane x axis is rotated towards y, x' = cos(phi) x +
    sin(phi) y).  Pairing order matches Bob's, producing the diagonal overlap
    pattern (cos(alpha), [cos(phi)], cos(phi) cos(alpha)).

    Returns ``(alice, bob)``, each a tuple of unit vectors.
    """
    as_settings_count(m)
    alpha_deg, phi_deg = as_angles(alpha_deg, phi_deg)
    alpha = np.radians(alpha_deg)
    phi = np.radians(phi_deg)
    x_tilted = np.cos(phi) * X_AXIS + np.sin(phi) * Y_AXIS
    a_first = np.cos(alpha) * Z_AXIS + np.sin(alpha) * x_tilted
    a_last = -np.sin(alpha) * Z_AXIS + np.cos(alpha) * x_tilted
    if m == 2:
        return (a_first, a_last), (Z_AXIS.copy(), X_AXIS.copy())
    a_mid = np.cos(phi) * Y_AXIS - np.sin(phi) * X_AXIS
    return (a_first, a_mid, a_last), (Z_AXIS.copy(), Y_AXIS.copy(), X_AXIS.copy())


def nom_settings(m: int):
    """Fixed non-orthogonal directions for Alice, orthogonal ones for Bob.

    Alice's directions are u1 = (0, 0, 1), u2 = (sqrt(3)/2, 0, 1/2) and, for
    ``m=3``, u3 = (1/(2 sqrt(3)), sqrt(2/3), 1/2); pairwise overlaps are all
    1/2.  Bob measures along the coordinate axes.  The pairing order is chosen
    so that each of Alice's directions is tested against the Bob axis it is
    most correlated with, giving per-setting overlaps
    (1, sqrt(3)/2) for ``m=2`` and (1, sqrt(3)/2, sqrt(2/3)) for ``m=3``.
    """
    as_settings_count(m)
    u1 = np.array([0.0, 0.0, 1.0])
    u2 = np.array([np.sqrt(3.0) / 2.0, 0.0, 0.5])
    u3 = np.array([1.0 / (2.0 * np.sqrt(3.0)), np.sqrt(2.0 / 3.0), 0.5])
    if m == 2:
        return (u1, u2), (Z_AXIS.copy(), X_AXIS.copy())
    return (u1, u2, u3), (Z_AXIS.copy(), X_AXIS.copy(), Y_AXIS.copy())
