"""Defect measures, dephasing, equivalence transforms, and fingerprints.

Matrices are plain complex numpy arrays; every function returns a fresh
array and never mutates its input. A matrix is Hadamard (at tolerance t)
when every entry has modulus 1 within t and H^dagger H / n is the identity
within t.
"""

from dataclasses import FrozenInstanceError, dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NearZeroEntry, NotHadamard

DEFAULT_TOL = 1e-10
FINGERPRINT_PRECISION = 8
# fingerprint and its consumers only need the input to be roughly Hadamard
FINGERPRINT_HADAMARD_TOL = 1e-8


def as_matrix(m):
    """Coerce to a square complex array (copying, never aliasing)."""
    out = np.array(m, dtype=complex)
    if out.ndim != 2 or out.shape[0] != out.shape[1] or out.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {out.shape}")
    return out


def modulus_defect(m):
    """max_ij | |m_ij| - 1 |"""
    m = as_matrix(m)
    return float(np.abs(np.abs(m) - 1.0).max())


def unitarity_defect(m):
    """max entrywise deviation of H^dagger H / n from the identity."""
    m = as_matrix(m)
    n = m.shape[0]
    return float(np.abs(m.conj().T @ m / n - np.eye(n)).max())


def is_hadamard(m, tol=DEFAULT_TOL):
    if not 0 < tol < np.inf:
        raise ValueError("tol must be a finite positive number")
    return modulus_defect(m) <= tol and unitarity_defect(m) <= tol


def dagger(m):
    return as_matrix(m).conj().T


def transpose(m):
    return as_matrix(m).T.copy()


@dataclass(frozen=True)
class EquivalenceWitness:
    """The data (P2, D2, P1, D1) of one equivalence move.

    Applying the witness to M gives
        result[i, j] = row_phases[i] * M[row_perm[i], col_perm[j]] * col_phases[j]
    i.e. D2 P2 M P1 D1 with D2 = diag(row_phases), D1 = diag(col_phases).
    Permutations are 0-based index tuples.
    """

    row_perm: tuple
    row_phases: tuple
    col_perm: tuple
    col_phases: tuple

    def __post_init__(self):
        n = len(self.row_perm)
        object.__setattr__(self, "row_perm", tuple(int(i) for i in self.row_perm))
        object.__setattr__(self, "col_perm", tuple(int(i) for i in self.col_perm))
        object.__setattr__(self, "row_phases", tuple(complex(p) for p in self.row_phases))
        object.__setattr__(self, "col_phases", tuple(complex(p) for p in self.col_phases))
        if not (len(self.col_perm) == len(self.row_phases) == len(self.col_phases) == n):
            raise DimensionMismatch("witness components have inconsistent lengths")
        for perm in (self.row_perm, self.col_perm):
            if sorted(perm) != list(range(n)):
                raise ValueError(f"not a permutation of 0..{n - 1}: {perm}")

    @property
    def n(self):
        return len(self.row_perm)

    @classmethod
    def identity(cls, n):
        one = (1 + 0j,) * n
        return cls(tuple(range(n)), one, tuple(range(n)), one)


def apply_equivalence(m, w):
    """D2 P2 M P1 D1 for a witness w; see EquivalenceWitness."""
    m = as_matrix(m)
    if w.n != m.shape[0]:
        raise DimensionMismatch(f"witness is order {w.n}, matrix is order {m.shape[0]}")
    rp = np.asarray(w.row_perm)
    cp = np.asarray(w.col_perm)
    d2 = np.asarray(w.row_phases)
    d1 = np.asarray(w.col_phases)
    return d2[:, None] * m[np.ix_(rp, cp)] * d1[None, :]


def dephase(m):
    """Equivalent matrix with first row and column all ones, plus the witness.

    D2_ii = conj(m_i0)/|m_i0|, then D1_jj from the updated first row.
    """
    m = as_matrix(m)
    if np.abs(m[:, 0]).min() < 0.5 or np.abs(m[0, :]).min() < 0.5:
        raise NearZeroEntry("first row/column entry with modulus < 0.5")
    d2 = np.conj(m[:, 0]) / np.abs(m[:, 0])
    t = d2[:, None] * m
    d1 = np.conj(t[0, :]) / np.abs(t[0, :])
    out = t * d1[None, :]
    out[:, 0] = 1.0
    out[0, :] = 1.0
    n = m.shape[0]
    w = EquivalenceWitness(tuple(range(n)), tuple(d2), tuple(range(n)), tuple(d1))
    return out, w


class Fingerprint:
    """Sorted multiset of rounded quadruple-product phases in [0, 2pi).

    The phases are kept in `phases`, a read-only float array; `values`, the
    same numbers as a tuple of Python floats, is built on first read.
    Equality, hash, repr and pickling go by (values, rounding), as for a
    frozen dataclass with those two fields, and no attribute can be set.
    """

    __slots__ = ("phases", "rounding", "_values")

    def __init__(self, values, rounding):
        phases = np.array(values, dtype=float)
        phases.flags.writeable = False
        object.__setattr__(self, "phases", phases)
        object.__setattr__(self, "rounding", rounding)
        object.__setattr__(self, "_values", None)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def values(self):
        if self._values is None:
            object.__setattr__(self, "_values", tuple(self.phases.tolist()))
        return self._values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.values, self.rounding) == (other.values, other.rounding)

    def __hash__(self):
        return hash((self.values, self.rounding))

    def __repr__(self):
        return f"{type(self).__qualname__}(values={self.values!r}, rounding={self.rounding!r})"

    def __reduce__(self):
        return (type(self), (self.phases, self.rounding))

    def __len__(self):
        return len(self.phases)

    def distance(self, other):
        """Sum of absolute differences of the sorted multisets."""
        if self.rounding != other.rounding:
            raise ValueError("fingerprints use different rounding")
        if len(self) != len(other):
            raise DimensionMismatch("fingerprints of different sizes")
        return float(np.abs(self.phases - other.phases).sum())


@lru_cache(maxsize=None)
def _quadruple_indices(n):
    """Flat indices into m.ravel() of the four factors h_ij, h_kl, h_il, h_kj,
    shape (4, P, P) over the P = n(n-1) ordered pairs i != k (rows) and
    j != l (columns), row-major; empty for n = 1. Read-only, as it is cached."""
    i, k = np.nonzero(~np.eye(n, dtype=bool))
    rows_i, rows_k = (n * i)[:, None], (n * k)[:, None]
    idx = np.stack([rows_i + i, rows_k + k, rows_i + k, rows_k + i])
    idx.flags.writeable = False
    return idx


def _quadruple_phases(m):
    """Unrounded phases in [0, 2pi) of h_ij h_kl conj(h_il) conj(h_kj) over
    ordered i != k, j != l, flat and unsorted."""
    m = as_matrix(m)
    if not is_hadamard(m, FINGERPRINT_HADAMARD_TOL):
        raise NotHadamard(
            f"fingerprint needs a Hadamard matrix within {FINGERPRINT_HADAMARD_TOL}"
        )
    ij, kl, il, kj = _quadruple_indices(m.shape[0])
    flat = m.ravel()
    conj = flat.conj()
    # in place, left to right in the docstring's order: the rounding of the
    # product, and so the fingerprint, depends on that order
    prod = flat.take(ij)
    prod *= flat.take(kl)
    prod *= conj.take(il)
    prod *= conj.take(kj)
    theta = np.angle(prod).ravel()
    # np.angle is in [-pi, pi]; this is bitwise `theta % (2 * pi)`, and
    # adding 0.0 turns -0.0 into +0.0 as the remainder does
    return theta + (theta < 0) * (2 * np.pi)


def fingerprint(m, precision=FINGERPRINT_PRECISION):
    """Multiset of arg(h_ij h_kl conj(h_il) conj(h_kj)) over ordered i != k, j != l.

    Ordered index pairs (rather than i<k, j<l) make the multiset exactly
    invariant under every row/column permutation and diagonal phase change:
    those moves biject the ordered quadruples and cancel in the product.
    """
    r = np.round(_quadruple_phases(m), precision)
    # rounding can push a phase just below 2pi up onto the branch cut
    r[r >= round(2 * np.pi, precision)] = 0.0
    r = np.sort(r)
    return Fingerprint(r, int(precision))
