"""Defect measures, dephasing, equivalence transforms, and fingerprints.

Matrices are plain complex numpy arrays; every function returns a fresh
array and never mutates its input. A matrix is Hadamard (at tolerance t)
when every entry has modulus 1 within t and H^dagger H / n is the identity
within t.
"""

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, NearZeroEntry, NotHadamard

DEFAULT_TOL = 1e-10
FINGERPRINT_PRECISION = 8
# fingerprint and its consumers only need the input to be roughly Hadamard
FINGERPRINT_HADAMARD_TOL = 1e-8


def _as_square(m, ndims):
    """Coerce to a complex array (copying, never aliasing) with ndim in
    ndims whose last two axes are square and non-empty."""
    out = np.array(m, dtype=complex)
    if out.ndim not in ndims or out.shape[-1] != out.shape[-2] or out.shape[-1] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {out.shape}")
    return out


def as_matrix(m):
    """Coerce to a square complex array (copying, never aliasing)."""
    return _as_square(m, (2,))


# The two defects of a coerced matrix (n, n) or stack (K, n, n), reduced over
# the last two axes: a 0-d array for one matrix, one value per matrix of a stack.
def _modulus_defects(m):
    return np.abs(np.abs(m) - 1.0).max(axis=(-2, -1))


def _unitarity_defects(m):
    n = m.shape[-1]
    g = np.swapaxes(m.conj(), -1, -2) @ m
    g /= n
    # the diagonal less 1.0, in place: bitwise `g / n - eye(n)`
    d = np.arange(n)
    g[..., d, d] -= 1.0
    return np.abs(g).max(axis=(-2, -1))


def _hadamard_within(m, tol):
    """Every matrix of m within tol of Hadamard; the unitarity defect, whose
    product can overflow, is taken only once every modulus passes."""
    return bool((_modulus_defects(m) <= tol).all() and (_unitarity_defects(m) <= tol).all())


def modulus_defect(m):
    """max_ij | |m_ij| - 1 |"""
    return float(_modulus_defects(as_matrix(m)))


def unitarity_defect(m):
    """max entrywise deviation of H^dagger H / n from the identity."""
    return float(_unitarity_defects(as_matrix(m)))


def _check_tol(tol):
    if isinstance(tol, (bool, np.bool_)) or not 0 < tol < np.inf:
        raise ValueError("tol must be a finite positive number")


def _check_precision(precision):
    # beyond these, np.round's scaling by 10**precision overflows near 2pi
    integer = isinstance(precision, (int, np.integer)) and not isinstance(precision, bool)
    if not (integer and -308 <= precision <= 307):
        raise ValueError(f"precision must lie in [-308, 307] and be an integer, got {precision!r}")


def is_hadamard(m, tol=DEFAULT_TOL):
    _check_tol(tol)
    return _hadamard_within(as_matrix(m), tol)


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
        try:
            for name in ("row_perm", "col_perm"):
                perm = getattr(self, name)
                if any(isinstance(i, bool) for i in perm):  # an int, but no index
                    raise TypeError
                object.__setattr__(self, name, tuple(map(operator.index, perm)))
        except TypeError:
            raise ValueError("permutation entries must be integers") from None
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


def _anchored_forms(h):
    """h dephased at every anchor (a, b), shape (n, n, n, n): q[a, b, i, j] =
    h_ij h_ab / (h_ib h_aj), whose cells off row a and column b are the
    quadruple products of h. A prepared form holds them: search._pi_cells
    reads every anchor, and equivalence._exhaustive_witness reads the
    anchors whose sorted entries survive, with the columns in each
    permutation's order."""
    return h * h[:, :, None, None] / (h.T[None, :, :, None] * h[:, None, None, :])


def _dephased(m):
    """dephase of a coerced matrix, returning the phases d2 and d1 as arrays
    in place of the witness."""
    if np.abs(m[:, 0]).min() < 0.5 or np.abs(m[0, :]).min() < 0.5:
        raise NearZeroEntry("first row/column entry with modulus < 0.5")
    d2 = np.conj(m[:, 0]) / np.abs(m[:, 0])
    t = d2[:, None] * m
    d1 = np.conj(t[0, :]) / np.abs(t[0, :])
    out = t * d1[None, :]
    out[:, 0] = 1.0
    out[0, :] = 1.0
    return out, d2, d1


def dephase(m):
    """Equivalent matrix with first row and column all ones, plus the witness.

    D2_ii = conj(m_i0)/|m_i0|, then D1_jj from the updated first row.
    """
    out, d2, d1 = _dephased(as_matrix(m))
    n = out.shape[0]
    return out, EquivalenceWitness(tuple(range(n)), tuple(d2), tuple(range(n)), tuple(d1))


class _Prepared:
    """Matrices of one order, prepared once: their stack m (K, n, n), a copy
    that never aliases a caller's array; the least tolerance their gate has
    passed at, since a pass holds at every larger one; and the parts below,
    each built the first time it is read. Every Hadamard gate, and every
    private helper that reads an input, takes this form, built only as
    _Prepared(*ms): each matrix coerced with as_matrix, DimensionMismatch
    unless their orders agree. classify prepares its input, and each member,
    alone; fingerprint_distances eight matrices at a time; a caller's pair
    is one stack, so its gate and its screen each take one pass over both.
    A decision anchors the first matrix of a stack and dephases the last."""

    def __init__(self, *ms):
        ms = tuple(map(as_matrix, ms))
        if ms[0].shape != ms[-1].shape:
            raise DimensionMismatch(f"orders differ: {ms[0].shape[0]} vs {ms[-1].shape[0]}")
        self.m = np.stack(ms)
        self.passed = np.inf  # the least tol the gate has passed at

    def within(self, tol):
        """Every matrix is Hadamard within tol."""
        if tol < self.passed and _hadamard_within(self.m, tol):
            self.passed = tol
        return tol >= self.passed

    def require(self, tol, names=("matrix",)):
        """The one Hadamard gate: NotHadamard unless every matrix is Hadamard
        within tol, naming the first that fails: names[k] for m[k], else the
        last name."""
        if not self.within(tol):
            failing = (k for k, x in zip(names[:-1], self.m) if not _hadamard_within(x, tol))
            raise NotHadamard(f"{next(failing, names[-1])} is not Hadamard within {tol}")

    @cached_property
    def forms(self):
        return _anchored_forms(self.m[0])

    @cached_property
    def sorted_forms(self):  # the real and imaginary entries of each anchor
        n = self.m.shape[-1]
        return [np.sort(part(self.forms).reshape(n, n, n * n)) for part in (np.real, np.imag)]

    @cached_property
    def dephased(self):
        return _dephased(self.m[-1])

    @cached_property
    def units(self):  # the screen's quarter products of the unit entries
        return _quadruple_products(self.m / np.abs(self.m), quarter=True)

    @cached_property
    def cosines(self):
        return np.sort(self.units.real, axis=-1)

    @cached_property
    def sines(self):
        return np.sort(np.abs(self.units.imag), axis=-1)


def _prepared(*ms):
    """Prepared forms as given, or matrices prepared as one stack and given
    once per matrix: (first, second) for a pair, as a decision reads it."""
    return ms if isinstance(ms[0], _Prepared) else (_Prepared(*ms),) * len(ms)


@dataclass(frozen=True)
class Fingerprint:
    """Sorted multiset of rounded quadruple-product phases in [0, 2pi).

    `values` holds the phases as a tuple of Python floats; `phases`, set on
    construction and not a field, holds the same numbers as a read-only
    float array, which `distance` and `fingerprint_distances` read. Pickling
    goes through the constructor, so an unpickled `phases` is read-only too.
    `rounding` must be a precision that `fingerprint` accepts: an integer,
    not a bool, in [-308, 307].
    """

    values: tuple
    rounding: int

    def __post_init__(self):
        _check_precision(self.rounding)
        phases = np.array(self.values, dtype=float)
        phases.flags.writeable = False
        object.__setattr__(self, "values", tuple(phases.tolist()))
        object.__setattr__(self, "phases", phases)

    def __reduce__(self):
        return (type(self), (self.values, self.rounding))

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
def _quadruple_indices(n, quarter=False):
    """Flat indices into m.ravel() of h_ij, h_kl, h_il, h_kj, shape (4, P, P),
    over the row pairs (i, k), i != k or with quarter i < k, and the same
    column pairs (j, l), row-major; empty for n = 1. Read-only, as cached."""
    i, k = np.triu_indices(n, 1) if quarter else np.nonzero(~np.eye(n, dtype=bool))
    rows_i, rows_k = (n * i)[:, None], (n * k)[:, None]
    idx = np.stack([rows_i + i, rows_k + k, rows_i + k, rows_k + i])
    idx.flags.writeable = False
    return idx


def _quadruple_products(m, quarter=False):
    """h_ij h_kl conj(h_il) conj(h_kj) over _quadruple_indices(n, quarter) for
    each matrix of m (n, n) or (K, n, n), flattened to one row per matrix."""
    n = m.shape[-1]
    ij, kl, il, kj = _quadruple_indices(n, quarter)
    flat = m.reshape(m.shape[:-2] + (n * n,))
    conj = flat.conj()
    # in place, left to right in the docstring's order: the rounding of the
    # product, and so the fingerprint, depends on that order and on numpy's
    # array loop. It is reproducible only within this code path: a product
    # of numpy scalars in the same order can differ in the last bit
    prod = flat.take(ij, axis=-1)
    prod *= flat.take(kl, axis=-1)
    prod *= conj.take(il, axis=-1)
    prod *= conj.take(kj, axis=-1)
    return prod.reshape(m.shape[:-2] + (ij.size,))


def _quadruple_phases(p):
    """Unrounded phases in [0, 2pi) of the quadruple products of a prepared
    form, unsorted, one row per matrix of its stack. Every matrix must be
    Hadamard within FINGERPRINT_HADAMARD_TOL; a form that passed is not
    gated again."""
    p.require(FINGERPRINT_HADAMARD_TOL)
    theta = np.angle(_quadruple_products(p.m))
    # np.angle is in [-pi, pi]; this is bitwise `theta % (2 * pi)`, and
    # adding 0.0 turns -0.0 into +0.0 as the remainder does
    return theta + (theta < 0) * (2 * np.pi)


def _rounded_sorted(theta, precision):
    """Round phases to a checked precision and sort along the last axis."""
    r = np.round(theta, precision)
    # rounding can push a phase just below 2pi up onto the branch cut
    r[r >= round(2 * np.pi, precision)] = 0.0
    r.sort(axis=-1)
    return r


def fingerprint(m, precision=FINGERPRINT_PRECISION):
    """Multiset of arg(h_ij h_kl conj(h_il) conj(h_kj)) over ordered i != k, j != l.

    Ordered index pairs (rather than i<k, j<l) make the multiset exactly
    invariant under every row/column permutation and diagonal phase change:
    those moves biject the ordered quadruples and cancel in the product.
    The phases are rounded to precision decimals, from -308 to 307. m is
    one matrix; fingerprint_distances takes a stack.
    """
    _check_precision(precision)
    p = m if isinstance(m, _Prepared) else _Prepared(m)
    return Fingerprint(_rounded_sorted(_quadruple_phases(p)[0], precision), int(precision))


def fingerprint_distances(stack, fq):
    """Distance to the fingerprint fq from each matrix of a stack (K, n, n),
    K >= 0, coerced whole, as a float array of length K: entry k is bitwise
    fingerprint(stack[k], fq.rounding).distance(fq)."""
    stack = _as_square(stack, (3,))
    n = stack.shape[-1]
    if (n * (n - 1)) ** 2 != len(fq):
        raise DimensionMismatch("fingerprints of different sizes")
    # the kernel makes a few (K, 900) temporaries at order 6: eight matrices at
    # a time keep them about 100 KB each, where the 61 members of search._PANEL
    # at once raise a search process's peak memory by 1.6 MB and run slower
    out = np.empty(len(stack))
    for k in range(0, len(stack), 8):
        r = _rounded_sorted(_quadruple_phases(_Prepared(*stack[k:k + 8])), fq.rounding)
        out[k:k + 8] = np.abs(r - fq.phases).sum(axis=-1)
    return out
