"""Exact equivalence decisions for order-6 Hadamard matrices.

Two Hadamard matrices are equivalent when H2 = D2 P2 H1 P1 D1 for
permutations P and unit-modulus diagonals D. Dephasing kills the diagonals,
so H1 ~ H2 iff some row/column permutation of H1 dephases to exactly the
dephased form of H2; the search below prunes H1's 36 anchors once by their
sorted entries. For each column permutation cp and each surviving anchor
(a, cp[0]) it then tries the 5! row permutations that map 0 to a, so the
column permutations of a column with no surviving anchor are never tried,
and a pair with no surviving anchor is refused before any permutation.
"""

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

import numpy as np

from .core import (
    DEFAULT_TOL,
    FINGERPRINT_HADAMARD_TOL,
    FINGERPRINT_PRECISION,
    EquivalenceWitness,
    _anchored_forms,
    _as_pair,
    _check_precision,
    _check_tol,
    _dephased,
    _hadamard_within,
    _quadruple_products,
    _require_hadamard,
    apply_equivalence,
)
from .errors import OrderUnsupported

# the 720 permutations in lexicographic order, as six blocks of 120:
# _PERMS6[a] holds those that map 0 to a
_PERMS6 = np.array(list(permutations(range(6)))).reshape(6, 120, 6)


@dataclass(frozen=True)
class EquivalenceResult:
    decision: str  # "equivalent" | "inequivalent" | "inconclusive"
    witness: Optional[EquivalenceWitness] = None
    screened_by: Optional[str] = None


def fingerprint_match(h1, h2, precision=FINGERPRINT_PRECISION, tol=DEFAULT_TOL):
    """Sorted cosines and sorted sines of the quadruple phases agree within
    10**-precision + 40 tol (1 + 40 tol); False certifies that no witness at
    tolerance tol exists. Both matrices must be Hadamard within
    FINGERPRINT_HADAMARD_TOL.

    The quadruple products are Haagerup's invariant set (U. Haagerup,
    "Orthogonal maximal abelian *-subalgebras of the n x n matrices and
    cyclic n-roots", 1996). Over ordered i != k, j != l they are invariant
    under dephasing and permutations, and cos, sin and sorting are
    1-Lipschitz. The enumeration accepts a witness when the two dephased
    forms agree entrywise within e = 10 tol, so each quadruple product, a
    product of four near-unimodular entries, moves by at most
    r = 4e (1 + O(1e-7)) relative to its modulus for inputs Hadamard within
    FINGERPRINT_HADAMARD_TOL. Its unit direction, whose coordinates are the
    cosine and sine, then moves by at most the chord
    sqrt(2 - 2 sqrt(1 - r**2)) <= r (1 + r), or by 2 <= r (1 + r) once
    r >= 1. 10**-precision covers float noise and the O(1e-7) factor, so
    every pair the enumeration would accept passes.

    Only the quarter i < k, j < l is computed, by the fingerprint's kernel
    on the entries' unit directions e = h/|h|: u = e_ij e_kl conj(e_il)
    conj(e_kj), which equals q/|q| in exact arithmetic and differs from it
    by a few ulps, inside 10**-precision, in floating point. Swapping i with
    k maps q to conj(q), swapping j with l likewise, and swapping both fixes
    q, so the ordered multiset is {q, q, conj(q), conj(q)} over the quarter.
    Its sorted cosines are sorted Re(u) with each value four times, and its
    sorted sines are sorted concat(Im(u), -Im(u)) with each value twice, a
    list symmetric about 0 whose gaps are those of sorted |Im(u)|. The
    largest gaps are therefore those of sorted Re(u) and sorted |Im(u)|.
    """
    _check_tol(tol)
    _check_precision(precision)
    pair = _as_pair(h1, h2)
    _require_hadamard(pair, FINGERPRINT_HADAMARD_TOL, ("first matrix", "second matrix"))
    return _directions_match(pair, precision, tol)


def _directions_match(pair, precision, tol):
    """fingerprint_match on a coerced, checked stack (2, n, n); the sines
    are sorted only when the cosines match."""
    r = 40.0 * tol
    margin = 10.0**-precision + r * (1.0 + r)
    u = _quadruple_products(pair / np.abs(pair), quarter=True)
    return all(
        np.abs(np.subtract(*np.sort(part(u), axis=-1))).max(initial=0.0) <= margin
        for part in (np.real, lambda z: np.abs(z.imag))
    )


def _exhaustive_witness(h1, h2, tol):
    """First witness in (column-outer, row-inner) lexicographic order, or None."""
    h2d, g2, g1 = _dephased(h2)
    atol = 10.0 * tol
    forms = _anchored_forms(h1)
    # alive[a, b]: the sorted real and imaginary parts of forms[a, b] match
    # h2d's. A column permutation cp only reorders the entries of the form at
    # (a, cp[0]), and sorting is 1-Lipschitz, so a true match survives
    alive = np.ones((6, 6), dtype=bool)
    for part in (np.real, np.imag):
        gap = np.sort(part(forms).reshape(6, 6, 36)) - np.sort(part(h2d).ravel())
        alive &= np.abs(gap).max(axis=-1) <= atol + 1e-12
    # a column b with no surviving anchor tries none of the cp with cp[0] = b,
    # so a pair with no surviving anchor returns None without a permutation
    for b in np.flatnonzero(alive.any(axis=0)):
        anchors = np.flatnonzero(alive[:, b])
        for cp in _PERMS6[b]:
            for a in anchors:
                # qa is m = h1[:, cp] dephased at the anchor (a, 0)
                qa = forms[a, b][:, cp]
                block = _PERMS6[a]
                diffs = np.abs(qa[block] - h2d[None]).reshape(len(block), -1).max(axis=1)
                hits = np.nonzero(diffs <= atol)[0]
                if hits.size == 0:
                    continue
                sigma, m = block[hits[0]], h1[:, cp]
                # h2[i,j] = conj(g2_i) h2d[i,j] conj(g1_j) and
                # h2d[i,j] = qa[sigma_i, j], which factors into witness form
                rph = np.conj(g2) * m[a, 0] / m[sigma, 0]
                cph = np.conj(g1) / m[a, :]
                rph /= np.abs(rph)
                cph /= np.abs(cph)
                return EquivalenceWitness(tuple(sigma), tuple(rph), tuple(cp), tuple(cph))
    return None


def are_equivalent(h1, h2, tol=DEFAULT_TOL, screen=True):
    """Decide H1 ~ H2.

    Order 6: fingerprint screen (skippable via screen=False, e.g. to time the
    raw enumeration), then exhaustive search returning a verifying witness.
    Order 12: screening only; matching fingerprints are inconclusive.
    """
    pair = _as_pair(h1, h2)
    n = pair.shape[-1]
    if n not in (6, 12):
        raise OrderUnsupported(f"equivalence decisions support n in (6, 12), got {n}")
    _check_tol(tol)
    _require_hadamard(pair, tol, ("first matrix", "second matrix"))

    # inputs Hadamard within tol <= FINGERPRINT_HADAMARD_TOL pass the screen's gate
    screened = screen and (
        tol <= FINGERPRINT_HADAMARD_TOL or _hadamard_within(pair, FINGERPRINT_HADAMARD_TOL)
    )
    if screened and not _directions_match(pair, FINGERPRINT_PRECISION, tol):
        return EquivalenceResult(
            "inequivalent",
            screened_by=f"fingerprint mismatch at precision {FINGERPRINT_PRECISION}",
        )
    if n == 12:
        unsupported = "order-12 enumeration unsupported"
        why = "fingerprint match is necessary but not sufficient" if screened else unsupported
        return EquivalenceResult("inconclusive", screened_by=why)

    w = _exhaustive_witness(*pair, tol)
    if w is None:
        return EquivalenceResult("inequivalent")
    return EquivalenceResult("equivalent", witness=w)


def verify_witness(h1, h2, w, tol=DEFAULT_TOL):
    """Max entrywise error of the witness reproduction of h2 from h1, two
    matrices of one order; tol is accepted and unused, and the caller
    compares the error with its own."""
    h1, h2 = _as_pair(h1, h2)
    return float(np.abs(apply_equivalence(h1, w) - h2).max())
