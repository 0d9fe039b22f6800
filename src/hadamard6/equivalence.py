"""Exact equivalence decisions for order-6 Hadamard matrices.

Two Hadamard matrices are equivalent when H2 = D2 P2 H1 P1 D1 for
permutations P and unit-modulus diagonals D. Dephasing kills the diagonals,
so H1 ~ H2 iff some row/column permutation of H1 dephases to exactly the
dephased form of H2; the search below enumerates all 6! * 6! permutation
pairs with an exact multiset prune.
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
    _check_precision,
    _check_tol,
    _quadruple_phases,
    apply_equivalence,
    as_matrix,
    dephase,
    is_hadamard,
)
from .errors import DimensionMismatch, NotHadamard, OrderUnsupported

_PERMS6 = np.array(list(permutations(range(6))))  # lexicographic
# row permutations grouped by their image of row 0, lexicographic inside
_PERMS6_BY_ANCHOR = [_PERMS6[_PERMS6[:, 0] == a] for a in range(6)]


@dataclass(frozen=True)
class EquivalenceResult:
    decision: str  # "equivalent" | "inequivalent" | "inconclusive"
    witness: Optional[EquivalenceWitness] = None
    screened_by: Optional[str] = None


def fingerprint_match(h1, h2, precision=FINGERPRINT_PRECISION, tol=DEFAULT_TOL):
    """Sorted cosines and sorted sines of the quadruple phases agree within
    10**-precision + 40 tol (1 + 40 tol); False certifies that no witness at
    tolerance tol exists.

    Quadruple phases are invariant under dephasing and permutations, and
    cos, sin and sorting are 1-Lipschitz. The enumeration accepts a witness
    when the two dephased forms agree entrywise within e = 10 tol, so each
    quadruple product, a product of four near-unimodular entries, moves by
    at most r = 4e (1 + O(1e-7)) relative to its modulus for inputs Hadamard
    within FINGERPRINT_HADAMARD_TOL. Its unit direction, whose coordinates
    are the cosine and sine, then moves by at most the chord
    sqrt(2 - 2 sqrt(1 - r**2)) <= r (1 + r), or by 2 <= r (1 + r) once
    r >= 1. 10**-precision covers float noise and the O(1e-7) factor, so
    every pair the enumeration would accept passes.
    """
    _check_tol(tol)
    _check_precision(precision)
    h1, h2 = as_matrix(h1), as_matrix(h2)
    if h1.shape != h2.shape:
        raise DimensionMismatch(f"orders differ: {h1.shape[0]} vs {h2.shape[0]}")
    p1, p2 = _quadruple_phases(h1), _quadruple_phases(h2)
    r = 40.0 * tol
    margin = 10.0**-precision + r * (1.0 + r)
    return all(
        np.abs(np.sort(f(p1)) - np.sort(f(p2))).max(initial=0.0) <= margin
        for f in (np.cos, np.sin)
    )


def _exhaustive_witness(h1, h2, tol):
    """First witness in (column-outer, row-inner) lexicographic order, or None."""
    h2d, wd = dephase(h2)
    target_re = np.sort(h2d.real.ravel())
    target_im = np.sort(h2d.imag.ravel())
    atol = 10.0 * tol
    prune_tol = atol + 1e-12
    g2 = np.asarray(wd.row_phases)
    g1 = np.asarray(wd.col_phases)
    forms = _anchored_forms(h1)

    for cp in _PERMS6:
        # q[a] is m = h1[:, cp] dephased at the anchor (a, 0)
        q = forms[:, cp[0]][:, :, cp]
        for a in range(6):
            qa = q[a]
            # sorting is 1-Lipschitz, so a true match survives this prune
            if (
                np.abs(np.sort(qa.real.ravel()) - target_re).max() > prune_tol
                or np.abs(np.sort(qa.imag.ravel()) - target_im).max() > prune_tol
            ):
                continue
            block = _PERMS6_BY_ANCHOR[a]
            diffs = np.abs(qa[block] - h2d[None]).reshape(len(block), -1).max(axis=1)
            hits = np.nonzero(diffs <= atol)[0]
            if hits.size == 0:
                continue
            sigma, m = block[hits[0]], h1[:, cp]
            # h2[i,j] = conj(g2_i) h2d[i,j] conj(g1_j) and
            # h2d[i,j] = q[a, sigma_i, j], which factors into witness form
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
    h1, h2 = as_matrix(h1), as_matrix(h2)
    if h1.shape != h2.shape:
        raise DimensionMismatch(f"orders differ: {h1.shape[0]} vs {h2.shape[0]}")
    n = h1.shape[0]
    if n not in (6, 12):
        raise OrderUnsupported(f"equivalence decisions support n in (6, 12), got {n}")
    for name, h in (("first", h1), ("second", h2)):
        if not is_hadamard(h, tol):
            raise NotHadamard(f"{name} matrix is not Hadamard within {tol}")

    screened = screen and all(is_hadamard(h, FINGERPRINT_HADAMARD_TOL) for h in (h1, h2))
    if screened and not fingerprint_match(h1, h2, FINGERPRINT_PRECISION, tol):
        return EquivalenceResult(
            "inequivalent",
            screened_by=f"fingerprint mismatch at precision {FINGERPRINT_PRECISION}",
        )
    if n == 12:
        unsupported = "order-12 enumeration unsupported"
        why = "fingerprint match is necessary but not sufficient" if screened else unsupported
        return EquivalenceResult("inconclusive", screened_by=why)

    w = _exhaustive_witness(h1, h2, tol)
    if w is None:
        return EquivalenceResult("inequivalent")
    return EquivalenceResult("equivalent", witness=w)


def verify_witness(h1, h2, w, tol=DEFAULT_TOL):
    """Max entrywise error of the witness reproduction of h2 from h1; tol is
    accepted and unused, and the caller compares the error with its own."""
    return float(np.abs(apply_equivalence(h1, w) - as_matrix(h2)).max())
