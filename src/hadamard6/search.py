"""Alternating-projection search for Hadamard matrices and classification
of order-6 matrices against the known families by fingerprint distance."""

import math
from dataclasses import dataclass
from itertools import product
from typing import Optional

import numpy as np

from .core import as_matrix, fingerprint, is_hadamard, modulus_defect, unitarity_defect
from .equivalence import are_equivalent
from .errors import NotHadamard, OrderUnsupported, SingularZ
from .families import _fourier_canonical, _sign_swap_images
from .families import dita_d6, family_h, fourier_f6, reduce_params

CLASSIFY_PRECISION = 6
# fingerprint distance below 1e-4 per multiset element is float noise
CLASSIFY_THRESHOLD_PER_VALUE = 1e-4
_CONFIRM_TOL = 1e-5  # fitted params carry ~1e-6 error; exact tol would reject


@dataclass
class SearchConfig:
    rng_seed: int = 0
    tol: float = 1e-8
    max_iter: int = 2000
    seed_matrix: Optional[np.ndarray] = None
    n: int = 6

    def __post_init__(self):
        for name in ("max_iter", "n"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be a finite positive number")


@dataclass
class SearchResult:
    matrix: np.ndarray
    iterations: int
    final_defect: float
    converged: bool


@dataclass
class Classification:
    label: str  # F6-slice | F6T-slice | H-family | D6 | unknown
    params: Optional[tuple]
    distance: float


def _defect(m):
    return max(modulus_defect(m), unitarity_defect(m))


def project_search(cfg=None):
    """Alternate unimodular phase normalization with the nearest
    sqrt(n)-scaled unitary (polar factor). Deterministic in rng_seed."""
    cfg = cfg or SearchConfig()
    if cfg.seed_matrix is not None:
        m = as_matrix(cfg.seed_matrix)
    else:
        rng = np.random.default_rng(cfg.rng_seed)
        m = np.exp(2j * np.pi * rng.random((cfg.n, cfg.n)))
    n = m.shape[0]
    root_n = math.sqrt(n)
    d = _defect(m)
    best_d, best_m, best_it = d, m.copy(), 0
    if d <= cfg.tol:
        return SearchResult(m, 0, d, True)
    for it in range(1, cfg.max_iter + 1):
        mod = np.abs(m)
        m = np.where(mod > 0, m / np.where(mod > 0, mod, 1.0), 1.0)
        u, _, vt = np.linalg.svd(m)
        m = root_n * (u @ vt)
        d = _defect(m)
        if d < best_d:
            best_d, best_m, best_it = d, m.copy(), it
        if d <= cfg.tol:
            return SearchResult(m, it, d, True)
    return SearchResult(best_m, cfg.max_iter, best_d, False)


_REFINE_WMIN = 2e-7
_REFINE_MAX_EVALS = 4000
_MICROSCAN_STEP = 0.002
_MICROSCAN_OFFSETS = np.arange(-0.05, 0.05 + _MICROSCAN_STEP / 2, _MICROSCAN_STEP)
_MAX_RESCUES = 3


def _refine(dist, p0, w0, lo, hi):
    """Compass search on a rugged objective: step to the first improving
    neighbor, halve the step when none improves."""
    p = np.asarray(p0, dtype=float)
    w = float(w0)
    best = dist(p)
    steps = [np.array(s, dtype=float) for s in product((-1, 0, 1), repeat=p.size) if any(s)]
    evals = 0
    while w > _REFINE_WMIN and evals < _REFINE_MAX_EVALS:
        improved = False
        for s in steps:
            cand = np.clip(p + w * s, lo, hi)
            d = dist(cand)
            evals += 1
            if d < best - 1e-15:
                best, p, improved = d, cand, True
                break
        if not improved:
            w *= 0.5
    return p, best


def _candidates(dist, cells, w0, lo, hi, k_cells, k_out, canon):
    """Refine the best k_cells grid cells, dedupe, keep k_out by distance.

    canon maps a point to a representative of its symmetry orbit; without it
    the images of one false minimum can crowd out the true basin.
    """
    vals = np.array([dist(np.asarray(c, dtype=float)) for c in cells])
    order = np.argsort(vals, kind="stable")[:k_cells]
    out = []
    for idx in order:
        p, d = _refine(dist, cells[idx], w0, lo, hi)
        key = np.asarray(canon(p), dtype=float)
        if any(np.abs(key - np.asarray(q)).max() < 1e-4 for q, _, _ in out):
            continue
        out.append((tuple(float(x) for x in key), tuple(float(x) for x in p), float(d)))
        if len(out) >= k_out:
            break
    return sorted(((p, d) for _, p, d in out), key=lambda t: (t[1], t[0]))


def _microscan(dist, p, lo, hi):
    """Dense local sampling. The distance surface is a cluster of narrow
    V-shaped wells; compass steps can converge on a false floor a few
    hundredths away from the true zero, so near misses get swept densely."""
    p = np.asarray(p, dtype=float)
    best_p, best_d = p, dist(p)
    for off in product(_MICROSCAN_OFFSETS, repeat=p.size):
        cand = np.clip(p + np.asarray(off), lo, hi)
        d = dist(cand)
        if d < best_d:
            best_p, best_d = cand, d
    return best_p, best_d


def _polish(dist, cands, lo, hi, threshold):
    """Rescue near-miss candidates (above threshold but within two orders)
    with a microscan plus a fine re-refine."""
    out = []
    rescues = 0
    for p, d in cands:
        if threshold < d <= 100 * threshold and rescues < _MAX_RESCUES:
            rescues += 1
            p2, d2 = _microscan(dist, p, lo, hi)
            if d2 < d:
                p2, d2 = _refine(dist, p2, _MICROSCAN_STEP, lo, hi)
                p, d = tuple(float(x) for x in p2), float(d2)
        out.append((p, d))
    return sorted(out, key=lambda t: (t[1], t[0]))


def _h_images(p):
    for q in _sign_swap_images(p):
        try:
            candidate = family_h(*q)
        except SingularZ:
            continue
        yield reduce_params(abs(q[0]), abs(q[1]))[0], candidate


# One stage per family, tried in this order: the builder, the box
# [lo, hi]^dim gridded for the scan, how many grid cells to refine (k_cells)
# and distinct fits to keep (k_out), the orbit canonicaliser that tells fits
# apart, and the (label, images) pairs tried on every fit within the
# threshold in turn. images(p) yields (reported params, the matrix the query
# must be equivalent to, or None to take the fit unconfirmed).
_STAGES = (
    # D6 first: corner ties break toward D6, so no equivalence gate here
    (
        lambda p: dita_d6(p[0]), -np.pi / 4, np.pi / 4, 1, 8, 4, np.abs,
        (("D6", lambda p: [((abs(p[0]),), None)]),),
    ),
    # one Fourier scan serves both orientations (fingerprints cannot
    # distinguish a matrix from its transpose)
    (
        lambda p: fourier_f6(*p), 0.0, 2 * np.pi, 2, 40, 12, lambda p: _fourier_canonical(*p),
        (
            ("F6-slice", lambda p: [(_fourier_canonical(*p), fourier_f6(*p))]),
            ("F6T-slice", lambda p: [(_fourier_canonical(*p), fourier_f6(*p).T)]),
        ),
    ),
    (
        lambda p: family_h(*p), -np.pi / 2, np.pi / 2, 2, 40, 6, lambda p: sorted(np.abs(p)),
        (("H-family", _h_images),),
    ),
)


def classify(h, grid_n=24):
    """Label an order-6 Hadamard matrix by fingerprint distance to the
    known families, refining grid cells and confirming the orientation of
    parametric fits with exact equivalence checks."""
    h = as_matrix(h)
    if h.shape[0] != 6:
        raise OrderUnsupported("classification grids are order-6 only")
    if not is_hadamard(h, 1e-8):
        raise NotHadamard("classify needs a Hadamard matrix within 1e-8")
    fq = fingerprint(h, CLASSIFY_PRECISION)
    threshold = CLASSIFY_THRESHOLD_PER_VALUE * len(fq)

    def confirmed(candidate):
        return (
            are_equivalent(h, candidate, tol=_CONFIRM_TOL, screen=False).decision
            == "equivalent"
        )

    best_overall = float("inf")
    for build, lo, hi, dim, k_cells, k_out, canon, confirmations in _STAGES:
        def dist(p, build=build):
            try:
                return fingerprint(build(p), CLASSIFY_PRECISION).distance(fq)
            except SingularZ:
                return float("inf")

        step = (hi - lo) / grid_n
        cells = list(product([lo + (i + 0.5) * step for i in range(grid_n)], repeat=dim))
        cands = _candidates(dist, cells, step, lo, hi, k_cells, k_out, canon)
        cands = _polish(dist, cands, lo, hi, threshold)
        best_overall = min(best_overall, cands[0][1])
        hits = [(p, d) for p, d in cands if d <= threshold]
        for label, images in confirmations:
            for p, d in hits:
                for params, candidate in images(p):
                    if candidate is None or confirmed(candidate):
                        return Classification(label, params, d)

    return Classification("unknown", None, best_overall)
