"""Alternating-projection search for Hadamard matrices and classification
of order-6 matrices against the known families through their 2x2 Hadamard
sub-blocks."""

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

import numpy as np

from .core import FINGERPRINT_HADAMARD_TOL, _anchored_forms, _check_tol, as_matrix, fingerprint
from .core import fingerprint_distances, modulus_defect, unitarity_defect
from .equivalence import are_equivalent
from .errors import NotHadamard, OrderUnsupported, SingularZ
from .families import FAMILIES, _fourier_canonical, dita_d6, family_h, fourier_f6

CLASSIFY_PRECISION = 6


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
        _check_tol(self.tol)


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
    best_d, best_m = d, m
    if d <= cfg.tol:
        return SearchResult(m, 0, d, True)
    for it in range(1, cfg.max_iter + 1):
        mod = np.abs(m)
        m = np.where(mod > 0, m / np.where(mod > 0, mod, 1.0), 1.0)
        u, _, vt = np.linalg.svd(m)
        m = root_n * (u @ vt)
        d = _defect(m)
        if d < best_d:
            best_d, best_m = d, m
        if d <= cfg.tol:
            return SearchResult(m, it, d, True)
    return SearchResult(best_m, cfg.max_iter, best_d, False)


# A quadruple product within this of -1 marks a 2x2 Hadamard sub-block. An
# input equivalent to a member within the 10 * FINGERPRINT_HADAMARD_TOL that
# are_equivalent accepts has its quadruple products within about 4e-7 of the
# member's, so the member's own block, at exactly -1, always passes; and
# every quadruple phase that bench/reference.py counts as pi (within 1e-6) does.
_PI_GATE = 1e-5


def _pi_cells(h):
    """For each pi-cell of h: its row and its column in the anchored form,
    off the block, (C, 4) each, and the 4x4 interior the block leaves, (C, 16).

    q = core._anchored_forms(h), where q[a, b] is h dephased at the anchor
    (a, b); equivalence moves only permute its cells off row a and column
    b, the quadruple products of h. A pi-cell (a, b, i, j) has
    q[a, b, i, j] within _PI_GATE of -1, so rows a, i and columns b, j of
    q[a, b] are the block [[1, 1], [1, -1]]. The image of a member's own
    block is a pi-cell whose row, column and interior are the member's
    anchored form up to the order of entries and conjugation.
    """
    q = _anchored_forms(h)
    a, b, i, j = np.nonzero(np.abs(q + 1.0) < _PI_GATE)
    forms, cell, line = q[a, b], np.arange(a.size), np.arange(6)
    off_rows = (line != a[:, None]) & (line != i[:, None])
    off_cols = (line != b[:, None]) & (line != j[:, None])
    rows = forms[cell, i][off_cols].reshape(-1, 4)
    cols = forms[cell, :, j][off_rows].reshape(-1, 4)
    interior = forms[off_rows[:, :, None] & off_cols[:, None, :]].reshape(-1, 16)
    return rows, cols, interior


def _unique(points):
    """The points (K, d) whose rounding to 9 digits is new, in order."""
    _, first = np.unique(np.round(points, 9), axis=0, return_index=True)
    return points[np.sort(first)]


def _half_angles(z):
    """The angles mod pi, in (-pi/2, pi/2], of entries +-exp(i x)."""
    return np.angle(z * z) / 2


def _all_within(lines, target):
    """Which lines (C, 4) have every entry's square within _PI_GATE of target,
    a number or one per line (C, 1)."""
    return np.abs(lines * lines - target).max(axis=1) < _PI_GATE


def _d6_read_off(rows, cols, interior):
    # dita_d6's block row and column hold +-i, and its interior +-1, +-i and
    # +-i exp(+-ic), whose fourth powers are 1 and exp(+-4ic)
    keep = _all_within(rows, -1.0) & _all_within(cols, -1.0)
    return _unique(np.abs(np.angle(interior[keep] ** 4)).reshape(-1, 1) / 4)


def _fourier_read_off(lines):
    # fourier_f6's block row (row 3 at anchor (0, 0)) holds -z1, z2, z1, -z2:
    # two pairs of opposite entries, whose angles mod pi are (a, b) up to
    # the family's orbit
    a, b = [], []
    for k, l, m in ((1, 2, 3), (2, 1, 3), (3, 1, 2)):
        keep = (abs(lines[:, 0] + lines[:, k]) < _PI_GATE) & (abs(lines[:, l] + lines[:, m]) < _PI_GATE)
        a.append(_half_angles(lines[keep, 0]))
        b.append(_half_angles(lines[keep, l]))
    return _unique(np.stack(_fourier_canonical(np.concatenate(a), np.concatenate(b)), axis=-1))


def _h_read_off(rows, cols, interior):
    # family_h's block row and column (row and column 1) hold +-z1 and +-z2
    keep = _all_within(rows, rows[:, :1] ** 2) & _all_within(cols, cols[:, :1] ** 2)
    x = np.stack([_half_angles(rows[keep, 0]), _half_angles(cols[keep, 0])], axis=-1)
    # sign flips of (x1, x2) give equivalent members
    return _unique(np.abs(x))


# The stages, tried in this order: the label, the read-off (rows, columns
# and interiors of the pi-cells -> points), and build(*p), the member the
# input must be equivalent to for the label with params p. A member two
# stages share takes the earlier stage's label.
_STAGES = (
    ("D6", _d6_read_off, dita_d6),
    # dita_d6(-c) is equivalent to the transpose of dita_d6(c)
    ("D6", _d6_read_off, lambda c: dita_d6(-c)),
    ("F6-slice", lambda r, c, i: _fourier_read_off(r), fourier_f6),
    ("F6T-slice", lambda r, c, i: _fourier_read_off(c), FAMILIES["f6t"][0]),
    ("H-family", _h_read_off, family_h),
)

# `unknown` reports the least fingerprint distance to these members: each
# family's builder on a fixed coarse grid of its parameter box
_PANEL = (
    (dita_d6, [(c,) for c in np.linspace(-np.pi / 4, np.pi / 4, 9)]),
    (fourier_f6, list(product(np.arange(4) * np.pi / 4, repeat=2))),
    (family_h, list(product((np.arange(6) + 0.5) * np.pi / 6 - np.pi / 2, repeat=2))),
)


# fingerprint_distances makes a few (K, 900) temporaries: K = 8 keeps them
# about 100 KB each, where all 61 members at once raise the process's peak
# memory by about 2.5 MB and run slower
_PANEL_CHUNK = 8


@lru_cache(maxsize=None)
def _panel_stack():
    """_PANEL's 61 members as one read-only stack (61, 6, 6), built once; each
    is Hadamard within FINGERPRINT_HADAMARD_TOL, so none is skipped."""
    stack = np.array([build(*p) for build, points in _PANEL for p in points])
    stack.flags.writeable = False
    return stack


def classify(h, grid_n=24):
    """Label an order-6 Hadamard matrix F6-slice, F6T-slice, H-family, D6 or
    unknown.

    Every labelled member has a 2x2 Hadamard sub-block, so candidate
    parameters are read off the input's pi-cells (see _pi_cells) and
    confirmed in read-off order by exact equivalence at
    FINGERPRINT_HADAMARD_TOL, the tolerance inputs must meet; the first
    confirmed member gives the label, its canonical parameters and its
    fingerprint distance. grid_n is accepted and unused.

    `unknown` is a proof that the input is equivalent to no member of the
    four families. An input equivalent to a member has the image of the
    member's own block among its pi-cells, whose read-off gives the member's
    parameters up to the family's orbit (for H, in the member's own
    orientation: its transpose is another member). Every point read off is
    confirmed or refuted by are_equivalent, whose `inequivalent` is a proof,
    except where the builder raises SingularZ or are_equivalent raises
    NotHadamard for the member, as for family_h at (pi/2, pi/2), the H
    read-off of every dita_d6(c): no member lies there. An `unknown` reports
    the least fingerprint distance to the members of _PANEL."""
    h = as_matrix(h)
    if h.shape[0] != 6:
        raise OrderUnsupported("classification is order-6 only")
    # fingerprint's gate is the one classify needs
    fq = fingerprint(h, CLASSIFY_PRECISION)
    cells = _pi_cells(h)
    for label, read_off, build in _STAGES:
        for p in read_off(*cells):
            try:
                member = build(*p)
                result = are_equivalent(h, member, tol=FINGERPRINT_HADAMARD_TOL)
            except (SingularZ, NotHadamard):
                continue
            if result.decision == "equivalent":
                distance = fingerprint(member, CLASSIFY_PRECISION).distance(fq)
                return Classification(label, tuple(float(x) for x in p), float(distance))
    stack = _panel_stack()
    distance = min(
        fingerprint_distances(stack[k:k + _PANEL_CHUNK], fq).min()
        for k in range(0, len(stack), _PANEL_CHUNK)
    )
    return Classification("unknown", None, float(distance))
