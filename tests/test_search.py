import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard6 import (
    NotHadamard,
    OrderUnsupported,
    SearchConfig,
    classify,
    dita_corner,
    dita_d6,
    family_h,
    fingerprint,
    fourier_f6,
    is_hadamard,
    modulus_defect,
    project_search,
    unitarity_defect,
)
from hadamard6.search import (
    _MICROSCAN_OFFSETS,
    _REFINE_MAX_EVALS,
    _REFINE_WMIN,
    CLASSIFY_PRECISION,
    _distances,
    _fourier_canonical,
    _microscan,
    _refine,
)

# symmetric matrix with entries in the cube roots of unity; lies outside
# every family the classifier knows
W3 = np.exp(2j * np.pi / 3)
SPECTRAL_SIX = np.array(
    [
        [1, 1, 1, 1, 1, 1],
        [1, 1, W3, W3, W3**2, W3**2],
        [1, W3, 1, W3**2, W3**2, W3],
        [1, W3, W3**2, 1, W3, W3**2],
        [1, W3**2, W3**2, W3, 1, W3],
        [1, W3**2, W3, W3**2, W3, 1],
    ],
    dtype=complex,
)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_iter=0)
    with pytest.raises(ValueError):
        SearchConfig(tol=0.0)
    with pytest.raises(ValueError):
        SearchConfig(tol=float("nan"))
    for kw in ({"max_iter": float("nan")}, {"max_iter": 2.5}, {"n": -1}, {"n": 0}, {"n": 6.0}):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            SearchConfig(**kw)


def test_fixed_point_detected_without_iterating():
    res = project_search(SearchConfig(seed_matrix=fourier_f6(0.0, 0.0)))
    assert res.converged
    assert res.iterations == 0
    assert res.final_defect < 1e-14


def test_perturbed_member_converges():
    rng = np.random.default_rng(5)
    seed = family_h(0.4, 0.1) * np.exp(1j * 0.01 * rng.standard_normal((6, 6)))
    res = project_search(SearchConfig(seed_matrix=seed, tol=1e-8))
    assert res.converged
    assert res.iterations < 200
    assert is_hadamard(res.matrix, 1e-7)


def test_search_determinism():
    a = project_search(SearchConfig(rng_seed=3))
    b = project_search(SearchConfig(rng_seed=3))
    assert np.array_equal(a.matrix, b.matrix)
    assert a.iterations == b.iterations


def test_final_defect_never_worse_than_seed():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        m0 = np.exp(2j * np.pi * rng.random((6, 6)))
        d0 = max(modulus_defect(m0), unitarity_defect(m0))
        res = project_search(SearchConfig(rng_seed=seed, max_iter=50))
        assert res.final_defect <= d0


def test_impossible_tolerance_reports_nonconvergence():
    res = project_search(SearchConfig(rng_seed=0, tol=1e-16, max_iter=40))
    assert not res.converged
    assert res.iterations == 40


def test_classify_family_member():
    c = classify(family_h(0.37, 0.21))
    assert c.label == "H-family"
    assert np.max(np.abs(np.array(c.params) - (0.37, 0.21))) < 1e-3


def test_classify_dita():
    # a corner member is equivalent to dita_d6(-x): the D6 stage, tried
    # first, labels it with |c|
    for m, c0 in ((dita_d6(0.2), 0.2), (dita_corner(0.3), 0.3)):
        c = classify(m)
        assert c.label == "D6"
        assert abs(c.params[0] - c0) < 1e-3


def test_classify_fourier_and_transpose():
    c = classify(fourier_f6(0.4, 0.9))
    assert c.label == "F6-slice"
    # canonical representative of the parameter orbit of (0.4, 0.9)
    assert np.max(np.abs(np.array(c.params) - (0.1471975, 1.6943951))) < 1e-3
    ct = classify(fourier_f6(0.4, 0.9).T)
    assert ct.label == "F6T-slice"
    assert np.max(np.abs(np.array(ct.params) - (0.1471975, 1.6943951))) < 1e-3


def test_fourier_canonical_is_orbit_invariant():
    # (a, b) and (b - a, b) are the same Fourier-family member up to equivalence
    for a, b in ((0.4, 0.9), (0.4804, 0.6852), (-1.3, 2.2), (5.1, 0.35)):
        one = np.array(_fourier_canonical(a, b))
        assert np.max(np.abs(one - _fourier_canonical(b - a, b))) < 1e-12
        assert np.max(np.abs(one - _fourier_canonical(b, a))) < 1e-12


def test_classify_outside_known_families():
    assert is_hadamard(SPECTRAL_SIX, 1e-12)
    c = classify(SPECTRAL_SIX)
    assert c.label == "unknown"
    assert c.params is None
    assert c.distance > 0.09


def test_classify_guards():
    with pytest.raises(NotHadamard):
        classify(np.eye(6, dtype=complex))
    with pytest.raises(OrderUnsupported):
        classify(np.array([[1, 1], [1, -1]], dtype=complex))


def test_classify_distances():
    fq = fingerprint(family_h(0.37, 0.21), CLASSIFY_PRECISION)
    dist = _distances(lambda p: family_h(*p), fq)
    # more points than one kernel call takes, with a singular one between
    points = [(0.3 + 0.01 * i, 0.2 - 0.005 * i) for i in range(70)]
    points[40] = (np.pi / 2, -np.pi / 2)  # family_h raises SingularZ here
    d = dist(points)
    assert d.shape == (70,)
    assert d[40] == np.inf
    for i, p in enumerate(points):
        if i != 40:
            assert d[i] == fingerprint(family_h(*np.asarray(p)), CLASSIFY_PRECISION).distance(fq)
    assert dist([(0.37, 0.21)])[0] == 0.0
    assert dist([]).shape == (0,)


# The one-point-at-a-time compass and microscan loops that the batched
# versions in search.py replace; both must give the same (p, best) bitwise.
def _refine_oracle(dist, p0, w0, lo, hi):
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


def _microscan_oracle(dist, p, lo, hi):
    p = np.asarray(p, dtype=float)
    best_p, best_d = p, dist(p)
    for off in product(_MICROSCAN_OFFSETS, repeat=p.size):
        cand = np.clip(p + np.asarray(off), lo, hi)
        d = dist(cand)
        if d < best_d:
            best_p, best_d = cand, d
    return best_p, best_d


def _rugged(p):
    """Many narrow wells, flat ties from rounding, and an inf hole (as a
    SingularZ point gives) next to (0.3, -0.2)."""
    x, y = float(p[0]), float(p[-1])
    if (x - 0.3) ** 2 + (y + 0.2) ** 2 < 0.01:
        return math.inf
    return round(abs(math.sin(7 * x)) + abs(math.sin(5 * y)) + 0.2 * abs(x + y), 2)


def _slope(p):
    """Improves forever in the box below, so refine runs to the evaluation cap."""
    return -float(p[0]) - 2.0 * float(p[-1])


def _tiny(p):
    """Steps of 1e-16, below the margin by which refine counts a gain."""
    return 1e-16 * abs(round(10 * float(p[0])))


def _batched(f):
    return lambda points: np.array([f(p) for p in np.asarray(points, dtype=float)])


def _same(got, want):
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1] == want[1]


@given(
    x=st.floats(min_value=-1.0, max_value=1.0),
    y=st.floats(min_value=-1.0, max_value=1.0),
    w0=st.sampled_from((0.5, 0.13, 0.002)),
    dim=st.sampled_from((1, 2)),
)
@settings(max_examples=40, deadline=None)
def test_refine_matches_oracle(x, y, w0, dim):
    p0 = (x, y)[:dim]
    _same(_refine(_batched(_rugged), p0, w0, -1.0, 1.0), _refine_oracle(_rugged, p0, w0, -1.0, 1.0))


def test_refine_matches_oracle_at_edges_cap_and_margin():
    calls = []

    def counted(p):
        calls.append(1)
        return _slope(p)

    # the cap: every step improves, so only the evaluation count stops it
    want = _refine_oracle(counted, (0.0, 0.0), 1.0, -1e9, 1e9)
    assert len(calls) > _REFINE_MAX_EVALS
    _same(_refine(_batched(_slope), (0.0, 0.0), 1.0, -1e9, 1e9), want)
    # clipping: starts on the box edge and in its corners
    for p0 in ((1.0, 1.0), (-1.0, -1.0), (1.0, 0.2), (-1.0,), (1.0,)):
        for f in (_rugged, _slope, _tiny):
            _same(_refine(_batched(f), p0, 0.3, -1.0, 1.0), _refine_oracle(f, p0, 0.3, -1.0, 1.0))


def test_microscan_matches_oracle():
    for p0 in ((0.0, 0.0), (0.99, -0.98), (1.0, 1.0), (0.3, -0.16), (0.5,), (-1.0,)):
        for f in (_rugged, _slope):
            _same(_microscan(_batched(f), p0, -1.0, 1.0), _microscan_oracle(f, p0, -1.0, 1.0))
