import numpy as np
import pytest

from hadamard6 import (
    NotHadamard,
    OrderUnsupported,
    SearchConfig,
    classify,
    dita_corner,
    dita_d6,
    family_h,
    fourier_f6,
    is_hadamard,
    modulus_defect,
    project_search,
    unitarity_defect,
)
from hadamard6.search import _fourier_canonical

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
