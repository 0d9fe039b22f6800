import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard6 import (
    DimensionMismatch,
    NotHadamard,
    OrderUnsupported,
    apply_equivalence,
    are_equivalent,
    block_compose,
    dita_d6,
    family_h,
    fingerprint_match,
    fourier_f6,
    transpose,
    verify_witness,
)

from conftest import random_witness


def test_witness_image_recovered(rng):
    h1 = family_h(0.3, 0.2)
    h2 = apply_equivalence(h1, random_witness(6, rng))
    res = are_equivalent(h1, h2)
    assert res.decision == "equivalent"
    assert verify_witness(h1, h2, res.witness) < 1e-9


def test_transpose_of_fourier_origin_is_equivalent():
    f = fourier_f6(0.0, 0.0)
    res = are_equivalent(f, transpose(f))
    assert res.decision == "equivalent"
    assert verify_witness(f, transpose(f), res.witness) < 1e-9


def test_fourier_vs_dita_inequivalent():
    f, d = fourier_f6(0.0, 0.0), dita_d6(0.0)
    res = are_equivalent(f, d)
    assert res.decision == "inequivalent"
    assert "fingerprint" in res.screened_by
    # same verdict without the screen, by exhaustion
    res = are_equivalent(f, d, screen=False)
    assert res.decision == "inequivalent"
    assert res.screened_by is None


def test_fingerprint_match():
    assert fingerprint_match(fourier_f6(0.3, 0.3), fourier_f6(0.3, 0.3).T)
    assert not fingerprint_match(fourier_f6(0.0, 0.0), dita_d6(0.0))
    # phases on a rounding boundary at precision 8 still match their image
    h = family_h(0.700000005, 0.2)
    assert fingerprint_match(h, apply_equivalence(h, random_witness(6, np.random.default_rng(1))))
    with pytest.raises(DimensionMismatch):
        fingerprint_match(fourier_f6(0.0, 0.0), np.ones((2, 2), dtype=complex))
    # a NaN tol answered False, a non-certificate, for identical matrices,
    # and precision -400 overflowed in 10.0**-precision
    for tol in (float("nan"), float("inf"), 0.0, -1e-8):
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            fingerprint_match(h, h, tol=tol)
    for precision in (-400, -309, 308):
        with pytest.raises(ValueError, match=r"precision must lie in \[-308, 307\]"):
            fingerprint_match(h, h, precision=precision)
    assert fingerprint_match(h, h, precision=-308) and fingerprint_match(h, h, precision=307)


def test_screen_margin_follows_tol():
    # entries moved by ~2e-9 keep the pair within the enumeration's reach at
    # tol 1e-8, so the screen must not reject it
    h = family_h(0.3, 0.2)
    rng = np.random.default_rng(3)
    for _ in range(30):
        p = h * np.exp(1j * 2e-9 * rng.standard_normal((6, 6)))
        assert are_equivalent(h, p, tol=1e-8).decision == "equivalent"


# known equivalences and inequivalences inside the families
def test_symmetry_panel():
    u, v = 0.52, 0.31
    cases = [
        (family_h(u, v), family_h(-u, -v), "equivalent"),
        (family_h(u, v), family_h(u, -v), "equivalent"),
        (family_h(u, v), family_h(-u, v), "equivalent"),
        (fourier_f6(0.4, 0.9), fourier_f6(0.4 + np.pi / 3, 0.9 - np.pi / 3), "equivalent"),
        (fourier_f6(0.4, 0.9), fourier_f6(0.9, 0.4), "equivalent"),
        (fourier_f6(0.4, 0.9), fourier_f6(-0.4, 0.9), "inequivalent"),
        # classify's H confirmation reads parameter swaps as the transpose class
        (family_h(v, u), family_h(u, v).T, "equivalent"),
        # the moves _fourier_canonical applies besides the two above
        (fourier_f6(0.4, 0.9), fourier_f6(0.4 + np.pi, 0.9), "equivalent"),
        (fourier_f6(0.4, 0.9), fourier_f6(0.4, 0.9 + np.pi), "equivalent"),
        (fourier_f6(0.4, 0.9), fourier_f6(-0.4, -0.9), "equivalent"),
        (fourier_f6(0.4, 0.9), fourier_f6(0.9 - 0.4, 0.9), "equivalent"),
    ]
    for h1, h2, expect in cases:
        res = are_equivalent(h1, h2, tol=1e-8)
        assert res.decision == expect
        if expect == "equivalent":
            assert verify_witness(h1, h2, res.witness, tol=1e-8) < 1e-7


def test_transpose_class_is_separate():
    # H(u,v) and H(v,u) are transposes of inequivalent matrices generically
    res = are_equivalent(family_h(0.52, 0.31), family_h(0.31, 0.52), tol=1e-8)
    assert res.decision == "inequivalent"


def test_dita_sign_collision():
    # identical fingerprints yet exhaustively inequivalent
    a, b = dita_d6(0.2), dita_d6(-0.2)
    assert fingerprint_match(a, b)
    res = are_equivalent(a, b)
    assert res.decision == "inequivalent"
    assert res.screened_by is None


def test_order12_screening_only():
    h = family_h(0.3, 0.2)
    m1 = block_compose(h, h, np.zeros(5))
    m2 = block_compose(h, h, 0.3 * np.ones(5))
    res = are_equivalent(m1, m1.copy())
    assert res.decision == "inconclusive"
    assert "necessary but not sufficient" in res.screened_by
    res = are_equivalent(m1, m2)
    assert res.decision in ("inconclusive", "inequivalent")


def test_order_unsupported():
    m2 = np.array([[1, 1], [1, -1]], dtype=complex)
    with pytest.raises(OrderUnsupported):
        are_equivalent(m2, m2)


def test_shape_and_hadamard_guards():
    f = fourier_f6(0.0, 0.0)
    with pytest.raises(DimensionMismatch):
        are_equivalent(f, np.ones((2, 2), dtype=complex))
    with pytest.raises(NotHadamard):
        are_equivalent(f, np.eye(6, dtype=complex))


@given(seed=st.integers(min_value=0, max_value=2**31), x=st.floats(min_value=-1.4, max_value=1.4))
@settings(max_examples=10, deadline=None)
def test_equivalence_roundtrip_property(seed, x):
    rng = np.random.default_rng(seed)
    h1 = family_h(x, 0.5 * x - 0.2)
    h2 = apply_equivalence(h1, random_witness(6, rng))
    res = are_equivalent(h1, h2)
    assert res.decision == "equivalent"
    assert verify_witness(h1, h2, res.witness) < 1e-8
