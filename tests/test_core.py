import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard6 import (
    DimensionMismatch,
    EquivalenceWitness,
    Fingerprint,
    NearZeroEntry,
    NotHadamard,
    apply_equivalence,
    dagger,
    dephase,
    dita_d6,
    family_h,
    fingerprint,
    fourier_f6,
    is_hadamard,
    modulus_defect,
    transpose,
    unitarity_defect,
)
from hadamard6 import io

from conftest import fingerprint_oracle, random_witness

F0 = fourier_f6(0.0, 0.0)


def test_modulus_defect_examples():
    m = F0.copy()
    assert modulus_defect(m) < 1e-15
    m[2, 3] *= 1.5
    assert abs(modulus_defect(m) - 0.5) < 1e-15


def test_unitarity_defect_examples():
    assert unitarity_defect(F0) < 1e-14
    # all-ones 2x2: M M^dag / 2 = [[1,1],[1,1]], off diagonal 1
    ones = np.ones((2, 2), dtype=complex)
    assert abs(unitarity_defect(ones) - 1.0) < 1e-15


def test_is_hadamard():
    assert is_hadamard(F0, 1e-10)
    assert not is_hadamard(np.eye(6, dtype=complex), 1e-10)
    with pytest.raises(ValueError):
        is_hadamard(F0, 0.0)


def test_is_hadamard_rejects_non_finite_tol():
    for tol in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            is_hadamard(F0, tol)


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        modulus_defect(np.ones((2, 3)))


def test_dagger_transpose():
    m = family_h(0.3, 0.2)
    assert np.array_equal(dagger(m), m.conj().T)
    assert np.array_equal(transpose(m), m.T)
    assert is_hadamard(dagger(m), 1e-10)
    assert is_hadamard(transpose(m), 1e-10)


def test_witness_validation():
    with pytest.raises(ValueError):
        EquivalenceWitness((0, 0, 1, 2, 3, 4), (1,) * 6, tuple(range(6)), (1,) * 6)
    with pytest.raises(DimensionMismatch):
        EquivalenceWitness(tuple(range(6)), (1,) * 5, tuple(range(6)), (1,) * 6)


def test_apply_equivalence_identity():
    w = EquivalenceWitness.identity(6)
    assert np.allclose(apply_equivalence(F0, w), F0)


def test_apply_equivalence_semantics(rng):
    # result[i, j] = row_phases[i] * M[row_perm[i], col_perm[j]] * col_phases[j]
    m = family_h(0.3, 0.2)
    w = random_witness(6, rng)
    out = apply_equivalence(m, w)
    for i in range(6):
        for j in range(6):
            expect = w.row_phases[i] * m[w.row_perm[i], w.col_perm[j]] * w.col_phases[j]
            assert abs(out[i, j] - expect) < 1e-14


def test_apply_equivalence_dimension_mismatch(rng):
    with pytest.raises(DimensionMismatch):
        apply_equivalence(F0, random_witness(5, rng))


def test_dephase_fixes_border():
    m = apply_equivalence(family_h(0.4, 0.1), random_witness(6, np.random.default_rng(3)))
    out, w = dephase(m)
    assert np.allclose(out[0, :], 1.0)
    assert np.allclose(out[:, 0], 1.0)
    assert is_hadamard(out, 1e-10)
    # the witness maps the input to the dephased form
    assert np.max(np.abs(apply_equivalence(m, w) - out)) < 1e-12


def test_dephase_idempotent():
    out, _ = dephase(family_h(0.3, 0.2))
    again, w = dephase(out)
    assert np.max(np.abs(again - out)) < 1e-14
    assert w.row_perm == tuple(range(6))


def test_dephase_near_zero_entry():
    m = F0.copy()
    m[0, 3] = 0.1
    with pytest.raises(NearZeroEntry):
        dephase(m)


def test_fingerprint_matches_oracle():
    # entries of F6(0,0) are sixth roots, so phases are multiples of pi/3
    fp = fingerprint(F0, 8)
    assert fp.values == fingerprint_oracle(F0, 8)
    assert len(fp) == 900
    step = np.pi / 3
    for v in fp.values:
        assert min(abs(v - k * step) for k in range(6)) < 1e-7


def test_fingerprint_oracle_general():
    m = family_h(0.37, 0.21)
    assert fingerprint(m, 6).values == fingerprint_oracle(m, 6)


def test_fingerprint_invariance(rng):
    m = family_h(0.5, 0.3)
    moved = apply_equivalence(m, random_witness(6, rng))
    assert fingerprint(m, 8).values == fingerprint(moved, 8).values


def test_fingerprint_separates_families():
    assert fingerprint(F0, 8).values != fingerprint(dita_d6(0.0), 8).values


def test_fingerprint_requires_hadamard():
    with pytest.raises(NotHadamard):
        fingerprint(np.eye(6, dtype=complex))


def test_fingerprint_distance():
    a = fingerprint(F0, 6)
    b = fingerprint(dita_d6(0.0), 6)
    assert a.distance(a) == 0.0
    d = a.distance(b)
    assert d > 0
    assert abs(d - sum(abs(x - y) for x, y in zip(a.values, b.values))) < 1e-9
    with pytest.raises(ValueError):
        a.distance(Fingerprint(b.values, rounding=8))


def test_matrix_json_roundtrip():
    m = family_h(0.3, 0.2)
    back = io.matrix_from_obj(io.matrix_to_obj(m))
    assert np.max(np.abs(back - m)) < 1e-15


def test_matrix_from_phase_turns():
    obj = {"n": 2, "phase_turns": [[0.0, 0.0], [0.0, 0.5]]}
    m = io.matrix_from_obj(obj)
    assert np.max(np.abs(m - np.array([[1, 1], [1, -1]], dtype=complex))) < 1e-15


def test_matrix_obj_malformed():
    with pytest.raises(ValueError):
        io.matrix_from_obj({"n": 3, "re": [[1.0] * 2] * 2, "im": [[0.0] * 2] * 2})
    with pytest.raises(ValueError):
        io.matrix_from_obj({"n": 2})


def test_witness_json_roundtrip(rng):
    w = random_witness(6, rng)
    back = io.witness_from_obj(io.witness_to_obj(w))
    assert back.row_perm == w.row_perm
    assert back.col_perm == w.col_perm
    assert np.max(np.abs(np.array(back.row_phases) - np.array(w.row_phases))) < 1e-15
    assert np.max(np.abs(np.array(back.col_phases) - np.array(w.col_phases))) < 1e-15


angles = st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False)


@given(a=angles, b=angles)
@settings(max_examples=25, deadline=None)
def test_fourier_always_hadamard(a, b):
    assert is_hadamard(fourier_f6(a, b), 1e-10)


@given(a=angles, b=angles, seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=15, deadline=None)
def test_fingerprint_invariant_property(a, b, seed):
    m = fourier_f6(a, b)
    w = random_witness(6, np.random.default_rng(seed))
    assert fingerprint(m, 7).values == fingerprint(apply_equivalence(m, w), 7).values


@given(seed=st.integers(min_value=0, max_value=2**31))
@settings(max_examples=20, deadline=None)
def test_dephase_canonical_within_phasing_orbit(seed):
    # dephasing after pure phasing (identity perms) lands on the same form
    rng = np.random.default_rng(seed)
    m = family_h(0.3, 0.2)
    w = EquivalenceWitness(
        tuple(range(6)),
        tuple(np.exp(2j * np.pi * rng.random(6))),
        tuple(range(6)),
        tuple(np.exp(2j * np.pi * rng.random(6))),
    )
    a, _ = dephase(m)
    b, _ = dephase(apply_equivalence(m, w))
    assert np.max(np.abs(a - b)) < 1e-12
