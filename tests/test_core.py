import dataclasses
import hashlib
import json
import math
import pickle
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hadamard6
from hadamard6 import (
    DimensionMismatch,
    EquivalenceWitness,
    Fingerprint,
    NearZeroEntry,
    NotHadamard,
    apply_equivalence,
    block_compose,
    dagger,
    dephase,
    dita_d6,
    family_h,
    fingerprint,
    fingerprint_distances,
    fourier_f6,
    is_hadamard,
    modulus_defect,
    transpose,
    unitarity_defect,
)
from hadamard6 import io
from hadamard6.core import _Prepared, _quadruple_phases, _unitarity_defects
from hadamard6.families import FAMILIES

from conftest import PINNED_MEMBERS, fingerprint_oracle, random_witness

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


def test_unitarity_defect_bits():
    # the bits of max |m^H m / n - I|, which project_search compares to pick
    # its best iterate and reports as final_defect: members of every tag,
    # random unimodular matrices, jittered images, order 12 and a stack
    rng = np.random.default_rng(37)

    def reference(m):
        n = m.shape[-1]
        return np.abs(m.conj().T @ m / n - np.eye(n)).max()

    mats = []
    for tag, params in PINNED_MEMBERS.items():
        m = FAMILIES[tag][0](*params)
        image = apply_equivalence(m, random_witness(6, rng))
        mats += [m, image * np.exp(1j * 1e-8 * rng.standard_normal((6, 6)))]
    mats += [np.exp(2j * np.pi * rng.random((n, n))) for n in (1, 2, 6, 12)]
    mats.append(block_compose(F0, family_h(0.3, 0.2), rng.uniform(-np.pi, np.pi, 5)))
    for m in mats:
        assert unitarity_defect(m).hex() == float(reference(m)).hex()
    stack = np.stack(mats[:16])
    assert [float(d).hex() for d in _unitarity_defects(stack)] == [
        float(reference(m)).hex() for m in stack
    ]


def test_is_hadamard():
    assert is_hadamard(F0, 1e-10)
    assert not is_hadamard(np.eye(6, dtype=complex), 1e-10)
    with pytest.raises(ValueError):
        is_hadamard(F0, 0.0)


def test_is_hadamard_rejects_non_finite_tol():
    for tol in (float("nan"), float("inf"), True, np.True_):  # each bool ran at tol 1.0
        with pytest.raises(ValueError):
            is_hadamard(F0, tol)


def test_non_square_rejected():
    with pytest.raises(DimensionMismatch):
        modulus_defect(np.ones((2, 3)))
    # fingerprint takes one matrix; fingerprint_distances takes a stack
    h = family_h(0.37, 0.21)
    with pytest.raises(DimensionMismatch):
        fingerprint(np.stack([h, h]))


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
    # a non-integer entry is refused, not truncated to the identity
    with pytest.raises(ValueError, match="must be integers"):
        EquivalenceWitness((0, 1.9, 2, 3, 4, 5), (1,) * 6, tuple(range(6)), (1,) * 6)
    # a bool is an int to operator.index, but not a permutation entry
    with pytest.raises(ValueError, match="must be integers"):
        EquivalenceWitness((True, False, 2, 3, 4, 5), (1,) * 6, tuple(range(6)), (1,) * 6)
    obj = io.witness_to_obj(EquivalenceWitness.identity(6))
    obj["row_perm"] = [0, 1.5, 2, 3, 4, 5]
    with pytest.raises(ValueError, match="must be integers"):
        io.witness_from_obj(obj)


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
    with pytest.raises(DimensionMismatch):  # order 6 against order 2
        a.distance(fingerprint(np.array([[1, 1], [1, -1]]), 6))


def test_fingerprint_contract():
    fp = fingerprint(family_h(0.37, 0.21), 6)
    assert type(fp.values) is tuple
    assert all(type(v) is float for v in fp.values)
    assert len(fp) == len(fp.values) == 900
    for same in (Fingerprint(fp.values, fp.rounding), Fingerprint(values=fp.values, rounding=6)):
        assert same == fp
        assert hash(same) == hash(fp)
        assert repr(same) == repr(fp) == f"Fingerprint(values={fp.values!r}, rounding=6)"
    assert fp != Fingerprint(fp.values, 8)
    assert fp != (fp.values, 6)
    back = pickle.loads(pickle.dumps(fp))
    assert back == fp and back.values == fp.values
    with pytest.raises(ValueError):
        fp.phases[0] = 1.0
    with pytest.raises(FrozenInstanceError):
        fp.rounding = 8
    other = fingerprint(dita_d6(0.0), 6)
    tuple_l1 = float(np.abs(np.array(fp.values) - np.array(other.values)).sum())
    assert fp.distance(other) == tuple_l1


def test_fingerprint_rounding_checked():
    # each built before, and True compared and hashed equal to rounding 1
    for rounding in (6.5, True, 400, -309, "6", None):
        with pytest.raises(ValueError, match="precision must lie in"):
            Fingerprint((0.0,) * 4, rounding=rounding)
    assert Fingerprint((0.0,) * 4, rounding=np.int64(6)) == Fingerprint((0.0,) * 4, rounding=6)


def test_exported_dataclasses_are_frozen():
    exported = [getattr(hadamard6, name) for name in hadamard6.__all__]
    classes = {c.__name__: c for c in exported if isinstance(c, type) and dataclasses.is_dataclass(c)}
    assert sorted(classes) == [
        "Classification",
        "ComposeSpec",
        "EquivalenceResult",
        "EquivalenceWitness",
        "Fingerprint",
        "SearchConfig",
        "SearchResult",
        "SignPattern",
    ]
    for name, cls in classes.items():
        assert cls.__dataclass_params__.frozen, name


def test_fingerprint_is_a_dataclass():
    fp = fingerprint(family_h(0.37, 0.21), 6)
    assert [f.name for f in dataclasses.fields(fp)] == ["values", "rounding"]
    assert dataclasses.asdict(fp) == {"values": fp.values, "rounding": 6}
    back = pickle.loads(pickle.dumps(fp))
    assert np.array_equal(back.phases, fp.phases)
    assert not back.phases.flags.writeable
    again = dataclasses.replace(fp, rounding=8)
    assert again == Fingerprint(fp.values, 8)
    assert np.array_equal(again.phases, fp.phases) and not again.phases.flags.writeable
    assert dataclasses.replace(fp) == fp


def test_fingerprint_precision_out_of_range():
    # np.round overflowed: from 308 up these phases of pi came back 0.0, and
    # from -309 down NaN
    h2 = np.array([[1, 1], [1, -1]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for precision in (307, -308):
            assert np.isfinite(fingerprint(h2, precision).phases).all()
        # 6.5 raised numpy's TypeError, and True rounded at precision 1
        for precision in (308, -309, 10**400, 6.5, True):
            with pytest.raises(ValueError):
                fingerprint(h2, precision)
        with pytest.raises(ValueError):
            fingerprint_distances(np.stack([h2]), Fingerprint((0.0,) * 4, rounding=400))
    # the precision is checked before the gate: this raised NotHadamard, where
    # fingerprint_match raised ValueError
    with pytest.raises(ValueError, match="precision must lie in"):
        fingerprint(np.eye(6), 400)
    with pytest.raises(DimensionMismatch):  # an order-2 stack against order 6
        fingerprint_distances(np.stack([h2]), fingerprint(F0))
    with pytest.raises(DimensionMismatch):  # an empty order-6 stack against order 2
        fingerprint_distances(np.empty((0, 6, 6), complex), fingerprint(h2))
    # an empty stack has no distances
    empty = fingerprint_distances(np.empty((0, 6, 6), complex), fingerprint(F0))
    assert empty.dtype == float and empty.shape == (0,)


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


def test_matrix_obj_n_must_be_an_integer():
    entries = {"re": [[1.0]], "im": [[0.0]]}
    for n in ("1", " 1 ", True, 1.5, 1.99):
        with pytest.raises(ValueError):
            io.matrix_from_obj({"n": n, **entries})
    for n in (1, 1.0):
        assert io.matrix_from_obj({"n": n, **entries}).shape == (1, 1)


def test_witness_json_roundtrip(rng):
    w = random_witness(6, rng)
    back = io.witness_from_obj(io.witness_to_obj(w))
    assert back.row_perm == w.row_perm
    assert back.col_perm == w.col_perm
    assert np.max(np.abs(np.array(back.row_phases) - np.array(w.row_phases))) < 1e-15
    assert np.max(np.abs(np.array(back.col_phases) - np.array(w.col_phases))) < 1e-15


_WITNESS_OBJ = io.witness_to_obj(EquivalenceWitness.identity(6))
# NaN and infinite phase parts as a file holds them; they were read as the
# phases (nan+0j) and (1+infj)
_NAN_PHASES = json.loads('{"re": [NaN, 1, 1, 1, 1, 1], "im": [0, 0, 0, 0, 0, 0]}')
_INF_PHASES = json.loads('{"re": [1, 1, 1, 1, 1, 1], "im": [0, 0, 0, 0, 0, Infinity]}')


@pytest.mark.parametrize(
    "obj",
    [
        {},
        [],
        {k: v for k, v in _WITNESS_OBJ.items() if k != "col_phases"},
        # 7 real parts against 6 imaginary parts were cut to 6 phases
        dict(_WITNESS_OBJ, row_phases={"re": [1.0] * 7, "im": [0.0] * 6}),
        # booleans were read as the integers and floats they convert to
        dict(_WITNESS_OBJ, row_perm=[True, False, 2, 3, 4, 5]),
        dict(_WITNESS_OBJ, row_phases={"re": [True] * 6, "im": [False] * 6}),
        dict(_WITNESS_OBJ, row_phases=_NAN_PHASES),
        dict(_WITNESS_OBJ, col_phases=_INF_PHASES),
    ],
    ids=[
        "empty",
        "list",
        "no_col_phases",
        "seven_re_six_im",
        "perm_bools",
        "phase_bools",
        "nan_phase",
        "inf_phase",
    ],
)
def test_witness_obj_malformed(obj):
    with pytest.raises(ValueError):
        io.witness_from_obj(obj)


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


_MEMBERS = {
    "h": lambda u, v: family_h(1.5 * u, 1.5 * v),
    "f6": lambda u, v: fourier_f6(np.pi * u, np.pi * v),
    "d6": lambda u, v: dita_d6(np.pi / 4 * u),
}
unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@given(
    family=st.sampled_from(sorted(_MEMBERS)),
    u=unit,
    v=unit,
    seed=st.integers(min_value=0, max_value=2**31),
    precision=st.sampled_from((6, 8)),
)
@example(family="h", u=0.0, v=0.0, seed=0, precision=8)  # raw phases include -0.0
# family_h(0, 0.005859375): 8 of 900 products of scalars differed in the last
# bit from the array product and rounded the other way at precision 8
@example(family="h", u=0.0, v=0.00390625, seed=0, precision=8)
@settings(max_examples=30, deadline=None)
def test_fingerprint_oracle_property(family, u, v, seed, precision):
    member = _MEMBERS[family](u, v)
    image = apply_equivalence(member, random_witness(6, np.random.default_rng(seed)))
    for m in (member, image):
        values = fingerprint(m, precision).values
        assert values == fingerprint_oracle(m, precision)
        # the fingerprint verb prints these; -0.0 would show as "-0.0"
        assert not any(math.copysign(1.0, x) < 0 for x in values)


@given(
    members=st.lists(
        st.tuples(st.sampled_from(sorted(_MEMBERS)), unit, unit), min_size=1, max_size=5
    ),
    seed=st.integers(min_value=0, max_value=2**31),
    precision=st.sampled_from((6, 8)),
    order=st.sampled_from((6, 12)),
)
@example(members=[("h", 0.0, 0.0), ("f6", 0.0, 0.0)], seed=0, precision=8, order=6)
# ten matrices: fingerprint_distances takes them eight at a time
@example(
    members=[("h", 0.3, 0.2), ("f6", 0.1, 0.4), ("d6", 0.5, 0.0), ("h", -0.7, 0.6), ("f6", 0.9, -0.2)],
    seed=1,
    precision=6,
    order=6,
)
@settings(max_examples=30, deadline=None)
def test_fingerprint_distances_property(members, seed, precision, order):
    rng = np.random.default_rng(seed)
    stack = []
    for family, u, v in members:
        m = _MEMBERS[family](u, v)
        if order == 12:
            m = block_compose(m, _MEMBERS[family](v, u), rng.uniform(-np.pi, np.pi, 5))
        stack += [m, apply_equivalence(m, random_witness(order, rng))]
    stack = np.stack(stack)
    fq = fingerprint(stack[0], precision)
    dists = fingerprint_distances(stack, fq)
    phases = _quadruple_phases(_Prepared(*stack))
    assert dists.shape == (len(stack),)
    for k, m in enumerate(stack):
        assert dists[k] == fingerprint(m, precision).distance(fq)
        # bitwise, the sign of zero included
        assert phases[k].tobytes() == _quadruple_phases(_Prepared(m))[0].tobytes()
    assert dists[0] == 0.0
    bad = stack.copy()
    bad[-1, 0, 0] *= 1.5
    with pytest.raises(NotHadamard):
        fingerprint_distances(bad, fq)


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


@pytest.mark.float_bits
def test_quadruple_phases_bits_pinned():
    # the raw phases' last bits follow the multiply order of the one
    # quadruple kernel (h_ij h_kl conj(h_il) conj(h_kj), left to right),
    # which the screen also runs on entry directions; the rounded
    # fingerprints do not show a change of that order
    pinned = {
        (fourier_f6, (0.4, 0.9)): "4610a54178a14ed4978dc395329a7bab7809a09e85e9ada3b2e0ac0592c42f1e",
        (dita_d6, (0.3,)): "4582e152641034fde69d9c157b4dd15ec9ae29e531c5a846ec72c13d52de7a52",
    }
    for (build, params), digest in pinned.items():
        phases = _quadruple_phases(_Prepared(build(*params)))[0]
        assert hashlib.sha256(phases.tobytes()).hexdigest() == digest
