import dataclasses
import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from hadamard6 import (
    NotHadamard,
    OrderUnsupported,
    SearchConfig,
    SingularZ,
    apply_equivalence,
    border_h,
    classify,
    dita_corner,
    dita_d6,
    family_h,
    fingerprint,
    fourier_f6,
    is_hadamard,
    modulus_defect,
    project_search,
    self_adjoint_h,
    symmetric_m,
    unitarity_defect,
)
from hadamard6 import core, equivalence, search
from hadamard6.core import FINGERPRINT_HADAMARD_TOL, _anchored_forms, _Prepared, fingerprint_distances
from hadamard6.families import FAMILIES, _FOURIER_SHIFT, _WRAP_NOISE, _mod_pi
from hadamard6.search import (
    CLASSIFY_PRECISION,
    _PANEL,
    _PI_GATE,
    _STAGES,
    _fourier_canonical,
    _h_read_off,
    _panel_stack,
    _pi_cells,
    _unique,
)

from conftest import FAMILY_BOXES, PINNED_MEMBERS, random_witness

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
    for tol in (True, np.True_):  # each bool ran at tol 1.0
        with pytest.raises(ValueError, match="tol must be a finite positive number"):
            SearchConfig(tol=tol)
    for kw in (
        {"max_iter": float("nan")},
        {"max_iter": 2.5},
        {"max_iter": True},
        {"n": -1},
        {"n": 0},
        {"n": 6.0},
        {"n": True},
    ):
        with pytest.raises(ValueError, match="must be an integer >= 1"):
            SearchConfig(**kw)
    # None, True and [1, 2] ran through numpy's default_rng; 1.5 and "3"
    # raised its TypeError in project_search
    for seed in (-1, True, None, 1.5, "3", [1, 2]):
        with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
            SearchConfig(rng_seed=seed)
    assert SearchConfig(rng_seed=np.int64(5)).rng_seed == 5


def test_config_is_checked_once_where_built():
    # an assigned tol = True converged at 0 iterations with a defect of 0.884,
    # and n = True raised a raw TypeError in project_search
    cfg = SearchConfig()
    for name, value in (("tol", True), ("max_iter", 0), ("n", True)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, name, value)
    assert cfg == SearchConfig()
    # replace builds a new config, and so checks it
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        dataclasses.replace(cfg, tol=True)
    with pytest.raises(ValueError, match="rng_seed must be an integer >= 0"):
        dataclasses.replace(cfg, rng_seed=-1)
    assert dataclasses.replace(cfg, rng_seed=3) == SearchConfig(rng_seed=3)


# seeds 0-299, 500 below 2**31 - 1, and seeds of 2, 3 and 7 32-bit words:
# SeedSequence mixes the words beyond four into its pool in a second pass
_SEED_PANEL = (
    list(range(300))
    + np.random.default_rng(2024).integers(0, 2**31 - 1, 500).tolist()
    + [2**32, 2**64 + 3, 2**200 + 17, np.int64(5)]
)


def test_uniforms_match_default_rng():
    # the start matrices project_search draws without numpy.random are
    # numpy's, bit for bit
    for s in _SEED_PANEL:
        assert search._uniforms(s, 36) == np.random.default_rng(s).random(36).tolist(), s
    assert search._uniforms(7, 2000) == np.random.default_rng(7).random(2000).tolist()
    assert search._uniforms(7, 0) == []


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


def _fourier_canonical_one(a, b):
    """One pair at a time, with Python floats and a tuple minimum: the
    reference the array form must match bit for bit."""
    images = []
    for p, q in ((a, b), (b - a, -a), (-b, a - b)):
        for u, v in ((p, q), (q, p), (-p, -q), (-q, -p)):
            for t in (0.0, _FOURIER_SHIFT, 2 * _FOURIER_SHIFT):
                images.append((u + t, v - t))
    a, b = min(map(tuple, _mod_pi(np.array(images, dtype=float)).tolist()))
    return a, max(b, float(_mod_pi(a - b)))


def test_fourier_canonical_arrays():
    rng = np.random.default_rng(14)
    edges = [(0.0, 0.0), (-0.0, 0.0), (np.pi / 3, 0.0), (0.0, np.pi), (np.pi / 3, 2 * np.pi / 3)]
    # pairs on and around multiples of pi, inside and just outside the wrap noise
    near = [
        (k * np.pi + e, j * np.pi - e)
        for k, j in ((0, 1), (1, 0), (-2, 3), (3, -1))
        for e in (0.0, _WRAP_NOISE / 10, _WRAP_NOISE / 2, -_WRAP_NOISE / 2, 2 * _WRAP_NOISE)
    ]
    pairs = np.concatenate([rng.uniform(-10, 10, (2000, 2)), edges, near])
    a, b = _fourier_canonical(pairs[:, 0], pairs[:, 1])
    assert a.shape == b.shape == (len(pairs),)
    want = np.array([_fourier_canonical_one(float(x), float(y)) for x, y in pairs])
    assert np.stack([a, b], axis=-1).tobytes() == want.tobytes()
    # one pair per element, whatever the shape
    a2, b2 = _fourier_canonical(pairs[:, 0].reshape(-1, 5), pairs[:, 1].reshape(-1, 5))
    assert a2.tobytes() == a.tobytes() and b2.tobytes() == b.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = _fourier_canonical(np.array([]), np.array([]))
    assert a.shape == b.shape == (0,)


def test_classify_outside_known_families():
    assert is_hadamard(SPECTRAL_SIX, 1e-12)
    c = classify(SPECTRAL_SIX)
    assert c.label == "unknown"
    assert c.params is None
    assert c.distance > 0.09


def test_classify_panel():
    # unknown's panel: every member is Hadamard, so none needs skipping, and
    # the least distance is the one a member at a time gives
    stack = _panel_stack()
    assert stack.shape == (sum(len(points) for _, points in _PANEL), 6, 6) == (61, 6, 6)
    assert all(is_hadamard(m, FINGERPRINT_HADAMARD_TOL) for m in stack)
    assert not stack.flags.writeable
    fq = fingerprint(SPECTRAL_SIX, CLASSIFY_PRECISION)
    each = min(
        fingerprint(build(*p), CLASSIFY_PRECISION).distance(fq) for build, points in _PANEL for p in points
    )
    assert fingerprint_distances(stack, fq).min() == each == classify(SPECTRAL_SIX).distance


def test_classify_guards():
    with pytest.raises(NotHadamard):
        classify(np.eye(6, dtype=complex))
    # fingerprint's gate at FINGERPRINT_HADAMARD_TOL = 1e-8 is classify's: a
    # modulus defect of 2e-8 fails it, one of 2e-9 passes
    h = family_h(0.37, 0.21)
    with pytest.raises(NotHadamard):
        classify(h * (1 + 2e-8))
    assert classify(h * (1 + 2e-9)).label == "H-family"
    with pytest.raises(OrderUnsupported):
        classify(np.array([[1, 1], [1, -1]], dtype=complex))


def test_classify_skips_singular_read_off(monkeypatch):
    # the H read-off of a D6 member is a point where family_h raises, which
    # classify skips: no member lies there
    h = dita_d6(0.3)
    assert np.array_equal(_h_read_off(*_pi_cells(_Prepared(h))), [(np.pi / 2, np.pi / 2)])
    with pytest.raises(SingularZ):
        family_h(np.pi / 2, np.pi / 2)
    monkeypatch.setattr("hadamard6.search._STAGES", tuple(s for s in _STAGES if s[0] == "H-family"))
    c = classify(h)
    assert (c.label, c.params) == ("unknown", None)


def test_classify_skips_non_hadamard_member(monkeypatch):
    # a read-off point whose member fails are_equivalent's gate is skipped,
    # and the later stages still decide
    h = dita_d6(0.3)
    expect = classify(h)
    built = []

    def not_hadamard(x):
        built.append(x)
        return np.ones((6, 6), dtype=complex)

    stages = (("D6", lambda r, c, i: np.zeros((1, 1)), not_hadamard),) + _STAGES
    monkeypatch.setattr("hadamard6.search._STAGES", stages)
    c = classify(h)
    assert built == [0.0]
    assert (c.label, c.params) == (expect.label, expect.params)


def test_unique_keeps_first_occurrences_in_order():
    points = np.array([[0.3 + 1e-11, 0.1], [0.2, 0.5], [0.3, 0.1 + 1e-12], [0.1, 0.0], [0.2, 0.5]])
    # rows equal after rounding to 9 digits merge into the first, unrounded
    assert np.array_equal(_unique(points), points[[0, 1, 3]])
    # -1e-12 rounds to -0.0, one value with 0.0
    assert np.array_equal(_unique(np.array([[-1e-12], [0.0]])), [[-1e-12]])
    for d in (1, 2):
        assert _unique(np.zeros((0, d))).shape == (0, d)


def test_read_off_holds_member():
    # the premise of the proof of unknown: an image of a member has the
    # member's reported parameters among its stage's read-off points, each
    # orientation of an H member its own
    rng = np.random.default_rng(16)
    cases = {label: [] for label, _, _ in _STAGES}
    for _ in range(20):
        c = rng.uniform(-np.pi / 4, np.pi / 4)
        a, b = rng.uniform(0.0, 2 * np.pi, 2)
        u, v = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        cases["D6"].append((dita_d6(c), (abs(c),)))
        cases["F6-slice"].append((fourier_f6(a, b), _fourier_canonical(a, b)))
        cases["F6T-slice"].append((fourier_f6(a, b).T, _fourier_canonical(a, b)))
        cases["H-family"] += [(family_h(u, v), (abs(u), abs(v))), (family_h(u, v).T, (abs(v), abs(u)))]
    for label, read_off, _ in _STAGES:
        for m, params in cases[label]:
            points = read_off(*_pi_cells(_Prepared(apply_equivalence(m, random_witness(6, rng)))))
            assert np.abs(points - np.array(params)).max(axis=1).min() < 1e-9


def test_pi_cells():
    # SPECTRAL_SIX's entries are cube roots of unity, so no quadruple
    # product of them is -1
    assert _pi_cells(_Prepared(SPECTRAL_SIX))[0].shape == (0, 4)
    h = family_h(0.37, 0.21)
    rows, cols, interior = _pi_cells(_Prepared(h))
    assert rows.shape == cols.shape == (len(rows), 4) and interior.shape == (len(rows), 16)
    # the block at rows and columns 0, 1: row 1 reads +-z1 and column 1 +-z2
    assert any(
        np.abs(r - h[1, 2:]).max() < 1e-12 and np.abs(c - h[2:, 1]).max() < 1e-12
        for r, c in zip(rows, cols)
    )
    image = apply_equivalence(h, random_witness(6, np.random.default_rng(4)))
    assert len(_pi_cells(_Prepared(image))[0]) == len(rows)


@pytest.mark.parametrize("tag", list(FAMILIES))
def test_pi_gate_passes_own_block(tag):
    # the premise of unknown's proof: an input that are_equivalent accepts as
    # an image of a member, every entry within 10 FINGERPRINT_HADAMARD_TOL,
    # has the image of the member's own 2x2 block among its pi-cells. The
    # block is rows and columns (0, 3) for the Fourier tags, (0, 1) else;
    # entry (r, c) moves to (rho^-1(r), kappa^-1(c)) under a witness with
    # row permutation rho and column permutation kappa
    r0, r1 = c0, c1 = (0, 3) if tag in ("f6", "f6t") else (0, 1)
    worst = []

    @given(p=FAMILY_BOXES[tag], seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def check(p, seed):
        try:
            member = FAMILIES[tag][0](*p)
        except SingularZ:
            reject()
        rng = np.random.default_rng(seed)
        w = random_witness(6, rng)
        noise = 10 * FINGERPRINT_HADAMARD_TOL * rng.random((6, 6))
        image = apply_equivalence(member, w) + noise * np.exp(2j * np.pi * rng.random((6, 6)))
        row, col = np.argsort(w.row_perm), np.argsort(w.col_perm)
        cell = _anchored_forms(image)[row[r0], col[c0], row[r1], col[c1]]
        worst.append(abs(cell + 1.0))
        assert worst[-1] < _PI_GATE

    check()
    print(f"{tag}: own block within {max(worst):.2e} of -1 over {len(worst)} images")


def test_classify_edge_panel():
    # dita_d6(0) raised NotHadamard under the grid search, and the last two
    # came back unknown; fourier_f6(0, 0) must not land on the far side of
    # the mod-pi wrap, at (0, pi)
    a, b = 0.7379612947827312, 0.4448087903966966
    panel = (
        (dita_d6(0.0), "D6", (0.0,)),
        (dita_d6(np.pi / 4), "D6", (np.pi / 4,)),
        (border_h("x1", 0.3), "H-family", (0.3, np.pi / 2)),
        (fourier_f6(0.0, 0.0), "F6-slice", (0.0, 0.0)),
        (family_h(0.0, 0.0), "F6-slice", (0.0, 0.0)),
        (family_h(1.05, 0.8), "H-family", (1.05, 0.8)),
        (fourier_f6(a, b), "F6-slice", _fourier_canonical(a, b)),
    )
    rng = np.random.default_rng(12)
    for m, label, params in panel:
        for h in (m, apply_equivalence(m, random_witness(6, rng))):
            c = classify(h)
            assert c.label == label
            assert np.max(np.abs(np.array(c.params) - params)) < 1e-9


@pytest.mark.float_bits
def test_classify_outputs_pinned():
    # the bits of classify's answers, parameters and distances included: two
    # images of a member of each tag, the edge panel and SPECTRAL_SIX
    rng = np.random.default_rng(15)
    inputs = []
    for tag, params in PINNED_MEMBERS.items():
        m = FAMILIES[tag][0](*params)
        inputs += [apply_equivalence(m, random_witness(6, rng)) for _ in range(2)]
    a, b = 0.7379612947827312, 0.4448087903966966
    inputs += [
        dita_d6(0.0),
        dita_d6(np.pi / 4),
        border_h("x1", 0.3),
        fourier_f6(0.0, 0.0),
        family_h(0.0, 0.0),
        family_h(1.05, 0.8),
        fourier_f6(a, b),
        SPECTRAL_SIX,
    ]
    text = "\n".join(repr(classify(h)) for h in inputs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "3e1b2d24bfc7ed011bedbf0d9b8363303ee0318a9e53c6ddb482aed6d48812a5"
    )


@pytest.mark.float_bits
def test_classify_order_outputs_pinned():
    # inputs where the order in which read-off points are tried could pick
    # the reported parameters: both orientations of an H member and their
    # transposes, and points within the tolerance of a degenerate line
    rng = np.random.default_rng(16)
    inputs = [family_h(0.7, 0.3), family_h(0.3, 0.7)]
    inputs += [apply_equivalence(m.T, random_witness(6, rng)) for m in inputs]
    inputs += [
        dita_d6(1e-8),
        dita_d6(5.96e-8),
        apply_equivalence(fourier_f6(1.0, 1e-8), random_witness(6, np.random.default_rng(0))),
    ]
    text = "\n".join(repr(classify(h)) for h in inputs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "28894eacc68c2b3089f993a2fa2df3a55c8cfe9ea60c013414dd56cb9b7bc095"
    )


@pytest.mark.float_bits
def test_classify_orientation_outputs_pinned():
    # the bits of classify's answers where a D6 member's orientation picks
    # the stage that confirms it: dita_d6(c), its transpose and
    # dita_corner(c), an image of dita_d6(-c), under random witnesses, at
    # the points where the read-off of c ties with 0 or meets the box's
    # edge, and at random c
    rng = np.random.default_rng(20)
    ties = [0.0, 1e-9, -1e-9, 1e-8, -1e-8, 5.96e-8, -5.96e-8, np.pi / 4, -np.pi / 4]
    inputs = []
    for c in ties + list(rng.uniform(-np.pi / 4, np.pi / 4, 6)):
        members = [dita_d6(c), dita_d6(c).T]
        if abs(c) < np.pi / 4:
            members.append(dita_corner(c))
        inputs += [apply_equivalence(m, random_witness(6, rng)) for m in members]
    text = "\n".join(repr(classify(h)) for h in inputs)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "db637762246c7c67be787867ddaeca3062180711bc414fdd9d4f6b264e66cb81"
    )


def test_classify_recovers_every_family():
    # each constructor under random witnesses, parameters within 1e-9 of
    # their canonical representative
    rng = np.random.default_rng(13)
    for _ in range(2):
        x1, x2 = rng.uniform(0.2, 1.4, 2) * rng.choice((-1, 1), 2)
        x = rng.uniform(0.2, 1.4) * rng.choice((-1, 1))
        fa, fb = rng.uniform(0.0, 2 * np.pi, 2)
        c = rng.uniform(0.1, 0.7) * rng.choice((-1, 1))
        cases = (
            (family_h(x1, x2), "H-family", (abs(x1), abs(x2))),
            (symmetric_m(x), "H-family", (abs(x), abs(x))),
            (self_adjoint_h(x), "H-family", (abs(x), abs(x))),
            (border_h("x2", x), "H-family", (np.pi / 2, abs(x))),
            (fourier_f6(fa, fb), "F6-slice", _fourier_canonical(fa, fb)),
            (fourier_f6(fa, fb).T, "F6T-slice", _fourier_canonical(fa, fb)),
            (dita_d6(c), "D6", (abs(c),)),
            (dita_corner(c), "D6", (abs(c),)),
        )
        for m, label, params in cases:
            got = classify(apply_equivalence(m, random_witness(6, rng)))
            assert got.label == label
            assert np.max(np.abs(np.array(got.params) - params)) < 1e-9


def _gap(u, v):
    """The distance between the angles u and v mod pi."""
    return abs((u - v + np.pi / 2) % np.pi - np.pi / 2)


def _expected(tag, p):
    """The label and parameters classify gives the member tag builds from p,
    or None for a member that an earlier stage shares: those take the
    earlier label (test_classify_edge_panel pins some)."""
    if tag in ("d6", "corner"):
        return "D6", (abs(p[0]),)
    if tag in ("f6", "f6t"):
        params = _fourier_canonical(*p)
        # the Fourier matrix is equivalent to its transpose
        if tag == "f6t" and max(_gap(x, 0.0) for x in params) < 1e-6:
            return None
        return ("F6-slice" if tag == "f6" else "F6T-slice"), params
    if tag == "border":
        x1, x2 = (p[1], np.pi / 2) if p[0] == "x1" else (np.pi / 2, p[1])
    elif tag == "h":
        x1, x2 = p
    else:  # sym is family_h(x, x) with two rows swapped, selfadj family_h(x, -x)
        x1, x2 = p[0], p[0] if tag == "sym" else -p[0]
    # family_h(x1, 0) is an F6 member and family_h(0, x2) an F6T one
    if min(_gap(x1, 0.0), _gap(x2, 0.0)) < 1e-6:
        return None
    return "H-family", (abs(x1), abs(x2))


@pytest.mark.parametrize("tag", list(FAMILIES))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=5, deadline=None, derandomize=True)
def test_classify_family_boxes(tag, data, seed):
    # members drawn from a tag's whole box, under random witnesses, get the
    # parent family's label with parameters near the orbit. Not within the
    # 1e-9 of test_classify_recovers_every_family: of read-off points
    # within the confirmation tolerance of each other the first read off
    # confirms, so dita_d6(1e-8) may come back as D6 (0,) and
    # fourier_f6(1, 1e-8) as F6-slice (0, 2.14159266)
    p = data.draw(FAMILY_BOXES[tag])
    try:
        m = FAMILIES[tag][0](*p)
    except SingularZ:
        reject()
    expected = _expected(tag, p)
    # near a singular corner family_h's members stop being Hadamard
    if expected is None or not is_hadamard(m, FINGERPRINT_HADAMARD_TOL):
        reject()
    cases = [(m, *expected)]
    if tag == "h":
        # the transpose of family_h(u, v) is the member at (v, u)
        cases.append((m.T, "H-family", expected[1][::-1]))
    rng = np.random.default_rng(seed)
    for member, label, params in cases:
        got = classify(apply_equivalence(member, random_witness(6, rng)))
        assert got.label == label
        assert max(map(_gap, got.params, params)) < 1e-6


# the search outputs of 1,200 runs whose quadruple phases come nearest to pi,
# 7.8e-6 to 5.2e-5 away
NEAR_PI_SEEDS = (919476259, 434567323, 844805346, 675944770, 1959843383, 1165291759)


def test_classify_search_outputs_near_pi():
    for seed in NEAR_PI_SEEDS:
        m = project_search(SearchConfig(rng_seed=seed, tol=1e-8)).matrix
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            c = classify(m)
        assert (c.label, c.params) == ("unknown", None)
        assert math.isfinite(c.distance)
    # the nearest has pi-cells within the gate, so its read-off runs
    nearest = project_search(SearchConfig(rng_seed=NEAR_PI_SEEDS[0])).matrix
    assert len(_pi_cells(_Prepared(nearest))[0])


def test_classify_prepares_its_input_once(monkeypatch):
    # one classify call gates its input once, screens it at most once and
    # builds its anchored forms once, however many candidates it tries. Each
    # kernel is wrapped in every module that holds it, and a call counts when
    # one of its matrices is the input (for the screen, its unit entries)
    counts = {}

    def count(name, part, holds):
        original = getattr(core, name)

        def wrapper(m, *args, **kwargs):
            if holds(m, kwargs):
                counts[part] += 1
            return original(m, *args, **kwargs)

        for module in (core, equivalence, search):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)

    def among(m, target):
        return any(np.abs(x - target).max() < 1e-12 for x in np.reshape(m, (-1, 6, 6)))

    count("_hadamard_within", "gated", lambda m, kw: among(m, h))
    count("_quadruple_products", "screened", lambda m, kw: kw.get("quarter") and among(m, h / np.abs(h)))
    count("_anchored_forms", "anchored", lambda m, kw: among(m, h))
    rng = np.random.default_rng(31)
    inputs = [
        (apply_equivalence(family_h(0.37, 0.21), random_witness(6, rng)), "H-family"),
        (apply_equivalence(dita_d6(0.3), random_witness(6, rng)), "D6"),
        # `search --seed 42`: no point is read off it, so nothing reaches the screen
        (project_search(SearchConfig(rng_seed=42)).matrix, "unknown"),
    ]
    for h, label in inputs:
        counts.update(gated=0, screened=0, anchored=0)
        assert classify(h).label == label
        assert counts == {"gated": 1, "screened": int(label != "unknown"), "anchored": 1}
