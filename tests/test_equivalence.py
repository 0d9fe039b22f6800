import hashlib
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from hadamard6 import (
    ComposeSpec,
    DimensionMismatch,
    EquivalenceResult,
    EquivalenceWitness,
    NotHadamard,
    OrderUnsupported,
    apply_equivalence,
    are_equivalent,
    block_compose,
    compose12,
    dephase,
    dita_corner,
    dita_d6,
    family_h,
    fingerprint_match,
    fourier_f6,
    is_hadamard,
    transpose,
    verify_witness,
)
from hadamard6 import equivalence
from hadamard6.core import (
    FINGERPRINT_PRECISION,
    _anchored_forms,
    _Prepared,
    _quadruple_phases,
    _quadruple_products,
)
from hadamard6.errors import SingularZ
from hadamard6.families import FAMILIES

from conftest import FAMILY_BOXES, PINNED_MEMBERS, random_witness


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


def test_verify_witness_checks_orders():
    # an order-1 h2 broadcast against the image and gave 2.0; an order-12
    # one raised numpy's broadcast error
    f = fourier_f6(0.1, 0.2)
    w = EquivalenceWitness.identity(6)
    for h2 in ([[1.0]], np.eye(12, dtype=complex)):
        with pytest.raises(DimensionMismatch, match="orders differ"):
            verify_witness(f, h2, w)
    assert verify_witness(f, f, w) == 0.0


@given(seed=st.integers(min_value=0, max_value=2**31), x=st.floats(min_value=-1.4, max_value=1.4))
@settings(max_examples=10, deadline=None)
def test_equivalence_roundtrip_property(seed, x):
    rng = np.random.default_rng(seed)
    h1 = family_h(x, 0.5 * x - 0.2)
    h2 = apply_equivalence(h1, random_witness(6, rng))
    res = are_equivalent(h1, h2)
    assert res.decision == "equivalent"
    assert verify_witness(h1, h2, res.witness) < 1e-8


@pytest.mark.float_bits
def test_are_equivalent_outputs_pinned():
    # the bits of are_equivalent's answers, witnesses included, at two
    # tolerances with the screen on and off: an image of a member of each
    # tag, the member against the next tag's, and three symmetric pairs
    rng = np.random.default_rng(17)
    members = [FAMILIES[tag][0](*p) for tag, p in PINNED_MEMBERS.items()]
    pairs = []
    for k, m in enumerate(members):
        pairs.append((m, apply_equivalence(m, random_witness(6, rng))))
        pairs.append((m, members[(k + 1) % len(members)]))
    d = dita_d6(0.0)
    pairs += [
        (fourier_f6(0.0, 0.0), fourier_f6(0.0, 2 * np.pi / 3)),
        (dita_corner(0.3), dita_d6(0.3)),
        (d, d.T),
    ]
    text = "\n".join(
        repr(are_equivalent(h1, h2, tol=tol, screen=screen))
        for h1, h2 in pairs
        for tol in (1e-10, 1e-8)
        for screen in (True, False)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "9f92e516e91fab755120d7d892dbf649e910ae3b200c539fb1a00e4b46c5997f"
    )


@pytest.mark.parametrize("tag", list(FAMILIES))
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_witness_within_ten_tol(tag, data, seed):
    # the enumeration accepts dephased forms within 10 tol of each other, and
    # its witness reproduces the second matrix within 10 tol too: members of
    # every tag under random witnesses, each entry's phase moved by 3e-9 N
    tol = 1e-8
    try:
        h1 = FAMILIES[tag][0](*data.draw(FAMILY_BOXES[tag]))
    except SingularZ:
        reject()
    rng = np.random.default_rng(seed)
    h2 = apply_equivalence(h1, random_witness(6, rng))
    h2 = h2 * np.exp(3e-9j * rng.standard_normal((6, 6)))
    # near a singular corner family_h's members stop being Hadamard
    assume(is_hadamard(h1, tol) and is_hadamard(h2, tol))
    res = are_equivalent(h1, h2, tol=tol)
    assert res.decision == "equivalent"
    assert verify_witness(h1, h2, res.witness) <= 10 * tol


def _ordered_screen(h1, h2, tol):
    # the screen over the full ordered multiset, as a reference: sorted
    # cosines and sines of every ordered quadruple phase, the same margin
    p1, p2 = _quadruple_phases(_Prepared(h1))[0], _quadruple_phases(_Prepared(h2))[0]
    r = 40.0 * tol
    margin = 10.0**-FINGERPRINT_PRECISION + r * (1.0 + r)
    return all(
        np.abs(np.sort(f(p1)) - np.sort(f(p2))).max(initial=0.0) <= margin
        for f in (np.cos, np.sin)
    )


def _random_spec(rng):
    fa, fb = (("f6", "f6t", "h")[int(i)] for i in rng.integers(3, size=2))
    return ComposeSpec(fa, tuple(rng.uniform(-1.4, 1.4, 2)), fb, tuple(rng.uniform(-1.4, 1.4, 2)),
                       tuple(rng.uniform(0, 2 * np.pi, 5)))


def _outcome(screen, h1, h2, tol):
    try:
        return screen(h1, h2, tol=tol)
    except NotHadamard:
        return "NotHadamard"


def test_screen_matches_ordered_oracle():
    # the quarter screen against the full ordered multiset: members of every
    # tag and their random-witness images, cross-family pairs, images whose
    # entry phases are jittered across the margin, and order-12 pairs
    rng = np.random.default_rng(19)
    members = []
    for tag, params in PINNED_MEMBERS.items():
        for shift in (0.0, 0.13, -0.17):
            p = tuple(x + shift if isinstance(x, float) else x for x in params)
            members.append(FAMILIES[tag][0](*p))
    pairs = []
    for k, m in enumerate(members):
        image = apply_equivalence(m, random_witness(6, rng))
        pairs += [(m, image), (m, members[(k + 3) % len(members)])]
        for scale in (1e-10, 1e-9, 3e-9, 1e-8, 1e-7, 1e-6):
            pairs.append((m, image * np.exp(1j * scale * rng.standard_normal((6, 6)))))
    for _ in range(12):
        a, b = compose12(_random_spec(rng)), compose12(_random_spec(rng))
        image = apply_equivalence(a, random_witness(12, rng))
        pairs += [(a, b), (a, image), (a, image * np.exp(1e-9j * rng.standard_normal((12, 12))))]
    seen = set()
    for h1, h2 in pairs:
        for tol in (1e-10, 1e-9, 1e-8):
            want = _outcome(_ordered_screen, h1, h2, tol)
            assert _outcome(fingerprint_match, h1, h2, tol) == want
            seen.add((tol, want))
    # the panel reaches both answers at every tol, and the Hadamard gate
    assert all((tol, ok) in seen for tol in (1e-10, 1e-9, 1e-8) for ok in (True, False))
    assert any(want == "NotHadamard" for _, want in seen)
    # conjugation maps the quarter's sines to their negatives
    for tag, params in PINNED_MEMBERS.items():
        h = FAMILIES[tag][0](*params)
        assert fingerprint_match(h, h.conj())
    f = fourier_f6(0.0, 0.0)
    res = are_equivalent(f, f.conj())
    assert res.decision == "equivalent" and res.screened_by is None


def _index_quarter(h):
    # the quarter through four flat index tables over i < k, j < l, as a
    # reference: q = h_ij h_kl conj(h_il) conj(h_kj) and its unit direction
    # q / |q|, as sorted cosines and sorted |sines|
    n = h.shape[0]
    i, k = np.triu_indices(n, 1)
    rows_i, rows_k = (n * i)[:, None], (n * k)[:, None]
    flat = h.ravel()
    q = flat[rows_i + i] * flat[rows_k + k] * flat[rows_i + k].conj() * flat[rows_k + i].conj()
    u = (q / np.abs(q)).ravel()
    return np.sort(u.real), np.sort(np.abs(u.imag))


def _fourier(n):
    return np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)


def _f4(a):
    # the one-parameter family of order 4
    z = 1j * np.exp(1j * a)
    return np.array([[1, 1, 1, 1], [1, z, -1, -z], [1, -1, 1, -1], [1, -z, -1, z]])


def test_quarter_directions_match_index_oracle():
    # the screen's directions, the one kernel's quarter products of entry
    # directions, against q / |q| from the index tables: members of every
    # tag and their images, order-12 compositions, and orders 1, 2 and 4,
    # whose quarter at n = 1 is empty
    rng = np.random.default_rng(29)
    mats = []
    for tag, params in PINNED_MEMBERS.items():
        m = FAMILIES[tag][0](*params)
        mats += [m, apply_equivalence(m, random_witness(6, rng))]
    mats += [compose12(_random_spec(rng)) for _ in range(12)]
    mats += [np.ones((1, 1), dtype=complex), _fourier(2), _fourier(4)]
    for h in mats:
        n = h.shape[0]
        u = _quadruple_products(h / np.abs(h), quarter=True)
        assert u.shape == ((n * (n - 1) // 2) ** 2,)
        got = np.sort(u.real), np.sort(np.abs(u.imag))
        for a, b in zip(got, _index_quarter(h)):
            assert a.shape == b.shape
            assert np.abs(a - b).max(initial=0.0) <= 1e-14
        # a stack gives each matrix's products bit for bit: over the ordered
        # pairs of the entries, as the fingerprint takes them, at every
        # order, and over the quarter of the entry directions, as the screen
        # takes them, except at order 2. There numpy multiplies the one
        # product per matrix in its scalar loop unstacked and in its SIMD
        # loop stacked, so the last bits can differ
        image = apply_equivalence(h, random_witness(n, rng))
        pair = np.stack((h, image))
        checks = [(pair, False)]
        if n != 2:
            checks.append((pair / np.abs(pair), True))
        for m, quarter in checks:
            stacked = _quadruple_products(m, quarter)
            for k in range(2):
                assert stacked[k].tobytes() == _quadruple_products(m[k], quarter).tobytes()


def test_screen_matches_ordered_oracle_small_orders():
    # fingerprint_match against the full ordered multiset at orders 2 and 4:
    # images, jittered images and the next member of the order-4 family
    rng = np.random.default_rng(31)
    f4s = [_f4(a) for a in (0.0, 0.3, 1.1, 2.0)]
    pairs = []
    for k, m in enumerate([_fourier(2)] + f4s):
        n = m.shape[0]
        assert is_hadamard(m)
        image = apply_equivalence(m, random_witness(n, rng))
        pairs.append((m, image))
        for scale in (1e-10, 1e-9, 1e-8, 1e-6):
            pairs.append((m, image * np.exp(1j * scale * rng.standard_normal((n, n)))))
        if n == 4:
            pairs.append((m, f4s[k % len(f4s)]))
    seen = set()
    for h1, h2 in pairs:
        for tol in (1e-10, 1e-8):
            want = _outcome(_ordered_screen, h1, h2, tol)
            assert _outcome(fingerprint_match, h1, h2, tol) == want
            seen.add((h1.shape[0], want))
    assert {(2, True), (4, True), (4, False)} <= seen


def test_gate_names_the_failing_matrix():
    # one gate runs over both matrices; a failure names the first that
    # fails. The identity fails the modulus check, all-ones only unitarity
    f6, f12 = fourier_f6(0.0, 0.0), block_compose(fourier_f6(0.1, 0.2), family_h(0.3, 0.2), np.zeros(5))
    for good in (f6, f12):
        n = good.shape[0]
        for bad in (np.eye(n, dtype=complex), np.ones((n, n), dtype=complex)):
            for h1, h2, name in ((good, bad, "second"), (bad, good, "first"), (bad, bad, "first")):
                with pytest.raises(NotHadamard, match=f"^{name} matrix is not Hadamard within 1e-10$"):
                    are_equivalent(h1, h2)
    with pytest.raises(NotHadamard, match="^second matrix is not Hadamard within 1e-08$"):
        are_equivalent(f6, f6 * (1 + 1e-6), tol=1e-8)
    # fingerprint_match gates at FINGERPRINT_HADAMARD_TOL and names the same way
    with pytest.raises(NotHadamard, match="^second matrix is not Hadamard within 1e-08$"):
        fingerprint_match(f6, np.eye(6))


@pytest.mark.float_bits
def test_order12_outputs_pinned():
    # the bits of compose12's matrices and of order-12 are_equivalent
    # answers: distinct pairs, images under random witnesses, images with
    # jittered phases, at two tolerances with the screen on and off
    rng = np.random.default_rng(12)
    digest = hashlib.sha256()
    for _ in range(16):
        a, b = compose12(_random_spec(rng)), compose12(_random_spec(rng))
        digest.update(a.tobytes() + b.tobytes())
        image = apply_equivalence(a, random_witness(12, rng))
        jittered = image * np.exp(1j * 10 ** rng.uniform(-10, -8) * rng.standard_normal((12, 12)))
        for h2 in (b, image, jittered):
            for tol in (1e-10, 1e-8):
                for screen in (True, False):
                    try:
                        out = repr(are_equivalent(a, h2, tol=tol, screen=screen))
                    except NotHadamard:  # a jittered image at tol 1e-10
                        out = "NotHadamard"
                    digest.update(out.encode())
    assert digest.hexdigest() == (
        "5ab1eb3661ed2e3509973f3b3924a6408238a8007d898b0787ebab729ceb9971"
    )


class _NoPermutations:
    def __getitem__(self, key):
        raise AssertionError("a pair with no surviving anchor tried a permutation")


def test_no_surviving_anchor_refused_without_enumeration(monkeypatch):
    # no anchored form of family_h(0.5, 0.9) has the sorted entries of this
    # D6 image's dephased form, so the refusal reads no permutation table
    w = random_witness(6, np.random.default_rng(21))
    h2 = apply_equivalence(dita_d6(0.3), w)
    monkeypatch.setattr(equivalence, "_PERMS6", _NoPermutations())
    res = are_equivalent(family_h(0.5, 0.9), h2, screen=False)
    assert res == EquivalenceResult("inequivalent")


# the 720 permutations in lexicographic order; _PERMS[a] maps 0 to a
_PERMS = np.array(list(permutations(range(6)))).reshape(6, 120, 6)


def _loop_witness(h1, h2, tol):
    # the enumeration as a plain nested loop over all six column anchors b,
    # as a reference: each column permutation cp with cp[0] = b, each anchor
    # a whose sorted entries match the target's, and the first row
    # permutation σ with σ[0] = a whose dephased form matches
    h2d, wd = dephase(h2)
    atol = 10.0 * tol
    forms = _anchored_forms(h1)
    alive = np.ones((6, 6), dtype=bool)
    for part in (np.real, np.imag):
        gap = np.sort(part(forms).reshape(6, 6, 36)) - np.sort(part(h2d).ravel())
        alive &= np.abs(gap).max(axis=-1) <= atol + 1e-12
    for b in range(6):
        for cp in _PERMS[b]:
            for a in np.flatnonzero(alive[:, b]):
                block = _PERMS[a]
                diffs = np.abs(forms[a, b][:, cp][block] - h2d[None]).reshape(120, -1).max(axis=1)
                hits = np.nonzero(diffs <= atol)[0]
                if hits.size:
                    sigma, m = block[hits[0]], h1[:, cp]
                    rph = np.conj(wd.row_phases) * m[a, 0] / m[sigma, 0]
                    cph = np.conj(wd.col_phases) / m[a, :]
                    return EquivalenceWitness(sigma, rph / np.abs(rph), cp, cph / np.abs(cph))
    return None


def test_enumeration_matches_loop_oracle():
    # the enumeration's first witness against the plain nested loop, bit for
    # bit: an image, the transpose and the next tag's member for a member of
    # every tag, at two tolerances
    rng = np.random.default_rng(23)
    members = [FAMILIES[tag][0](*p) for tag, p in PINNED_MEMBERS.items()]
    pairs = []
    for k, m in enumerate(members):
        pairs += [
            (m, apply_equivalence(m, random_witness(6, rng))),
            (m, m.T),
            (m, members[(k + 1) % len(members)]),
        ]
    seen = set()
    for h1, h2 in pairs:
        for tol in (1e-10, 1e-8):
            want = _loop_witness(h1, h2, tol)
            got = equivalence._exhaustive_witness(_Prepared(h1), _Prepared(h2), tol)
            assert got == want
            seen.add(want is None)
            if want is not None:
                _assert_rows_match_alone(h1, h2, want, tol)
    assert seen == {True, False}


def _draw_member(data):
    tag = data.draw(st.sampled_from(sorted(FAMILIES)))
    try:
        return FAMILIES[tag][0](*data.draw(FAMILY_BOXES[tag]))
    except SingularZ:
        reject()


@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_enumeration_matches_loop_oracle_at_every_tol(data, seed):
    # the enumeration against the plain nested loop from tolerances far below
    # the inputs' rounding to ones at which every column matches every
    # column: a member of any tag, anywhere in its box, against an image of
    # itself, an image of its transpose, or another tag's member
    h1 = _draw_member(data)
    kind = data.draw(st.sampled_from(("image", "transpose", "other")))
    if kind == "other":
        h2 = _draw_member(data)
    else:
        w = random_witness(6, np.random.default_rng(seed))
        h2 = apply_equivalence(h1.T if kind == "transpose" else h1, w)
    tol = data.draw(st.sampled_from((1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.05, 0.2)))
    want = _loop_witness(h1, h2, tol)
    assert equivalence._exhaustive_witness(_Prepared(h1), _Prepared(h2), tol) == want
    if want is not None:
        # the dephased forms agree within 10 tol; mapping them back through
        # the unit phases adds rounding, which the prune's 1e-12 also allows
        assert verify_witness(h1, h2, want) <= 10 * tol + 1e-12


def _assert_rows_match_alone(h1, h2, w, tol):
    # the premise of matching whole rows: at the witness's anchor, each row of
    # h1's column-permuted form is within 10 tol of exactly one row of the
    # dephased target, the one the witness's row permutation sends it to
    sigma, cp = np.array(w.row_perm), np.array(w.col_perm)
    form = _anchored_forms(h1)[sigma[0], cp[0]][:, cp]
    h2d, _ = dephase(h2)
    near = np.abs(h2d[:, None, :] - form[None, :, :]).max(axis=-1) <= 10.0 * tol
    assert (near == (sigma[:, None] == np.arange(6))).all()
