import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadamard6 import (
    DEFAULT_TOL,
    REPRESENTATIVE_SIGNS,
    InadmissibleSigns,
    ParamOutOfRange,
    SignPattern,
    SingularZ,
    admissible_sign_patterns,
    apply_equivalence,
    border_h,
    dagger,
    dita_corner,
    dita_d6,
    f_factor,
    family_h,
    family_h_with_signs,
    fourier_f6,
    is_hadamard,
    reduce_params,
    self_adjoint_h,
    solve_ab,
    symmetric_m,
    z_block,
)


def swap(m, rows=(), cols=()):
    out = m.copy()
    for a, b in rows:
        out[[a, b]] = out[[b, a]]
    for a, b in cols:
        out[:, [a, b]] = out[:, [b, a]]
    return out


def test_fourier_at_origin_is_fourier_matrix():
    w = np.exp(1j * np.pi / 3)
    f = fourier_f6(0.0, 0.0)
    for j in range(6):
        for k in range(6):
            assert abs(f[j, k] - w ** (j * k)) < 1e-14


def test_fourier_third_row_is_parameter_free():
    f = np.exp(2j * np.pi / 6)
    expect = np.array([1, -np.conj(f), -f, 1, -np.conj(f), -f])
    assert np.max(np.abs(fourier_f6(1.1, -0.4)[2] - expect)) < 1e-15


def test_dita_rows_at_zero():
    d = dita_d6(0.0)
    assert np.max(np.abs(d[2] - np.array([1, 1j, -1, 1j, -1j, -1j]))) < 1e-15
    assert is_hadamard(d, 1e-12)


def test_dita_domain():
    dita_d6(np.pi / 4)  # boundary included
    dita_d6(-np.pi / 4)
    with pytest.raises(ParamOutOfRange):
        dita_d6(np.pi / 4 + 1e-9)


def test_sign_pattern_validation():
    with pytest.raises(ValueError):
        SignPattern(1, 1, 0, 1)
    assert REPRESENTATIVE_SIGNS.admissible
    assert not SignPattern(1, 1, 1, -1).admissible


def test_admissible_sign_patterns():
    pats = admissible_sign_patterns()
    assert len(pats) == 8
    assert all(p.s11 * p.s21 == p.s12 * p.s22 for p in pats)


def test_z_block_identities():
    z1, z2 = np.exp(0.3j), np.exp(0.2j)
    z = z_block(0.3, 0.2)
    s = math.sin(0.3) * math.sin(0.2)
    # unitarity: Z^dag Z = 2I
    assert np.max(np.abs(dagger(z) @ z - 2 * np.eye(2))) < 1e-15
    # symmetry relations tying the second row to the first
    assert abs(z[1, 0] - z1 * z2 * np.conj(z[0, 1])) < 1e-15
    assert abs(z[1, 1] + z1 * z2 * np.conj(z[0, 0])) < 1e-15
    # moduli
    assert abs(abs(z[0, 0]) ** 2 - (1 + s)) < 1e-15
    assert abs(abs(z[0, 1]) ** 2 - (1 - s)) < 1e-15


def test_solve_ab_at_origin():
    a, _ = solve_ab(0.0, 0.0)
    assert abs(a[0, 0] - (-(1 + 1j * math.sqrt(3)) / 2)) < 1e-15


def test_solve_ab_constraints():
    z = z_block(0.3, 0.2)
    a, b = solve_ab(0.3, 0.2)
    assert np.max(np.abs(a + b + z)) < 1e-14
    assert np.max(np.abs((a - b) @ dagger(a - b) - 6 * np.eye(2))) < 1e-13
    assert np.max(np.abs(np.abs(a) - 1)) < 1e-14
    assert np.max(np.abs(np.abs(b) - 1)) < 1e-14


def test_solve_ab_rejects_inadmissible():
    with pytest.raises(InadmissibleSigns):
        solve_ab(0.3, 0.2, SignPattern(1, 1, 1, -1))


def test_f_factor():
    f = f_factor(0.3, 0.2)
    assert abs(abs(f) - 1) < 1e-15
    # f is -a00 of the representative pattern
    a, _ = solve_ab(0.3, 0.2)
    assert abs(f + a[0, 0]) < 1e-14
    with pytest.raises(SingularZ):
        f_factor(np.pi / 2, -np.pi / 2)


def test_family_h_matches_sign_assembly():
    for x1, x2 in [(0.3, 0.2), (-1.1, 0.7), (1.5, -1.5)]:
        d = np.max(np.abs(family_h(x1, x2) - family_h_with_signs(x1, x2)))
        assert d < 1e-14


def test_flipped_pattern_is_row_swapped():
    alt = family_h_with_signs(0.3, 0.2, SignPattern(-1, -1, 1, 1))
    assert np.max(np.abs(alt - swap(family_h(0.3, 0.2), rows=((2, 4), (3, 5))))) < 1e-14


def test_family_h_hadamard_on_grid():
    # 9x9 inner grid stays clear of the singular corners
    xs = [-np.pi / 2 + k * np.pi / 10 for k in range(1, 10)]
    for x1 in xs:
        for x2 in xs:
            assert is_hadamard(family_h(x1, x2), 1e-10)


def test_family_h_singular_corner():
    with pytest.raises(SingularZ):
        family_h(np.pi / 2, np.pi / 2)
    with pytest.raises(SingularZ):
        family_h(np.pi / 2, -np.pi / 2)


def test_family_h_hadamard_near_singular_corners():
    # 1 + sin(x1) sin(x2) cancels near the corners; at 1e-5 from one the
    # plain sum left a modulus defect of about 1e-6
    for d in (1e-2, 1e-3, 1e-4, 1e-5):
        for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            for t in np.linspace(0.0, np.pi / 2, 5):
                x1 = s1 * (np.pi / 2 - d * np.cos(t))
                x2 = s2 * (np.pi / 2 - d * np.sin(t))
                assert is_hadamard(family_h(x1, x2), DEFAULT_TOL), (x1, x2)


@pytest.mark.float_bits
def test_family_h_bits_pinned():
    # the bits of family_h and of family_h_with_signs at every admissible
    # pattern, over a grid with the +-pi/2 borders and points next to the
    # singular corners (+-pi/2, -+pi/2); SingularZ is recorded by name
    xs = list(np.linspace(-np.pi / 2, np.pi / 2, 9))
    points = [(x1, x2) for x1 in xs for x2 in xs]
    for d in (1e-13, 1e-12, 1e-9, 1e-6):
        for s in (1, -1):
            x = s * (np.pi / 2 - d)
            points += [(x, -s * np.pi / 2), (x, -x)]
    builders = [family_h] + [
        lambda x1, x2, p=p: family_h_with_signs(x1, x2, p) for p in admissible_sign_patterns()
    ]
    digest = hashlib.sha256()
    for x1, x2 in points:
        for build in builders:
            try:
                digest.update(build(x1, x2).tobytes())
            except SingularZ:
                digest.update(b"SingularZ")
    assert digest.hexdigest() == "ed507f16d8ac0522474bfe111e094cadec7094c1803322208a90f37790e3c2e4"


def test_reduce_params_column_witness():
    (r1, r2), w = reduce_params(0.3 + np.pi, 0.2)
    assert abs(r1 - 0.3) < 1e-12 and abs(r2 - 0.2) < 1e-12
    assert w.col_perm == (0, 1, 3, 2, 5, 4)
    assert w.row_perm == (0, 1, 2, 3, 4, 5)
    back = apply_equivalence(family_h(r1, r2), w)
    assert np.max(np.abs(back - family_h(0.3 + np.pi, 0.2))) < 1e-12


def test_reduce_params_both_axes():
    x1, x2 = 0.3 + np.pi, 0.2 - 2 * np.pi
    (r1, r2), w = reduce_params(x1, x2)
    assert abs(r1 - 0.3) < 1e-12 and abs(r2 - 0.2) < 1e-12
    back = apply_equivalence(family_h(r1, r2), w)
    assert np.max(np.abs(back - family_h(x1, x2))) < 1e-12


def test_symmetric_m():
    for x in (0.0, 0.7, -1.2):
        m = symmetric_m(x)
        assert np.max(np.abs(m - m.T)) < 1e-12
        assert np.max(np.abs(m - swap(family_h(x, x), rows=((3, 5),)))) < 1e-12
    with pytest.raises(SingularZ):
        symmetric_m(np.pi / 2)


def test_self_adjoint_identity():
    for x in (0.0, 0.4, -0.9):
        h = self_adjoint_h(x)
        assert np.max(np.abs(h - family_h(x, -x))) == 0
        assert np.max(np.abs(dagger(h) - swap(h, rows=((2, 4),), cols=((3, 5),)))) < 1e-12


def test_dita_corner():
    m = dita_corner(0.0)
    assert m[2, 2] == -1j
    assert m[2, 4] == -1
    assert is_hadamard(m, 1e-12)
    with pytest.raises(ParamOutOfRange):
        dita_corner(np.pi / 4)


def test_border_slices():
    assert np.array_equal(border_h("x1", 0.3), family_h(0.3, np.pi / 2))
    assert np.array_equal(border_h("x2", 0.3), family_h(np.pi / 2, 0.3))
    with pytest.raises(ValueError):
        border_h("x3", 0.3)


def test_interpolation_path():
    # straight-line parameter path from one member to another stays in the family
    p0, p1 = np.array([0.2, -0.4]), np.array([1.0, 0.8])
    for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = (1 - xi) * p0 + xi * p1
        assert is_hadamard(family_h(*p), 1e-10)


inner = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)


@given(x1=inner, x2=inner)
@settings(max_examples=30, deadline=None)
def test_family_h_hadamard_property(x1, x2):
    assert is_hadamard(family_h(x1, x2), 1e-10)


@given(x1=inner, x2=inner)
@settings(max_examples=20, deadline=None)
def test_all_sign_patterns_hadamard(x1, x2):
    for pat in admissible_sign_patterns():
        assert is_hadamard(family_h_with_signs(x1, x2, pat), 1e-10)
