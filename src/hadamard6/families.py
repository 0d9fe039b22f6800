"""Closed-form constructors for the order-6 matrix families.

Angles are radians throughout; z1 = exp(i*x1), z2 = exp(i*x2). The
two-parameter family family_h(x1, x2) is pi-periodic in each argument up to
row/column swaps (see reduce_params); its canonical parameter domain is the
half-open square (-pi/2, pi/2]^2.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .core import EquivalenceWitness, apply_equivalence
from .errors import InadmissibleSigns, ParamOutOfRange, SingularZ

_SIXTH = np.exp(2j * np.pi / 6)

# wrapping x1 by pi swaps column pairs (2,3) and (4,5); wrapping x2 by pi
# swaps row pairs (2,5) and (3,4)  (0-based)
X1_PERIOD_COLS = (0, 1, 3, 2, 5, 4)
X2_PERIOD_ROWS = (0, 1, 5, 4, 3, 2)

_SINGULAR_GUARD = 1e-12


def fourier_f6(a, b):
    """Two-parameter affine orbit of the order-6 Fourier matrix, dephased."""
    z1, z2 = np.exp(1j * a), np.exp(1j * b)
    f = _SIXTH
    fb = np.conj(f)
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, z1 * f, -z2 * fb, -1, -z1 * f, z2 * fb],
            [1, -fb, -f, 1, -fb, -f],
            [1, -z1, z2, -1, z1, -z2],
            [1, -f, -fb, 1, -f, -fb],
            [1, z1 * fb, -z2 * f, -1, -z1 * fb, z2 * f],
        ],
        dtype=complex,
    )


def dita_d6(c):
    """One-parameter affine family, c in [-pi/4, pi/4]."""
    if not -np.pi / 4 <= c <= np.pi / 4:
        raise ParamOutOfRange(f"dita_d6 needs -pi/4 <= c <= pi/4, got {c}")
    z = np.exp(1j * c)
    zb = np.conj(z)
    i = 1j
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, i, -i, -i, i],
            [1, i, -1, i * z, -i * z, -i],
            [1, -i, i * zb, -1, i, -i * zb],
            [1, -i, -i * zb, i, -1, i * zb],
            [1, i, -i, -i * z, i * z, -1],
        ],
        dtype=complex,
    )


@dataclass(frozen=True)
class SignPattern:
    """The four sigma_ij sign choices of the element-wise solution."""

    s11: int
    s12: int
    s21: int
    s22: int

    def __post_init__(self):
        for s in (self.s11, self.s12, self.s21, self.s22):
            if s not in (-1, 1):
                raise ValueError(f"signs must be +1 or -1, got {s}")

    @property
    def admissible(self):
        return self.s11 * self.s21 == self.s12 * self.s22

    def as_array(self):
        return np.array([[self.s11, self.s12], [self.s21, self.s22]], dtype=float)


REPRESENTATIVE_SIGNS = SignPattern(1, 1, -1, -1)


def admissible_sign_patterns():
    """All 8 admissible patterns, in a fixed deterministic order."""
    return tuple(
        p
        for p in (SignPattern(*s) for s in product((1, -1), repeat=4))
        if p.admissible
    )


def z_block(x1, x2):
    """The 2x2 block fixed by the linear unitarity constraints."""
    z1, z2 = np.exp(1j * x1), np.exp(1j * x2)
    z1b, z2b = np.conj(z1), np.conj(z2)
    return np.array(
        [
            [1 - 0.5 * (1 - z1) * (1 - z2), z2 * (1 - 0.5 * (1 - z1) * (1 - z2b))],
            [z1 * (1 - 0.5 * (1 - z1b) * (1 - z2)), -z1 * z2 * (1 - 0.5 * (1 - z1b) * (1 - z2b))],
        ],
        dtype=complex,
    )


def solve_ab(x1, x2, signs=REPRESENTATIVE_SIGNS):
    """Element-wise solution (a, b) of the quadratic constraints.

    a_ij = -Z_ij (1/2 + s_ij i sqrt(1/|Z_ij|^2 - 1/4)), b likewise with -s_ij.
    The radicand is nonnegative because |Z_ij|^2 <= 2.
    """
    if not signs.admissible:
        raise InadmissibleSigns(f"{signs} violates s11*s21 == s12*s22")
    z = z_block(x1, x2)
    mod2 = np.abs(z) ** 2
    if mod2.min() <= _SINGULAR_GUARD:
        raise SingularZ(f"|Z_ij|^2 = {mod2.min():.3e} at (x1, x2) = ({x1}, {x2})")
    root = np.sqrt(np.maximum(1.0 / mod2 - 0.25, 0.0))
    s = signs.as_array()
    a = -z * (0.5 + s * 1j * root)
    b = -z * (0.5 - s * 1j * root)
    return a, b


def f_factor(x1, x2):
    """The unit-modulus factor whose four sign images fill the family."""
    # 1 + sin(x1) sin(x2) as a sum of two squares: the plain sum cancels
    # near the corners (+-pi/2, -+pi/2), where the family turns singular
    s1 = math.cos((x1 - x2) / 2) ** 2 + math.sin((x1 + x2) / 2) ** 2
    if s1 <= _SINGULAR_GUARD:
        raise SingularZ(f"1 + sin(x1)sin(x2) = {s1:.3e}")
    z1, z2 = np.exp(1j * x1), np.exp(1j * x2)
    return (1 - 0.5 * (1 - z1) * (1 - z2)) * (
        0.5 + 1j * math.sqrt(max(1.0 / s1 - 0.25, 0.0))
    )


def family_h(x1, x2):
    """The two-parameter family in its summary form, dephased."""
    z1, z2 = np.exp(1j * x1), np.exp(1j * x2)
    f1 = f_factor(x1, x2)
    f2 = f_factor(x1, -x2)
    f3 = f_factor(-x1, -x2)
    f4 = f_factor(-x1, x2)
    c = np.conj
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, z1, -z1, z1, -z1],
            [1, z2, -f1, -z2 * f2, -c(f3), -z2 * c(f4)],
            [1, -z2, -z1 * c(f2), z1 * z2 * c(f1), -z1 * f4, z1 * z2 * f3],
            [1, z2, -c(f3), -z2 * c(f4), -f1, -z2 * f2],
            [1, -z2, -z1 * f4, z1 * z2 * f3, -z1 * c(f2), z1 * z2 * c(f1)],
        ],
        dtype=complex,
    )


def family_h_with_signs(x1, x2, signs=REPRESENTATIVE_SIGNS):
    """Assemble the family from the (a, b) blocks of a given sign pattern."""
    a, b = solve_ab(x1, x2, signs)
    z1, z2 = np.exp(1j * x1), np.exp(1j * x2)
    return np.array(
        [
            [1, 1, 1, 1, 1, 1],
            [1, -1, z1, -z1, z1, -z1],
            [1, z2, a[0, 0], a[0, 1], b[0, 0], b[0, 1]],
            [1, -z2, a[1, 0], a[1, 1], b[1, 0], b[1, 1]],
            [1, z2, b[0, 0], b[0, 1], a[0, 0], a[0, 1]],
            [1, -z2, b[1, 0], b[1, 1], a[1, 0], a[1, 1]],
        ],
        dtype=complex,
    )


def reduce_params(x1, x2):
    """Map angles into (-pi/2, pi/2]^2 and return the witness back.

    apply_equivalence(family_h(*reduced), witness) reproduces
    family_h(x1, x2); boundary ties resolve to +pi/2.
    """
    k1 = math.ceil(x1 / math.pi - 0.5)
    k2 = math.ceil(x2 / math.pi - 0.5)
    r1 = x1 - k1 * math.pi
    r2 = x2 - k2 * math.pi
    ident = tuple(range(6))
    one = (1 + 0j,) * 6
    w = EquivalenceWitness(
        X2_PERIOD_ROWS if k2 % 2 else ident,
        one,
        X1_PERIOD_COLS if k1 % 2 else ident,
        one,
    )
    return (r1, r2), w


_FOURIER_SHIFT = np.pi / 3
# a remainder mod pi within this of 0 or pi is float noise on a multiple of pi
_WRAP_NOISE = 1e-12


def _mod_pi(x):
    """x mod pi in [0, pi), with remainders within _WRAP_NOISE of 0 or pi taken
    as 0, so that noise on a multiple of pi cannot land on either side."""
    r = np.mod(x, np.pi)
    return np.where((r < _WRAP_NOISE) | (r > np.pi - _WRAP_NOISE), 0.0, r)


def _fourier_canonical(a, b):
    """Representative of the verified parameter orbit
    (a,b) ~ (a + k pi/3, b - k pi/3) ~ (a + pi, b) ~ (a, b + pi) ~ (-a, -b)
    ~ (b, a) ~ (b - a, b): of all images reduced mod pi, the smallest a, then
    the larger of the two b that go with it, b and (a - b) mod pi."""
    images = []
    # the identity and the order-3 rotations (a, b) -> (b - a, -a), (-b, a - b)
    for p, q in ((a, b), (b - a, -a), (-b, a - b)):
        for u, v in ((p, q), (q, p), (-p, -q), (-q, -p)):
            for t in (0.0, _FOURIER_SHIFT, 2 * _FOURIER_SHIFT):
                images.append((u + t, v - t))
    a, b = min(map(tuple, _mod_pi(np.array(images, dtype=float)).tolist()))
    return a, max(b, float(_mod_pi(a - b)))


def symmetric_m(x):
    """The symmetric subfamily: rows 3 and 5 (0-based) of family_h(x, x) swapped."""
    return family_h(x, x)[[0, 1, 2, 5, 4, 3]]


def self_adjoint_h(x):
    """Members equivalent to their own adjoint: the anti-diagonal slice."""
    return family_h(x, -x)


# dita_corner(x) is this image of dita_d6(-x)
_CORNER_FROM_D6 = EquivalenceWitness(
    (1, 0, 3, 2, 4, 5), (1,) * 6, (0, 1, 3, 2, 4, 5), (1, -1, 1j, -1j, 1j, -1j)
)


def dita_corner(x):
    """Corner-limit matrix, -pi/4 < x < pi/4; equivalent to dita_d6(-x)."""
    if not -np.pi / 4 < x < np.pi / 4:
        raise ParamOutOfRange(f"dita_corner needs -pi/4 < x < pi/4, got {x}")
    return apply_equivalence(dita_d6(-x), _CORNER_FROM_D6)


def border_h(which, x):
    """Border slices: which="x1" gives H(x, pi/2), which="x2" gives H(pi/2, x)."""
    if which == "x1":
        return family_h(x, np.pi / 2)
    if which == "x2":
        return family_h(np.pi / 2, x)
    raise ValueError(f"which must be 'x1' or 'x2', got {which!r}")


# tag -> (constructor, parameter names); all angles but border's axis string
FAMILIES = {
    "f6": (fourier_f6, ("a", "b")),
    "f6t": (lambda a, b: fourier_f6(a, b).T, ("a", "b")),
    "d6": (dita_d6, ("c",)),
    "h": (family_h, ("x1", "x2")),
    "sym": (symmetric_m, ("x",)),
    "selfadj": (self_adjoint_h, ("x",)),
    "corner": (dita_corner, ("x",)),
    "border": (border_h, ("axis", "x")),
}
