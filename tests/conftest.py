import numpy as np
import pytest
from hypothesis import strategies as st

from hadamard6 import EquivalenceWitness

_HALF = st.floats(-np.pi / 2, np.pi / 2)
_TURN = st.floats(0.0, 2 * np.pi)
# each FAMILIES tag's whole parameter box
FAMILY_BOXES = {
    "f6": st.tuples(_TURN, _TURN),
    "f6t": st.tuples(_TURN, _TURN),
    "d6": st.tuples(st.floats(-np.pi / 4, np.pi / 4)),
    "h": st.tuples(_HALF, _HALF),
    "sym": st.tuples(_HALF),
    "selfadj": st.tuples(_HALF),
    "corner": st.tuples(st.floats(-np.pi / 4, np.pi / 4, exclude_min=True, exclude_max=True)),
    "border": st.tuples(st.sampled_from(("x1", "x2")), _HALF),
}
# one member per FAMILIES tag, for the tests that pin classify's and
# are_equivalent's outputs
PINNED_MEMBERS = {
    "f6": (0.4, 0.9),
    "f6t": (0.4804, 0.6852),
    "d6": (0.2,),
    "h": (0.37, 0.21),
    "sym": (0.5,),
    "selfadj": (-0.6,),
    "corner": (0.3,),
    "border": ("x2", 0.7),
}


def random_witness(n, rng):
    """Random permutations and unit phases, as an EquivalenceWitness."""
    return EquivalenceWitness(
        tuple(int(i) for i in rng.permutation(n)),
        tuple(np.exp(2j * np.pi * rng.random(n))),
        tuple(int(i) for i in rng.permutation(n)),
        tuple(np.exp(2j * np.pi * rng.random(n))),
    )


def fingerprint_oracle(m, precision):
    """Plain-loop reference for the phase multiset, kept independent of the
    vectorized implementation."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    factors = []
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            for j in range(n):
                for l in range(n):
                    if j == l:
                        continue
                    factors.append((m[i, j], m[k, l], np.conj(m[i, l]), np.conj(m[k, j])))
    # multiplied as contiguous arrays, left to right: numpy's array loop can
    # differ in the last bit from a product of scalars in the same order
    ij, kl, il, kj = np.array(factors, dtype=complex).reshape(-1, 4).T.copy()
    vals = []
    for prod in ij * kl * il * kj:
        theta = np.angle(prod) % (2 * np.pi)
        r = round(theta, precision)
        if r >= round(2 * np.pi, precision):
            r = 0.0
        vals.append(r)
    return tuple(sorted(vals))


@pytest.fixture
def rng():
    return np.random.default_rng(7)
