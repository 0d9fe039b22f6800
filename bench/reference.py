"""Reference computations the benchmark checks the program against.

Everything here uses numpy and the standard library only and imports
nothing from hadamard6, so a fault in the package cannot hide itself by
also breaking the check that should catch it.
"""

import json
import math

import numpy as np

TWO_PI = 2 * math.pi

# Two equivalent matrices have equal quadruple-phase multisets up to float
# noise (about 1e-15 for the inputs used here); the inequivalent pairs the
# workloads build differ by more than 1e-3.  Anything between is left
# unproven rather than guessed.
INVARIANT_MARGIN = 1e-6
# A quadruple phase within this distance of pi marks a 2x2 Hadamard
# sub-block (Karlsson, "H2-reducible complex Hadamard matrices of order 6").
PI_EPS = 1e-6


def quadruple_phases(m):
    """Phases in [0, 2pi) of m_ij m_kl conj(m_il) conj(m_kj), i != k, j != l.

    Built as one broadcast over a (i, k, j, l) grid with a mask, unlike
    the program's index-array gather.
    """
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    c = np.conj(m)
    prod = (
        m[:, None, :, None]
        * m[None, :, None, :]
        * c[:, None, None, :]
        * c[None, :, :, None]
    )
    off = ~np.eye(n, dtype=bool)
    mask = off[:, :, None, None] & off[None, None, :, :]
    return np.angle(prod[mask]) % TWO_PI


def invariant_gap(a, b):
    """Largest gap between the sorted cosines or sorted sines of the two
    quadruple-phase multisets.

    Sorting is 1-Lipschitz in the max norm, so equivalent matrices give a
    gap no larger than their rounding noise; a gap above INVARIANT_MARGIN
    proves the two matrices inequivalent.  Cosine and sine avoid the
    branch cut at 0 = 2pi.
    """
    pa, pb = quadruple_phases(a), quadruple_phases(b)
    if pa.shape != pb.shape:
        return math.inf
    return float(
        max(
            np.abs(np.sort(np.cos(pa)) - np.sort(np.cos(pb))).max(),
            np.abs(np.sort(np.sin(pa)) - np.sort(np.sin(pb))).max(),
        )
    )


def proves_inequivalent(a, b):
    return invariant_gap(a, b) > INVARIANT_MARGIN


def pi_quadruple_count(m):
    """How many ordered quadruples have phase pi (2x2 Hadamard sub-blocks)."""
    return int(np.count_nonzero(np.abs(quadruple_phases(m) - math.pi) < PI_EPS))


def random_witness(n, rng):
    """(row_perm, row_phases, col_perm, col_phases) drawn in that order."""
    return (
        rng.permutation(n),
        np.exp(2j * math.pi * rng.random(n)),
        rng.permutation(n),
        np.exp(2j * math.pi * rng.random(n)),
    )


def sign_witness(n, rng):
    """Random permutations with phases +-1.  Negation is exact in floating
    point, so every quadruple product of the image is bitwise the product of
    the original quadruple, as with permutation_witness."""
    signs = np.array([1.0, -1.0], dtype=complex)
    return rng.permutation(n), signs[rng.integers(2, size=n)], rng.permutation(n), signs[rng.integers(2, size=n)]


def permutation_witness(n, rng):
    """Random permutations with phases exactly 1, so every quadruple product
    of the image is bitwise the product of the original quadruple."""
    one = np.ones(n, dtype=complex)
    return rng.permutation(n), one, rng.permutation(n), one


def _permutation_matrix(perm):
    perm = np.asarray(perm)
    n = perm.size
    if sorted(perm.tolist()) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {perm.tolist()}")
    p = np.zeros((n, n))
    p[np.arange(n), perm] = 1.0
    return p


def apply_witness(m, witness):
    """diag(row_phases) P2 M P1 diag(col_phases), with explicit permutation
    matrices: result[i, j] = row_phases[i] M[row_perm[i], col_perm[j]] col_phases[j]."""
    row_perm, row_phases, col_perm, col_phases = witness
    m = np.asarray(m, dtype=complex)
    moved = _permutation_matrix(row_perm) @ m @ _permutation_matrix(col_perm).T
    return np.asarray(row_phases)[:, None] * moved * np.asarray(col_phases)[None, :]


def witness_error(h1, h2, witness):
    """Max entrywise error of the witness reproduction of h2 from h1, or inf
    when the witness is malformed (not permutations, or phases off the
    unit circle)."""
    row_perm, row_phases, col_perm, col_phases = (np.asarray(x) for x in witness)
    n = np.asarray(h1).shape[0]
    if any(x.shape != (n,) for x in (row_perm, row_phases, col_perm, col_phases)):
        return math.inf
    phases = np.concatenate([row_phases, col_phases])
    if np.abs(np.abs(phases) - 1.0).max() > 1e-9:
        return math.inf
    try:
        moved = apply_witness(h1, (row_perm, row_phases, col_perm, col_phases))
    except ValueError:
        return math.inf
    return float(np.abs(moved - np.asarray(h2, dtype=complex)).max())


def hadamard_defect(m):
    """max(max | |m_ij| - 1 |, max |M^dagger M / n - I|)."""
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    modulus = np.abs(np.abs(m) - 1.0).max()
    unitarity = np.abs(m.conj().T @ m / n - np.eye(n)).max()
    return float(max(modulus, unitarity))


def block_compose(h1, h2, deltas):
    """[[H1, D H2], [H1, -D H2]] with D = diag(1, e^{i d1}, ..., e^{i d5})."""
    d = np.exp(1j * np.concatenate([[0.0], np.asarray(deltas, dtype=float)]))
    right = d[:, None] * np.asarray(h2, dtype=complex)
    h1 = np.asarray(h1, dtype=complex)
    return np.vstack([np.hstack([h1, right]), np.hstack([h1, -right])])


def _circular(x, period):
    if period is None:
        return abs(x)
    return abs((x + period / 2) % period - period / 2)


def orbit_error(params, orbit, period):
    """Distance of params to the nearest orbit image (max norm per image,
    each coordinate taken modulo period when a period is given)."""
    params = tuple(params)
    best = math.inf
    for image in orbit:
        if len(image) != len(params):
            continue
        best = min(best, max(_circular(p - q, period) for p, q in zip(params, image)))
    return best


def h_orbit(u, v):
    """Sign flips and the swap of (x1, x2); the H family is pi-periodic in
    each parameter up to row and column swaps."""
    return [(s1 * a, s2 * b) for a, b in ((u, v), (v, u)) for s1 in (1, -1) for s2 in (1, -1)]


def d6_orbit(c):
    return [(c,), (-c,)]


def fourier_orbit(a, b):
    """Closure of (a, b) under the Fourier-family moves (a + pi/3, b - pi/3),
    (a + pi, b), (a, b + pi), (-a, -b), (b, a) and (b - a, b), all mod 2pi,
    found by breadth-first search.

    The last move is easy to miss: fourier_f6(a, b) and fourier_f6(b - a, b)
    are equivalent (exact are_equivalent, e.g. at (0.48, 0.69)), and with the
    other moves it makes the 12-element group of linear maps (a, b) ->
    (c1 a + c2 b, d1 a + d2 b) that preserve the family.
    """
    moves = (
        lambda p: (p[0] + math.pi / 3, p[1] - math.pi / 3),
        lambda p: (p[0] + math.pi, p[1]),
        lambda p: (p[0], p[1] + math.pi),
        lambda p: (-p[0], -p[1]),
        lambda p: (p[1], p[0]),
        lambda p: (p[1] - p[0], p[1]),
    )

    def key(p):
        return tuple(round(x % TWO_PI, 9) % round(TWO_PI, 9) for x in p)

    start = (a % TWO_PI, b % TWO_PI)
    seen = {key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for p in frontier:
            for move in moves:
                q = tuple(x % TWO_PI for x in move(p))
                k = key(q)
                if k not in seen:
                    seen[k] = q
                    nxt.append(q)
        frontier = nxt
    return list(seen.values())


def strict_json(text):
    """json.loads that rejects NaN and +-Infinity, which are not JSON."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def digits(error):
    """-log10 of an error, floored at 1e-17 so an exact result stays finite."""
    return -math.log10(max(error, 1e-17))
