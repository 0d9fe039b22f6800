"""JSON wire format for matrices and witnesses.

Matrix object: {"n": int, "re": [[...]], "im": [[...]]}. Readers also accept
the phase form {"n": int, "phase_turns": [[...]]} with entries
exp(2*pi*i*turns). Writers emit re/im.
"""

import json

import numpy as np

from .core import EquivalenceWitness, as_matrix


def matrix_to_obj(m):
    m = as_matrix(m)
    return {
        "n": m.shape[0],
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def matrix_from_obj(obj):
    if not isinstance(obj, dict) or "n" not in obj:
        raise ValueError("matrix object must be a dict with an 'n' field")
    try:
        n = obj["n"]
        if isinstance(n, (str, bool)) or n != int(n):
            raise ValueError(f"matrix object 'n' must be an integer, got {n!r}")
        if "phase_turns" in obj:
            m = np.exp(2j * np.pi * _finite(obj["phase_turns"]))
        elif "re" in obj and "im" in obj:
            m = _finite(obj["re"]) + 1j * _finite(obj["im"])
        else:
            raise ValueError("matrix object needs 're'/'im' or 'phase_turns'")
    except TypeError:  # null, a list or an object where a number is needed
        raise ValueError("matrix object field has the wrong JSON type") from None
    except OverflowError:  # an infinite n, or an integer too large for a float
        raise ValueError("matrix object field is not a finite number") from None
    m = as_matrix(m)
    if m.shape[0] != n:
        raise ValueError(f"declared n={n} but entries are {m.shape[0]}x{m.shape[1]}")
    return m


def _finite(entries):
    a = np.array(entries, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def witness_to_obj(w):
    return {
        "row_perm": list(w.row_perm),
        "row_phases": {
            "re": [p.real for p in w.row_phases],
            "im": [p.imag for p in w.row_phases],
        },
        "col_perm": list(w.col_perm),
        "col_phases": {
            "re": [p.real for p in w.col_phases],
            "im": [p.imag for p in w.col_phases],
        },
    }


def witness_from_obj(obj):
    def phases(d):
        return tuple(complex(r, i) for r, i in zip(d["re"], d["im"]))

    return EquivalenceWitness(
        tuple(obj["row_perm"]),
        phases(obj["row_phases"]),
        tuple(obj["col_perm"]),
        phases(obj["col_phases"]),
    )


def dumps(obj):
    """Deterministic strict JSON text (sorted keys, no NaN or Infinity,
    trailing newline)."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def read_matrix(path):
    with open(path) as fh:
        return matrix_from_obj(json.load(fh))


def write_matrix(path, m):
    with open(path, "w") as fh:
        fh.write(dumps(matrix_to_obj(m)))
