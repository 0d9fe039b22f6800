"""JSON wire format for matrices, witnesses and the library's results.

Matrix object: {"n": int, "re": [[...]], "im": [[...]]}. Readers also accept
the phase form {"n": int, "phase_turns": [[...]]} with entries
exp(2*pi*i*turns). Writers emit re/im.

`to_obj` is the one encoder of results: a result's JSON keys are its
dataclass field names, and a tuple of complex phases, such as a witness's
row_phases, is {"re": [...], "im": [...]}.
"""

import dataclasses
import json

import numpy as np

from .core import EquivalenceWitness, as_matrix


def matrix_to_obj(m):
    m = as_matrix(m)
    return {
        "n": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
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


def to_obj(x):
    """JSON-ready form of x: a dataclass as its fields, an array as a matrix
    object, a tuple of complex phases as {"re": [...], "im": [...]}, lists,
    tuples and dicts element by element, anything else as it is."""
    if dataclasses.is_dataclass(x):
        return {f.name: to_obj(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, np.ndarray):
        return matrix_to_obj(x)
    if isinstance(x, tuple) and x and all(isinstance(p, complex) for p in x):
        return {"re": [p.real for p in x], "im": [p.imag for p in x]}
    if isinstance(x, (list, tuple)):
        return [to_obj(v) for v in x]
    if isinstance(x, dict):
        return {k: to_obj(v) for k, v in x.items()}
    return x


def witness_to_obj(w):
    return to_obj(w)


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
