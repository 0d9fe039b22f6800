"""Every file the package reads or writes, in the JSON wire format below.

Matrix object: {"n": int, "re": [[...]], "im": [[...]]}. Readers also accept
the phase form {"n": int, "phase_turns": [[...]]} with entries
exp(2*pi*i*turns). Writers emit re/im. Malformed JSON is a ValueError.

`to_obj` is the one encoder of results and `emit` the one writer: a result's
JSON keys are its dataclass field names, and a tuple of complex phases, such
as a witness's row_phases, is {"re": [...], "im": [...]}.
"""

import contextlib
import dataclasses
import json
import sys

import numpy as np

from .core import EquivalenceWitness, as_matrix


@contextlib.contextmanager
def wrong_shape(what):
    """ValueError for the KeyError, TypeError or OverflowError of JSON of the wrong shape."""
    try:
        yield
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {what}: {type(exc).__name__}: {exc}") from None


def matrix_to_obj(m):
    m = as_matrix(m)
    return {
        "n": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_obj(obj):
    with wrong_shape("matrix object"):
        n = obj["n"]
        if isinstance(n, (str, bool)) or n != int(n):
            raise ValueError(f"matrix object 'n' must be an integer, got {n!r}")
        if "phase_turns" in obj:
            m = np.exp(2j * np.pi * _finite(obj["phase_turns"]))
        else:
            m = _finite(obj["re"]) + 1j * _finite(obj["im"])
    m = as_matrix(m)
    if m.shape[0] != n:
        raise ValueError(f"declared n={n} but entries are {m.shape[0]}x{m.shape[1]}")
    return m


def _numbers(items):
    """A JSON list as a tuple of floats; its entries must be ints or floats.
    A boolean, a string or anything else is a ValueError."""
    if not isinstance(items, (list, tuple)) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in items
    ):
        raise ValueError("list entries must be numbers")
    return tuple(map(float, items))


def _finite(rows):
    a = np.array([_numbers(row) for row in rows])
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
        re, im = _numbers(d["re"]), _numbers(d["im"])
        return tuple(complex(r, i) for r, i in zip(re, im, strict=True))

    # EquivalenceWitness checks the permutation entries
    with wrong_shape("witness object"):
        return EquivalenceWitness(
            obj["row_perm"], phases(obj["row_phases"]), obj["col_perm"], phases(obj["col_phases"])
        )


def dumps(obj):
    """Deterministic strict JSON text (sorted keys, no NaN or Infinity,
    trailing newline)."""
    return json.dumps(obj, sort_keys=True, allow_nan=False) + "\n"


def read_json(path):
    """The decoded JSON of a file; nesting too deep to decode is a ValueError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError("JSON nested too deeply to decode") from None


def read_matrix(path):
    return matrix_from_obj(read_json(path))


def emit(result, path=None):
    """Write a result to path, or to stdout without one: CSV text as it is,
    anything else as strict JSON through to_obj."""
    text = result if isinstance(result, str) else dumps(to_obj(result))
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(text)


def write_matrix(path, m):
    emit(as_matrix(m), path)
