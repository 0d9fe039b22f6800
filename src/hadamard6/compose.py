"""Order-12 block composition from two order-6 Hadamard matrices and a
free diagonal of five phases."""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_TOL, _Prepared
from .errors import UnknownFamily
from .families import FAMILIES
from .io import _numbers, wrong_shape

# the two-parameter families (border's second parameter is its axis string)
_TWO_PARAMETER = {t: f for t, f in FAMILIES.items() if len(f[1]) == 2 and "axis" not in f[1]}


@dataclass(frozen=True)
class ComposeSpec:
    family1: str
    params1: tuple
    family2: str
    params2: tuple
    deltas: tuple  # five phase angles for the block diagonal

    @classmethod
    def from_dict(cls, obj):
        with wrong_shape("compose spec"):
            h1, h2 = obj["h1"], obj["h2"]
            return cls(
                family1=str(h1["family"]),
                params1=_numbers(h1["params"]),
                family2=str(h2["family"]),
                params2=_numbers(h2["params"]),
                deltas=_numbers(obj["deltas"]),
            )

    def to_dict(self):
        return {
            "h1": {"family": self.family1, "params": list(self.params1)},
            "h2": {"family": self.family2, "params": list(self.params2)},
            "deltas": list(self.deltas),
        }


def _build(family, params):
    try:
        build, names = _TWO_PARAMETER[family]
    except KeyError:
        raise UnknownFamily(f"family {family!r} not one of {sorted(_TWO_PARAMETER)}") from None
    if len(params) != len(names):
        raise ValueError(f"family {family!r} takes params {names}, got {len(params)} values")
    return build(*params)


def block_compose(h1, h2, deltas):
    """[[H1, D H2], [H1, -D H2]] with D = diag(1, e^{i d1}, ..., e^{i d5})."""
    h1, h2 = _Prepared(h1, h2).m
    n = h1.shape[0]
    deltas = np.asarray(deltas, dtype=float)
    if deltas.shape != (n - 1,):
        raise ValueError(f"need {n - 1} deltas, got shape {deltas.shape}")
    if not np.isfinite(deltas).all():
        raise ValueError("deltas must be finite")
    out = np.empty((2 * n, 2 * n), dtype=complex)
    out[:n, :n] = out[n:, :n] = h1
    right = out[:n, n:]
    np.multiply(np.exp(1j * np.concatenate([[0.0], deltas]))[:, None], h2, out=right)
    np.negative(right, out=out[n:, n:])
    return out


def compose12(spec):
    """Build the order-12 Hadamard matrix described by a ComposeSpec."""
    h1 = _build(spec.family1, spec.params1)
    h2 = _build(spec.family2, spec.params2)
    _Prepared(h1, h2).require(DEFAULT_TOL, ("h1", "h2"))
    return block_compose(h1, h2, spec.deltas)
