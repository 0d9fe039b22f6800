import numpy as np
import pytest

from hadamard6 import (
    ComposeSpec,
    DimensionMismatch,
    NotHadamard,
    UnknownFamily,
    block_compose,
    compose12,
    dephase,
    fingerprint,
    fourier_f6,
    is_hadamard,
    unitarity_defect,
)


def test_zero_deltas_is_kron_doubling():
    f = fourier_f6(0.3, 0.1)
    spec = ComposeSpec("f6", (0.3, 0.1), "f6", (0.3, 0.1), (0.0,) * 5)
    m = compose12(spec)
    expect = np.kron(np.array([[1, 1], [1, -1]]), f)
    assert np.max(np.abs(m - expect)) < 1e-14


def test_composition_is_hadamard():
    spec = ComposeSpec("f6", (0.1, 0.7), "h", (0.3, 0.2), (0.1, -0.4, 2.2, 0.9, -1.3))
    m = compose12(spec)
    assert m.shape == (12, 12)
    assert is_hadamard(m, 1e-10)
    assert unitarity_defect(m) < 1e-12


def test_mixed_families_and_transpose():
    spec = ComposeSpec("f6t", (0.5, 0.2), "h", (-0.8, 0.4), (0.0, 0.1, 0.2, 0.3, 0.4))
    assert is_hadamard(compose12(spec), 1e-10)


def test_fingerprint_stable_under_redephasing():
    spec = ComposeSpec("h", (0.3, 0.2), "f6", (0.0, 0.0), (0.2, 0.4, 0.6, 0.8, 1.0))
    m = compose12(spec)
    d, _ = dephase(m)
    assert fingerprint(m, 7).values == fingerprint(d, 7).values


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        compose12(ComposeSpec("d6", (0.1,), "f6", (0.0, 0.0), (0.0,) * 5))


def test_wrong_delta_count():
    with pytest.raises(ValueError):
        compose12(ComposeSpec("f6", (0.0, 0.0), "f6", (0.0, 0.0), (0.0,) * 4))


def test_singular_member_rejected():
    with pytest.raises(Exception) as exc_info:
        compose12(ComposeSpec("h", (np.pi / 2, np.pi / 2), "f6", (0.0, 0.0), (0.0,) * 5))
    assert exc_info.type.__name__ in ("SingularZ", "NotHadamard")


def test_block_compose_checks_delta_shape():
    f = fourier_f6(0.0, 0.0)
    with pytest.raises(ValueError):
        block_compose(f, f, np.zeros(4))


def test_block_compose_checks_orders():
    # an order-1 second block broadcast into the right half without complaint
    f = fourier_f6(0.0, 0.0)
    with pytest.raises(DimensionMismatch):
        block_compose(f, np.ones((1, 1), dtype=complex), np.zeros(5))


def test_block_compose_rejects_nonfinite_deltas():
    # a NaN delta gave a matrix of NaNs and numpy RuntimeWarnings
    spec = ComposeSpec("f6", (0.1, 0.2), "h", (0.3, 0.2), (float("nan"), 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="finite"):
        compose12(spec)
    f = fourier_f6(0.0, 0.0)
    with pytest.raises(ValueError, match="finite"):
        block_compose(f, f, [0.0, float("inf"), 0.0, 0.0, 0.0])


def test_spec_dict_roundtrip():
    spec = ComposeSpec("f6", (0.1, 0.2), "h", (0.3, 0.4), (0.5, 0.6, 0.7, 0.8, 0.9))
    back = ComposeSpec.from_dict(spec.to_dict())
    assert back == spec
    obj = {
        "h1": {"family": "f6", "params": [0.1, 0.2]},
        "h2": {"family": "h", "params": [0.3, 0.4]},
        "deltas": [0.5, 0.6, 0.7, 0.8, 0.9],
    }
    assert ComposeSpec.from_dict(obj).to_dict() == obj
