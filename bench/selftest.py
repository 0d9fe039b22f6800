"""Self-test of the benchmark's checks: each accepts a good output and
rejects a corrupted one.

    python3 bench/selftest.py

Run from the root of a source checkout.  Takes a few seconds; prints one
line per case and exits 1 if any check lets a corruption through or
rejects a good output.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import hadamard6 as h6  # noqa: E402
import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402
from hadamard6 import io as h6io  # noqa: E402

results = []


def case(name, outcome, expect):
    """expect: "ok", "failed" or "wrong"."""
    got = "failed" if outcome.failed else "wrong" if outcome.wrong else "ok"
    results.append(got == expect)
    print(f"{'PASS' if got == expect else 'FAIL'} {name}: {got} (expected {expect})")


def expect_true(name, value):
    results.append(bool(value))
    print(f"{'PASS' if value else 'FAIL'} {name}")


def witness_parts(w):
    return [list(w.row_perm), list(w.row_phases), list(w.col_perm), list(w.col_phases)]


def as_witness(parts):
    return h6.EquivalenceWitness(*(tuple(p) for p in parts))


def main():
    rng = np.random.default_rng(0)

    # -- the quadruple-phase invariant proves inequivalence ---------------
    h = h6.family_h(0.4, 0.9)
    image = ref.apply_witness(h, ref.random_witness(6, rng))
    expect_true("invariant proves H(0.4, 0.9) and F6(0.5, 0.8) inequivalent",
                ref.proves_inequivalent(h, h6.fourier_f6(0.5, 0.8)))
    expect_true("invariant does not call an image of H(0.4, 0.9) inequivalent",
                not ref.proves_inequivalent(h, image))
    try:
        wl._distinct_op("corrupted", h, image, screen=True)
        expect_true("a pair labelled inequivalent that is an image is refused", False)
    except RuntimeError:
        expect_true("a pair labelled inequivalent that is an image is refused", True)
    distinct = wl._distinct_op("screened", h, h6.dita_d6(0.3), screen=True)
    res = distinct.call()
    case("inequivalent pair, program answer", distinct.check(res), "ok")
    case("inequivalent pair, answer flipped to equivalent",
         distinct.check(h6.EquivalenceResult("equivalent", witness=h6.EquivalenceWitness.identity(6))), "failed")

    signed = ref.apply_witness(h, ref.sign_witness(6, rng))
    expect_true("a permutation-and-sign image has bitwise the quadruple phases of H(0.4, 0.9)",
                np.array_equal(np.sort(ref.quadruple_phases(h)), np.sort(ref.quadruple_phases(signed))))

    # -- the witness is reproduced with plain numpy ----------------------
    op = wl._image_op("image", h, ref.random_witness(6, rng))
    res = op.call()
    case("equivalent image, program witness", op.check(res), "ok")
    parts = witness_parts(res.witness)
    parts[2][0], parts[2][1] = parts[2][1], parts[2][0]
    case("equivalent image, two witness columns swapped",
         op.check(h6.EquivalenceResult("equivalent", witness=as_witness(parts))), "wrong")
    parts = witness_parts(res.witness)
    parts[1][3] *= np.exp(1e-6j)
    case("equivalent image, one row phase off by 1e-6 rad",
         op.check(h6.EquivalenceResult("equivalent", witness=as_witness(parts))), "wrong")
    case("equivalent image, answered inequivalent",
         op.check(h6.EquivalenceResult("inequivalent", screened_by="corrupted")), "failed")

    # -- the family orbits check recovered parameters --------------------
    expect_true("(0.1471975, 1.6943951) lies on the Fourier orbit of (0.4, 0.9)",
                ref.orbit_error((0.1471975, 1.6943951), ref.fourier_orbit(0.4, 0.9), 2 * math.pi) < 1e-6)
    expect_true("(0.1571975, 1.6943951) does not",
                ref.orbit_error((0.1571975, 1.6943951), ref.fourier_orbit(0.4, 0.9), 2 * math.pi) > 1e-3)
    expect_true("(0.9, 0.4) lies on the H orbit of (-0.4, 0.9)",
                ref.orbit_error((0.9, 0.4), ref.h_orbit(-0.4, 0.9), math.pi) < 1e-12)
    expect_true("(0.9, 0.41) does not", ref.orbit_error((0.9, 0.41), ref.h_orbit(-0.4, 0.9), math.pi) > 1e-3)
    op = wl._classify_op("D6", np.random.default_rng(3))
    c = op.call()
    case("D6 member, program classification", op.check(c), "ok")
    case("D6 member, parameter moved by 0.01",
         op.check(h6.Classification(c.label, (c.params[0] + 0.01,), c.distance)), "wrong")
    case("D6 member, labelled H-family", op.check(h6.Classification("H-family", (0.3, 0.2), c.distance)), "failed")

    # -- search records: exit code, stderr, strict JSON, defects, pi count
    found = h6.project_search(h6.SearchConfig(rng_seed=42))

    def record(m, label="unknown", final_defect=None):
        rec = {
            "matrix": h6io.matrix_to_obj(m),
            "iterations": 1,
            "final_defect": ref.hadamard_defect(m) if final_defect is None else final_defect,
            "converged": True,
            "classification": {"label": label, "params": None, "distance": 0.5},
        }
        return json.dumps(rec, sort_keys=True) + "\n"

    expect_true("search output has no pi-quadruple", ref.pi_quadruple_count(found.matrix) == 0)
    good = record(found.matrix)
    case("search record", wl._check_search(wl.CliRun(0, good, "", None)), "ok")
    case("search record, exit code 1", wl._check_search(wl.CliRun(1, good, "MaxIterExceeded\n", None)), "failed")
    case("search record, stderr not empty", wl._check_search(wl.CliRun(0, good, "warning\n", None)), "wrong")
    case("search record, bare NaN", wl._check_search(wl.CliRun(0, record(found.matrix, final_defect=math.nan), "",
                                                                None)), "wrong")
    moved = found.matrix.copy()
    moved[2, 3] *= 1 + 1e-6
    case("search record, entry off the unit circle by 1e-6",
         wl._check_search(wl.CliRun(0, record(moved, final_defect=ref.hadamard_defect(moved)), "", None)), "wrong")
    case("search record, a family member labelled unknown",
         wl._check_search(wl.CliRun(0, record(h6.family_h(0.4, 0.9)), "", None)), "wrong")
    case("search record, labelled H-family without any pi-quadruple",
         wl._check_search(wl.CliRun(0, record(found.matrix, label="H-family"), "", None)), "failed")

    # -- order-12 compositions are rebuilt by block formula ---------------
    distinct_op, image_op = wl._order12_ops(np.random.default_rng(4))
    a, b, res = distinct_op.call()
    case("order-12 distinct pair", distinct_op.check((a, b, res)), "ok")
    bad = a.copy()
    bad[7, 8] *= -1
    case("order-12 distinct pair, one composed entry negated", distinct_op.check((bad, b, res)), "wrong")
    a, res = image_op.call()
    case("order-12 image", image_op.check((a, res)), "ok")
    case("order-12 image, answered inequivalent",
         image_op.check((a, h6.EquivalenceResult("inequivalent", screened_by="corrupted"))), "failed")

    print(f"{sum(results)}/{len(results)} checks behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
