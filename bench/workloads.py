"""The three workloads: their inputs, the operations they time, and the
check each operation's output must pass.

Inputs come from numpy's default_rng seeded with the run's --seed, except
the fixed operations that fail on every run (the rounding-boundary batch of
`equivalence`, the `unknown` H member of `classify-families`).  Every
operation's output is checked against the reference computations in
reference.py, never against a stored copy of an earlier output.
"""

import io as _io
import math
import os
import select
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import hadamard6 as h6
import hadamard6.cli
import reference as ref

# interior parameter boxes, clear of the singular borders, the
# parameter-free axes and the slices where two labelled families meet
H_BOX = (0.3, 1.3)  # |x1|, |x2| of the H family and x of its slices
F6_BOX = (0.2, 1.2)  # a, b of the Fourier families
D6_BOX = (0.15, 0.65)  # |c| of D6 and |x| of the corner family
# classify's own tests accept a recovered parameter within 1e-3
PARAM_TOL = 1e-3
# are_equivalent runs at tol 1e-10 and its tests accept 10 * tol
WITNESS_TOL = 1e-9
# the CLI search default --tol
SEARCH_TOL = 1e-8
BOUNDARY_X = (0.700000005, 0.2)
BOUNDARY_PAIRS = 40
BOUNDARY_SEED = 11
CHILD_TIMEOUT_S = 150.0


@dataclass
class Outcome:
    """failed: the operation raised, exited non-zero, or gave an answer the
    reference refutes.  wrong: the answer stands but the evidence that comes
    with it (witness, parameters, defects, JSON) does not check out.
    error: the accuracy figure of a correct output."""

    failed: Optional[str] = None
    wrong: Optional[str] = None
    error: Optional[float] = None


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _sign(rng):
    return 1.0 if rng.random() < 0.5 else -1.0


def _draw_h(rng):
    while True:
        u, v = rng.uniform(*H_BOX, 2)
        if abs(u - v) >= 0.1:
            return _sign(rng) * u, _sign(rng) * v


def _draw_f6(rng):
    # a - b on a multiple of pi/3 puts the member on the H family
    while True:
        a, b = rng.uniform(*F6_BOX, 2)
        off = abs((a - b + math.pi / 6) % (math.pi / 3) - math.pi / 6)
        if off >= 0.15:
            return a, b


# Seed-drawn H-family classify inputs come from a 9x9 grid over H_BOX
# (x1 > x2), without the three points where classify labels the member
# `unknown` (see CHANGES.md, about one random H member in twelve): a
# failure that shows on some seeds and not others cannot be counted alike
# in every run.  The fault stays in view through UNKNOWN_H, one fixed
# member classified in every round and counted as failed.
_GRID = tuple(0.3 + 0.125 * k for k in range(9))
_H_UNKNOWN = ((1.05, 0.8), (1.175, 0.3), (1.3, 1.05))
H_GRID = tuple(
    (u, v)
    for u in _GRID
    for v in _GRID
    if u > v and not any(abs(u - a) + abs(v - b) < 1e-9 for a, b in _H_UNKNOWN)
)
UNKNOWN_H = _H_UNKNOWN[0]
UNKNOWN_H_SEED = 5


def _draw_h_grid(rng):
    u, v = H_GRID[int(rng.integers(len(H_GRID)))]
    if rng.random() < 0.5:
        u, v = v, u
    return _sign(rng) * u, _sign(rng) * v


def _draw_family(rng, family, draw_h=_draw_h):
    """(matrix, expected label, parameter orbit, orbit period)."""
    if family == "H":
        u, v = draw_h(rng)
        return h6.family_h(u, v), "H-family", ref.h_orbit(u, v), math.pi
    if family in ("sym", "selfadj"):
        x = _sign(rng) * rng.uniform(*H_BOX)
        if family == "sym":
            return h6.symmetric_m(x), "H-family", ref.h_orbit(x, x), math.pi
        return h6.self_adjoint_h(x), "H-family", ref.h_orbit(x, -x), math.pi
    if family in ("F6", "F6T"):
        a, b = _draw_f6(rng)
        m = h6.fourier_f6(a, b)
        label = "F6-slice"
        if family == "F6T":
            m, label = m.T, "F6T-slice"
        return m, label, ref.fourier_orbit(a, b), 2 * math.pi
    if family == "D6":
        c = _sign(rng) * rng.uniform(*D6_BOX)
        return h6.dita_d6(c), "D6", ref.d6_orbit(c), None
    if family == "corner":
        x = _sign(rng) * rng.uniform(*D6_BOX)
        return h6.dita_corner(x), "D6", ref.d6_orbit(-x), None
    if family == "H-unknown":
        u, v = UNKNOWN_H
        return h6.family_h(u, v), "H-family", ref.h_orbit(u, v), math.pi
    raise ValueError(family)


# --------------------------------------------------------------------------
# classify-families


# One member of each labelled family, and a second fresh H member, since
# the two-parameter H family is the paper's subject.  "H-unknown" is
# UNKNOWN_H under a fixed witness: the same input whatever the seed,
# labelled `unknown` and so failed in every round.
CLASSIFY_ROUND = ("H", "F6", "H-unknown", "F6T", "D6", "H", "sym", "selfadj", "corner")


def _classify_op(family, rng):
    if family == "H-unknown":
        rng = np.random.default_rng(UNKNOWN_H_SEED)
    m, label, orbit, period = _draw_family(rng, family, draw_h=_draw_h_grid)
    image = ref.apply_witness(m, ref.random_witness(6, rng))
    if ref.pi_quadruple_count(image) == 0:
        raise RuntimeError(f"{family} input has no 2x2 Hadamard sub-block")

    def check(c):
        if c.label != label:
            return Outcome(failed=f"label {c.label}, expected {label}")
        if c.params is None or not math.isfinite(c.distance):
            return Outcome(wrong=f"params {c.params}, distance {c.distance}")
        err = ref.orbit_error(c.params, orbit, period)
        if not err <= PARAM_TOL:
            return Outcome(wrong=f"params {c.params} are {err:.3g} from the {family} orbit")
        return Outcome(error=err)

    return Op(f"classify:{family}", lambda: h6.classify(image), check)


class ClassifyFamilies:
    """One round classifies fresh members of every labelled family, each
    moved by a random equivalence witness."""

    name = "classify-families"

    def __init__(self, seed, root):
        self.rng = np.random.default_rng(seed)
        self._rounds = []

    def round(self, r):
        while len(self._rounds) <= r:
            self._rounds.append([_classify_op(f, self.rng) for f in CLASSIFY_ROUND])
        return self._rounds[r]

    def traced_batch(self):
        """The first member of each family."""
        first = {}
        for op in self.round(0):
            first.setdefault(op.kind, op)
        return list(first.values())


# --------------------------------------------------------------------------
# search-cli


@dataclass
class CliRun:
    returncode: int
    stdout: str
    stderr: str
    maxrss_kb: Optional[int]


def _check_search(run):
    if run.returncode != 0:
        return Outcome(failed=f"exit code {run.returncode}: {run.stderr.strip()[:200]}")
    if run.stderr:
        return Outcome(wrong=f"stderr not empty: {run.stderr[:200]!r}")
    try:
        rec = ref.strict_json(run.stdout)
        if rec["converged"] is not True:
            return Outcome(failed="search did not converge")
        m = np.array(rec["matrix"]["re"], dtype=float) + 1j * np.array(rec["matrix"]["im"], dtype=float)
        if m.shape != (6, 6) or rec["matrix"]["n"] != 6:
            return Outcome(wrong=f"matrix shape {m.shape}")
        final_defect = float(rec["final_defect"])
        label = rec["classification"]["label"]
        params = rec["classification"]["params"]
    except (ValueError, KeyError, TypeError) as exc:
        return Outcome(wrong=f"output not the search record: {exc}")
    defect = ref.hadamard_defect(m)
    if not defect <= SEARCH_TOL:
        return Outcome(wrong=f"defect {defect:.3g} above tol {SEARCH_TOL}")
    if not abs(final_defect - defect) <= 1e-12:
        return Outcome(wrong=f"reported defect {final_defect:.3g}, recomputed {defect:.3g}")
    blocks = ref.pi_quadruple_count(m)
    if label == "unknown":
        if params is not None:
            return Outcome(wrong=f"unknown label with params {params}")
        if blocks:
            return Outcome(wrong=f"unknown label not confirmed: {blocks} pi-quadruples")
    elif blocks == 0:
        return Outcome(failed=f"label {label} on a matrix with no 2x2 Hadamard sub-block")
    return Outcome(error=defect)


class SearchCli:
    """Each operation is one `python -m hadamard6.cli search --seed S`, run
    as a fresh process; the traced run drives the same CLI in-process."""

    name = "search-cli"
    traced_ops = 2

    def __init__(self, seed, root):
        self.rng = np.random.default_rng(seed)
        self.root = root
        self.env = child_env(root)
        self.seeds = []

    def _argv(self, r):
        # A start that does not converge makes the CLI exit 1, which counts
        # as a failed operation; none did in 4,000 random starts (at most
        # 84 of the 2,000 iterations allowed).
        while len(self.seeds) <= r:
            self.seeds.append(int(self.rng.integers(0, 2**31 - 1)))
        return ["search", "--seed", str(self.seeds[r])]

    def round(self, r):
        argv = self._argv(r)
        return [Op("search", lambda: run_module("hadamard6.cli", argv, self.root, self.env), _check_search)]

    def traced_batch(self):
        """The first operations, with the CLI driven in-process so the
        spans inside it can be recorded."""
        ops = []
        for r in range(self.traced_ops):
            argv = self._argv(r)
            ops.append(Op("search", lambda argv=argv: _cli_in_process(argv), _check_search))
        return ops


def _cli_in_process(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = hadamard6.cli.main(argv)
    return CliRun(rc, out.getvalue(), err.getvalue(), None)


def child_env(root):
    """The caller's environment with the checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# A child's ru_maxrss also counts the memory of the process that forked it
# (at exec the kernel keeps the larger of the two), so it would report the
# benchmark's own footprint.  A CLI child is started through this bootstrap
# instead, which runs the module as `python -m` does and writes the child's
# own high-water mark since exec (VmHWM, in kB) to $BENCH_PEAK_FILE at exit.
PEAK_BOOT = """
import atexit, os, runpy, sys
def _peak():
    with open("/proc/self/status") as status:
        kb = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(os.environ["BENCH_PEAK_FILE"], "w") as out:
        out.write(kb)
atexit.register(_peak)
del sys.argv[0]
runpy.run_module(sys.argv[0], run_name="__main__", alter_sys=True)
"""


def run_module(module, args, root, env):
    """run_child for `python -m module *args`, with the child's peak RSS."""
    return run_child(["-c", PEAK_BOOT, module, *args], root, env)


def run_child(argv, root, env):
    """Run a fresh interpreter to its end, with a timeout.  Waiting on a
    pidfd returns as soon as the child exits (Popen.wait with a timeout
    polls, in steps of up to 50 ms)."""
    out_dir = root / ".bench_out"
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp, tempfile.TemporaryFile(dir=tmp) as out, \
            tempfile.TemporaryFile(dir=tmp) as err:
        peak = Path(tmp) / "peak_kb"
        p = subprocess.Popen(
            [sys.executable, *argv], cwd=root, env={**env, "BENCH_PEAK_FILE": str(peak)},
            stdin=subprocess.DEVNULL, stdout=out, stderr=err,
        )
        fd = os.pidfd_open(p.pid)
        try:
            ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
        finally:
            os.close(fd)
        if not ready:
            p.kill()
        p.wait()
        out.seek(0)
        err.seek(0)
        maxrss_kb = int(peak.read_text()) if peak.exists() else None
        return CliRun(p.returncode, out.read().decode(), err.read().decode(), maxrss_kb)


# --------------------------------------------------------------------------
# equivalence


def _image_op(kind, m, witness):
    h2 = ref.apply_witness(m, witness)

    def check(res):
        if res.decision != "equivalent":
            return Outcome(failed=f"{res.decision} ({res.screened_by}) for an image the reference witness reproduces")
        w = res.witness
        if w is None:
            return Outcome(wrong="equivalent without a witness")
        err = ref.witness_error(m, h2, (w.row_perm, w.row_phases, w.col_perm, w.col_phases))
        if not err <= WITNESS_TOL:
            return Outcome(wrong=f"witness reproduces the image to {err:.3g}")
        return Outcome(error=err)

    return Op(kind, lambda: h6.are_equivalent(m, h2), check)


def _distinct_op(kind, a, b, screen):
    if not ref.proves_inequivalent(a, b):
        raise RuntimeError(f"{kind}: the reference cannot prove the pair inequivalent")

    def check(res):
        if res.decision != "inequivalent":
            return Outcome(failed=f"{res.decision} for a pair whose invariants differ")
        if res.witness is not None:
            return Outcome(wrong="inequivalent with a witness")
        return Outcome()

    return Op(kind, lambda: h6.are_equivalent(a, b, screen=screen), check)


_COMPOSE_FAMILIES = ("f6", "f6t", "h")


def _draw_spec(rng):
    def block():
        fam = _COMPOSE_FAMILIES[int(rng.integers(3))]
        params = _draw_h(rng) if fam == "h" else _draw_f6(rng)
        m = h6.family_h(*params) if fam == "h" else h6.fourier_f6(*params)
        return fam, tuple(float(p) for p in params), m.T if fam == "f6t" else m

    f1, p1, m1 = block()
    f2, p2, m2 = block()
    deltas = tuple(float(d) for d in rng.uniform(0, 2 * math.pi, 5))
    return h6.ComposeSpec(f1, p1, f2, p2, deltas), ref.block_compose(m1, m2, deltas)


def _order12_ops(rng):
    spec_a, ref_a = _draw_spec(rng)
    spec_b, ref_b = _draw_spec(rng)
    if not ref.proves_inequivalent(ref_a, ref_b):
        raise RuntimeError("order-12 pair: the reference cannot prove it inequivalent")
    image = ref.apply_witness(ref_a, ref.permutation_witness(12, rng))

    def composed_ok(built, expected):
        err = float(np.abs(np.asarray(built) - expected).max())
        return err <= 1e-12 and ref.hadamard_defect(built) <= 1e-10

    def distinct():
        a, b = h6.compose12(spec_a), h6.compose12(spec_b)
        return a, b, h6.are_equivalent(a, b)

    def check_distinct(out):
        a, b, res = out
        if not (composed_ok(a, ref_a) and composed_ok(b, ref_b)):
            return Outcome(wrong="compose12 output differs from the block composition")
        if res.decision != "inequivalent":
            return Outcome(failed=f"{res.decision} for an order-12 pair whose invariants differ")
        return Outcome()

    def same():
        a = h6.compose12(spec_a)
        return a, h6.are_equivalent(a, image)

    def check_same(out):
        a, res = out
        if not composed_ok(a, ref_a):
            return Outcome(wrong="compose12 output differs from the block composition")
        # order 12 is screening only: a match is inconclusive, never a proof
        if res.decision != "inconclusive":
            return Outcome(failed=f"{res.decision} for an order-12 image of the same matrix")
        return Outcome()

    return [Op("order12:distinct", distinct, check_distinct), Op("order12:image", same, check_same)]


class Equivalence:
    """One round is a fixed mix of are_equivalent calls, drawn afresh from
    the seed for every round, plus the fixed rounding-boundary batch.

    Each kind of pair gets the same weight, PER_KIND operations a round:
    equivalent images, inequivalent pairs the screen settles, inequivalent
    pairs with screen=False, order-12 pairs and the rounding-boundary batch.
    No measurement of how callers mix these decisions exists, so the
    weighting is a choice, not a model of use; the traced run reports the
    screened and enumerated calls apart.

    The seed-drawn images use permutations and signs (ref.sign_witness):
    their quadruple phases are bitwise those of the original, so the
    screen's rounding fault, which the boundary batch counts, cannot fail
    them on some seeds and not others."""

    name = "equivalence"

    PER_KIND = BOUNDARY_PAIRS
    FAMILIES = ("H", "H", "F6", "F6T", "D6", "sym", "selfadj", "corner")
    PAIRS = (("H", "F6"), ("H", "D6"), ("F6", "D6"), ("F6T", "D6"), ("H", "H"), ("D6", "D6"),
             ("sym", "F6T"), ("selfadj", "corner"))

    def __init__(self, seed, root):
        self.rng = np.random.default_rng(seed)
        boundary = h6.family_h(*BOUNDARY_X)
        fixed = np.random.default_rng(BOUNDARY_SEED)
        self.boundary = [_image_op("boundary", boundary, ref.random_witness(6, fixed)) for _ in range(BOUNDARY_PAIRS)]
        self._rounds = []

    def _draw_round(self):
        rng = self.rng
        per = self.PER_KIND // len(self.FAMILIES)
        ops = []
        for fam in self.FAMILIES * per:
            m = _draw_family(rng, fam)[0]
            ops.append(_image_op(f"image:{fam}", m, ref.sign_witness(6, rng)))
        for kind, screen in (("screened", True), ("unscreened", False)):
            for fa, fb in self.PAIRS * per:
                a = _draw_family(rng, fa)[0]
                b = ref.apply_witness(_draw_family(rng, fb)[0], ref.random_witness(6, rng))
                ops.append(_distinct_op(f"{kind}:{fa}-{fb}", a, b, screen=screen))
        for _ in range(self.PER_KIND // 2):
            ops.extend(_order12_ops(rng))
        return ops + self.boundary

    def round(self, r):
        while len(self._rounds) <= r:
            self._rounds.append(self._draw_round())
        return self._rounds[r]

    def traced_batch(self):
        return self.round(0)


WORKLOADS = {w.name: w for w in (ClassifyFamilies, SearchCli, Equivalence)}
