"""Command-line front end: construction, verification, dephasing,
equivalence, fingerprints, grid scans, projection search, classification,
and order-12 composition, all as reproducible batch commands."""

import argparse
import math
import os
import sys

import numpy as np

from . import io
from .compose import ComposeSpec, compose12
from .core import DEFAULT_TOL, FINGERPRINT_PRECISION, dephase
from .core import fingerprint, is_hadamard, modulus_defect, unitarity_defect
from .equivalence import are_equivalent
from .errors import HadamardError, MaxIterExceeded, NotHadamard, SingularZ
from .families import FAMILIES, family_h
from .search import SearchConfig, classify, project_search


def _tol_from(args):
    """Precedence: explicit flag, then HADAMARD_TOL env, then DEFAULT_TOL."""
    if args.tol is not None:
        return args.tol
    env = os.environ.get("HADAMARD_TOL")
    if env is not None:
        return float(env)
    return DEFAULT_TOL


def _positive_int(text):
    """argparse type for counts: anything but an integer >= 1 is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _cmd_gen(args):
    build, names = FAMILIES[args.family]
    values = [getattr(args, name) for name in names]
    if args.turns:  # border's axis is a string, every other parameter an angle
        values = [v if isinstance(v, str) else v * 2 * math.pi for v in values]
    # after the scaling, which can overflow to inf
    if not all(math.isfinite(v) for v in values if not isinstance(v, str)):
        raise ValueError("gen needs finite angles")
    return build(*values)


def _cmd_verify(args):
    m = io.read_matrix(args.infile)
    tol = _tol_from(args)
    return {
        "modulus_defect": modulus_defect(m),
        "unitarity_defect": unitarity_defect(m),
        "hadamard": is_hadamard(m, tol),
    }


def _cmd_dephase(args):
    out, w = dephase(io.read_matrix(args.infile))
    return {"matrix": out, "witness": w} if args.with_witness else out


def _cmd_equiv(args):
    h1 = io.read_matrix(args.a)
    h2 = io.read_matrix(args.b)
    return are_equivalent(h1, h2, tol=_tol_from(args), screen=not args.no_screen)


def _cmd_fingerprint(args):
    m = io.read_matrix(args.infile)
    fp = fingerprint(m, args.precision)
    return {"precision": fp.rounding, "values": fp.values}


def _cmd_scan(args):
    n = args.grid
    lines = ["x1,x2,modulus_defect,unitarity_defect"]
    for k1 in range(1, n + 1):
        x1 = -math.pi / 2 + k1 * math.pi / n
        for k2 in range(1, n + 1):
            x2 = -math.pi / 2 + k2 * math.pi / n
            try:
                m = family_h(x1, x2)
                md, ud = repr(modulus_defect(m)), repr(unitarity_defect(m))
            except SingularZ:
                md = ud = "nan"
            lines.append(f"{x1!r},{x2!r},{md},{ud}")
    return "\n".join(lines) + "\n"


def _cmd_search(args):
    records = []
    for i in range(args.runs):
        cfg = SearchConfig(rng_seed=args.seed + i, tol=args.tol, max_iter=args.max_iter)
        result = project_search(cfg)
        try:  # classify's own gate decides which records get a classification
            classification = classify(result.matrix)
        except NotHadamard:
            classification = None
        records.append(dict(vars(result), classification=classification))
    obj = records[0] if args.runs == 1 else records
    if not all(r["converged"] for r in records):
        io.emit(obj, args.out)  # the records are written before the failure exit
        raise MaxIterExceeded("a search run did not converge")
    return obj


def _cmd_classify(args):
    return classify(io.read_matrix(args.infile))


def _cmd_compose12(args):
    return compose12(ComposeSpec.from_dict(io.read_json(args.spec)))


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="hadamard6",
        description="Order-6 complex Hadamard matrix toolkit.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="construct a family member as matrix JSON")
    p.add_argument("--family", required=True, choices=FAMILIES)
    for name in dict.fromkeys(n for _, names in FAMILIES.values() for n in names):
        if name == "axis":  # border's axis names one of the two H parameters
            p.add_argument("--axis", choices=["x1", "x2"], default="x1")
        else:
            p.add_argument(f"--{name}", type=float, default=0.0)
    p.add_argument("--turns", action="store_true", help="angles are fractions of 2*pi")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="report defects and the Hadamard check")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dephase", help="normalize first row and column to ones")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--with-witness", action="store_true")
    p.set_defaults(func=_cmd_dephase)

    p = sub.add_parser("equiv", help="decide Hadamard equivalence of two matrices")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--no-screen", action="store_true", help="skip the fingerprint screen")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("fingerprint", help="equivalence-invariant phase multiset")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--precision", type=int, default=FINGERPRINT_PRECISION)
    p.set_defaults(func=_cmd_fingerprint)

    p = sub.add_parser("scan", help="defect CSV over the two-parameter grid")
    p.add_argument("--family", choices=["h"], default="h")
    p.add_argument("--grid", type=_positive_int, default=33)
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("search", help="alternating-projection Hadamard search")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=SearchConfig.tol)
    p.add_argument("--max-iter", type=_positive_int, default=SearchConfig.max_iter)
    p.add_argument("--runs", type=_positive_int, default=1)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("classify", help="label a matrix against the known families")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--grid", type=_positive_int, default=24)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("compose12", help="order-12 block composition from a spec file")
    p.add_argument("--spec", required=True)
    p.set_defaults(func=_cmd_compose12)

    for p in sub.choices.values():  # after each verb's own flags, as --help lists them
        p.add_argument("--out")
    return ap


def main(argv=None):
    """Run one verb and write its result; return 0, 1 for an error (its name
    on stderr) or 2 for a usage error."""
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            io.emit(args.func(args), args.out)
    except (HadamardError, ValueError, OSError, FloatingPointError) as exc:
        print(type(exc).__name__, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
