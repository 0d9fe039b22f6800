import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hadamard6 import (
    apply_equivalence,
    are_equivalent,
    border_h,
    dita_corner,
    dita_d6,
    family_h,
    fourier_f6,
    is_hadamard,
    self_adjoint_h,
    symmetric_m,
)
from hadamard6 import cli, errors, io
from hadamard6.cli import main
from hadamard6.families import FAMILIES
from hadamard6.search import SearchConfig, project_search

from conftest import PINNED_MEMBERS, random_witness


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_gen_verify_roundtrip(tmp_path, capsys):
    for args in (
        ["--family", "f6", "--a", "0.4", "--b", "0.9"],
        ["--family", "f6t", "--a", "0.4", "--b", "0.9"],
        ["--family", "d6", "--c", "0.2"],
        ["--family", "h", "--x1", "0.3", "--x2", "0.2"],
        ["--family", "sym", "--x", "0.7"],
        ["--family", "selfadj", "--x", "0.5"],
        ["--family", "corner", "--x", "0.1"],
        ["--family", "border", "--axis", "x2", "--x", "0.3"],
    ):
        path = tmp_path / "m.json"
        code, out, err = run(capsys, "gen", *args, "--out", str(path))
        assert code == 0 and err == ""
        code, out, _ = run(capsys, "verify", "--in", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["hadamard"] is True
        assert report["modulus_defect"] <= 1e-10


def test_gen_stdout_parses(capsys):
    code, out, _ = run(capsys, "gen", "--family", "h", "--x1", "0.3", "--x2", "0.2")
    assert code == 0
    m = io.matrix_from_obj(json.loads(out))
    assert np.max(np.abs(m - family_h(0.3, 0.2))) < 1e-15
    # every tag writes exactly the bytes of its constructor's matrix
    for args, m in (
        (["--family", "f6", "--a", "0.4", "--b", "0.9"], fourier_f6(0.4, 0.9)),
        (["--family", "f6t", "--a", "0.4", "--b", "0.9"], fourier_f6(0.4, 0.9).T),
        (["--family", "d6", "--c", "0.2"], dita_d6(0.2)),
        (["--family", "h", "--x1", "0.3", "--x2", "0.2"], family_h(0.3, 0.2)),
        (["--family", "sym", "--x", "0.7"], symmetric_m(0.7)),
        (["--family", "selfadj", "--x", "0.5"], self_adjoint_h(0.5)),
        (["--family", "corner", "--x", "0.1"], dita_corner(0.1)),
        (["--family", "border", "--axis", "x2", "--x", "0.3"], border_h("x2", 0.3)),
        (["--family", "border", "--x", "0.3"], border_h("x1", 0.3)),
    ):
        code, out, err = run(capsys, "gen", *args)
        assert (code, err) == (0, "")
        assert out == io.dumps(io.matrix_to_obj(m))


def test_gen_turns(capsys):
    _, out_t, _ = run(capsys, "gen", "--family", "f6", "--a", "0.25", "--turns")
    _, out_r, _ = run(capsys, "gen", "--family", "f6", "--a", str(np.pi / 2))
    mt = io.matrix_from_obj(json.loads(out_t))
    mr = io.matrix_from_obj(json.loads(out_r))
    assert np.max(np.abs(mt - mr)) < 1e-12


def test_dephase_with_witness(tmp_path, capsys):
    m = apply_equivalence(family_h(0.4, 0.1), random_witness(6, np.random.default_rng(1)))
    path = tmp_path / "m.json"
    io.write_matrix(str(path), m)
    code, out, _ = run(capsys, "dephase", "--in", str(path), "--with-witness")
    assert code == 0
    obj = json.loads(out)
    d = io.matrix_from_obj(obj["matrix"])
    assert np.allclose(d[0, :], 1.0) and np.allclose(d[:, 0], 1.0)
    w = io.witness_from_obj(obj["witness"])
    assert np.max(np.abs(apply_equivalence(m, w) - d)) < 1e-12


def test_equiv_emits_witness(tmp_path, capsys):
    h1 = family_h(0.3, 0.2)
    h2 = apply_equivalence(h1, random_witness(6, np.random.default_rng(2)))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    io.write_matrix(str(a), h1)
    io.write_matrix(str(b), h2)
    code, out, _ = run(capsys, "equiv", "--a", str(a), "--b", str(b))
    assert code == 0
    obj = json.loads(out)
    assert obj["decision"] == "equivalent"
    w = io.witness_from_obj(obj["witness"])
    assert np.max(np.abs(apply_equivalence(h1, w) - h2)) < 1e-8


def test_equiv_no_screen(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    io.write_matrix(str(a), fourier_f6(0.0, 0.0))
    io.write_matrix(str(b), fourier_f6(0.0, 0.0) + 0)
    code, out, _ = run(capsys, "equiv", "--a", str(a), "--b", str(b), "--no-screen")
    assert code == 0
    assert json.loads(out)["decision"] == "equivalent"


def test_fingerprint_verb(tmp_path, capsys):
    path = tmp_path / "m.json"
    io.write_matrix(str(path), fourier_f6(0.0, 0.0))
    code, out, _ = run(capsys, "fingerprint", "--in", str(path), "--precision", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["precision"] == 6
    assert len(obj["values"]) == 900
    assert obj["values"] == sorted(obj["values"])


# The enumeration returns its first witness, column permutation outer and row
# permutation inner, both lexicographic; dita_d6(0) has many automorphisms,
# so several witnesses exist for its image.
_PINNED_WITNESSES = (
    (
        family_h(0.37, 0.21),
        apply_equivalence(family_h(0.37, 0.21), random_witness(6, np.random.default_rng(3))),
        (4, 3, 2, 1, 5, 0),
        (2, 4, 3, 1, 5, 0),
        "d46c21606c4ab02fc620388b3f121a17043d96f944280c0f1667de265ea2ba34",
    ),
    (
        dita_d6(0.0),
        apply_equivalence(dita_d6(0.0), random_witness(6, np.random.default_rng(4))),
        (3, 2, 0, 4, 5, 1),
        (0, 1, 3, 2, 5, 4),
        "f4ee48bb5c17cc11c944c1013060d977c4e6cbbc481354e016087e5cdc6d7cc9",
    ),
    (
        fourier_f6(0.0, 0.0),
        fourier_f6(0.0, 0.0).T,
        (0, 1, 2, 3, 4, 5),
        (0, 1, 2, 3, 4, 5),
        "93bb918702b231dec12bfba16c9f2d2aa11af4a0bd91247b064bb9a3266130d5",
    ),
)


@pytest.mark.float_bits
def test_equiv_witness_choice_pinned(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for h1, h2, row_perm, col_perm, digest in _PINNED_WITNESSES:
        w = are_equivalent(h1, h2).witness
        assert (w.row_perm, w.col_perm) == (row_perm, col_perm)
        io.write_matrix(str(a), h1)
        io.write_matrix(str(b), h2)
        code, out, err = run(capsys, "equiv", "--a", str(a), "--b", str(b))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.float_bits
def test_cli_outputs_pinned(tmp_path, capsys, monkeypatch):
    # the bytes of every verb's stdout and stderr and its exit code, over a
    # fixed panel whose inputs come from fixed numpy seeds; file names are
    # relative, so the argv is the same in every temporary directory
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(18)
    members = {tag: FAMILIES[tag][0](*PINNED_MEMBERS[tag]) for tag in ("h", "f6", "f6t", "d6")}
    inputs = {
        "h.json": members["h"],
        "h_image.json": apply_equivalence(members["h"], random_witness(6, rng)),
        "f6_image.json": apply_equivalence(members["f6"], random_witness(6, rng)),
        "f6t_image.json": apply_equivalence(members["f6t"], random_witness(6, rng)),
        "d6_image.json": apply_equivalence(members["d6"], random_witness(6, rng)),
        "unknown.json": project_search(SearchConfig(rng_seed=42)).matrix,
    }
    for name, m in inputs.items():
        io.write_matrix(name, m)
    spec = {
        "h1": {"family": "f6", "params": [0.1, 0.2]},
        "h2": {"family": "h", "params": [0.3, 0.2]},
        "deltas": [0.1, 0.2, 0.3, 0.4, 0.5],
    }
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    panel = [
        ["gen", "--family", tag] + [f"--{n}={p}" for n, p in zip(FAMILIES[tag][1], params)]
        for tag, params in PINNED_MEMBERS.items()
    ]
    panel += [
        ["verify", "--in", "h_image.json"],
        ["dephase", "--in", "h_image.json"],
        ["dephase", "--in", "h_image.json", "--with-witness"],
        ["equiv", "--a", "h.json", "--b", "h_image.json"],
        ["equiv", "--a", "f6_image.json", "--b", "d6_image.json"],
        ["equiv", "--a", "f6_image.json", "--b", "d6_image.json", "--no-screen"],
        ["fingerprint", "--in", "h_image.json"],
        ["scan", "--grid", "4"],
        ["search", "--seed", "42"],
        ["search", "--runs", "3"],
        ["search", "--max-iter", "1"],
        ["classify", "--in", "f6_image.json"],
        ["classify", "--in", "f6t_image.json"],
        ["classify", "--in", "h_image.json"],
        ["classify", "--in", "d6_image.json"],
        ["classify", "--in", "unknown.json"],
        ["compose12", "--spec", "spec.json"],
    ]
    digest = hashlib.sha256()
    for argv in panel:
        digest.update(repr((argv, *run(capsys, *argv))).encode())
    assert digest.hexdigest() == (
        "b67803117d5eccf653d8aa6b9dcd471b6409d894cd3e42cd411aa87e58416470"
    )


def test_scan_csv(tmp_path, capsys):
    path = tmp_path / "scan.csv"
    code, _, _ = run(capsys, "scan", "--family", "h", "--grid", "33", "--out", str(path))
    assert code == 0
    lines = path.read_text().split("\n")
    assert lines[0] == "x1,x2,modulus_defect,unitarity_defect"
    assert lines[-1] == ""  # trailing LF
    rows = lines[1:-1]
    assert len(rows) == 1089
    nan_rows = [r for r in rows if "nan" in r]
    assert len(nan_rows) == 1  # only the (pi/2, pi/2) corner is singular
    for r in rows[:50]:
        assert len(r.split(",")) == 4
    # every regular row reports defects at machine precision
    for r in rows:
        if "nan" in r:
            continue
        _, _, md, ud = r.split(",")
        assert float(md) <= 1e-10 and float(ud) <= 1e-10


def test_scan_deterministic(capsys):
    _, out1, _ = run(capsys, "scan", "--grid", "7")
    _, out2, _ = run(capsys, "scan", "--grid", "7")
    assert out1 == out2


def test_search_single_run(capsys):
    code, out, err = run(capsys, "search", "--seed", "42", "--tol", "1e-8")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["converged"] is True
    m = io.matrix_from_obj(obj["matrix"])
    assert is_hadamard(m, 1e-7)
    assert obj["classification"]["label"] in ("F6-slice", "F6T-slice", "H-family", "D6", "unknown")
    # converged at --tol 1e-6 (final_defect 6.05e-7), but classify's gate at
    # 1e-8 refuses the matrix, so the record carries no classification
    code, out, err = run(capsys, "search", "--seed", "0", "--tol", "1e-6")
    obj = json.loads(out)
    assert (code, err, obj["converged"], obj["classification"]) == (0, "", True, None)


def test_search_near_pi_output(capsys):
    # the search output with a quadruple phase nearest to pi of 1,200 runs
    # (7.8e-6 away) goes through classify's read-off and stays unknown
    code, out, err = run(capsys, "search", "--seed", "919476259")
    assert (code, err) == (0, "")
    assert json.loads(out)["classification"]["label"] == "unknown"


def test_search_bad_seed_exit(capsys):
    assert run(capsys, "search", "--seed", "-1") == (1, "", "ValueError\n")


def test_search_does_not_import_numpy_random():
    # numpy.random would add about 6 MB to the peak memory of a search
    # process; a numpy that imports it along with itself is not at fault
    code = (
        "import contextlib, io, sys, numpy\n"
        "eager = 'numpy.random' in sys.modules\n"
        "from hadamard6.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['search', '--seed', '42'])\n"
        "sys.exit(code or ('numpy.random' in sys.modules and not eager))\n"
    )
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_search_deterministic(capsys):
    _, out1, _ = run(capsys, "search", "--seed", "11", "--tol", "1e-8")
    _, out2, _ = run(capsys, "search", "--seed", "11", "--tol", "1e-8")
    assert out1 == out2


def test_search_nonconvergence_exit(capsys):
    code, out, err = run(capsys, "search", "--seed", "0", "--tol", "1e-16", "--max-iter", "5")
    assert code == 1
    assert "MaxIterExceeded" in err
    obj = json.loads(out)  # output still emitted before the failure exit
    assert obj["converged"] is False
    assert obj["classification"] is None
    # not converged at --tol 1e-16 (final_defect 4.4e-16), yet within
    # classify's gate at 1e-8, so the record is classified
    code, out, err = run(capsys, "search", "--seed", "0", "--tol", "1e-16", "--max-iter", "300")
    obj = json.loads(out)
    assert (code, err, obj["converged"]) == (1, "MaxIterExceeded\n", False)
    assert obj["classification"]["label"] == "unknown"


def test_search_runs_array(capsys):
    code, out, _ = run(capsys, "search", "--seed", "0", "--runs", "3", "--max-iter", "300")
    obj = json.loads(out)
    assert isinstance(obj, list) and len(obj) == 3
    if code == 0:
        assert all(r["converged"] for r in obj)


def test_classify_verb(tmp_path, capsys):
    path = tmp_path / "d.json"
    io.write_matrix(str(path), __import__("hadamard6").dita_d6(0.2))
    code, out, _ = run(capsys, "classify", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["label"] == "D6"
    assert abs(obj["params"][0] - 0.2) < 1e-3
    assert obj["distance"] <= 0.09


def test_compose12_verb(tmp_path, capsys):
    spec = {
        "h1": {"family": "f6", "params": [0.1, 0.2]},
        "h2": {"family": "h", "params": [0.3, 0.2]},
        "deltas": [0.1, 0.2, 0.3, 0.4, 0.5],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_path = tmp_path / "m12.json"
    code, _, _ = run(capsys, "compose12", "--spec", str(spec_path), "--out", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--in", str(out_path))
    report = json.loads(out)
    assert report["hadamard"] is True


def test_env_tolerance(tmp_path, capsys, monkeypatch):
    m = fourier_f6(0.0, 0.0)
    m[2, 3] *= 1.001  # defect 1e-3: fails default 1e-10, passes 1e-1
    path = tmp_path / "m.json"
    io.write_matrix(str(path), m)
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert json.loads(out)["hadamard"] is False
    monkeypatch.setenv("HADAMARD_TOL", "1e-1")
    code, out, _ = run(capsys, "verify", "--in", str(path))
    assert json.loads(out)["hadamard"] is True
    # explicit flag beats the env var
    code, out, _ = run(capsys, "verify", "--in", str(path), "--tol", "1e-12")
    assert json.loads(out)["hadamard"] is False
    # a tolerance that is not a finite positive number is an error
    assert run(capsys, "verify", "--in", str(path), "--tol", "nan") == (1, "", "ValueError\n")
    monkeypatch.setenv("HADAMARD_TOL", "nan")
    assert run(capsys, "verify", "--in", str(path)) == (1, "", "ValueError\n")


def _f6_with_entry(path, value):
    # fourier_f6(0.1, 0.2) with entry [2, 3] set to value
    m = fourier_f6(0.1, 0.2)
    m[2, 3] = value
    io.write_matrix(str(path), m)
    return str(path)


def test_overflow_is_named_error(tmp_path, capsys):
    # the unitarity product overflows: numpy warned on stderr, then the verb
    # failed with ValueError; now the fault is the error
    big = _f6_with_entry(tmp_path / "big.json", 1e200)
    assert run(capsys, "verify", "--in", big) == (1, "", "FloatingPointError\n")


def test_division_by_zero_entry_is_named_error(tmp_path, capsys):
    # at --tol 10 the zero entry passes is_hadamard, and the anchored forms
    # divide by it: numpy warned on stderr of an exit 0
    zero = _f6_with_entry(tmp_path / "zero.json", 0.0)
    f = str(tmp_path / "f.json")
    io.write_matrix(f, fourier_f6(0.1, 0.2))
    argv = ("equiv", "--a", zero, "--b", f, "--tol", "10")
    assert run(capsys, *argv) == (1, "", "FloatingPointError\n")


def test_module_error_exit_code(capsys):
    code, _, err = run(capsys, "gen", "--family", "d6", "--c", "9")
    assert code == 1
    assert "ParamOutOfRange" in err


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "verify", "--in", str(tmp_path / "absent.json"))
    assert code == 1
    assert "FileNotFoundError" in err


def test_usage_exit_code(capsys):
    code, _, _ = run(capsys, "bogus")
    assert code == 2
    code, _, _ = run(capsys, "gen")  # --family is required
    assert code == 2


def test_compose12_malformed_spec(tmp_path, capsys):
    good = {
        "h1": {"family": "f6", "params": [0.1, 0.2]},
        "h2": {"family": "h", "params": [0.3, 0.2]},
        "deltas": [0.1, 0.2, 0.3, 0.4, 0.5],
    }
    path = tmp_path / "spec.json"
    for spec in (
        dict(good, h1={"family": "f6", "params": 5}),
        dict(good, h1=5),
        [1, 2],
        dict(good, deltas=[10**400] * 5),  # an integer too large for a float
        # a string was read digit by digit, and booleans as 1.0 and 0.0
        dict(good, h1={"family": "f6", "params": "12"}),
        dict(good, deltas="12345"),
        dict(good, h1={"family": "f6", "params": [True, False]}),
    ):
        path.write_text(json.dumps(spec))
        assert run(capsys, "compose12", "--spec", str(path)) == (1, "", "ValueError\n")


def test_compose12_empty_spec(tmp_path, capsys):
    # a spec with no keys raised KeyError, not a malformed spec's ValueError
    path = tmp_path / "spec.json"
    path.write_text("{}")
    assert run(capsys, "compose12", "--spec", str(path)) == (1, "", "ValueError\n")


def _matrix_readers(path):
    """The argv of every verb that reads a matrix file, reading path."""
    p = str(path)
    verbs = ("verify", "dephase", "fingerprint", "classify")
    return [(verb, "--in", p) for verb in verbs] + [("equiv", "--a", p, "--b", p)]


def test_deeply_nested_json(tmp_path, capsys):
    # json.load raised RecursionError, which main did not name; and text that
    # is not JSON exited with the subclass name JSONDecodeError
    path = tmp_path / "deep.json"
    for text in ("[" * 200000 + "]" * 200000, "{"):
        path.write_text(text)
        for argv in _matrix_readers(path) + [("compose12", "--spec", str(path))]:
            assert run(capsys, *argv) == (1, "", "ValueError\n")


def test_compose12_wrong_param_count(tmp_path, capsys):
    spec = {
        "h1": {"family": "f6", "params": "PARAMS"},
        "h2": {"family": "h", "params": [0.3, 0.2]},
        "deltas": [0.1, 0.2, 0.3, 0.4, 0.5],
    }
    path = tmp_path / "spec.json"
    # one parameter too few; a NaN, and 1e999 (read as infinity), reached the
    # builder and exited with NotHadamard and FloatingPointError
    for params in ("[0.1]", "[NaN, 0.2]", "[1e999, 0.2]"):
        path.write_text(json.dumps(spec).replace('"PARAMS"', params))
        assert run(capsys, "compose12", "--spec", str(path)) == (1, "", "ValueError\n")


def test_nan_entry_rejected(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"n": 2, "re": [[1.0, 1.0], [1.0, NaN]], "im": [[0.0, 0.0], [0.0, 0.0]]}')
    for verb in ("verify", "dephase"):
        assert run(capsys, verb, "--in", str(path)) == (1, "", "ValueError\n")
    path.write_text('{"n": 2, "phase_turns": [[0.0, 0.0], [0.0, NaN]]}')
    assert run(capsys, "verify", "--in", str(path)) == (1, "", "ValueError\n")
    # fields of the wrong JSON type
    for text in (
        '{"n": null, "re": [[1]], "im": [[0]]}',
        '{"n": [6], "re": [[1]], "im": [[0]]}',
        '{"n": 1, "re": {"a": 1}, "im": [[0]]}',
        '{"n": 1e999, "re": [[1]], "im": [[0]]}',
        # booleans and strings were read as the numbers they convert to
        '{"n": 1, "re": [[true]], "im": [[false]]}',
        '{"n": 1, "re": [["1"]], "im": [["0"]]}',
        '{"n": 1, "phase_turns": [[true]]}',
        '{"n": 1, "phase_turns": [["0"]]}',
    ):
        path.write_text(text)
        for verb in ("verify", "dephase", "fingerprint", "classify"):
            assert run(capsys, verb, "--in", str(path)) == (1, "", "ValueError\n")
        assert run(capsys, "equiv", "--a", str(path), "--b", str(path)) == (1, "", "ValueError\n")
    with pytest.raises(ValueError):
        io.dumps({"modulus_defect": float("nan")})
    # non-finite gen angles are rejected before numpy can warn about them
    # on stderr (here a warning raises)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in ("inf", "-inf", "nan"):
            for family, flag in (("h", "--x1"), ("d6", "--c")):
                argv = ("gen", "--family", family, f"{flag}={value}")
                assert run(capsys, *argv) == (1, "", "ValueError\n")
        # finite angles whose --turns scaling overflows to inf
        for family, flag in (("h", "--x1"), ("d6", "--c")):
            argv = ("gen", "--family", family, f"{flag}=1e308", "--turns")
            assert run(capsys, *argv) == (1, "", "ValueError\n")


def test_precision_and_n_out_of_contract(tmp_path, capsys):
    # np.round overflowed to NaN phases at precision 400, and n = "6" was read as 6
    path = tmp_path / "h.json"
    io.write_matrix(str(path), fourier_f6(0.4, 0.9))
    argv = ("fingerprint", "--in", str(path), "--precision", "400")
    assert run(capsys, *argv) == (1, "", "ValueError\n")
    obj = io.matrix_to_obj(fourier_f6(0.4, 0.9))
    for n in ("6", 6.7):
        path.write_text(json.dumps({**obj, "n": n}))
        assert run(capsys, "verify", "--in", str(path)) == (1, "", "ValueError\n")


def test_search_runs_must_be_positive(capsys):
    for runs in ("0", "-1", "abc"):
        code, out, _ = run(capsys, "search", "--runs", runs)
        assert (code, out) == (2, "")
    code, out, _ = run(capsys, "search", "--max-iter", "0")
    assert (code, out) == (2, "")


def test_scan_grid_must_be_positive(capsys):
    for grid in ("0", "-3", "1.5"):
        code, out, _ = run(capsys, "scan", "--grid", grid)
        assert (code, out) == (2, "")


def test_classify_grid_must_be_positive(tmp_path, capsys):
    path = tmp_path / "d.json"
    io.write_matrix(str(path), dita_d6(0.2))
    code, out, _ = run(capsys, "classify", "--in", str(path), "--grid", "0")
    assert (code, out) == (2, "")


def test_fingerprint_order_one(tmp_path, capsys):
    path = tmp_path / "one.json"
    path.write_text('{"n": 1, "re": [[1.0]], "im": [[0.0]]}')
    code, out, err = run(capsys, "fingerprint", "--in", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out) == {"precision": 8, "values": []}


# Well-formed inputs, and the same with one key dropped or its value replaced
# by arbitrary JSON: NaN, infinities, integers too large for a float, bools,
# null, strings, and ragged or nested lists.
_finite = st.floats(-4, 4) | st.integers(-3, 3)
_json = st.recursive(
    st.one_of(
        _finite,
        st.floats(),
        st.sampled_from([10**400, -(10**400), 2**64]),
        st.booleans(),
        st.none(),
        st.text(max_size=3),
    ),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=8,
)


def _grid(k):
    return st.lists(st.lists(_finite, min_size=k, max_size=k), min_size=k, max_size=k)


def _with_spoiled(wellformed):
    def spoil(obj):
        return st.sampled_from(sorted(obj)).flatmap(
            lambda key: st.just({k: v for k, v in obj.items() if k != key})
            | _json.map(lambda v: {**obj, key: v})
        )

    return _json | wellformed | wellformed.flatmap(spoil)


_matrices = _with_spoiled(
    st.integers(1, 3).flatmap(
        lambda k: st.fixed_dictionaries({"n": st.just(k), "re": _grid(k), "im": _grid(k)})
        | st.fixed_dictionaries({"n": st.just(k), "phase_turns": _grid(k)})
    )
)
_member = _with_spoiled(
    st.fixed_dictionaries(
        {
            "family": st.sampled_from(["f6", "h", "d6"]),
            # NaN and the infinities on their own too: st.floats() seldom draws them
            "params": st.lists(
                _finite | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf]),
                min_size=2,
                max_size=2,
            ),
        }
    )
)
_specs = _with_spoiled(
    st.fixed_dictionaries(
        {"h1": _member, "h2": _member, "deltas": st.lists(_finite, min_size=5, max_size=5)}
    )
)


def _reject_constant(name):
    raise AssertionError(f"stdout is not strict JSON: {name}")


def _assert_clean_exit(code, out, err):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if out:
        json.loads(out, parse_constant=_reject_constant)


@given(matrix=_matrices, spec=_specs)
@example(
    matrix={"n": float("inf"), "re": [[1]], "im": [[0]]},
    spec={
        "h1": {"family": "f6", "params": [0, 0]},
        "h2": {"family": "h", "params": [0, 0]},
        "deltas": [10**400] * 5,
    },
)
@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_malformed_input_fuzz(tmp_path, capsys, matrix, spec):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(matrix))
    for verb in ("verify", "dephase", "fingerprint", "classify"):
        _assert_clean_exit(*run(capsys, verb, "--in", str(path)))
    _assert_clean_exit(*run(capsys, "equiv", "--a", str(path), "--b", str(path)))
    path.write_text(json.dumps(spec))
    _assert_clean_exit(*run(capsys, "compose12", "--spec", str(path)))


# what an exit of 1 may print on stderr: the name of an error main catches
_ERROR_LINES = {
    name + "\n"
    for name, c in vars(errors).items()
    if isinstance(c, type) and issubclass(c, errors.HadamardError)
} | {"ValueError\n", "FloatingPointError\n"}


def _assert_named_error(code, out, err):
    if code == 1:
        assert out == ""
        assert err in _ERROR_LINES


def _holds_nonfinite_number(spec):
    """Whether a spec's params or deltas list holds a NaN or an infinity,
    which the one number rule refuses before any family is built."""
    try:
        lists = (spec["h1"]["params"], spec["h2"]["params"], spec["deltas"])
    except (KeyError, TypeError):
        return False
    return any(
        isinstance(v, float) and not math.isfinite(v)
        for items in lists
        if isinstance(items, list)
        for v in items
    )


@given(matrix=_matrices, spec=_specs)
# an infinite parameter reached the builder; draws can miss non-finite numbers
@example(
    matrix={"n": 1, "re": [[1]], "im": [[0]]},
    spec={
        "h1": {"family": "f6", "params": [0.1, 0.2]},
        "h2": {"family": "h", "params": [0.3, math.inf]},
        "deltas": [0.1, 0.2, 0.3, 0.4, 0.5],
    },
)
@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_error_exit_names_the_error(tmp_path, capsys, matrix, spec):
    # on any input, an exit of 1 means empty stdout and one error name on stderr
    path = tmp_path / "input.json"
    path.write_text(json.dumps(matrix))
    for argv in _matrix_readers(path):
        _assert_named_error(*run(capsys, *argv))
    path.write_text(json.dumps(spec))
    result = run(capsys, "compose12", "--spec", str(path))
    if _holds_nonfinite_number(spec):
        assert result == (1, "", "ValueError\n")
    _assert_named_error(*result)
