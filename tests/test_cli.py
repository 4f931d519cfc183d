import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import ratlin
from ratlin.cli import main, _build_parser, _chunks, _dumps, _parse_coeffs
from ratlin.linbuild import PencilReadings, Realization, build
from ratlin.polymat import Basis
from ratlin.verify import FixtureSpec, gen_fixture, preset_cross_coupled

from conftest import count_off, random_polymatrix, scaled_fixture, stiff_state_realization

DELETE = object()  # a malformed-input value that deletes its key


@pytest.fixture
def realization_file(tmp_path):
    path = tmp_path / "realz.json"
    path.write_text(json.dumps(preset_cross_coupled().to_dict()))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLinearize:
    def test_emits_pencil(self, capsys, realization_file):
        code, out, _ = run_cli(capsys, "linearize", "--input", realization_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["rhoA"] == 1 and obj["rhoD"] == 1
        assert len(obj["L0"]) == 8
        assert set(obj["blocks"]) == {"M_A", "K_A", "M_B", "M_C", "M_D",
                                      "K_D", "L_A"}

    def test_round_trip_bit_exact(self, capsys, realization_file, tmp_path):
        out_path = tmp_path / "lin.json"
        code, _, _ = run_cli(capsys, "linearize", "--input", realization_file,
                             "--output", str(out_path))
        assert code == 0
        first = out_path.read_text()
        run_cli(capsys, "linearize", "--input", realization_file,
                "--output", str(out_path))
        assert out_path.read_text() == first

    def test_grade_override(self, capsys, realization_file):
        code, out, _ = run_cli(capsys, "linearize", "--input", realization_file,
                               "--grade-a", "3")
        obj = json.loads(out)
        assert obj["rhoA"] == 2

    def test_grade_override_below_the_grade_is_raised(self, capsys, realization_file):
        code, out, _ = run_cli(capsys, "linearize", "--input", realization_file,
                               "--grade-a", "0", "--grade-d", "0")
        assert code == 0
        obj = json.loads(out)
        assert obj["rhoA"] == 1 and obj["rhoD"] == 1

    @pytest.mark.parametrize("flag", ["--grade-a", "--grade-d"])
    def test_negative_grade_override_exits_2(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["linearize", "--preset", "cross-coupled", flag, "-1"])
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err


class TestEigs:
    def test_preset_json(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--preset", "cross-coupled",
                               "--json")
        assert code == 0
        obj = json.loads(out)
        poles = sorted(p["lambda"][0] for p in obj["poles"])
        assert np.allclose(poles, [-2, -1, 2], atol=1e-8)
        assert len(obj["zeros"]) == 6
        assert all(z["classified"] for z in obj["zeros"])

    def test_table_output(self, capsys):
        code, out, _ = run_cli(capsys, "eigs", "--preset", "cross-coupled")
        assert code == 0
        assert "poles" in out and "zeros" in out

    def test_pencil_of_deficient_rank_exits_1(self, capsys, tmp_path):
        # the QZ reads the rank the nullspace reads: the pencil is singular
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(scaled_fixture(2, 2, 2, 1e-12).to_dict()))
        code, out, err = run_cli(capsys, "eigs", "--input", str(path), "--json")
        assert code == 1 and out == ""
        assert "the pencil is singular" in err


class TestInfinity:
    def test_preset(self, capsys):
        code, out, _ = run_cli(capsys, "infinity", "--preset", "cross-coupled",
                               "--json")
        assert code == 0
        obj = json.loads(out)
        assert obj["infinityOrders"] == [-3, 0]
        assert obj["grade"] == 2

    def test_no_well_conditioned_point(self, capsys, tmp_path):
        # cond A(z) = 1e8 everywhere: sampling rank R found no point
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(stiff_state_realization().to_dict()))
        code, out, _ = run_cli(capsys, "infinity", "--input", str(path))
        assert code == 0
        assert out == "invariant orders at infinity: [-1, -1] (grade 1)\n"


class TestNullspace:
    def test_regular_is_empty(self, capsys):
        code, out, _ = run_cli(capsys, "nullspace", "--preset", "cross-coupled",
                               "--json")
        assert code == 0
        assert json.loads(out)["indices"] == []

    def test_side_no_reading_numbers_exits_1(self, capsys, monkeypatch, tmp_path):
        # both readings of the right side are one index off its nullity
        monkeypatch.setattr(PencilReadings, "staircase", count_off("right"))
        path = tmp_path / "singular.json"
        spec = FixtureSpec(seed=11, n=2, p=3, m=3, structure="zero-column-b")
        path.write_text(json.dumps(gen_fixture(spec).to_dict()))
        code, out, err = run_cli(capsys, "nullspace", "--input", str(path),
                                 "--side", "right", "--json")
        assert code == 1 and out == ""
        assert "no right reading, at 0 or at infinity, numbers the nullity 1" in err


class TestScalar:
    def test_solve(self, capsys):
        code, out, _ = run_cli(capsys, "scalar", "--a=1", "--c=-2,0,1",
                               "--b=1", "--d=1", "--json")
        assert code == 0
        roots = sorted(r["lambda"][0] for r in json.loads(out)["roots"])
        assert np.allclose(roots, [-np.sqrt(3), np.sqrt(3)], atol=1e-10)

    def test_identity_equation_is_precondition_failure(self, capsys):
        code, _, err = run_cli(capsys, "scalar", "--a=1", "--c=0,0,1",
                               "--b=1", "--d=0.5,0,0.5")
        assert code == 1
        assert "identically" in err


class TestCheck:
    def test_preset_passes(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--preset", "cross-coupled")
        assert code == 0
        assert "overall: pass" in out

    def test_json_mode(self, capsys):
        code, out, _ = run_cli(capsys, "check", "--preset", "cross-coupled",
                               "--json")
        assert code == 0
        assert json.loads(out)["passed"] is True


    def test_no_outputs_is_checked_not_an_input_error(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        blocks = {k: random_polymatrix(rng, 2, rows, 2)
                  for k, rows in (("A", 2), ("B", 2), ("C", 0), ("D", 0))}
        path = tmp_path / "no-outputs.json"
        path.write_text(json.dumps(Realization(**blocks).to_dict()))
        code, out, err = run_cli(capsys, "check", "--input", str(path))
        assert code in (0, 1), err
        assert "minimality-proxy" in out


PRESET = ("--preset", "cross-coupled")
TABLES = {
    ("eigs",) + PRESET: (0, """\
poles (value, count):
  -1.9999999999999996+0j  x1
  -0.99999999999999989+0j  x1
  +2+0j  x1
zeros (value, classified, near pole):
  -1.9999999999999987+0j  yes  yes
  -1.6180339887499042+4.6882609251192549e-16j  yes  no
  -0.99999999999999423-6.5590176809685376e-17j  yes  yes
  -1.994489857695104e-16+4.7717787481686081e-18j  yes  no
  -0+0j  yes  no
  +0.61803398874989501+2.172872332045886e-16j  yes  no
"""),
    ("infinity",) + PRESET: (0, "invariant orders at infinity: [-3, 0] (grade 2)\n"),
    ("nullspace", "--side", "right") + PRESET: (
        0, "right minimal indices: [] (pencil: [], shift 1); verified: True\n"),
    ("nullspace", "--side", "left") + PRESET: (
        0, "left minimal indices: [] (pencil: [], shift 0); verified: True\n"),
    ("check",) + PRESET: (0, """\
check                     status   worst residual
block-factor-identities   pass     0.000e+00
dual-pair-identities      pass     0.000e+00
transfer-rank-additivity  pass     0.000e+00
one-sided-factorizations  pass     1.036e-16
state-pencil-spectrum     pass     2.220e-16
minimality-proxy          pass     0.000e+00
right-index-shift         skipped  0.000e+00
left-index-match          skipped  0.000e+00
nullvector-degree-law     skipped  0.000e+00
nullspace-dimension       skipped  0.000e+00
eigenvector-recovery      pass     1.368e-16
overall: pass
"""),
    ("scalar", "--a=1", "--c=-2,0,1", "--b=1", "--d=1"): (0, """\
2 roots:
  -1.7320508075688776+0j  residual 4.273e-17
  +1.7320508075688774-0j  residual 1.424e-17
"""),
}


@pytest.mark.parametrize("argv", list(TABLES), ids=" ".join)
def test_table_output_is_pinned(capsys, argv):
    """The whole table form (no --json) of each report command, byte for
    byte, with its exit code and an empty stderr."""
    assert run_cli(capsys, *argv) == TABLES[argv] + ("",)


class TestErrors:
    def test_missing_file_is_io_error(self, capsys):
        code, _, err = run_cli(capsys, "eigs", "--input", "/nonexistent.json")
        assert code == 2

    def test_no_input_is_io_error(self, capsys):
        code, _, _ = run_cli(capsys, "eigs")
        assert code == 2

    @pytest.mark.parametrize("command", ["linearize", "eigs", "infinity",
                                         "nullspace", "check"])
    def test_input_and_preset_together_exit_2(self, capsys, command):
        # neither source wins silently: argparse refuses the pair
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "cross-coupled", "--input", "missing.json"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not allowed with argument" in captured.err

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigs", "--bogus"])
        assert exc.value.code == 2

    def test_environment_does_not_configure_the_cli(self, capsys, monkeypatch):
        argv = ("eigs", "--preset", "cross-coupled", "--json")
        clean = run_cli(capsys, *argv)
        monkeypatch.setenv("RATLIN_SEED", "abc")
        monkeypatch.setenv("RATLIN_TOL_RANK", "nan")
        monkeypatch.setenv("RATLIN_TOL_RESIDUAL", "1e300")
        assert run_cli(capsys, *argv) == clean
        assert clean[0] == 0

    def test_help_says_output_depends_on_blas_threads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = " ".join(capsys.readouterr().out.split())
        assert "BLAS thread count" in out
        assert "OPENBLAS_NUM_THREADS=1" in out

    def test_tolerance_flags_are_unknown(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eigs", "--preset", "cross-coupled", "--tol-rank", "1"])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, capsys):
        """main builds its parser once per process: a good scalar run, a
        malformed coefficient, an unknown option and the good run again
        print the bytes and exit codes of separate interpreters."""
        good = ("scalar", "--json", "--a=1,2", "--c=-2,0,1", "--b=1,0.5",
                "--d=0.5,0,1")
        runs = [good, ("scalar", "--a=1,x", "--c=1", "--b=1", "--d=2"),
                ("scalar", "--bogus"), good]

        def in_process(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse errors
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        src = os.path.dirname(os.path.dirname(ratlin.__file__))
        env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
        separate = {}
        for argv in runs[:3]:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from ratlin.cli import main; "
                 "sys.exit(main(sys.argv[1:]))", *argv],
                capture_output=True, text=True, env=env, timeout=120)
            separate[argv] = (proc.returncode, proc.stdout, proc.stderr)
        assert [in_process(argv) for argv in runs] == [separate[argv] for argv in runs]
        assert [separate[argv][0] for argv in runs] == [0, 2, 2, 0]
        assert _build_parser() is _build_parser()

    def test_malformed_json_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{не json")
        code, _, _ = run_cli(capsys, "eigs", "--input", str(bad))
        assert code == 2

    def test_non_finite_scalar_coefficient_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "scalar", "--a", "1,nan", "--c", "1",
                               "--b", "1,1", "--d", "2")
        assert code == 2
        assert "non-finite coefficient nan at position 1 of --a" in err

    def test_non_finite_input_coefficient_is_input_error(self, capsys, tmp_path):
        obj = preset_cross_coupled().to_dict()
        obj["B"]["coeffs"][1][2] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "eigs", "--input", str(path))
        assert code == 2
        assert "block B: non-finite coefficient" in err
        assert "degree 1 at entry (1, 0)" in err

    @pytest.mark.parametrize("where, value, block", [
        ((), [], None),
        (("B", "coeffs", 0, 0), 5, "B"),
        (("C", "coeffs", 1, 1), ["a", "b"], "C"),
        (("A", "rows"), [2], "A"),
        (("D",), {"rows": 2, "cols": 2, "basis": "monomial", "grade": -1,
                  "coeffs": []}, "D"),
        (("A", "grade"), 3, "A"),
        (("B", "rows"), 1, "B"),
        (("C", "coeffs", 1, 1), ["1.5", "2"], "C"),
        (("C", "coeffs", 1, 1), [None, 0.5], "C"),
        (("C", "coeffs", 1, 1), [1.5], "C"),
        (("C", "coeffs", 1, 1), [1.0, 2.0, 3.0], "C"),
        (("D",), {"rows": 1, "cols": 1, "basis": "monomial", "grade": 0,
                  "coeffs": [[[1.5]]]}, "D"),
        (("D",), {"rows": 1, "cols": 1, "basis": "monomial", "grade": 0,
                  "coeffs": [[[1.0, 2.0, 3.0]]]}, "D"),
        (("A", "rows"), 2.5, "A"),
        (("B", "cols"), "2", "B"),
        (("D",), {"rows": True, "cols": 1, "basis": "monomial", "grade": 0,
                  "coeffs": [[[1.0, 0.0]]]}, "D"),
        (("C", "grade"), 2.0, "C"),
        (("A", "rows"), DELETE, "A"),
        (("B", "coeffs"), DELETE, "B"),
        (("D", "basis"), DELETE, "D"),
        (("C",), DELETE, "C"),
    ], ids=["top-level-list", "number-entry", "string-entry", "list-rows",
            "negative-grade", "grade-past-coeffs", "entry-count",
            "numeric-string-entry", "null-part", "one-number-entry",
            "three-number-entry", "one-number-entries", "three-number-entries",
            "fractional-rows", "string-cols", "boolean-rows", "float-grade",
            "missing-rows", "missing-coeffs", "missing-basis", "missing-block"])
    def test_malformed_input_file_is_input_error(self, capsys, tmp_path,
                                                 where, value, block):
        obj = preset_cross_coupled().to_dict()
        if where:
            parent = obj
            for key in where[:-1]:
                parent = parent[key]
            if value is DELETE:
                del parent[where[-1]]
            else:
                parent[where[-1]] = value
        else:
            obj = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "eigs", "--input", str(path))
        assert code == 2
        assert err.startswith("input error: ")
        assert "non-finite" not in err  # a null is malformed, not a NaN
        if block:
            assert f"block {block}: " in err
        if value is DELETE:
            assert "missing" in err and where[-1] in err


def test_scipy_is_imported_on_first_use():
    """Importing the CLI loads neither scipy.linalg nor scipy.optimize, a
    `linearize` run, which runs no QZ, still leaves scipy.linalg unloaded,
    and a `check` run, which does, never loads scipy.optimize."""
    src = os.path.dirname(os.path.dirname(ratlin.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = "\n".join([
        "import contextlib, io, sys",
        "import ratlin.cli",
        "print('scipy.linalg' in sys.modules, 'scipy.optimize' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = ratlin.cli.main(['linearize', '--preset', 'cross-coupled'])",
        "print(code, 'scipy.linalg' in sys.modules)",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = ratlin.cli.main(['check', '--preset', 'cross-coupled', '--json'])",
        "print(code, 'scipy.optimize' in sys.modules)"])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False\n0 False\n0 False\n"


def test_import_loads_no_scipy_module():
    """A fresh interpreter that imports ratlin and ratlin.cli has loaded no
    scipy module: scipy is most of the import time, and each function that
    uses it imports it where it runs."""
    src = os.path.dirname(os.path.dirname(ratlin.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    script = ("import sys, ratlin, ratlin.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_parse_coeffs_complex_forms():
    got = _parse_coeffs("1.5, 2+3i, -0.5i, -1-2i")
    assert got == [1.5 + 0j, 2 + 3j, -0.5j, -1 - 2j]
    with pytest.raises(ValueError):
        _parse_coeffs("  ,")


CHEBYSHEV_N3_G4 = FixtureSpec(seed=1, n=3, p=3, m=3, grade_a=4, grade_d=4,
                              basis_a=Basis.CHEBYSHEV1, basis_d=Basis.CHEBYSHEV1)


def test_linearize_json_is_bit_exact(capsys, tmp_path):
    """Every printed L0 and L1 entry parses back to build's double, sign of
    zero included, for the preset and a Chebyshev n = 3, grade 4 fixture."""
    for r in (preset_cross_coupled(), gen_fixture(CHEBYSHEV_N3_G4)):
        path = tmp_path / "realz.json"
        path.write_text(json.dumps(r.to_dict()))
        code, out, _ = run_cli(capsys, "linearize", "--input", str(path))
        assert code == 0
        obj = json.loads(out)
        sl = build(r)
        for name in ("L0", "L1"):
            want = getattr(sl, name)
            got = np.array(obj[name], dtype=float)
            assert got.tobytes() == np.stack([want.real, want.imag], axis=-1).tobytes()


MONOMIAL_N16_G8 = FixtureSpec(seed=1, n=16, p=16, m=16, grade_a=8, grade_d=8)


@pytest.mark.parametrize("spec", [CHEBYSHEV_N3_G4, MONOMIAL_N16_G8],
                         ids=["chebyshev-n3-g4", "monomial-n16-g8"])
def test_linearize_output_file_matches_stdout(capsys, tmp_path, spec):
    """Both sinks write the same bytes, also for a 256 x 256 pencil written
    in many pieces."""
    path = tmp_path / "realz.json"
    path.write_text(json.dumps(gen_fixture(spec).to_dict()))
    _, printed, _ = run_cli(capsys, "linearize", "--input", str(path))
    out_path = tmp_path / "lin.json"
    code, _, _ = run_cli(capsys, "linearize", "--input", str(path),
                         "--output", str(out_path))
    assert code == 0
    assert out_path.read_bytes() == printed.encode()


def _ref(x):
    """The plain-Python value json.dumps expects for x."""
    if isinstance(x, np.ndarray):
        if np.iscomplexobj(x):
            x = np.stack([x.real, x.imag], axis=-1)
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, dict):
        return {k: _ref(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_ref(v) for v in x]
    return x


_SPECIAL = st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"),
                            5e-324, -2.2250738585072e-308, 1e300, 0.1])
_DOUBLES = st.floats(allow_subnormal=True) | _SPECIAL
_SHAPES = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)


@st.composite
def _complex_arrays(draw):
    parts = draw(hnp.arrays(np.float64, draw(_SHAPES) + (2,), elements=_DOUBLES))
    out = np.empty(parts.shape[:-1], dtype=complex)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return out


_ARRAYS = (hnp.arrays(np.float64, _SHAPES, elements=_DOUBLES)
           | hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32))
           | hnp.arrays(st.sampled_from([np.int64, np.int32, np.bool_]), _SHAPES)
           | _complex_arrays())
_SCALARS = (st.builds(np.float64, _DOUBLES) | st.builds(np.float32, st.floats(width=32))
            | st.builds(np.int64, st.integers(-2**63, 2**63 - 1))
            | st.builds(np.bool_, st.booleans()))
_LEAVES = (st.none() | st.booleans() | st.integers() | _DOUBLES
           | st.text(alphabet=st.characters(), max_size=8) | st.just('q"u\\o\u00e9\u2603')
           | _SCALARS | _ARRAYS)
_VALUES = st.recursive(
    _LEAVES, lambda kids: st.lists(kids, max_size=4) | st.tuples(kids, kids)
    | st.dictionaries(st.text(max_size=5), kids, max_size=4), max_leaves=12)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_VALUES)
def test_dumps_matches_json_dumps(obj):
    assert _dumps(obj) == json.dumps(_ref(obj), indent=2, sort_keys=True)


@st.composite
def _sparse_arrays(draw):
    """Float64 or complex arrays of signed zeros with a few other doubles
    (NaN, infinities and subnormals among them), as a built pencil is."""
    cplx = draw(st.booleans())
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=5))
    parts = draw(hnp.arrays(np.float64, shape + ((2,) if cplx else ()),
                            elements=st.sampled_from([0.0, -0.0])))
    flat = parts.reshape(-1)
    for i in draw(st.lists(st.integers(0, flat.size - 1), max_size=3)):
        flat[i] = draw(_DOUBLES)
    if not cplx:
        return parts
    out = np.empty(shape, dtype=complex)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return out


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_sparse_arrays() | st.dictionaries(st.text(max_size=3), _sparse_arrays(),
                                          min_size=1, max_size=2))
def test_dumps_sparse_arrays_match_json_dumps(obj):
    assert _dumps(obj) == json.dumps(_ref(obj), indent=2, sort_keys=True)


_FLAT = st.sampled_from([-0.0, 0.0, 1e-300, 1e300, -1.5, 0.1]) | st.integers() \
    | st.booleans()
_NESTED = st.recursive(
    st.lists(_FLAT, max_size=5) | st.none() | st.text(max_size=4) | _SCALARS,
    lambda kids: st.lists(kids, max_size=3) | st.tuples(_FLAT, _FLAT)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3), max_leaves=10)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_NESTED)
def test_dumps_flat_lists_match_json_dumps(obj):
    """Lists and tuples of plain floats and ints take one json.dumps call;
    mixed with bools, None, strings or numpy scalars they do not."""
    assert _dumps(obj) == json.dumps(_ref(obj), indent=2, sort_keys=True)


def test_dumps_flat_path_spellings():
    for obj in ([1.0, True, 0], [True, False], (-0.0, 1e-300, 1e300, 3),
                {"lambda": [0.5, -0.0], "blocks": (0, 2, 0, 4)},
                [np.float64(0.1), 2.0], [[1.0, 2], []]):
        assert _dumps(obj) == json.dumps(_ref(obj), indent=2, sort_keys=True)


def test_dumps_fixed_cases():
    """Shapes the property test reaches only by chance (1 x 1, empty axes in
    any position, 0-d), a complex array inside a dict next to plain values,
    a string array, whose text may hold the ", " that separates numbers, a
    complex array with every sign pattern of a zero cell, every place and
    sign of a single zero part, and an all-zero row, and arrays larger than
    the property tests draw, each written in many pieces: a sparse complex
    300 x 40 array with signed zeros, NaN, +-inf and subnormals, a complex
    3 x 70 x 70 stack, a float64 257 x 3 array and a 1-D array of 5,000
    entries."""
    signed = np.array([[complex(0.0, 0.0), complex(0.0, -0.0), complex(-0.0, 0.0),
                        complex(-0.0, -0.0)],
                       [complex(0.0, 2.5), complex(-0.0, -2.5), complex(2.5, 0.0),
                        complex(-2.5, -0.0)],
                       [complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
                        complex(0.0, 0.0)]])
    rng = np.random.default_rng(0)
    parts = np.where(rng.random((300, 40, 2)) < 0.5, 0.0, -0.0)
    special = [float("nan"), float("inf"), float("-inf"), 5e-324, -2.5e-310, 0.1]
    flat = parts.reshape(-1)
    flat[rng.choice(flat.size, 600, replace=False)] = rng.choice(special, 600)
    sparse = np.empty((300, 40), dtype=complex)
    sparse.real, sparse.imag = parts[..., 0], parts[..., 1]
    for obj in (signed, {"z": signed[None]}, np.ones((1, 1), dtype=complex),
                np.zeros((0, 3)), np.zeros((2, 0)), np.zeros((2, 0, 3), dtype=complex), np.array(1.5), np.array(["a, b", 'q"']),
                {"z": np.array([[-0.0 + 1j]]), "a": [], "m": {}, "n": np.int64(7)},
                sparse, {"L0": sparse, "rhoA": 1},
                rng.standard_normal((3, 70, 70)) + 1j * rng.standard_normal((3, 70, 70)),
                rng.standard_normal((257, 3)), rng.standard_normal(5000)):
        assert _dumps(obj) == json.dumps(_ref(obj), indent=2, sort_keys=True)


@pytest.mark.parametrize("cells", [1, 7, 100])
def test_dumps_is_the_same_at_any_block_size(monkeypatch, cells):
    """The text does not depend on how many cells are spelled at a time:
    blocks of one cell, of part of a row and of several rows, of float and
    complex arrays of one to three axes with signed zeros."""
    monkeypatch.setattr("ratlin.cli.BLOCK_CELLS", cells)
    rng = np.random.default_rng(3)
    cplx = rng.standard_normal((3, 5, 4)) + 1j * rng.standard_normal((3, 5, 4))
    cplx[rng.random(cplx.shape) < 0.5] = complex(-0.0, 0.0)
    for obj in (rng.standard_normal(50), np.where(rng.random((13, 9)) < 0.5, -0.0, 1.5),
                cplx, {"L0": cplx[0], "L1": cplx[1], "rhoA": 2}):
        assert _dumps(obj) == json.dumps(_ref(obj), indent=2, sort_keys=True)


def test_writing_the_pencil_holds_less_than_the_document():
    """Writing the pieces of an n = p = m = 16, grade 8 pencil (256 x 256)
    to a sink that keeps only their length peaks, as traced by tracemalloc,
    below the length of the document."""
    pencil = build(gen_fixture(MONOMIAL_N16_G8)).to_dict()
    length = len(_dumps(pencil))
    written = 0
    tracemalloc.start()
    try:
        for piece in _chunks(pencil):
            written += len(piece)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written == length
    assert peak < length


@pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1], ids=lambda b: b.value)
def test_linearize_holds_its_pencil_about_once(capsys, tmp_path, basis):
    """One `ratlin linearize --output` of an n = p = m = 16, grade 8
    realization (a 256 x 256 pencil) peaks, as traced by tracemalloc, at no
    more than 1.6 times the bytes of L0 and L1: they are views of `build`'s
    one stack, its K blocks are written in place, and the writer spells a
    bounded block of rows at a time."""
    r = gen_fixture(dataclasses.replace(MONOMIAL_N16_G8, basis_a=basis, basis_d=basis))
    src, dst = tmp_path / "realz.json", tmp_path / "lin.json"
    src.write_text(json.dumps(r.to_dict()))
    sl = build(r)
    pencil = sl.L0.nbytes + sl.L1.nbytes
    del r, sl
    argv = ["linearize", "--input", str(src), "--output", str(dst)]
    assert main(argv) == 0  # the parser and imports, once per process
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert code == 0
    assert peak <= 1.6 * pencil
