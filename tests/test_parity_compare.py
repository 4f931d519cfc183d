"""`tools/parity.py --compare`: a moved figure is listed, anything else fails."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "parity", Path(__file__).resolve().parents[1] / "tools" / "parity.py")
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)

CHECK = {"passed": True, "checks": [
    {"name": "right-index-shift", "status": "pass", "worstResidual": 1.5e-16},
    {"name": "left-index-match", "status": "pass", "worstResidual": 2.5e-16}]}
NULLSPACE = {"basis": {"coeffs": [[[0.5, 0.0], [1.0, 0.0]]], "rows": 2},
             "diagnostics": {"nullspace_residual": 3.0e-16, "ok": True},
             "indices": [1]}


def _write(root: Path, check: dict, nullspace: dict, exit_code=0, stderr=""):
    (root / "inputs").mkdir(parents=True)
    (root / "inputs" / "case.json").write_text("{}\n")
    for name, doc, code in (("check", check, exit_code), ("nullspace-right", nullspace, 0)):
        (root / f"case.{name}.txt").write_text(
            f"exit {code}\n--- stdout\n{json.dumps(doc, indent=2)}\n--- stderr\n{stderr}")


def _compare(tmp_path, capsys, check=CHECK, nullspace=NULLSPACE, **kw):
    _write(tmp_path / "old", CHECK, NULLSPACE)
    _write(tmp_path / "new", check, nullspace, **kw)
    code = parity.compare(tmp_path / "old", tmp_path / "new")
    return code, capsys.readouterr().out


def test_identical_directories_move_nothing(tmp_path, capsys):
    code, out = _compare(tmp_path, capsys)
    assert code == 0 and "NOT A FIGURE" not in out
    assert "  check: 1, 0" in out and "  inputs: 1, 0" in out


def test_moved_figures_are_listed_and_counted(tmp_path, capsys):
    check = json.loads(json.dumps(CHECK))
    check["checks"][1]["worstResidual"] = 3.0e-16
    nullspace = {**NULLSPACE, "diagnostics": {"nullspace_residual": 4.0e-16, "ok": True}}
    code, out = _compare(tmp_path, capsys, check, nullspace)
    assert code == 0, out
    assert ("case.check.txt stdout.checks[left-index-match].worstResidual: "
            "2.5e-16 -> 3e-16") in out
    assert "  check stdout.checks[left-index-match].worstResidual: 1, 2.5e-16, 3e-16" in out
    assert "  nullspace-right stdout.diagnostics.nullspace_residual: 1, 3e-16, 4e-16" in out


@pytest.mark.parametrize("change, want", [
    ({"check": {**CHECK, "passed": False}}, "stdout.passed: True -> False"),
    ({"nullspace": {**NULLSPACE, "indices": [2]}}, "stdout.indices[0]: 1 -> 2"),
    ({"nullspace": {**NULLSPACE, "basis": {"coeffs": [[[0.25, 0.0], [1.0, 0.0]]],
                                           "rows": 2}}},
     "stdout.basis.coeffs[0][0][0]: 0.5 -> 0.25"),
    ({"nullspace": {**NULLSPACE, "extra": 1.0}}, "stdout: key set"),
    ({"exit_code": 1}, "case.check.txt exit differs"),
    ({"stderr": "warning\n"}, "case.check.txt stderr differs"),
], ids=["status", "index", "basis-coefficient", "key-set", "exit-code", "stderr"])
def test_anything_but_a_figure_fails(tmp_path, capsys, change, want):
    code, out = _compare(tmp_path, capsys, **change)
    assert code == 1
    assert "NOT A FIGURE: " in out and want in out


def test_keys_on_both_sides_are_compared_past_a_key_set_change(tmp_path, capsys):
    # a check that loses its location and its pass: both are listed
    check = json.loads(json.dumps(CHECK))
    check["checks"][0].update(status="skipped", extra=0.0)
    code, out = _compare(tmp_path, capsys, check)
    assert code == 1
    assert "stdout.checks[right-index-shift]: key set" in out
    assert "stdout.checks[right-index-shift].status: 'pass' -> 'skipped'" in out


def test_a_file_on_one_side_fails(tmp_path, capsys):
    _write(tmp_path / "old", CHECK, NULLSPACE)
    _write(tmp_path / "new", CHECK, NULLSPACE)
    (tmp_path / "new" / "scalar-1.txt").write_text("exit 0\n--- stdout\n--- stderr\n")
    assert parity.compare(tmp_path / "old", tmp_path / "new") == 1
    assert "scalar-1.txt only in" in capsys.readouterr().out
