"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import ratlin  # noqa: E402
import ratlin.cli  # noqa: E402,F401
from tracer import Tracer  # noqa: E402
from workloads import OK, WORKLOADS, WRONG  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_prints_every_declared_metric(workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"]
                for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_timed_figures_are_scaled_by_the_reference():
    import run
    proc = bench("--workload", "scalar", "--seed", "3", "--seconds", "1", "--trace", "0",
                 "--smoke")
    assert proc.returncode == 0, proc.stderr
    report_line, result_line = proc.stdout.strip().splitlines()[-2:]
    report, metrics = json.loads(report_line)["report"], json.loads(result_line)["metrics"]
    scale = run.REFERENCE_S / report["reference_s"]["median"]
    raw = report["unscaled"]
    assert metrics["latency_gmean_ms"]["value"] == pytest.approx(
        raw["latency_gmean_ms"] * scale)
    assert metrics["throughput_ops_s"]["value"] == pytest.approx(
        raw["throughput_ops_s"] / scale)


def test_traced_call_counts_repeat():
    first, second = smoke("battery", 1), smoke("battery", 1)
    calls = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert calls
    assert first["metrics"]["kernel.det.calls"]["value"] > 0  # numpy.linalg.det is traced
    assert all(first["metrics"][n]["value"] == second["metrics"][n]["value"]
               for n in calls)


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_everything():
    svd, build = np.linalg.svd, ratlin.verify.build
    tracer = Tracer()
    tracer.install()
    try:
        assert ratlin.verify.build is ratlin.linbuild.build is not build
        ratlin.build(inputs_realization())
    finally:
        tracer.uninstall()
    assert np.linalg.svd is svd and ratlin.verify.build is build
    names = {rec[0] for rec in tracer.spans}
    assert {"linbuild.build", "dualbases.completion", "kernel.lstsq"} <= names


def inputs_realization():
    case = inputs.smoke_cases("spectral", 5)[0]
    return ratlin.Realization(*(ratlin.PolyMatrix(a, ratlin.Basis(b)) for a, b in (
        (case.A, case.basis_a), (case.B, case.basis_d),
        (case.C, case.basis_a), (case.D, case.basis_d))))


def run_op(workload, tmp_path, seed=5):
    wl = WORKLOADS[workload]
    case = inputs.smoke_cases(workload, seed)[0]
    outcome = wl.prepare(ratlin, case, str(tmp_path / "op"))()
    assert wl.check(case, outcome)[0] == OK
    return wl, case, outcome


def test_spectral_oracle_rejects_perturbed_eigenvector(tmp_path):
    wl, case, out = run_op("spectral", tmp_path)
    lam, x, y = out["pairs"][0]
    out["pairs"][0] = (lam, x + 1e-4 * np.linalg.norm(x), y)
    assert wl.check(case, out)[0] == WRONG


def test_scalar_oracle_rejects_dropped_root(tmp_path):
    wl, case, out = run_op("scalar", tmp_path)
    printed = json.loads(out["stdout"])
    printed["roots"].pop()
    out["stdout"] = json.dumps(printed)
    assert wl.check(case, out)[0] == WRONG


def test_linearize_oracle_rejects_altered_entry(tmp_path):
    wl, case, out = run_op("linearize", tmp_path)
    pencil = json.loads(Path(out["path"]).read_text())
    pencil["L0"][-1][-1][0] += 1e-6
    Path(out["path"]).write_text(json.dumps(pencil))
    assert wl.check(case, out)[0] == WRONG


def test_battery_oracle_is_run_alls_verdict():
    passing = [("block-factor-identities", "pass"), ("right-index-shift", "skipped")]
    assert oracles.check_battery(passing) == (True, "", 1)
    assert not oracles.check_battery(passing + [("eigenvector-recovery", "fail")])[0]


def test_a_raise_is_wrong_and_a_battery_fail_only_failed():
    import run
    case = inputs.smoke_cases("spectral", 5)[0]
    raised = run.check_all(WORKLOADS["spectral"], [(case, 0.0, None, "PoleError: at 1")])
    assert (raised["failed"], raised["wrong"]) == (1, 1)
    verdict = run.check_all(WORKLOADS["battery"],
                            [(case, 0.0, [("eigenvector-recovery", "fail")], None)])
    assert (verdict["failed"], verdict["wrong"]) == (1, 0)


def test_every_cycle_has_the_same_mix():
    for workload in NAMES:
        mix = [[c.label.split(" ", 1)[1] if hasattr(c, "structure") else c.label
                for c in inputs.cycle_cases(workload, 3, k)] for k in range(4)]
        assert all(m == mix[0] for m in mix)


def test_inputs_depend_only_on_seed():
    for workload in NAMES:
        a = inputs.digest(inputs.cycle_cases(workload, 11, 2))
        assert a == inputs.digest(inputs.cycle_cases(workload, 11, 2))
        assert a != inputs.digest(inputs.cycle_cases(workload, 12, 2))


def test_generated_structures_are_what_they_claim():
    rng = np.random.default_rng(0)
    z = 0.3 + 0.8j
    for basis in (inputs.MONO, inputs.CHEB):
        case = inputs.realization(rng, 3, 3, basis, basis, "rank-deficient-d")
        r = oracles.transfer(case, z)
        sv = np.linalg.svd(r, compute_uv=False)
        assert sv[-1] < 1e-12 * sv[0]
    case = inputs.realization(rng, 3, 2, inputs.MONO, inputs.CHEB, "zero-row-c")
    assert not case.C[:, -1, :].any() and not case.D[:, -1, :].any()
