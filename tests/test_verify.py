import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from ratlin import eigsolve
from ratlin.eigsolve import rational_rank
from ratlin.errors import PreconditionError
from ratlin.linbuild import Realization, build, transfer_eval
from ratlin.polymat import Basis, PolyMatrix
from ratlin.verify import (FixtureSpec, _check_state_pencil_spectrum,
                           cleared_matrix, gen_fixture, preset_cross_coupled,
                           run_all)

from conftest import random_polymatrix


def _no_output_realization() -> Realization:
    """A and B 2 x 2 at grade 2, C and D with no rows."""
    rng = np.random.default_rng(0)
    return Realization(A=random_polymatrix(rng, 2, 2, 2),
                       B=random_polymatrix(rng, 2, 2, 2),
                       C=random_polymatrix(rng, 2, 0, 2),
                       D=random_polymatrix(rng, 2, 0, 2))


class TestGenFixture:
    def test_deterministic(self):
        spec = FixtureSpec(seed=7, n=2, p=3, m=2, grade_a=2, grade_d=3)
        a = gen_fixture(spec)
        b = gen_fixture(spec)
        assert np.array_equal(a.A.coeffs, b.A.coeffs)
        assert np.array_equal(a.D.coeffs, b.D.coeffs)

    def test_zero_column_flag(self):
        spec = FixtureSpec(seed=7, m=2, structure="zero-column-b")
        r = gen_fixture(spec)
        assert np.all(r.B.coeffs[:, :, -1] == 0)
        assert np.all(r.D.coeffs[:, :, -1] == 0)

    def test_zero_row_flag(self):
        spec = FixtureSpec(seed=7, p=3, structure="zero-row-c")
        r = gen_fixture(spec)
        assert np.all(r.C.coeffs[:, -1, :] == 0)
        assert np.all(r.D.coeffs[:, -1, :] == 0)

    def test_rank_deficient_flag_gives_polynomial_null_vector(self):
        spec = FixtureSpec(seed=9, n=2, p=3, m=3, structure="rank-deficient-d")
        r = gen_fixture(spec)
        # [B; D] last column = first columns * w(lambda) by construction,
        # so R has a degree-1 right null vector; verify via evaluation
        from ratlin.linbuild import build
        from ratlin.eigsolve import rational_rank
        assert rational_rank(build(r)) == 2

    def test_bad_structure_rejected(self):
        with pytest.raises(PreconditionError):
            FixtureSpec(structure="bogus")

    def test_basis_flags_respected(self):
        spec = FixtureSpec(seed=3, basis_a=Basis.CHEBYSHEV1, basis_d=Basis.MONOMIAL)
        r = gen_fixture(spec)
        assert r.A.basis is Basis.CHEBYSHEV1
        assert r.D.basis is Basis.MONOMIAL


class TestPreset:
    def test_displayed_blocks(self):
        r = preset_cross_coupled()
        # state matrix diag(l^2 - l - 2, l + 2)
        assert np.allclose(r.A.eval(3.0), np.diag([4.0, 5.0]))
        # couplings: columns scaled by l^2 + 1 and l^2 - 1
        assert np.allclose(r.C.eval(2.0), np.diag([5.0, 3.0]))
        assert np.allclose(r.B.eval(1.0), [[0.0, 3.0], [1.0, 0.0]])
        assert np.allclose(r.D.eval(2.0), 4.0 * np.eye(2))

    def test_transfer_structure(self):
        r = preset_cross_coupled()
        lam = 1.5
        f1 = (lam ** 2 + 1) * (lam + 2) / (lam ** 2 - lam - 2)
        f2 = (lam ** 2 - 1) * lam ** 2 / (lam + 2)
        want = lam ** 2 * np.eye(2) + np.array([[0, f1], [f2, 0]])
        assert np.allclose(transfer_eval(r, lam), want)


class TestRunAll:
    def test_preset_all_pass(self):
        rep = run_all(preset_cross_coupled(), seed=2)
        assert rep.passed
        names = {e.name for e in rep.entries}
        assert {"block-factor-identities", "transfer-rank-additivity",
                "one-sided-factorizations", "state-pencil-spectrum",
                "minimality-proxy", "eigenvector-recovery"} <= names

    def test_zero_column_activates_nullspace_checks(self):
        spec = FixtureSpec(seed=11, n=2, p=3, m=3, structure="zero-column-b")
        rep = run_all(gen_fixture(spec), seed=4)
        by_name = {e.name: e for e in rep.entries}
        assert by_name["right-index-shift"].status == "pass"
        assert by_name["left-index-match"].status == "pass"
        assert by_name["nullspace-dimension"].status == "pass"
        assert by_name["nullvector-degree-law"].status == "pass"
        assert rep.passed

    def test_unclassifiable_state_eigenvalues_reported(self):
        # C = 0: minimality collapses exactly at the state eigenvalues, which
        # the proxy samples; the report must carry the failure
        rng = np.random.default_rng(15)
        n = 2
        a = PolyMatrix(rng.standard_normal((3, n, n))
                       + 1j * rng.standard_normal((3, n, n)))
        r = Realization(A=a, B=PolyMatrix.zero(n, n, 2),
                        C=PolyMatrix.zero(n, n, 2), D=PolyMatrix.identity(n))
        rep = run_all(r, seed=4)
        by_name = {e.name: e for e in rep.entries}
        assert by_name["minimality-proxy"].status == "fail"
        assert by_name["minimality-proxy"].worst_residual >= 1

    def test_rank_decided_on_the_system_matrix(self):
        # R(z) = D + C A^{-1} B is formed here with cancellation
        # (||D|| + ||C|| ||A^{-1} B|| about 16 against ||R|| about 2), so the
        # roundoff in R(z) sits above its own rank cutoff
        path = Path(__file__).parent / "data" / "battery_seed3_rank_deficient_d.json"
        r = Realization.from_dict(json.loads(path.read_text()))
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["transfer-rank-additivity"].status == "pass"
        assert rational_rank(build(r)) == 1

    def test_eigenvector_recovery_far_from_the_origin(self):
        # a zero at |lambda| about 78.6 with ||R(lambda)||_2 about 2.7e7: the
        # QZ pair's unscaled left residual (2.3e-8) is above 1e-8, but the
        # check gates eta, which is roundoff there
        path = Path(__file__).parent / "data" / "battery_seed4_regular_cheb.json"
        r = Realization.from_dict(json.loads(path.read_text()))
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["eigenvector-recovery"].status == "pass"

    def test_singular_battery_sweeps_the_pencil_once_per_side(self, monkeypatch):
        # p != m, so the pencil is not square and the transposed sweep inside
        # a left-side call is not counted
        r = gen_fixture(FixtureSpec(seed=5, n=2, p=3, m=2,
                                    structure="rank-deficient-d"))
        shape = build(r).shape
        sweeps = []
        sweep = eigsolve.polymatrix_nullspace

        def counting(p, side="right", **kw):
            if p.shape == shape:
                sweeps.append(side)
            return sweep(p, side, **kw)

        monkeypatch.setattr(eigsolve, "polymatrix_nullspace", counting)
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["nullvector-degree-law"].status == "pass"
        assert by_name["left-index-match"].status == "pass"
        assert sweeps == ["right", "left"]

    @pytest.mark.parametrize("structure, calls", [
        ("zero-column-b", [False]), ("regular", [False, False, True])])
    def test_qz_runs_per_battery(self, monkeypatch, structure, calls):
        # one state-pencil QZ without vectors serves classify and every
        # minimality check; a regular input adds the full pencil, without
        # vectors for classify and with them for eigenpair
        import scipy.linalg
        eig = scipy.linalg.eig
        runs = []

        def counting(*args, **kw):
            runs.append(kw.get("right"))
            return eig(*args, **kw)

        monkeypatch.setattr(scipy.linalg, "eig", counting)
        run_all(gen_fixture(FixtureSpec(seed=1, structure=structure)), seed=1)
        assert runs == calls

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenvector_recovery_on_a_scalar_realization(self, n):
        # eta was 1 at every zero of a 1 x 1 R (see tests/test_recover.py)
        spec = FixtureSpec(seed=3, n=n, p=1, m=1, basis_d=Basis.CHEBYSHEV1)
        by_name = {e.name: e for e in run_all(gen_fixture(spec), seed=1).entries}
        assert by_name["eigenvector-recovery"].status == "pass"
        assert by_name["eigenvector-recovery"].worst_residual <= 1e-12

    def test_no_outputs_gives_a_report(self):
        # p = 0: the block-factor and cleared-matrix scales took np.max of
        # the empty C and D
        rep = run_all(_no_output_realization(), seed=1)
        by_name = {e.name: e.status for e in rep.entries}
        assert by_name["block-factor-identities"] == "pass"
        assert by_name["nullspace-dimension"] == "pass"
        # with C empty, [A; C] = A loses rank at the poles: not minimal
        assert by_name["minimality-proxy"] == "fail"
        assert cleared_matrix(_no_output_realization()).shape == (0, 2)

    def test_deterministic_given_seed(self):
        spec = FixtureSpec(seed=21, n=2, p=2, m=2)
        a = run_all(gen_fixture(spec), seed=9)
        b = run_all(gen_fixture(spec), seed=9)
        assert [e.to_dict() for e in a.entries] == [e.to_dict() for e in b.entries]

    def test_runtime_budget_midsize(self):
        import time
        spec = FixtureSpec(seed=33, n=6, p=6, m=6, grade_a=4, grade_d=4,
                           structure="zero-column-b")
        start = time.monotonic()
        rep = run_all(gen_fixture(spec), seed=9)
        elapsed = time.monotonic() - start
        assert rep.passed
        assert elapsed < 60.0

    def test_oracle_sweep_stops_at_the_budget(self):
        # the left oracle index puts the pencil's left sweep over
        # SWEEP_BUDGET; the oracle sweep used to run to it anyway (about 70 s)
        import time
        spec = FixtureSpec(seed=1, n=12, p=12, m=12, grade_a=4, grade_d=4,
                           structure="rank-deficient-d")
        r = gen_fixture(spec)
        start = time.monotonic()
        by_name = {e.name: e.status for e in run_all(r).entries}
        elapsed = time.monotonic() - start
        assert by_name["right-index-shift"] == "pass"
        assert by_name["nullvector-degree-law"] == "pass"
        assert by_name["left-index-match"] == "skipped"
        assert elapsed < 20.0

    @pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
    def test_grade10_eigenvector_recovery(self, basis):
        # zeros well outside the unit disc, where phi_{d-1} dominates phi_0
        spec = FixtureSpec(seed=2, grade_a=10, grade_d=10, basis_a=basis,
                           basis_d=basis)
        by_name = {e.name: e for e in run_all(gen_fixture(spec)).entries}
        assert by_name["eigenvector-recovery"].status == "pass"

    @pytest.mark.parametrize("grade", [10, 12])
    def test_chebyshev_high_grade_dual_pairs(self, grade):
        # products through the monomial basis put M_X N^T - X at 1.2e-13
        # (grade 10) and 7.3e-13 (grade 12), over the 1e-13 gate
        spec = FixtureSpec(seed=2, grade_a=grade, grade_d=grade,
                           basis_a=Basis.CHEBYSHEV1, basis_d=Basis.CHEBYSHEV1)
        rep = run_all(gen_fixture(spec))
        assert rep.passed, rep.table()
        by_name = {e.name: e for e in rep.entries}
        assert by_name["dual-pair-identities"].worst_residual == 0.0
        assert by_name["block-factor-identities"].worst_residual <= 1e-15

    @pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
    def test_n16_grade8_passes(self, basis):
        # the interpolated det A lost these poles (2.1e-3 monomial, 0.75
        # Chebyshev), and unscaled eigenvector residuals reached 1.8e-7
        spec = FixtureSpec(seed=6, n=16, p=16, m=16, grade_a=8, grade_d=8,
                           basis_a=basis, basis_d=basis)
        rep = run_all(gen_fixture(spec))
        assert rep.passed, rep.table()

    def test_monomial_grade12_passes(self):
        # unscaled eigenvector residual 1.3e-8 on a backward stable solve
        rep = run_all(gen_fixture(FixtureSpec(seed=2, grade_a=12, grade_d=12)))
        assert rep.passed, rep.table()

    def test_corrupted_state_pencil_fails(self):
        sl = build(preset_cross_coupled())
        r0, r1, c0, c1 = sl.blocks["K_A"]
        l0 = np.array(sl.L0)
        l0[r0:r1, c0:c1] *= 1.001
        rng = np.random.default_rng(3)
        assert _check_state_pencil_spectrum(sl, rng).status == "pass"
        bad = _check_state_pencil_spectrum(dataclasses.replace(sl, L0=l0), rng)
        assert bad.status == "fail" and bad.worst_residual > 1e-4

    def test_report_serialization(self):
        rep = run_all(preset_cross_coupled(), seed=2)
        obj = rep.to_dict()
        assert obj["passed"] is True
        assert all({"name", "status", "worstResidual"} <= set(c)
                   for c in obj["checks"])
        assert "overall" in rep.table()


def test_cleared_matrix_is_det_times_transfer():
    r = preset_cross_coupled()
    cm = cleared_matrix(r)
    lam = 1.3 + 0.7j
    det_a = np.linalg.det(r.A.eval(lam))
    want = det_a * transfer_eval(r, lam)
    assert np.max(np.abs(cm.eval(lam) - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    # degree: det A has degree 3, D = I l^2 -> cleared degree 5... the
    # off-diagonal couplings reach degree 6
    assert cm.degree() == 6


SAME_RESULTS = Path(__file__).parent / "data" / "same_results_seed1_n2_g2.json"


def same_results_record() -> dict:
    """Tolerance-driven outcomes on the 16 seed-1, n = p = m = 2, grade-2
    fixtures (every structure flag and basis pair): the battery's statuses,
    the orders at infinity and the recovered minimal indices (or the class
    name of the error a recovery raises).  Residuals are left out because
    their last digits depend on the machine."""
    from itertools import product
    from ratlin.eigsolve import invariant_orders_at_infinity
    from ratlin.errors import RatlinError
    from ratlin.recover import (recover_left_minimal_basis,
                                recover_right_minimal_basis)
    from ratlin.verify import STRUCTURES
    out = {}
    for structure, ba, bd in product(STRUCTURES, Basis, Basis):
        r = gen_fixture(FixtureSpec(seed=1, structure=structure,
                                    basis_a=ba, basis_d=bd))
        sl = build(r, rng=1)
        rec = {"checks": [[e.name, e.status] for e in run_all(r, seed=1).entries],
               "orders": invariant_orders_at_infinity(sl, rng=1)}
        for side, fn in (("right", recover_right_minimal_basis),
                         ("left", recover_left_minimal_basis)):
            try:
                rec[side] = fn(sl, rng=1).basis_r.indices
            except RatlinError as exc:
                rec[side] = type(exc).__name__
        out[f"{structure}/{ba.value}/{bd.value}"] = rec
    return out


def test_same_results_on_the_seed1_fixtures():
    """The record was written by
    PYTHONPATH=src:tests python -c "import json, test_verify as t; t.SAME_RESULTS.write_text(json.dumps(t.same_results_record(), indent=1) + '\\n')"
    """
    assert same_results_record() == json.loads(SAME_RESULTS.read_text())
