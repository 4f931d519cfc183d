import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from ratlin import eigsolve, linbuild, polymat, recover, verify
from ratlin.errors import PreconditionError
from ratlin.linbuild import (PencilReadings, Realization, build,
                             transfer_eval)
from ratlin.polymat import Basis, PolyMatrix
from ratlin.verify import (STRUCTURES, FixtureSpec, _check_state_pencil_spectrum,
                           gen_fixture, preset_cross_coupled, run_all)

from conftest import (SCALED, count_calls, count_off, random_polymatrix,
                      scaled_fixture, stiff_state_realization)


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
        # so R has a degree-1 right null vector: rank R is m - 1, read off
        # the right staircase at infinity as the orders at infinity read it
        sl = build(r)
        assert r.m - len(sl.staircase("right", infinity=True)[0]) == 2

    def test_bad_structure_rejected(self):
        with pytest.raises(PreconditionError):
            FixtureSpec(structure="bogus")

    @pytest.mark.parametrize("grades", [{"grade_a": -1}, {"grade_d": -1}])
    def test_negative_grade_rejected(self, grades):
        with pytest.raises(PreconditionError):
            FixtureSpec(**grades)

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

    def test_one_sided_factorizations_decompose_each_sample_once(self, monkeypatch):
        # sample_points decomposes each A(z) for its invertibility and
        # condition tests; the residuals at the kept points test none again
        svd, matrices = np.linalg.svd, []

        def counting(a, *args, **kwargs):
            matrices.append(int(np.prod(np.shape(a)[:-2])))
            return svd(a, *args, **kwargs)

        sl = build(preset_cross_coupled())
        monkeypatch.setattr(np.linalg, "svd", counting)
        entry = verify._check_one_sided_factorizations(sl, np.random.default_rng(2))
        assert entry.status == "pass"
        assert sum(matrices) == 10

    def test_zero_column_activates_nullspace_checks(self):
        spec = FixtureSpec(seed=11, n=2, p=3, m=3, structure="zero-column-b")
        rep = run_all(gen_fixture(spec), seed=4)
        by_name = {e.name: e for e in rep.entries}
        assert by_name["right-index-shift"].status == "pass"
        assert by_name["left-index-match"].status == "pass"
        assert by_name["nullspace-dimension"].status == "pass"
        assert by_name["nullvector-degree-law"].status == "pass"
        assert rep.passed

    @pytest.mark.parametrize("side, name", [
        ("right", "right-index-shift"), ("left", "left-index-match")])
    @pytest.mark.parametrize("key", ["ok", "degree_consistent"])
    def test_failed_certificate_fails_the_index_check(self, monkeypatch, side,
                                                      name, key):
        # the fixture of test_zero_column_activates_nullspace_checks, with one
        # diagnostic of the recovered basis turned False
        recover_basis = verify.recover_minimal_basis

        def spoiled(sl, which, rng=None):
            rec = recover_basis(sl, which, rng=rng)
            if which != side:
                return rec
            return dataclasses.replace(rec, diagnostics={**rec.diagnostics,
                                                         key: False})

        monkeypatch.setattr(verify, "recover_minimal_basis", spoiled)
        spec = FixtureSpec(seed=11, n=2, p=3, m=3, structure="zero-column-b")
        rep = run_all(gen_fixture(spec), seed=4)
        statuses = {e.name: e.status for e in rep.entries}
        assert statuses[name] == "fail"
        assert not rep.passed

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_staircase_count_off_the_nullity_reads_the_side_at_infinity(
            self, monkeypatch, side):
        # the linearization's reading at 0 of one side is given one index
        # more than the nullity, through its cache: that side is read on the
        # reversed pencil, and both sides pass
        built = []

        def spoiled_build(r, rng=None):
            sl = build(r, rng=rng)
            indices, *rest = sl.staircase(side)
            sl._staircases[side, False] = (indices + [0], *rest)
            built.append(sl)
            return sl

        monkeypatch.setattr(verify, "build", spoiled_build)
        spec = FixtureSpec(seed=11, n=2, p=3, m=3, structure="zero-column-b")
        statuses = {e.name: e.status
                    for e in run_all(gen_fixture(spec), seed=4).entries}
        for name in ("right-index-shift", "left-index-match",
                     "nullvector-degree-law"):
            assert statuses[name] == "pass", statuses
        assert (side, True) in built[0]._staircases

    def test_side_no_reading_numbers_is_skipped(self, monkeypatch):
        # both readings of the right side are one index off its nullity, so
        # neither side's index sum can close: recovery raises BreakdownError
        # on both, and run_all skips them instead of stopping
        monkeypatch.setattr(PencilReadings, "staircase", count_off("right"))
        spec = FixtureSpec(seed=11, n=2, p=3, m=3, structure="zero-column-b")
        statuses = {e.name: e.status
                    for e in run_all(gen_fixture(spec), seed=4).entries}
        for name in ("right-index-shift", "left-index-match",
                     "nullvector-degree-law"):
            assert statuses[name] == "skipped", statuses
        assert statuses["nullspace-dimension"] == "pass"

    @pytest.mark.parametrize("n, grade, structure", [
        (2, 8, "rank-deficient-d"), (6, 6, "zero-column-b")])
    def test_ladder_sides_read_at_infinity_pass(self, n, grade, structure):
        # rungs of the seed-1 size ladder, both sides Chebyshev, with a side
        # the staircase at 0 reads no index on: the right index 8 of the
        # first and the left index 66 of the second read only at infinity,
        # and the first's left index 23 only at 0, so its index sum closes
        # only across the two readings
        cheb = Basis.CHEBYSHEV1
        r = gen_fixture(FixtureSpec(seed=1, n=n, p=n, m=n, grade_a=grade,
                                    grade_d=grade, basis_a=cheb, basis_d=cheb,
                                    structure=structure))
        statuses = {e.name: e.status for e in run_all(r, seed=1).entries}
        assert "fail" not in statuses.values(), statuses
        for name in ("right-index-shift", "left-index-match",
                     "nullvector-degree-law"):
            assert statuses[name] == "pass", statuses
        sl = build(r, rng=1)
        readings = {side: (sl.staircase(side)[0], sl.staircase(side, infinity=True)[0])
                    for side in ("right", "left")}
        assert readings == ({"right": ([], [8]), "left": ([23], [])} if n == 2 else
                            {"right": ([5], [5]), "left": ([], [66])})

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_one_staircase_per_side_and_one_rank_completing_qz(
            self, monkeypatch, qz_runs, structure):
        # the skip test and the gate share the linearization's staircase at
        # 0 on each side, and its one rank-completing QZ with vectors; no
        # other staircase runs, and no other QZ but the state pencil's
        staircase = eigsolve._staircase
        calls = []

        def counting(l0, l1, norm=None):
            calls.append((l0, l1))
            return staircase(l0, l1, norm)

        monkeypatch.setattr(eigsolve, "_staircase", counting)
        r = gen_fixture(FixtureSpec(seed=1, structure=structure))
        statuses = {e.name: e.status for e in run_all(r, seed=1).entries}
        assert statuses["right-index-shift"] == "pass", statuses
        assert statuses["left-index-match"] == "pass", statuses
        sl = build(r)
        for side in ("right", "left"):
            a, b = eigsolve.side_stack(sl.L0, sl.L1, side)
            assert sum(np.array_equal(l0, a) and np.array_equal(l1, b)
                       for l0, l1 in calls) == 1, (side, len(calls))
        assert len(calls) == 2
        assert qz_runs == [(sl.state.L0.shape, False),
                           ((max(sl.shape),) * 2, True)]

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
        # the sampled rank R, m less the pencil's right nullity when it passes
        assert by_name["nullspace-dimension"].status == "pass"
        sl = build(r)
        assert r.m - (sl.shape[1] - sl.rank) == 1

    def test_eigenvector_recovery_far_from_the_origin(self):
        # a zero at |lambda| about 78.6 with ||R(lambda)||_2 about 2.7e7: the
        # QZ pair's unscaled left residual (2.3e-8) is above 1e-8, but the
        # check gates eta, which is roundoff there
        path = Path(__file__).parent / "data" / "battery_seed4_regular_cheb.json"
        r = Realization.from_dict(json.loads(path.read_text()))
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["eigenvector-recovery"].status == "pass"

    def test_singular_battery_sweeps_the_pencil_once_per_side(self, monkeypatch):
        r = gen_fixture(FixtureSpec(seed=5, n=2, p=3, m=2,
                                    structure="rank-deficient-d"))
        sweeps = []
        nullspace = recover.polynomial_nullspace

        def counting(readings, side="right"):
            sweeps.append(side)
            return nullspace(readings, side)

        monkeypatch.setattr(recover, "polynomial_nullspace", counting)
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["nullvector-degree-law"].status == "pass"
        assert by_name["left-index-match"].status == "pass"
        assert sweeps == ["right", "left"]

    @pytest.mark.parametrize("seed, k, grade, factor", SCALED)
    def test_pencil_is_classified_or_has_minimal_bases_never_both(self, seed, k,
                                                                  grade, factor):
        status = {e.name: e.status for e in run_all(scaled_fixture(seed, k, grade,
                                                                   factor)).entries}
        indexed = {status[name] for name in ("right-index-shift", "left-index-match")}
        assert status["eigenvector-recovery"] == "skipped" or indexed == {"skipped"}

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_singular_battery_samples_the_pencil_rank_once(self, monkeypatch,
                                                            structure):
        # the battery's nullities, both recoveries' nullities, the
        # regular-part size and the QZ's regularity read the linearization's
        # one `rank`; the rank-completed pencil, of the same shape, has its own
        r = gen_fixture(FixtureSpec(seed=1, structure=structure))
        sl = build(r)
        pencil = np.stack([sl.L0, sl.L1])
        calls = count_calls(monkeypatch, polymat.generic_rank)
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["right-index-shift"].status == "pass"
        assert [np.array_equal(p.coeffs, pencil) for p, *_ in calls].count(True) == 1

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_singular_battery_evaluates_the_system_matrix_once(self, monkeypatch,
                                                                structure):
        # transfer-rank-additivity and nullspace-dimension read one sample
        r = gen_fixture(FixtureSpec(seed=1, structure=structure))
        calls = count_calls(monkeypatch, linbuild.system_eval)
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["nullspace-dimension"].status == "pass"
        assert len(calls) == 1

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_singular_battery_decomposes_the_system_matrix_once(self, monkeypatch,
                                                                 structure):
        # transfer-rank-additivity and nullspace-dimension read its ranks at
        # two cutoffs off one SVD
        evaluate, svd, systems, decomposed = verify.system_eval, np.linalg.svd, [], []

        def evaluating(*args):
            systems.append(evaluate(*args))
            return systems[-1]

        def counting(a, *args, **kwargs):
            decomposed.extend(a for s in systems if a is s)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(verify, "system_eval", evaluating)
        monkeypatch.setattr(np.linalg, "svd", counting)
        r = gen_fixture(FixtureSpec(seed=1, structure=structure))
        by_name = {e.name: e for e in run_all(r, seed=1).entries}
        assert by_name["nullspace-dimension"].status == "pass"
        assert by_name["transfer-rank-additivity"].status == "pass"
        assert len(systems) == 1 and len(decomposed) == 1

    def test_no_well_conditioned_point_gives_a_report(self):
        # cond A(z) = 1e8 everywhere: no point is sampled, and the checks
        # that read the sample fail where sampling rank R raised
        by_name = {e.name: e.status
                   for e in run_all(stiff_state_realization(singular=True)).entries}
        assert by_name["transfer-rank-additivity"] == "fail"
        assert by_name["nullspace-dimension"] == "fail"

    @pytest.mark.parametrize("structure, calls", [
        ("zero-column-b", [False, True]), ("regular", [False, False])])
    def test_qz_runs_per_battery(self, qz_runs, structure, calls):
        # one state-pencil QZ without vectors serves classify and every
        # minimality check; a regular input adds the full pencil's one QZ,
        # without vectors, whose eigenvalues serve both classify and
        # eigenpair, and a singular one the rank-completing QZ, with
        # vectors, of its regular-part size
        run_all(gen_fixture(FixtureSpec(seed=1, structure=structure)), seed=1)
        assert [vectors for _, vectors in qz_runs] == calls

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigenvector_recovery_on_a_scalar_realization(self, n):
        # eta was 1 at every zero of a 1 x 1 R (see tests/test_recover.py)
        spec = FixtureSpec(seed=3, n=n, p=1, m=1, basis_d=Basis.CHEBYSHEV1)
        by_name = {e.name: e for e in run_all(gen_fixture(spec), seed=1).entries}
        assert by_name["eigenvector-recovery"].status == "pass"
        assert by_name["eigenvector-recovery"].worst_residual <= 1e-12

    def test_no_outputs_gives_a_report(self):
        # p = 0: the block-factor scales took np.max of the empty C and D
        rep = run_all(_no_output_realization(), seed=1)
        by_name = {e.name: e.status for e in rep.entries}
        assert by_name["block-factor-identities"] == "pass"
        assert by_name["nullspace-dimension"] == "pass"
        # with C empty, [A; C] = A loses rank at the poles: not minimal
        assert by_name["minimality-proxy"] == "fail"

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

    def test_deep_left_side_passes(self):
        # the staircase's left index is 81: the index sum certifies it, and
        # the basis's degree is read on the scale of its top coefficient
        import time
        spec = FixtureSpec(seed=1, n=12, p=12, m=12, grade_a=4, grade_d=4,
                           structure="rank-deficient-d")
        r = gen_fixture(spec)
        start = time.monotonic()
        by_name = {e.name: e.status for e in run_all(r).entries}
        elapsed = time.monotonic() - start
        assert by_name["right-index-shift"] == "pass"
        assert by_name["nullvector-degree-law"] == "pass"
        assert by_name["left-index-match"] == "pass"
        assert build(r).staircase("left")[0] == [81]
        assert elapsed < 20.0

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_deep_monomial_sides_pass(self, structure):
        # pencil indices 127-143, whose top coefficients are 2e-11 to
        # 1.4e-10 of the largest: certified bases that a degree read on the
        # scale of the largest coefficient put 3-4 degrees low
        r = gen_fixture(FixtureSpec(seed=1, n=12, p=12, m=12, grade_a=6,
                                    grade_d=6, structure=structure))
        rep = run_all(r)
        statuses = {e.name: e.status for e in rep.entries}
        assert statuses["right-index-shift"] == "pass", statuses
        assert statuses["left-index-match"] == "pass", statuses
        assert statuses["nullvector-degree-law"] == "pass", statuses

    @pytest.mark.parametrize("structure, name", [("zero-column-b", "left-index-match"),
                                                 ("zero-row-c", "right-index-shift")])
    def test_deep_chebyshev_sides_pass(self, structure, name):
        # pencil indices 78 and 79, whose monomial coefficients cancel by
        # about 1e10 near z = 1: scaled by ||v(z)||, the residual of a basis
        # right to working precision read 2.1e-8 and 5.2e-7
        cheb = Basis.CHEBYSHEV1
        r = gen_fixture(FixtureSpec(seed=1, n=20, p=20, m=20, grade_a=2, grade_d=2,
                                    basis_a=cheb, basis_d=cheb, structure=structure))
        entry = {e.name: e for e in run_all(r, seed=1).entries}[name]
        assert entry.status == "pass" and entry.worst_residual <= 1e-14

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
    from ratlin.recover import recover_minimal_basis
    out = {}
    for structure, ba, bd in product(STRUCTURES, Basis, Basis):
        r = gen_fixture(FixtureSpec(seed=1, structure=structure,
                                    basis_a=ba, basis_d=bd))
        sl = build(r, rng=1)
        rec = {"checks": [[e.name, e.status] for e in run_all(r, seed=1).entries],
               "orders": invariant_orders_at_infinity(sl, rng=1)}
        for side in ("right", "left"):
            try:
                rec[side] = recover_minimal_basis(sl, side, rng=1).basis_r.indices
            except RatlinError as exc:
                rec[side] = type(exc).__name__
        out[f"{structure}/{ba.value}/{bd.value}"] = rec
    return out


def test_same_results_on_the_seed1_fixtures():
    """The record was written by
    PYTHONPATH=src:tests python -c "import json, test_verify as t; t.SAME_RESULTS.write_text(json.dumps(t.same_results_record(), indent=1) + '\\n')"
    """
    assert same_results_record() == json.loads(SAME_RESULTS.read_text())
