import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from ratlin.errors import PoleError, PreconditionError, RatlinError
from ratlin.eigsolve import classify, pencil_eigs
from ratlin.linbuild import Realization, build, hat_transfer_eval, transfer_eval
from ratlin import recover
from ratlin.polymat import Basis, PolyMatrix
from ratlin.recover import (eigenpair, factorization_residuals,
                            lift_left_eigvec, lift_right_eigvec,
                            recover_left_eigvec, recover_minimal_basis,
                            recover_right_eigvec)
from ratlin.config import MATCH_TOL, RESIDUAL_TOL
from ratlin.verify import FixtureSpec, gen_fixture, preset_cross_coupled

from conftest import random_polymatrix, random_realization


def one_over_lambda_minus_one_wide():
    """R = [1/(l-1), 1/(l-1)], a 1x2 singular rational matrix."""
    mk = PolyMatrix.from_scalar_coeffs
    return Realization(
        A=mk([-1, 1]),
        B=PolyMatrix.from_list([np.array([[1.0, 1.0]])]),
        C=mk([1]),
        D=PolyMatrix.from_list([np.array([[0.0, 0.0]])]))


def _pole_among_the_eigenvalues() -> Realization:
    """R = (l - 2) I_2 realized with A = l - 1 and B = C = 0: the pencil's
    eigenvalues are the pole 1, where A(1) = 0, and 2 twice."""
    return Realization(A=PolyMatrix.from_scalar_coeffs([-1, 1]),
                       B=PolyMatrix.zero(1, 2), C=PolyMatrix.zero(2, 1),
                       D=PolyMatrix.from_list([-2 * np.eye(2), np.eye(2)]))


def _zero_slice_off_the_poles() -> Realization:
    """B = C = 0 with A of norm about 1 and D of norm about 1e6: the pencil
    is block diagonal, and one of its eigenvalues at a pole of A is computed
    far enough off the pole for A to pass the invertibility test there.  Its
    vector lies in the state block, so its slice of x is numerically zero."""
    rng = np.random.default_rng(22)
    a, d = (scale * (rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2)))
            for scale in (1.0, 1e6))
    return Realization(A=PolyMatrix(a), B=PolyMatrix.zero(2, 2, 1),
                       C=PolyMatrix.zero(2, 2, 1), D=PolyMatrix(d))


OFF_MEMO = {"pole": _pole_among_the_eigenvalues, "zero-slice": _zero_slice_off_the_poles}


class TestEigvecMaps:
    def test_lift_zero_is_zero(self, preset):
        sl = build(preset)
        out = lift_right_eigvec(sl, 0.5, np.zeros(2))
        assert np.allclose(out, 0)

    def test_lift_with_zero_b(self):
        r = random_realization(61, n=2, p=2, m=2, grade_a=2, grade_d=2)
        r0 = Realization(A=r.A, B=PolyMatrix.zero(2, 2, 2), C=r.C, D=r.D)
        sl = build(r0)
        x = np.array([1.0, 2.0])
        out = lift_right_eigvec(sl, 0.7, x)
        na = sl.blocks["L_A"][1]
        assert np.allclose(out[:na], 0)
        assert np.allclose(out[na:], sl.pair_d.N.eval(0.7).T @ x)

    def test_recover_then_lift_round_trip(self, preset):
        sl = build(preset)
        lam = 0.3 + 0.1j
        x = np.array([0.3 - 1j, 2.0])
        back = recover_right_eigvec(sl, lam, lift_right_eigvec(sl, lam, x))
        assert np.max(np.abs(back - x)) <= 1e-13 * np.max(np.abs(x))
        y = np.array([1.0, -2.0 + 0.5j])
        back_l = recover_left_eigvec(sl, lam, lift_left_eigvec(sl, lam, y))
        assert np.max(np.abs(back_l - y)) <= 1e-13 * np.max(np.abs(y))

    def test_rho_zero_slice_is_verbatim(self):
        r = random_realization(62, grade_a=1, grade_d=1)
        sl = build(r)
        assert sl.rho_d == 0
        x_tilde = np.arange(1.0, 5.0) + 1j
        x = recover_right_eigvec(sl, 0.2, x_tilde)
        assert np.array_equal(x, x_tilde[-2:])

    def test_lifted_vector_annihilates_pencil(self, preset):
        sl = build(preset)
        lam = (-1 + np.sqrt(5)) / 2  # a zero of the rational matrix
        x_tilde, _ = _qz_pair_near(pencil_eigs(sl, vectors=True), lam)
        x = recover_right_eigvec(sl, lam, x_tilde)
        lifted = lift_right_eigvec(sl, lam, x)
        assert np.linalg.norm(sl.pencil_eval(lam) @ lifted) <= 1e-10 * np.linalg.norm(lifted)

    def test_preset_eigenpair_residuals(self, preset):
        sl = build(preset)
        for lam in [(-1 + np.sqrt(5)) / 2, (-1 - np.sqrt(5)) / 2]:
            ep = eigenpair(sl, lam)
            assert ep.residual_right <= 1e-8
            assert ep.residual_left <= 1e-8

    def test_left_middle_block_is_identity_map(self, preset):
        sl = build(preset)
        lam = 1.7
        y = np.array([0.5, -1.25 + 1j])
        lifted = lift_left_eigvec(sl, lam, y)
        na = sl.blocks["L_A"][1]
        assert np.allclose(lifted[na:na + 2], y)

    def test_recover_at_pole_raises(self, preset):
        sl = build(preset)
        with pytest.raises(PoleError):
            lift_right_eigvec(sl, 2.0, np.ones(2))

    def test_zero_slice_rejected(self, preset):
        sl = build(preset)
        bad = np.zeros(8, dtype=complex)
        bad[0] = 1.0
        with pytest.raises(RatlinError):
            recover_right_eigvec(sl, 0.5, bad)


class TestEigenpair:
    def test_one_qz_per_linearization(self, monkeypatch, qz_runs):
        # classify reads the full pencil's one QZ, without vectors, and every
        # eigenpair comes from one stacked SVD of R over its eigenvalues
        sl = build(gen_fixture(FixtureSpec(seed=2, grade_a=4, grade_d=4)))
        svds, solves = [], []
        svd, solve = np.linalg.svd, np.linalg.solve

        def counting_svd(a, *args, **kwargs):
            # rank and invertibility tests take singular values only
            if kwargs.get("compute_uv", True):
                svds.append(a.shape)
            return svd(a, *args, **kwargs)

        def counting_solve(a, b):
            solves.append(a.shape)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setattr(np.linalg, "solve", counting_solve)
        zeros = [z.value for z in classify(sl).zeros if z.classified]
        assert len(zeros) == 16
        for lam in zeros:
            ep = eigenpair(sl, lam)
            assert max(ep.residual_right, ep.residual_left) <= 1e-8
        # the state pencil's QZ for the poles, and one full-pencil QZ
        assert qz_runs == [(sl.state.L0.shape, False), (sl.shape, False)]
        # one stacked solve and one stacked SVD of the (k, p, m) stack of R,
        # over every finite eigenvalue of the pencil
        stack = (len(sl.spectrum.finite()), 2, 2)
        assert svds == solves == [stack]
        assert stack[0] >= 16

    def test_off_spectrum_point_takes_the_smallest_singular_pair(self, preset):
        sl = build(preset)
        lam = 0.4 + 0.3j  # neither a zero nor a pole of the preset
        ep = eigenpair(sl, lam)
        rv = transfer_eval(sl.realization, lam)
        u, _, vh = np.linalg.svd(rv)
        x, y = vh[-1].conj(), u[:, -1].conj()
        assert np.array_equal(ep.x, x)
        assert np.array_equal(ep.yT, y)
        assert ep.residual_right == float(np.linalg.norm(rv @ x) / np.linalg.norm(x))
        assert ep.residual_left == float(np.linalg.norm(y @ rv) / np.linalg.norm(y))
        # no vector makes R(lam) small there, and eta says so
        assert min(ep.eta_right, ep.eta_left) > 1e-3

    @pytest.mark.parametrize("spec", [
        FixtureSpec(seed=seed, grade_a=grade, grade_d=grade, basis_a=basis,
                    basis_d=basis)
        for seed in (1, 2, 3) for basis in Basis for grade in (10, 12)] + [
        # at n = 12 products with a strided R(lambda) round differently
        FixtureSpec(seed=1, n=12, p=12, m=12, grade_a=6, grade_d=6),
        "pole", "zero-slice"])
    def test_memo_matches_the_per_point_path(self, spec):
        r = gen_fixture(spec) if isinstance(spec, FixtureSpec) else OFF_MEMO[spec]()
        sl = build(r)
        memo = sl.eigenpairs
        left_out = []
        for lam in dict.fromkeys(sl.spectrum.finite().tolist()):
            alone = recover._eigenpairs(sl, np.array([lam]))
            if lam not in memo:  # a pole
                assert alone == {}
                with pytest.raises(RatlinError) as exc:
                    eigenpair(sl, lam)
                left_out.append(exc.type)
                continue
            assert _bits(memo[lam]) == _bits(alone[lam])
            assert eigenpair(sl, lam) is memo[lam]
            assert not memo[lam].x.flags.writeable  # shared by every caller
        # classify reads its zeros off sl.spectrum, so every zero it
        # certifies is answered from the memo
        zeros = [z.value for z in classify(sl).zeros
                 if z.classified and not z.near_pole]
        assert zeros and all(lam in memo for lam in zeros)
        if not isinstance(spec, FixtureSpec):  # the pole alone is left out
            assert [e.__name__ for e in left_out] == ["PoleError"]
        if spec == "zero-slice":
            # the eigenvalue whose QZ vector slices to zero is no zero of R,
            # and its pair's eta says so
            etas = sorted(max(ep.eta_right, ep.eta_left) for ep in memo.values())
            assert len(etas) == 3 and etas[1] <= 1e-14 and etas[2] > 0.1

    def test_large_residual_pair_is_judged_by_eta(self):
        # the zero of test_eigenvector_recovery_far_from_the_origin: at
        # |lambda| about 78.6, ||R(lambda)||_2 is about 2.7e7, and even the
        # smallest singular pair's unscaled residuals are about 3e-9, yet its
        # eta is roundoff
        path = Path(__file__).parent / "data" / "battery_seed4_regular_cheb.json"
        sl = build(Realization.from_dict(json.loads(path.read_text())), rng=1)
        zeros = [z.value for z in classify(sl, rng=1).zeros]
        assert len(zeros) == 12 and all(lam in sl.eigenpairs for lam in zeros)
        (lam,) = [lam for lam in zeros if abs(lam) > 70]
        ep = eigenpair(sl, lam)
        assert ep is sl.eigenpairs[lam]
        assert min(ep.residual_right, ep.residual_left) > 1e-9
        assert max(ep.eta_right, ep.eta_left) <= 1e-14

    def test_pole_among_the_eigenvalues(self):
        # R = (l - 2) I_2 realized with A = l - 1 and B = C = 0: the pencil's
        # eigenvalues are the pole 1, where A is singular, and 2 twice
        sl = build(_pole_among_the_eigenvalues())
        pole, zero, twin = sl.spectrum.finite()
        assert (pole, zero, twin) == (1, 2, 2)
        assert list(sl.eigenpairs) == [zero]  # the stack did not fail at the pole
        ep = eigenpair(sl, zero)
        assert ep is sl.eigenpairs[zero]
        # equal eigenvalues share the pair at the first of them
        assert _bits(ep) == _bits(recover._eigenpairs(sl, np.array([zero]))[zero])
        assert ep.residual_right == ep.residual_left == 0.0
        # the memo answers bit-identical points only: 2 + 0j != 2 - 0j bitwise
        assert repr(complex(zero)) == "(2-0j)"
        assert repr(eigenpair(sl, 2.0).value) == "(2+0j)"
        with pytest.raises(PoleError) as exc:
            eigenpair(sl, pole)
        assert str(exc.value) == (f"state matrix singular at lambda={pole}: pole or "
                                  "state eigenvalue; use reversal/limit-based "
                                  "routines instead")

    @pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
    @pytest.mark.parametrize("grade", [10, 12])
    def test_backward_error_at_high_grade(self, basis, grade):
        # monomial grade 12 misses the unscaled 1e-8 residual gate (1.3e-8),
        # while relative to ||R(lambda)||_2 every pair is near roundoff
        spec = FixtureSpec(seed=2, grade_a=grade, grade_d=grade, basis_a=basis,
                           basis_d=basis)
        sl = build(gen_fixture(spec))
        pairs = [eigenpair(sl, z.value) for z in classify(sl).zeros
                 if z.classified and not z.near_pole]
        assert len(pairs) == 4 * grade
        assert max(max(ep.eta_right, ep.eta_left) for ep in pairs) <= 1e-12
        assert pairs[0].to_dict()["eta"] == [pairs[0].eta_right, pairs[0].eta_left]

    @pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
    def test_backward_error_of_a_scalar_realization(self, basis):
        # at a zero of a 1 x 1 R, ||R(lambda)||_2 is roundoff itself, and
        # scaled by it eta was 1 whatever the vector; R(lambda) counts as zero
        # there, so eta is the unscaled residual
        spec = FixtureSpec(seed=1, n=2, p=1, m=1, basis_a=basis, basis_d=basis)
        sl = build(gen_fixture(spec))
        pairs = [eigenpair(sl, z.value) for z in classify(sl).zeros
                 if z.classified and not z.near_pole]
        assert len(pairs) == 6
        for ep in pairs:
            assert (ep.eta_right, ep.eta_left) == (ep.residual_right,
                                                   ep.residual_left)
            assert max(ep.eta_right, ep.eta_left) <= 1e-12

    @pytest.mark.parametrize("spec", ["preset"] + [
        FixtureSpec(seed=1, n=n, p=n, m=n, grade_a=grade, grade_d=grade,
                    basis_a=basis, basis_d=basis)
        for basis in Basis for n in (2, 6) for grade in range(2, 9)])
    def test_sliced_qz_pairs_recover_the_eigenpairs(self, spec):
        # the paper's recovery theorem: at every certified zero, the blocks
        # of the pencil's QZ vectors that recover_right_eigvec and
        # recover_left_eigvec slice are eigenvectors of R; eigenpair's
        # smallest singular pair of R(lambda) is parallel to them at simple
        # zeros and has no larger backward error
        sl = build(preset_cross_coupled() if spec == "preset" else gen_fixture(spec))
        spectrum, qz = sl.spectrum.finite(), pencil_eigs(sl, vectors=True)
        eps = np.finfo(float).eps
        zeros = [z.value for z in classify(sl).zeros if z.classified and not z.near_pole]
        assert zeros
        simple = 0
        for lam in zeros:
            x_tilde, y_tilde = _qz_pair_near(qz, lam)
            x = recover_right_eigvec(sl, lam, x_tilde)
            y = recover_left_eigvec(sl, lam, y_tilde)
            rv = transfer_eval(sl.realization, lam)
            norm = np.linalg.norm(rv, 2)
            eta_right = np.linalg.norm(rv @ x) / (norm * np.linalg.norm(x))
            eta_left = np.linalg.norm(y @ rv) / (norm * np.linalg.norm(y))
            assert max(eta_right, eta_left) <= RESIDUAL_TOL
            ep = eigenpair(sl, lam)
            assert ep.eta_right <= eta_right + 8 * eps
            assert ep.eta_left <= eta_left + 8 * eps
            if np.sum(np.abs(spectrum - lam) <= MATCH_TOL * max(1.0, abs(lam))) == 1:
                simple += 1
                for a, b in ((x, ep.x), (y, ep.yT)):
                    bound = (1 - 1e-8) * np.linalg.norm(a) * np.linalg.norm(b)
                    assert abs(np.vdot(a, b)) >= bound
        assert simple >= len(zeros) - 2  # the preset's double zero at 0


def _qz_pair_near(pe, lam) -> tuple:
    """(x_tilde, y_tilde^T) of the finite pair of the QZ with vectors `pe`
    nearest lam, each scaled to unit norm as scipy.linalg.eig scales it."""
    fin = np.flatnonzero(pe._finite_mask())
    i = fin[np.argmin(np.abs(pe.alphas[fin] / pe.betas[fin] - lam))]
    x, y = (v[:, i] / scipy.linalg.norm(v[:, i]) for v in (pe.right_vectors,
                                                            pe.left_vectors))
    return x, y.conj()  # vl^H L = 0


def _bits(ep) -> tuple:
    """Every field of a pair, compared bit for bit."""
    return (repr(ep.value), ep.x.tobytes(), ep.yT.tobytes(),
            *(float(v).hex() for v in (ep.residual_right, ep.residual_left,
                                       ep.eta_right, ep.eta_left)))


def _factorization_residuals_at(sl, lam) -> tuple:
    """The two residuals at one point, written out with 2-D arrays only."""
    r = sl.realization
    rv = transfer_eval(r, lam)
    rhat = hat_transfer_eval(sl, lam)
    nd = sl.pair_d.N.eval(lam)
    target = np.vstack([rv, np.zeros((sl.rho_d * r.m, r.m), dtype=complex)])
    right = float(np.linalg.norm(rhat @ nd.T - target))
    selector = np.hstack([np.eye(r.p, dtype=complex),
                          -rhat[:r.p] @ sl.pair_d.Nhat.eval(lam).T])
    left = float(np.linalg.norm(selector @ rhat - rv @ sl.pair_d.Khat.eval(lam)))
    scale = max(1.0, float(np.linalg.norm(rhat)) * max(1.0, float(np.linalg.norm(nd))))
    return right / scale, left / scale


class TestFactorizationResiduals:
    def test_rho_zero_exact(self):
        r = random_realization(70, grade_a=1, grade_d=1)
        sl = build(r)
        rres, lres = factorization_residuals(sl, 0.9 + 0.4j)
        assert rres <= 1e-12 and lres <= 1e-12

    def test_preset_ten_points(self, preset):
        sl = build(preset)
        rng = np.random.default_rng(4)
        for _ in range(10):
            lam = 1.2 * np.exp(2j * np.pi * rng.uniform())
            rres, lres = factorization_residuals(sl, lam)
            assert max(rres, lres) <= 1e-10

    def test_random_mixed_basis(self):
        r = random_realization(71, n=3, p=2, m=2, grade_a=2, grade_d=3,
                               basis_a=Basis.CHEBYSHEV1, basis_d=Basis.MONOMIAL)
        sl = build(r)
        rng = np.random.default_rng(5)
        for _ in range(10):
            lam = 1.1 * np.exp(2j * np.pi * rng.uniform())
            rres, lres = factorization_residuals(sl, lam)
            assert max(rres, lres) <= 1e-10

    @pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
    def test_point_array_matches_each_point(self, basis, monkeypatch):
        r = random_realization(72, n=3, p=2, m=2, grade_a=3, grade_d=4,
                               basis_a=basis, basis_d=basis)
        sl = build(r)
        pts = 1.3 * np.exp(2j * np.pi * np.random.default_rng(6).uniform(size=10))
        each = [_factorization_residuals_at(sl, z) for z in pts]
        solves = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda a, b: solves.append(a.shape) or solve(a, b))
        stacked = factorization_residuals(sl, pts)
        assert [tuple(v.hex() for v in pair) for pair in stacked] \
            == [tuple(v.hex() for v in pair) for pair in each]
        assert solves == [(10, 3, 3)]
        assert factorization_residuals(sl, pts[:0]) == []


class TestMinimalBases:
    def test_wide_one_over_lambda(self):
        sl = build(one_over_lambda_minus_one_wide())
        rec = recover_minimal_basis(sl, "right")
        assert rec.basis_l.indices == [sl.rho_d]
        assert rec.basis_r.indices == [0]
        vec = rec.basis_r.vectors.coeffs[0, :, 0]
        # proportional to [1, -1]
        assert abs(vec[0] + vec[1]) < 1e-10
        assert rec.diagnostics["ok"]
        assert rec.diagnostics["degree_consistent"]

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_slice_zero_at_its_degree_is_not_degree_consistent(self, monkeypatch,
                                                              side):
        # the pencil basis with the slice of R's basis zeroed at its
        # theoretical degree, as when the theorem's degree does not hold
        sl = build(gen_fixture(FixtureSpec(seed=11, n=2, p=3, m=3,
                                           structure="zero-column-b")))
        nullspace = recover.polynomial_nullspace

        def spoiled(*args, **kwargs):
            res = nullspace(*args, **kwargs)
            coeffs = np.array(res.vectors.coeffs)
            d = res.indices[-1]
            if side == "right":
                coeffs[d - sl.rho_d, sl.shape[1] - sl.realization.m:, -1] = 0.0
            else:
                na = sl.blocks["L_A"][1]
                coeffs[d, -1, na:na + sl.realization.p] = 0.0
            return dataclasses.replace(res, vectors=PolyMatrix(coeffs))

        assert recover_minimal_basis(sl, side, rng=1).diagnostics["degree_consistent"]
        monkeypatch.setattr(recover, "polynomial_nullspace", spoiled)
        assert not recover_minimal_basis(sl, side, rng=1).diagnostics["degree_consistent"]

    def test_left_transpose_of_wide(self):
        base = one_over_lambda_minus_one_wide()
        r = Realization(A=base.A, B=base.C.T, C=base.B.T, D=base.D.T)
        sl = build(r)
        rec = recover_minimal_basis(sl, "left")
        assert rec.basis_l.indices == [0]
        assert rec.basis_r.indices == [0]
        assert rec.shift == 0
        vec = rec.basis_r.vectors.coeffs[0, 0, :]
        assert abs(vec[0] + vec[1]) < 1e-10
        assert rec.diagnostics["ok"]

    def test_regular_input_gives_empty(self, preset):
        sl = build(preset)
        right = recover_minimal_basis(sl, "right")
        left = recover_minimal_basis(sl, "left")
        assert right.basis_r.indices == [] and left.basis_r.indices == []
        # the general path: a grade-0 stack of no vectors, residual 0.0
        assert right.basis_r.vectors.coeffs.shape == (1, sl.realization.m, 0)
        assert left.basis_r.vectors.coeffs.shape == (1, 0, sl.realization.p)
        for rec in (right, left):
            assert rec.diagnostics == {
                "ok": True, "degree_consistent": True, "nullspace_residual": 0.0,
                "pointwise_full_rank": True, "reduced_full_rank": True}

    def test_zero_column_structure(self):
        rng = np.random.default_rng(81)
        b = random_polymatrix(rng, 2, 2, 3).coeffs.copy()
        d = random_polymatrix(rng, 2, 2, 3).coeffs.copy()
        b[:, :, -1] = 0
        d[:, :, -1] = 0
        r = Realization(A=random_polymatrix(rng, 2, 2, 2),
                        B=PolyMatrix(b),
                        C=random_polymatrix(rng, 2, 2, 2),
                        D=PolyMatrix(d))
        sl = build(r)
        rec = recover_minimal_basis(sl, "right")
        assert rec.basis_l.indices == [sl.rho_d]
        assert rec.basis_r.indices == [0]
        # the constant null vector is e_m up to scale
        vec = rec.basis_r.vectors.coeffs[0, :, 0]
        assert np.argmax(np.abs(vec)) == 2
        assert np.max(np.abs(vec[:2])) <= 1e-10 * abs(vec[2])

    def test_normalization_pivot_is_one(self):
        sl = build(one_over_lambda_minus_one_wide())
        rec = recover_minimal_basis(sl, "right")
        top = rec.basis_r.vectors.coeffs[rec.basis_r.indices[-1], :, 0]
        pivot = top[np.argmax(np.abs(top))]
        assert abs(pivot - 1.0) < 1e-12

    def test_row_reduced_recovered_left_basis(self):
        rng = np.random.default_rng(83)
        c = random_polymatrix(rng, 2, 3, 2).coeffs.copy()
        d = random_polymatrix(rng, 2, 3, 3).coeffs.copy()
        c[:, -1, :] = 0
        d[:, -1, :] = 0
        r = Realization(A=random_polymatrix(rng, 2, 2, 2), B=random_polymatrix(rng, 2, 2, 3),
                        C=PolyMatrix(c), D=PolyMatrix(d))
        sl = build(r)
        rec = recover_minimal_basis(sl, "left")
        assert rec.diagnostics["reduced_full_rank"]
        assert rec.diagnostics["pointwise_full_rank"]
        assert rec.basis_r.indices == [0]

    def test_precondition_violation_raises(self):
        # C = 0 with a singular R: the left rank condition collapses at the
        # state eigenvalues, so right recovery must refuse
        rng = np.random.default_rng(84)
        b = random_polymatrix(rng, 2, 2, 2).coeffs.copy()
        d = random_polymatrix(rng, 2, 2, 2).coeffs.copy()
        b[:, :, -1] = 0
        d[:, :, -1] = 0
        r = Realization(A=random_polymatrix(rng, 2, 2, 2),
                        B=PolyMatrix(b), C=PolyMatrix.zero(2, 2, 2),
                        D=PolyMatrix(d))
        sl = build(r)
        with pytest.raises(PreconditionError):
            recover_minimal_basis(sl, "right")


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_left_recovery_matches_right_recovery_of_transpose(seed):
    """Left minimal indices of R equal the right ones of R^T, realized as
    (A^T, C^T, B^T, D^T); here R has a zero last row."""
    r = gen_fixture(FixtureSpec(seed=seed, structure="zero-row-c"))
    rt = Realization(A=r.A.T, B=r.C.T, C=r.B.T, D=r.D.T)
    left = recover_minimal_basis(build(r, rng=seed), "left", rng=seed)
    right = recover_minimal_basis(build(rt, rng=seed), "right", rng=seed)
    assert left.basis_r.indices == right.basis_r.indices == [0]
    assert left.diagnostics["ok"] and right.diagnostics["ok"]
    assert np.allclose(left.basis_r.vectors.T.coeffs, right.basis_r.vectors.coeffs)
