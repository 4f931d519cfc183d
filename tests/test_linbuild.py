from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ratlin.config import unit_circle_points
from ratlin.dualbases import pair_for
from ratlin.eigsolve import pencil_eigs, polynomial_nullspace
from ratlin.errors import BasisError, DimensionError, PoleError, PreconditionError
from ratlin import linbuild
from ratlin.linbuild import (PencilReadings, Realization, block_pencil, build,
                             check_finite_minimality, check_infinity_minimality,
                             hat_transfer_eval, require_invertible, row_pencil,
                             sample_points, system_eval, transfer_eval)
from ratlin.polymat import Basis, PolyMatrix, numerical_rank
from ratlin.verify import STRUCTURES, FixtureSpec, gen_fixture

from conftest import random_polymatrix, random_realization


class TestRowPencil:
    def test_degree1_at_grade3_constant_blocks(self):
        rng = np.random.default_rng(0)
        c = random_polymatrix(rng, 1, 2, 3)
        pr = pair_for(Basis.MONOMIAL, 3, 3)
        m = row_pencil(c, pr)
        assert np.allclose(m.coeff(1), 0)
        assert np.allclose(m.coeff(0)[:, :3], 0)
        assert np.allclose(m.coeff(0)[:, 3:6], c.coeff(1))
        assert np.allclose(m.coeff(0)[:, 6:], c.coeff(0))

    def test_chebyshev_grade2_recurrence_identity(self):
        d0, d1, d2 = 1.5, -0.25, 2.0
        p = PolyMatrix.from_scalar_coeffs([d0, d1, d2], Basis.CHEBYSHEV1)
        pr = pair_for(Basis.CHEBYSHEV1, 1, 2)
        m = row_pencil(p, pr)
        assert np.allclose(m.coeff(1), [[2 * d2, 0]])
        assert np.allclose(m.coeff(0), [[d1, d0 - d2]])
        # expand against N = [l, 1]: 2 d2 l^2 + d1 l + d0 - d2
        lam = 0.83
        want = d2 * (2 * lam ** 2 - 1) + d1 * lam + d0
        got = (m.eval(lam) @ pr.N.eval(lam).T)[0, 0]
        assert abs(got - want) < 1e-13

    def test_random_grade4_exact_factor(self):
        rng = np.random.default_rng(7)
        p = random_polymatrix(rng, 4, 3, 2)
        pr = pair_for(Basis.MONOMIAL, 2, 4)
        m = row_pencil(p, pr)
        prod = m @ pr.N.T
        diff = prod - p.pad_to_grade(prod.grade)
        assert np.max(np.abs(diff.coeffs)) == 0.0

    def test_basis_mismatch_rejected(self):
        p = PolyMatrix.zero(2, 2, 1, Basis.CHEBYSHEV1)
        with pytest.raises(BasisError):
            row_pencil(p, pair_for(Basis.MONOMIAL, 2, 2))

    def test_grade_too_small_rejected(self):
        p = random_polymatrix(np.random.default_rng(1), 3, 2, 2)
        with pytest.raises(DimensionError):
            row_pencil(p, pair_for(Basis.MONOMIAL, 2, 2))


class TestBuild:
    def test_all_linear_collapses_to_2x2_template(self):
        rng = np.random.default_rng(10)
        r = random_realization(10, n=2, p=2, m=2, grade_a=1, grade_d=1)
        sl = build(r)
        assert sl.grade_a == 1 and sl.grade_d == 1 and sl.s == 0
        assert sl.shape == (4, 4)
        assert np.allclose(sl.block("M_A", 1), r.A.coeff(1))
        assert np.allclose(sl.block("M_C", 0), -r.C.coeff(0))
        assert np.allclose(sl.block("M_D", 1), r.D.coeff(1))
        assert np.allclose(sl.block("M_B", 0), r.B.coeff(0))

    def test_preset_block_layout(self, preset):
        # every block of the 4x4-block display, all degrees equal to 2:
        # [[A2 l + A1, A0 | B2 l + B1, B0], [-I, lI | 0],
        #  [-(C2 l + C1), -C0 | D2 l + D1, D0], [0 | -I, lI]]
        sl = build(preset)
        assert sl.grade_a == 2 and sl.grade_d == 2
        assert sl.shape == (8, 8)
        n = m = 2
        z = np.zeros((2, 2))
        exp0 = np.block([
            [preset.A.coeff(1), preset.A.coeff(0), preset.B.coeff(1), preset.B.coeff(0)],
            [-np.eye(n), z, z, z],
            [-preset.C.coeff(1), -preset.C.coeff(0), preset.D.coeff(1), preset.D.coeff(0)],
            [z, z, -np.eye(m), z]])
        exp1 = np.block([
            [preset.A.coeff(2), z, preset.B.coeff(2), z],
            [z, np.eye(n), z, z],
            [-preset.C.coeff(2), z, preset.D.coeff(2), z],
            [z, z, z, np.eye(m)]])
        assert np.array_equal(sl.L0, exp0)
        assert np.array_equal(sl.L1, exp1)

    def test_deterministic(self):
        r = random_realization(3, n=3, p=2, m=2, grade_a=2, grade_d=3)
        a = build(r, rng=0)
        b = build(r, rng=0)
        assert np.array_equal(a.L0, b.L0) and np.array_equal(a.L1, b.L1)

    def test_upward_grade_override(self):
        r = random_realization(4, grade_a=1, grade_d=1)
        sl = build(r, grade_a=3, grade_d=2)
        assert sl.grade_a == 3 and sl.grade_d == 2
        # identities still hold
        prod = sl.m_a @ sl.pair_a.N.T
        diff = prod - r.A.pad_to_grade(prod.grade)
        assert np.max(np.abs(diff.coeffs)) == 0.0

    def test_rejects_singular_state(self):
        a = PolyMatrix.zero(2, 2, 1)
        r = Realization(A=a, B=PolyMatrix.zero(2, 2, 1),
                        C=PolyMatrix.zero(2, 2, 1), D=PolyMatrix.identity(2))
        with pytest.raises(PreconditionError):
            build(r)

    def test_mixed_bases_across_sides(self):
        r = random_realization(8, basis_a=Basis.MONOMIAL, basis_d=Basis.CHEBYSHEV1,
                               grade_a=2, grade_d=3)
        sl = build(r)
        for mx, x, pair in ((sl.m_a, r.A, sl.pair_a), (sl.m_b, r.B, sl.pair_d),
                            (sl.m_c, r.C, sl.pair_a), (sl.m_d, r.D, sl.pair_d)):
            prod = mx @ pair.N.T
            diff = prod - x.pad_to_grade(prod.grade)
            assert np.max(np.abs(diff.coeffs)) <= 1e-13

    def test_mixed_bases_within_side_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(BasisError):
            Realization(
                A=random_polymatrix(rng, 1, 2, 2, Basis.MONOMIAL),
                B=random_polymatrix(rng, 1, 2, 2, Basis.MONOMIAL),
                C=random_polymatrix(rng, 1, 2, 2, Basis.CHEBYSHEV1),
                D=random_polymatrix(rng, 1, 2, 2, Basis.MONOMIAL))

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_readings_at_infinity_share_the_rank(self, monkeypatch, structure):
        # reversal keeps the normal rank: both sides' readings at infinity,
        # the regular-part size and the gate on both sides take it without
        # sampling the pencil, or its reversal, again
        sl = build(gen_fixture(FixtureSpec(seed=1, structure=structure)))
        rank = sl.rank
        assert rank < min(sl.shape)
        pencil, sample = np.stack([sl.L0, sl.L1]), linbuild.generic_rank

        def refuse(p, *args, **kw):  # the rank-completed pencil has its own rank
            if any(np.array_equal(p.coeffs, c) for c in (pencil, pencil[::-1])):
                raise AssertionError("the pencil's rank was sampled again")
            return sample(p, *args, **kw)

        monkeypatch.setattr(linbuild, "generic_rank", refuse)
        for side in ("right", "left"):
            sl.staircase(side, infinity=True)
            polynomial_nullspace(sl, side)
        assert sl.rank == rank and sl.regular_size is not None

    @pytest.mark.parametrize("key, value, message", [
        ("B", np.nan, "block B: non-finite coefficient (nan+0j) of degree 1 at entry (0, 1)"),
        ("A", np.inf, "block A: non-finite coefficient (inf+0j) of degree 1 at entry (0, 1)")],
        ids=["nan-in-B", "inf-in-A"])
    def test_non_finite_coefficient_rejected(self, preset, key, value, message):
        # a realization built in code passes the same check as one read from JSON
        blocks = {k: getattr(preset, k) for k in "ABCD"}
        coeffs = np.array(blocks[key].coeffs)
        coeffs[1, 0, 1] = value
        blocks[key] = PolyMatrix(coeffs, blocks[key].basis)
        with pytest.raises(ValueError) as exc:
            Realization(**blocks)
        assert str(exc.value) == message
        obj = preset.to_dict()
        obj[key] = blocks[key].to_dict()
        with pytest.raises(ValueError) as exc:
            Realization.from_dict(obj)
        assert str(exc.value) == message


class TestMinimality:
    def test_preset_at_state_eigenvalues(self, preset):
        for lam in (2.0, -1.0, -2.0):
            assert check_finite_minimality(preset, lam) == (True, True)

    def test_uncompensated_rank_drop(self):
        # B = 0, C = 0: at a root of det A both checks fail
        a = PolyMatrix.from_list([np.diag([-1.0, -2.0]), np.eye(2)])  # roots 1, 2
        r = Realization(A=a, B=PolyMatrix.zero(2, 2), C=PolyMatrix.zero(2, 2),
                        D=PolyMatrix.identity(2))
        assert check_finite_minimality(r, 1.0) == (False, False)
        assert check_finite_minimality(r, 5.0) == (True, True)

    def test_random_full_blocks(self):
        r = random_realization(21, n=3, p=2, m=4)
        assert check_finite_minimality(r, 0.37 + 0.11j) == (True, True)

    def test_point_array_matches_pointwise(self, preset):
        """At an array of points the tests are the per-point pairs: the
        preset's computed poles, where both pass, and a realization with
        B = 0 whose poles 1 and 2 fail only the right test, next to a point
        where both pass."""
        state = build(preset).state
        la0, la1 = state.L0, state.L1
        poles = pencil_eigs(PencilReadings(la0, la1)).finite()
        a = PolyMatrix.from_list([np.diag([-1.0, -2.0]), np.eye(2)])
        half = Realization(A=a, B=PolyMatrix.zero(2, 2), C=PolyMatrix.identity(2),
                           D=PolyMatrix.identity(2))
        pts = np.array([1.0, 5.0, 2.0])
        for r, zs in ((preset, poles), (half, pts)):
            assert check_finite_minimality(r, zs) == [
                check_finite_minimality(r, z) for z in zs]
        assert len(poles) == 3
        assert check_finite_minimality(half, pts) == [
            (True, False), (True, True), (True, False)]
        assert check_finite_minimality(preset, np.zeros(0)) == []

    def test_infinity_preset(self, preset):
        assert check_infinity_minimality(preset) == (True, True)

    def test_infinity_linear_state(self):
        # A = I l, C = I, B = I: rev_1 A(0) = I
        n = 2
        r = Realization(A=PolyMatrix.from_list([np.zeros((n, n)), np.eye(n)]),
                        B=PolyMatrix.identity(n), C=PolyMatrix.identity(n),
                        D=PolyMatrix.identity(n))
        assert check_infinity_minimality(r) == (True, True)

    @pytest.mark.parametrize("basis", list(Basis))
    def test_infinity_closed_form_matches_reversal_and_evaluation(self, basis,
                                                                 monkeypatch):
        # the stacked top coefficients, taken in closed form, against the
        # grade-g reversal of each block evaluated at 0, at the degree and
        # above it (a raised grade, whose reversal vanishes at 0), with
        # full-rank and rank-deficient leading coefficients
        ranked = []
        monkeypatch.setattr(linbuild, "numerical_rank",
                            lambda mat: ranked.append(mat) or numerical_rank(mat))
        verdicts = set()
        for seed, raise_a, raise_d, drop in product(range(3), (0, 1), (0, 2), "-ABC"):
            r = random_realization(seed, n=2, p=3, m=2, grade_a=2, grade_d=3,
                                   basis_a=basis, basis_d=basis)
            if drop != "-":
                coeffs = getattr(r, drop).coeffs.copy()
                coeffs[-1][:, 0] = 0.0
                r = Realization(**{k: getattr(r, k) for k in "ABCD" if k != drop},
                                **{drop: PolyMatrix(coeffs, basis)})
            da, dd = 2 + raise_a, 3 + raise_d
            a0, c0, b0 = (p.reversal(g).eval(0.0)
                          for p, g in ((r.A, da), (r.C, da), (r.B, dd)))
            want = [np.vstack([a0, c0]), np.hstack([a0, b0])]
            ranked.clear()
            got = check_infinity_minimality(r, da, dd)
            assert len(ranked) == 2
            assert all(np.array_equal(x, y) for x, y in zip(ranked, want))
            assert got == tuple(numerical_rank(mat) == r.n for mat in want)
            verdicts.add(got)
        assert verdicts == {(True, True), (True, False), (False, True), (False, False)}

    def test_infinity_monic_state_ignores_c(self):
        rng = np.random.default_rng(3)
        a = PolyMatrix.from_list([rng.standard_normal((2, 2)),
                                  rng.standard_normal((2, 2)), np.eye(2)])
        c = random_polymatrix(rng, 1, 3, 2).pad_to_grade(2)
        r = Realization(A=a, B=random_polymatrix(rng, 2, 2, 2), C=c,
                        D=random_polymatrix(rng, 2, 3, 2))
        left, _ = check_infinity_minimality(r)
        assert left is True


BASES = st.sampled_from([Basis.MONOMIAL, Basis.CHEBYSHEV1])


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
       grade=st.integers(1, 3), structure=st.sampled_from(STRUCTURES),
       basis_a=BASES, basis_d=BASES, angle=st.floats(0.0, 2.0 * np.pi),
       radius=st.floats(0.05, 20.0))
def test_minimal_off_the_poles(seed, n, grade, structure, basis_a, basis_d,
                               angle, radius):
    """[A; C] and [A, B] have rank n wherever A is invertible, so the finite
    checks pass at every point off the poles: what lets
    `StructuredLinearization.minimality` test only at the poles."""
    r = gen_fixture(FixtureSpec(seed=seed, n=n, grade_a=grade, grade_d=grade,
                                basis_a=basis_a, basis_d=basis_d,
                                structure=structure))
    z = radius * np.exp(1j * angle)
    try:
        require_invertible(r.A.eval(z), z)
    except PoleError:
        assume(False)
    assert check_finite_minimality(r, z) == (True, True)


def test_linearization_minimality_is_at_the_poles(preset):
    sl = build(preset)
    rep = sl.minimality
    assert list(rep.finite_ok_at) == sl.state_spectrum.finite().tolist()
    assert len(rep.finite_ok_at) == 3
    assert rep.all_ok and rep.grades == (sl.grade_a, sl.grade_d)
    assert sl.minimality is rep


def test_minimality_report_aggregation(preset):
    from ratlin.linbuild import minimality_report
    rep = minimality_report(preset, [2.0, -1.0, -2.0, 0.3 + 0.4j])
    assert rep.all_ok
    assert rep.grades == (2, 2)
    assert rep.finite_ok_at[complex(2.0)] == (True, True)
    obj = rep.to_dict()
    assert len(obj["finite"]) == 4 and obj["infinity"] == [True, True]


class TestTransfer:
    def test_zero_b_reduces_to_d(self):
        r = random_realization(30, n=2, p=3, m=2)
        r0 = Realization(A=r.A, B=PolyMatrix.zero(2, 2, r.B.grade), C=r.C, D=r.D)
        lam = 1.3 - 0.4j
        assert np.allclose(transfer_eval(r0, lam), r.D.eval(lam))

    def test_preset_value_at_one(self, preset):
        got = transfer_eval(preset, 1.0)
        assert np.allclose(got, [[1.0, -3.0], [0.0, 1.0]], atol=1e-12)

    def test_scalar_inverse(self):
        r = Realization(A=PolyMatrix.from_scalar_coeffs([0, 1]),
                        B=PolyMatrix.from_scalar_coeffs([1]),
                        C=PolyMatrix.from_scalar_coeffs([1]),
                        D=PolyMatrix.from_scalar_coeffs([0]))
        assert abs(transfer_eval(r, 2.0)[0, 0] - 0.5) < 1e-15

    def test_pole_raises(self, preset):
        with pytest.raises(PoleError):
            transfer_eval(preset, 2.0)


class TestHatTransfer:
    def test_rho_zero_equals_transfer(self):
        r = random_realization(41, grade_a=1, grade_d=1)
        sl = build(r)
        lam = 0.4 + 0.6j
        assert np.allclose(hat_transfer_eval(sl, lam), transfer_eval(r, lam))

    def test_one_sided_product_identity(self, preset):
        sl = build(preset)
        for lam in (0.5 + 0.2j, 1.4, -3.0):
            rhat = hat_transfer_eval(sl, lam)
            nd = sl.pair_d.N.eval(lam)
            rv = transfer_eval(preset, lam)
            target = np.vstack([rv, np.zeros((sl.rho_d * preset.m, preset.m))])
            assert np.max(np.abs(rhat @ nd.T - target)) < 1e-10

    def test_schur_complement_oracle(self):
        rng = np.random.default_rng(52)
        r = random_realization(52, n=3, p=2, m=2, grade_a=3, grade_d=2)
        sl = build(r)
        na = sl.blocks["L_A"][1]
        for _ in range(10):
            lam = np.exp(2j * np.pi * rng.uniform()) * 1.2
            lz = sl.pencil_eval(lam)
            schur = lz[na:, na:] - lz[na:, :na] @ np.linalg.solve(lz[:na, :na],
                                                                  lz[:na, na:])
            got = hat_transfer_eval(sl, lam)
            assert np.max(np.abs(got - schur)) <= 1e-10 * max(1.0, np.max(np.abs(schur)))


def test_rank_relation_random_fixtures():
    for seed in range(6):
        r = random_realization(seed + 100, n=2, p=3, m=2, grade_a=2, grade_d=3)
        sl = build(r)
        rng = np.random.default_rng(seed)
        lam = np.exp(2j * np.pi * rng.uniform()) * 1.1
        lhs = numerical_rank(sl.pencil_eval(lam))
        rhs = numerical_rank(transfer_eval(r, lam)) + r.n + sl.s
        assert lhs == rhs


def test_block_pencil_matches_state_pencil(preset):
    sl = build(preset)
    l0, l1, pair = block_pencil(preset.A)
    la0, la1 = sl.state.L0, sl.state.L1
    assert np.array_equal(l0, la0)
    assert np.array_equal(l1, la1)


def test_realization_json_round_trip(preset):
    again = Realization.from_dict(preset.to_dict())
    for name in "ABCD":
        assert np.array_equal(getattr(again, name).coeffs,
                              getattr(preset, name).coeffs)


class TestSamplePoints:
    def test_at_most_count_points_within_the_cond_bound(self):
        r = random_realization(4, n=3, grade_a=3)
        pts = sample_points(r, np.random.default_rng(9), 3, 0.07, 50,
                            cond_max=6.0)
        assert len(pts) == 3
        for z in pts:
            assert np.linalg.cond(r.A.eval(z)) <= 6.0
            transfer_eval(r, z)  # a kept point is never a pole

    def test_same_seed_same_points(self):
        r = random_realization(5)
        first, second = (sample_points(r, np.random.default_rng(3), 5, 0.11,
                                       50, cond_max=1e7) for _ in range(2))
        assert first == second

    def test_each_try_draws_one_point(self):
        r = random_realization(6)
        rng = np.random.default_rng(8)
        assert sample_points(r, rng, 5, 0.05, 40, cond_max=1.0) == []
        ref = np.random.default_rng(8)
        for _ in range(40):
            unit_circle_points(ref, 1)
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("case, count, step, tries, cond_max", [
        ("pole-first", 5, 0.07, 60, 1e6), ("pole-first", 3, 0.11, 50, None),
        (4, 3, 0.07, 50, 6.0), (5, 5, 0.11, 50, 1e7), (6, 5, 0.05, 40, 1.0),
        (7, 10, 0.07, 12, 2.0)])
    def test_batches_match_the_try_by_try_loop(self, case, count, step, tries,
                                               cond_max):
        # the same points, and the generator left in the same state
        seed = 11 if case == "pole-first" else case
        if case == "pole-first":
            # A(z) = diag(z - z0, z + 3), z0 the first try's point (radius 1)
            z0 = unit_circle_points(np.random.default_rng(seed), 1)[0]
            eye = PolyMatrix.identity(2)
            r = Realization(A=PolyMatrix(np.array([np.diag([-z0, 3.0]), np.eye(2)])),
                            B=eye, C=eye, D=eye)
            with pytest.raises(PoleError):
                require_invertible(r.A.eval(z0), z0)
        else:
            r = random_realization(case, n=3, grade_a=3)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = sample_points(r, rng, count, step, tries, cond_max)
        assert got == _pointwise_sample_points(r, ref, count, step, tries, cond_max)
        assert rng.random() == ref.random()
        if case == "pole-first":
            assert got and z0 not in got


def _pointwise_sample_points(r, rng, count, step, max_tries, cond_max):
    """sample_points as one evaluation and one SVD per try."""
    out = []
    for k in range(max_tries):
        if len(out) == count:
            break
        z = unit_circle_points(rng, 1)[0] * (1.0 + step * k)
        try:
            sv = require_invertible(r.A.eval(z), z)
        except PoleError:
            continue
        if cond_max is None or sv[0] / sv[-1] <= cond_max:
            out.append(z)
    return out

def test_system_matrix_schur_complement_is_transfer():
    r = random_realization(7, n=3, p=2, m=4, grade_a=2, grade_d=3)
    z = 0.3 + 0.8j
    p = system_eval(r, z)
    assert p.shape == (r.n + r.p, r.n + r.m)
    a, b, c, d = p[:r.n, :r.n], p[:r.n, r.n:], p[r.n:, :r.n], p[r.n:, r.n:]
    assert np.allclose(d - c @ np.linalg.solve(a, b), transfer_eval(r, z))
