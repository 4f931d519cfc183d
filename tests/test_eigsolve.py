import json
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ratlin import eigsolve
from ratlin.errors import PreconditionError, RatlinError
from ratlin.eigsolve import (certify_minimal_basis, classify,
                             invariant_orders_at_infinity,
                             partial_multiplicities_at, pencil_eigs,
                             pencil_is_regular,
                             polynomial_nullspace, rational_rank, vector_degree)
from ratlin.linbuild import Realization, build
from ratlin.polymat import Basis, PolyMatrix, generic_rank
from ratlin.verify import STRUCTURES, FixtureSpec, gen_fixture

from conftest import (l_block, match_multisets, planted_kronecker,
                      poly_det_coeffs, random_polymatrix, random_realization)


ORDERS = Path(__file__).parent / "data" / "infinity_orders_deficient_leading.json"


def scalar_realization(a, b, c, d):
    mk = PolyMatrix.from_scalar_coeffs
    return Realization(A=mk(a), B=mk(b), C=mk(c), D=mk(d))


def deficient_leading(r: Realization, blocks: str) -> Realization:
    """r with the first column of the leading coefficient of each named
    block zeroed: "A" drops the rank of A's, "BD" that of [B; D]'s."""
    parts = {k: getattr(r, k) for k in "ABCD"}
    for k in blocks:
        coeffs = parts[k].coeffs.copy()
        coeffs[-1][:, 0] = 0.0
        parts[k] = PolyMatrix(coeffs, parts[k].basis)
    return Realization(**parts)


def _kronecker_pencil():
    """L_0, L_1, L_3, L_2^T, a 2x2 Jordan block at 2 and a size-2 block
    at infinity, mixed by seeded random unitary P and Q."""
    blocks = [l_block(0), l_block(1), l_block(3)]
    l0, l1 = l_block(2)
    blocks.append((l0.T, l1.T))
    blocks.append((-np.array([[2.0, 1.0], [0.0, 2.0]]), np.eye(2)))
    blocks.append((np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])))
    l0 = scipy.linalg.block_diag(*[b[0] for b in blocks])
    l1 = scipy.linalg.block_diag(*[b[1] for b in blocks])
    rng = np.random.default_rng(12)

    def unitary(k):
        q, _ = np.linalg.qr(rng.standard_normal((k, k))
                            + 1j * rng.standard_normal((k, k)))
        return q
    p, q = unitary(l0.shape[0]), unitary(l0.shape[1])
    return p @ l0 @ q, p @ l1 @ q


def orders_record() -> dict:
    """Orders at infinity with the grade, or the class name of the error
    raised, on the seed-1 n = p = m = 2 grade-2 and seed-4 n = p = m = 3
    grade-3 fixtures (every structure flag and basis pair), each with a
    rank-deficient leading coefficient of A or of [B; D], and built with
    grade_d raised by one and by two."""
    variants = {"A": ("A", 0), "BD": ("BD", 0), "grade_d+1": ("", 1),
                "grade_d+2": ("", 2)}
    out = {}
    for (n, g, seed), structure, ba, bd in product(
            [(2, 2, 1), (3, 3, 4)], STRUCTURES, Basis, Basis):
        r = gen_fixture(FixtureSpec(seed=seed, n=n, p=n, m=n, grade_a=g,
                                    grade_d=g, basis_a=ba, basis_d=bd,
                                    structure=structure))
        for name, (blocks, raise_d) in variants.items():
            key = f"{structure}/n{n}-g{g}-s{seed}/{ba.value}/{bd.value}/{name}"
            try:
                sl = build(deficient_leading(r, blocks), grade_d=g + raise_d, rng=1)
                out[key] = {"orders": invariant_orders_at_infinity(sl, rng=1),
                            "grade": sl.rho_d + 1}
            except RatlinError as exc:
                out[key] = type(exc).__name__
    return out


class TestPencilEigs:
    def test_diagonal(self):
        pe = pencil_eigs(-np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(sorted(pe.finite().real), [1, 2])
        assert pe.infinite_count() == 0

    def test_infinite_eigenvalue(self):
        pe = pencil_eigs(-np.eye(2), np.diag([1.0, 0.0]))
        assert np.allclose(pe.finite(), [1.0])
        assert pe.infinite_count() == 1

    def test_preset_state_pencil(self, preset):
        sl = build(preset)
        pe = pencil_eigs(*sl.state_pencil())
        det = poly_det_coeffs(preset.A)
        roots = np.polynomial.polynomial.polyroots(det)
        ok, worst = match_multisets(pe.finite(), roots, 1e-8)
        assert ok, worst
        assert np.allclose(sorted(pe.finite().real), [-2, -1, 2], atol=1e-10)

    def test_singular_pencil_flagged(self):
        l0 = np.zeros((2, 2))
        l1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        pe = pencil_eigs(l0, l1)
        assert not pe.regular
        assert pe.alphas.size == 0

    def test_non_square_rejected(self):
        with pytest.raises(RatlinError):
            pencil_eigs(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_regularity_probe(self):
        assert pencil_is_regular(np.eye(3), np.zeros((3, 3)))
        assert not pencil_is_regular(np.zeros((2, 2)), np.zeros((2, 2)))


class TestClassify:
    def test_preset_poles_and_zeros(self, preset):
        sl = build(preset)
        rep = classify(sl)
        pole_vals = sorted(v.real for v, _ in rep.poles)
        assert np.allclose(pole_vals, [-2, -1, 2], atol=1e-8)
        assert all(c == 1 for _, c in rep.poles)
        golden = [(-1 + np.sqrt(5)) / 2, (-1 - np.sqrt(5)) / 2, 0, 0, -1, -2]
        ok, worst = match_multisets([z.value for z in rep.zeros], golden, 1e-7)
        assert ok, worst
        assert all(z.classified for z in rep.zeros)
        near = sorted(z.value.real for z in rep.zeros if z.near_pole)
        assert np.allclose(near, [-2, -1], atol=1e-6)

    def test_identity_transfer_all_unclassified(self):
        # B = 0, C = 0, D = I: R = I has no zeros; every pencil eigenvalue
        # sits at a state eigenvalue and must fail the minimality checks
        a = PolyMatrix.from_list([np.diag([-1.0, -3.0]), np.eye(2)])
        r = Realization(A=a, B=PolyMatrix.zero(2, 2), C=PolyMatrix.zero(2, 2),
                        D=PolyMatrix.identity(2))
        rep = classify(build(r))
        assert len(rep.zeros) == 2
        assert all(not z.classified for z in rep.zeros)
        assert all(z.near_pole for z in rep.zeros)

    def test_scalar_zero_and_pole(self):
        # R = (l-3)/(l-1) as d + c b / a with a = l-1, b = 1, c = -2, d = 1
        r = scalar_realization([-1, 1], [1], [-2], [1])
        rep = classify(build(r))
        assert len(rep.poles) == 1
        assert abs(rep.poles[0][0] - 1.0) < 1e-10
        zs = [z for z in rep.zeros if z.classified]
        assert len(zs) == 1
        assert abs(zs[0].value - 3.0) < 1e-10

    def test_zero_on_pole_failing_right_minimality_unclassified(self):
        # a and b share the root 1: R = d + c = 2 has no zeros, and the
        # pencil's eigenvalue 1 is a decoupling zero where [a, b](1) = 0
        r = scalar_realization([-1, 1], [-1, 1], [1], [1])
        rep = classify(build(r))
        assert len(rep.zeros) == 1
        z = rep.zeros[0]
        assert abs(z.value - 1.0) < 1e-12
        assert z.near_pole and z.minimality == (True, False) and not z.classified

    def test_repeated_pole_tags(self):
        """A = (l - 1) I_2, B = [1; 0], C = [1, 1], D = 1: R = l / (l - 1).
        The double pole is one key of sl.minimality, where both tests fail;
        the decoupling zero on it is unclassified, the zero 0 classified."""
        a = PolyMatrix.from_list([-np.eye(2), np.eye(2)])
        r = Realization(A=a, B=PolyMatrix.from_list([np.array([[1.0], [0.0]])]),
                        C=PolyMatrix.from_list([np.array([[1.0, 1.0]])]),
                        D=PolyMatrix.identity(1))
        sl = build(r)
        rep = classify(sl)
        assert len(rep.poles) == 1 and rep.poles[0][1] == 2
        assert list(sl.minimality.finite_ok_at.values()) == [(False, False)]
        by_value = sorted(rep.zeros, key=lambda z: z.value.real)
        assert abs(by_value[0].value) < 1e-12 and abs(by_value[1].value - 1) < 1e-12
        assert by_value[0].classified and by_value[0].minimality == (True, True)
        assert not by_value[0].near_pole
        assert by_value[1].near_pole and by_value[1].minimality == (False, False)
        assert not by_value[1].classified

    def test_no_minimality_check_at_the_zeros(self, preset, monkeypatch):
        """The tags are read from the checks at the poles: the only
        check_finite_minimality call during classify is sl.minimality's,
        and without a zero near a pole there is none."""
        from ratlin import linbuild
        calls = []
        orig = linbuild.check_finite_minimality

        def counted(r, lam):
            calls.append(np.atleast_1d(lam).copy())
            return orig(r, lam)
        monkeypatch.setattr(linbuild, "check_finite_minimality", counted)
        monkeypatch.setattr(eigsolve, "check_finite_minimality", counted, raising=False)
        sl = build(preset)
        rep = classify(sl)
        assert any(z.near_pole for z in rep.zeros)
        assert len(calls) == 1
        assert np.array_equal(calls[0], sl.state_spectrum.finite())
        calls.clear()
        # R = (l - 3)/(l - 1): its one zero is far from its one pole
        rep = classify(build(scalar_realization([-1, 1], [1], [-2], [1])))
        assert not any(z.near_pole for z in rep.zeros)
        assert calls == []

    def test_non_square_rejected(self):
        r = random_realization(5, n=2, p=2, m=3)
        with pytest.raises(PreconditionError):
            classify(build(r))

    def test_singular_routed_to_nullspace(self):
        rng = np.random.default_rng(8)
        base = random_polymatrix(rng, 1, 2, 1)
        b = PolyMatrix(np.concatenate([base.coeffs, base.coeffs], axis=2))
        d_base = random_polymatrix(rng, 1, 2, 1)
        d = PolyMatrix(np.concatenate([d_base.coeffs, d_base.coeffs], axis=2))
        r = Realization(A=random_polymatrix(rng, 1, 2, 2), B=b,
                        C=random_polymatrix(rng, 1, 2, 2), D=d)
        with pytest.raises(PreconditionError, match="singular"):
            classify(build(r))

    def test_report_json_shape(self, preset):
        rep = classify(build(preset))
        obj = rep.to_dict()
        assert {"poles", "zeros", "infinityOrders", "grade"} <= set(obj)
        assert obj["grade"] == 2
        assert all({"lambda", "classified", "minimality"} <= set(z)
                   for z in obj["zeros"])


class TestPartialMultiplicities:
    def test_diagonal_smith_form(self):
        p = PolyMatrix.from_list([np.diag([0.0, 0, 1]), np.diag([1.0, 0, 0]),
                                  np.diag([0.0, 1, 0])])
        assert partial_multiplicities_at(p, 0.0) == [1, 2]

    def test_jordan_chain(self):
        p = PolyMatrix.from_list([np.array([[0.0, 1], [0, 0]]), np.eye(2)])
        assert partial_multiplicities_at(p, 0.0) == [2]

    def test_no_zero(self):
        p = PolyMatrix.from_list([np.diag([0.0, 0, 1]), np.diag([1.0, 0, 0]),
                                  np.diag([0.0, 1, 0])])
        assert partial_multiplicities_at(p, 5.0) == []

    def test_shifted_point(self):
        # diag(l-2, (l-2)^3) at 2 -> [1, 3]
        p = PolyMatrix.from_list([
            np.diag([-2.0, -8.0]), np.diag([1.0, 12.0]),
            np.diag([0.0, -6.0]), np.diag([0.0, 1.0])])
        assert partial_multiplicities_at(p, 2.0) == [1, 3]

    def test_singular_matrix_correction(self):
        # [l, 0]: right nullspace inflates the Toeplitz kernels; the rank
        # correction must still find the single multiplicity
        p = PolyMatrix.from_list([np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]])])
        assert partial_multiplicities_at(p, 0.0) == [1]

    @pytest.mark.parametrize("shape", [(2, 0), (0, 2), (0, 0)])
    def test_empty_matrix(self, shape):
        p = PolyMatrix(np.zeros((3,) + shape, dtype=complex))
        assert partial_multiplicities_at(p, 1.0) == []

    def test_kronecker_pencil_with_both_minimal_index_sides(self):
        # L_0, L_1, L_3, L_2^T around a 2x2 Jordan block at 2 and a size-2
        # block at infinity: only the Jordan block counts at 2, nothing at
        # 0 or 1, and the infinite block is the size-2 block at 0 of the
        # reversal
        l0, l1 = _kronecker_pencil()
        pencil = PolyMatrix(np.stack([l0, l1]))
        assert partial_multiplicities_at(pencil, 2.0) == [2]
        assert partial_multiplicities_at(pencil, 0.0) == []
        assert partial_multiplicities_at(pencil, 1.0) == []
        assert partial_multiplicities_at(PolyMatrix(np.stack([l1, l0])), 0.0) == [2]

    def test_degree_sum_matches_determinant(self):
        # random draws have simple roots; one multiplicity of 1 at each
        rng = np.random.default_rng(13)
        p = random_polymatrix(rng, 2, 2, 2)
        det = poly_det_coeffs(p)
        roots = np.polynomial.polynomial.polyroots(det)
        total = sum(sum(partial_multiplicities_at(p, z)) for z in roots)
        assert total == len(roots) == 4


class TestInvariantOrders:
    def test_identity_rational_matrix(self):
        # R = 1 via a = l, b = 1, c = 0, d = 1: order list [0]
        r = scalar_realization([0, 1], [1], [0], [1])
        assert invariant_orders_at_infinity(build(r)) == [0]

    def test_lambda_pole_at_infinity(self):
        # R = l via a = l, b = l, c = 1, d = l - 1: single order -1
        r = scalar_realization([0, 1], [0, 1], [1], [-1, 1])
        assert invariant_orders_at_infinity(build(r)) == [-1]

    def test_inverse_lambda_zero_at_infinity(self):
        # R = 1/l via a = l, b = 1, c = 1, d = 0: single order +1
        r = scalar_realization([0, 1], [1], [1], [0])
        assert invariant_orders_at_infinity(build(r)) == [1]

    def test_preset_orders(self, preset):
        assert invariant_orders_at_infinity(build(preset)) == [-3, 0]

    def test_precondition_failure_raises(self):
        # constant A: the reversed state block vanishes at 0
        r = scalar_realization([1], [1], [1], [0, 1])
        with pytest.raises(PreconditionError):
            invariant_orders_at_infinity(build(r))

    def test_recorded_orders_on_deficient_and_overridden_inputs(self):
        """The record was written by
        PYTHONPATH=src:tests python -c "import json, test_eigsolve as t; t.ORDERS.write_text(json.dumps(t.orders_record(), indent=1) + '\\n')"
        """
        record = json.loads(ORDERS.read_text())
        assert orders_record() == record
        # most entries differ from a generic input's orders, all -grade
        assert sum(isinstance(v, dict) and set(v["orders"]) != {-v["grade"]}
                   for v in record.values()) > len(record) // 2

    @pytest.mark.parametrize("seed", [9001, 9002, 9005, 9011])
    def test_order_sum_balances_determinant_degrees(self, seed):
        # sum of invariant orders at infinity == m deg(det A) - deg(det(det(A) R))
        from ratlin.verify import cleared_matrix
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        spec = FixtureSpec(seed=seed, n=int(rng.integers(1, 4)), p=m, m=m,
                           grade_a=int(rng.integers(1, 4)),
                           grade_d=int(rng.integers(1, 4)))
        r = gen_fixture(spec)
        sl = build(r)
        orders = invariant_orders_at_infinity(sl)
        det_cm = poly_det_coeffs(cleared_matrix(r).to_monomial())
        det_a = poly_det_coeffs(r.A.to_monomial())
        assert sum(orders) == m * (len(det_a) - 1) - (len(det_cm) - 1)


class TestPolynomialNullspace:
    def test_kronecker_block(self):
        l0 = np.array([[0.0, 1.0]])
        l1 = np.array([[1.0, 0.0]])
        res = polynomial_nullspace(l0, l1)
        assert res.indices == [1]
        v = res.vectors
        # v(l) proportional to [1, -l]
        lam = 0.73
        val = v.eval(lam)[:, 0]
        assert abs(val[0] * (-lam) - val[1]) < 1e-12

    def test_wide_block_two_indices(self):
        l0 = np.array([[0.0, 1.0, 0.0]])
        l1 = np.array([[1.0, 0.0, 0.0]])
        res = polynomial_nullspace(l0, l1)
        assert res.indices == [0, 1]
        diag = certify_minimal_basis(res, l0, l1)
        assert diag["ok"], diag

    def test_left_transpose_symmetry(self):
        l0 = np.array([[0.0, 1.0, 0.0]]).T
        l1 = np.array([[1.0, 0.0, 0.0]]).T
        res = polynomial_nullspace(l0, l1, side="left")
        assert res.side == "left"
        assert res.indices == [0, 1]
        assert certify_minimal_basis(res, l0, l1)["ok"]

    def test_regular_pencil_empty(self):
        res = polynomial_nullspace(-np.eye(2), np.eye(2))
        assert res.indices == [] and res.count == 0

    def test_count_rule_on_random_singular_pencil(self):
        rng = np.random.default_rng(3)
        left = rng.standard_normal((5, 3))
        right = rng.standard_normal((3, 6))
        l0 = left @ rng.standard_normal((3, 3)) @ right
        l1 = left @ rng.standard_normal((3, 3)) @ right
        res_r = polynomial_nullspace(l0, l1, "right")
        res_l = polynomial_nullspace(l0, l1, "left")
        assert len(res_r.indices) == 6 - 3
        assert len(res_l.indices) == 5 - 3
        assert certify_minimal_basis(res_r, l0, l1)["ok"]
        assert certify_minimal_basis(res_l, l0, l1)["ok"]

    def test_staircase_on_known_kronecker_blocks(self):
        l0, l1 = _kronecker_pencil()
        assert l0.shape == (11, 13)
        assert eigsolve._staircase(l0, l1)[:2] == ([0, 1, 3], [])
        assert eigsolve._staircase(l0.T, l1.T)[:2] == ([2], [])
        assert polynomial_nullspace(l0, l1, "right").indices == [0, 1, 3]
        assert polynomial_nullspace(l0, l1, "left").indices == [2]

    def test_short_staircase_guess_falls_back(self, monkeypatch):
        # the guess's own degrees all check out; only its length is short
        l0, l1 = _kronecker_pencil()
        stack = _pencil_stack(l0, l1, "right")
        want = eigsolve._basis_result(
            eigsolve._sweep(stack, 3, sum(l0.shape)), l0.shape[1])
        monkeypatch.setattr(eigsolve, "_staircase", lambda a, b: ([0, 1], [], []))
        got = polynomial_nullspace(l0, l1, "right")
        assert got.indices == want.indices == [0, 1, 3]
        assert got.vectors.coeffs.tobytes() == want.vectors.coeffs.tobytes()

    @pytest.mark.parametrize("structure", ["zero-column-b", "zero-row-c",
                                           "rank-deficient-d"])
    @pytest.mark.parametrize("spoil", ["raise-last", "lower-last", "drop-last"])
    def test_refuted_staircase_guess_falls_back_to_the_same_basis(
            self, monkeypatch, structure, spoil):
        # the spoiled staircase's transforms are those of the pencil with its
        # columns reversed: the same indices, but vectors that fail the
        # certificate when read in the original order
        sl = build(gen_fixture(FixtureSpec(seed=4, structure=structure)))
        want = {}
        for side in ("right", "left"):
            stack = _pencil_stack(sl.L0, sl.L1, side)
            nullity = stack.shape[2] - generic_rank(PolyMatrix(stack), 2,
                                                    rank_scale=100.0)
            if nullity:
                want[side] = eigsolve._basis_result(
                    eigsolve._sweep(stack, nullity, sum(sl.shape)), stack.shape[2])
        staircase = eigsolve._staircase

        def spoiled(l0, l1):
            guess, sizes, _ = staircase(l0, l1)
            last = {"raise-last": [guess[-1] + 1],
                    "lower-last": [abs(guess[-1] - 1)],  # 0 goes up to 1
                    "drop-last": []}[spoil]
            return guess[:-1] + last, sizes, staircase(l0[:, ::-1], l1[:, ::-1])[2]

        monkeypatch.setattr(eigsolve, "_staircase", spoiled)
        for side, res in want.items():
            got = polynomial_nullspace(sl.L0, sl.L1, side, rng=2)
            assert got.indices == res.indices
            assert _right_coeffs(got).tobytes() == res.vectors.coeffs.tobytes()
        assert want

    @pytest.mark.parametrize("structure", ["zero-column-b", "zero-row-c",
                                           "rank-deficient-d"])
    def test_rejected_basis_gives_the_sweep_basis(self, monkeypatch, structure):
        # the staircase's indices and the convolution nullity pass; only the
        # certificate is made to reject
        sl = build(gen_fixture(FixtureSpec(seed=4, structure=structure)))
        monkeypatch.setattr(eigsolve, "certify_minimal_basis",
                            lambda *args: {"ok": False})
        sides = 0
        for side in ("right", "left"):
            stack = _pencil_stack(sl.L0, sl.L1, side)
            guess = eigsolve._staircase(*stack)[0]
            got = polynomial_nullspace(sl.L0, sl.L1, side, rng=2)
            assert got.indices == guess
            if guess:
                want = eigsolve._basis_result(
                    eigsolve._sweep(stack, len(guess), sum(sl.shape)), stack.shape[2])
                assert _right_coeffs(got).tobytes() == want.vectors.coeffs.tobytes()
                sides += 1
        assert sides

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    @pytest.mark.parametrize("basis_a, basis_d", list(product(Basis, Basis)))
    def test_seed1_pencil_sides_need_no_sweep(self, monkeypatch, structure,
                                              basis_a, basis_d):
        # every side of these pencils takes the back-substituted basis
        def refuse(*args):
            raise AssertionError("the back-substituted basis was rejected")
        monkeypatch.setattr(eigsolve, "_sweep", refuse)
        sl = build(gen_fixture(FixtureSpec(seed=1, structure=structure,
                                           basis_a=basis_a, basis_d=basis_d)),
                   rng=1)
        counts = [polynomial_nullspace(sl.L0, sl.L1, side, rng=1).count
                  for side in ("right", "left")]
        assert sum(counts) > 0

    @pytest.mark.parametrize("t", [1.0, 0.12, 1e-3])
    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(eps=st.lists(st.integers(0, 5), min_size=3, max_size=3).filter(
               lambda eps: sum(eps) <= 14),
           eta=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_planted_indices_on_both_sides(self, t, eps, eta, seed):
        # at |t| = 1e-3 the staircase's indices are mostly wrong while its
        # vectors still pass the certificate; the convolution nullity test
        # sends those sides to the sweep
        eta = min(eta, 14 - sum(eps))  # at most 20 x 20
        l0, l1 = planted_kronecker(np.random.default_rng(seed), eps, eta, t)
        for side, want in (("right", sorted(eps)), ("left", [eta])):
            res = polynomial_nullspace(l0, l1, side)
            assert res.indices == want
            assert certify_minimal_basis(res, l0, l1)["ok"]


def _pencil_stack(l0, l1, side) -> np.ndarray:
    """The coefficient stack polymatrix_nullspace sweeps for one side."""
    pencil = PolyMatrix(np.stack([np.asarray(l0, dtype=complex),
                                  np.asarray(l1, dtype=complex)]))
    return (pencil if side == "right" else pencil.T).to_monomial().coeffs


def _right_coeffs(res) -> np.ndarray:
    """A basis's coefficients laid out as columns, on either side."""
    return (res.vectors if res.side == "right" else res.vectors.T).coeffs


def test_rational_rank(preset):
    assert rational_rank(build(preset)) == 2


def test_vector_degree_threshold():
    stack = np.zeros((4, 3))
    stack[0, 0] = 1.0
    stack[2, 1] = 1e-3
    assert vector_degree(stack) == 2
    stack[2, 1] = 1e-12
    assert vector_degree(stack) == 0
