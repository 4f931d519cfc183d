import json
import math
import tracemalloc
from itertools import product
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ratlin import eigsolve, linbuild
from ratlin.errors import BreakdownError, PreconditionError, RatlinError
from ratlin.eigsolve import (certify_minimal_basis, classify,
                             invariant_orders_at_infinity,
                             partial_multiplicities_at, pencil_eigs,
                             polynomial_nullspace, regular_part_size)
from ratlin.linbuild import PencilReadings, Realization, build
from ratlin.polymat import Basis, PolyMatrix, generic_rank, hstack, vstack
from ratlin.recover import recover_minimal_basis
from ratlin.verify import STRUCTURES, FixtureSpec, gen_fixture

from conftest import (SCALED, count_calls, count_off, l_block, match_multisets,
                      planted_kronecker, poly_det_coeffs, prescribed_realization,
                      random_polymatrix, random_realization, scaled_fixture,
                      stiff_state_realization)


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
        pe = pencil_eigs(PencilReadings(-np.diag([1.0, 2.0]), np.eye(2)))
        assert np.allclose(sorted(pe.finite().real), [1, 2])
        assert pe.infinite_count() == 0

    def test_infinite_eigenvalue(self):
        pe = pencil_eigs(PencilReadings(-np.eye(2), np.diag([1.0, 0.0])))
        assert np.allclose(pe.finite(), [1.0])
        assert pe.infinite_count() == 1

    def test_preset_state_pencil(self, preset):
        sl = build(preset)
        pe = pencil_eigs(PencilReadings(sl.state.L0, sl.state.L1))
        det = poly_det_coeffs(preset.A)
        roots = np.polynomial.polynomial.polyroots(det)
        ok, worst = match_multisets(pe.finite(), roots, 1e-8)
        assert ok, worst
        assert np.allclose(sorted(pe.finite().real), [-2, -1, 2], atol=1e-10)

    def test_singular_pencil_flagged(self):
        l0 = np.zeros((2, 2))
        l1 = np.array([[1.0, 0.0], [0.0, 0.0]])
        pe = pencil_eigs(PencilReadings(l0, l1))
        assert not pe.regular
        assert pe.alphas.size == 0

    def test_non_square_rejected(self):
        with pytest.raises(RatlinError):
            pencil_eigs(PencilReadings(np.zeros((2, 3)), np.zeros((2, 3))))

    def test_regularity_probe(self):
        assert pencil_eigs(PencilReadings(np.eye(3), np.zeros((3, 3)))).regular
        assert not pencil_eigs(PencilReadings(np.zeros((2, 2)), np.zeros((2, 2)))).regular

    @pytest.mark.parametrize("kind, arg", [
        ("random", 1), ("random", 5), ("random", 12), ("fixture", Basis.MONOMIAL),
        ("fixture", Basis.CHEBYSHEV1), ("rank-deficient-l1", None), ("scalar", None),
        ("empty", None)])
    def test_matches_scipy_eig_bit_for_bit(self, kind, arg):
        l0, l1 = (np.asarray(c, dtype=complex) for c in _oracle_pencil(kind, arg))
        w, vl, vr = scipy.linalg.eig(-l0, l1, left=True, right=True,
                                     homogeneous_eigvals=True)
        pe = pencil_eigs(PencilReadings(l0, l1), vectors=True)
        bare = pencil_eigs(PencilReadings(l0, l1))
        for got in (pe, bare):
            assert got.alphas.tobytes() == w[0].tobytes()
            assert got.betas.tobytes() == w[1].tobytes()
        assert bare.right_vectors is None and bare.left_vectors is None
        for i in range(l0.shape[0]):
            x, y = pe.pair(i)
            assert x.tobytes() == vr[:, i].tobytes()
            assert y.tobytes() == vl[:, i].conj().tobytes()
        if kind == "rank-deficient-l1":
            assert pe.infinite_count() == 2

    def test_non_finite_input_rejected(self):
        for bad in (np.nan, np.inf):
            l0 = np.eye(2)
            l0[1, 0] = bad
            with pytest.raises(RatlinError, match="non-finite"):
                pencil_eigs(PencilReadings(l0, np.eye(2)))
            with pytest.raises(RatlinError, match="non-finite"):
                pencil_eigs(PencilReadings(np.eye(2), l0), vectors=True)

    def test_backend_failure_raises(self, monkeypatch):
        zggev = scipy.linalg.lapack.zggev

        def failing(a, b, *args, **kwargs):
            out = zggev(a, b, *args, **kwargs)
            return out if kwargs.get("lwork") == -1 else out[:-1] + (1,)

        monkeypatch.setattr(scipy.linalg.lapack, "zggev", failing)
        with pytest.raises(RatlinError, match="info = 1"):
            pencil_eigs(PencilReadings(-np.diag([1.0, 2.0]), np.eye(2)), vectors=True)


def _oracle_pencil(kind: str, arg) -> tuple:
    """(L0, L1) of a pencil for the scipy.linalg.eig oracle: random of size
    `arg`, a fixture's in basis `arg`, one whose L1 has rank 3 of 5 (so two
    eigenvalues are infinite), 1 x 1, or empty."""
    rng = np.random.default_rng(17)
    if kind == "random":
        return tuple(rng.standard_normal((2, arg, arg))
                     + 1j * rng.standard_normal((2, arg, arg)))
    if kind == "fixture":
        sl = build(gen_fixture(FixtureSpec(seed=3, n=3, p=3, m=3, basis_a=arg,
                                           basis_d=arg)))
        return sl.L0, sl.L1
    if kind == "rank-deficient-l1":
        l0 = rng.standard_normal((5, 5))
        l1 = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 5))
        return l0, l1
    if kind == "scalar":
        return np.array([[2.0 - 1.0j]]), np.array([[0.5j]])
    return np.zeros((0, 0)), np.zeros((0, 0))


class TestRegularityIsFullRank:
    # one rank decides a pencil's regularity: the QZ reads `PencilReadings.rank`
    @pytest.mark.parametrize("seed, k, grade, factor", SCALED)
    def test_scaled_fixture_qz_regular_iff_full_rank(self, seed, k, grade, factor):
        sl = build(scaled_fixture(seed, k, grade, factor))
        assert sl.spectrum.regular == (sl.rank == sl.shape[0])

    def test_regular_pencil_rank_takes_one_svd(self, svd_matrices):
        sl = build(gen_fixture(FixtureSpec(seed=1, n=3, p=3, m=3, grade_a=3, grade_d=3)))
        svd_matrices.clear()
        assert sl.rank == sl.shape[0]
        assert sum(svd_matrices) == 1

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_singular_pencil_rank_takes_at_most_five_svds(self, svd_matrices, structure):
        sl = build(gen_fixture(FixtureSpec(seed=1, structure=structure)))
        svd_matrices.clear()
        assert sl.rank < sl.shape[0]
        assert sum(svd_matrices) <= 5

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_state_spectrum_and_classify_take_no_svd_after_the_rank(self, svd_matrices,
                                                                     structure):
        # the state pencil is regular in closed form, the full pencil by `rank`
        sl = build(gen_fixture(FixtureSpec(seed=1, structure=structure)))
        regular = sl.rank == sl.shape[0]
        svd_matrices.clear()
        assert sl.state_spectrum.regular
        assert svd_matrices == []
        if regular:
            assert not any(z.near_pole for z in classify(sl).zeros)
        else:
            with pytest.raises(PreconditionError, match="the pencil is singular"):
                classify(sl)
        assert svd_matrices == []


class TestClassify:
    @pytest.mark.parametrize("seed", [3, 5, 7])
    def test_double_poles_split_by_the_sort_stay_whole(self, seed):
        # A = S (lambda^2 - 2 lambda + 5) I S^-1: 1 -+ 2i are double poles,
        # which the sort by real part can interleave
        rng = np.random.default_rng(seed)
        s = rng.standard_normal((2, 2))
        a = PolyMatrix(np.array([c * s @ np.linalg.inv(s) for c in (5.0, -2.0, 1.0)]))
        b, c, d = (PolyMatrix(rng.standard_normal((1, 2, 2))) for _ in "BCD")
        poles = sorted(classify(build(Realization(A=a, B=b, C=c, D=d))).poles,
                       key=lambda pole: pole[0].imag)
        assert [n for _, n in poles] == [2, 2]
        assert np.allclose([v for v, _ in poles], [1 - 2j, 1 + 2j], atol=1e-6)

    def test_cluster_joins_the_first_earlier_cluster_in_reach(self):
        values = [1 - 2j, 1 + 2j, 1 - 2j + 1e-9, 1 + 2j - 1e-9, 3.0]
        got = eigsolve.cluster_eigenvalues(values)
        assert [c for _, c in got] == [2, 2, 1]
        assert np.allclose([v for v, _ in got], [1 - 2j, 1 + 2j, 3.0])

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

    @pytest.mark.parametrize("basis", list(Basis))
    def test_zeros_are_the_finite_eigenvalues_of_the_qz_without_vectors(self, basis):
        # classify reads sl.spectrum, the QZ with vectors; its eigenvalues
        # are those of the QZ without vectors bit for bit
        sl = build(gen_fixture(FixtureSpec(seed=5, n=3, p=3, m=3, grade_a=3,
                                           grade_d=3, basis_a=basis, basis_d=basis)))
        zeros = np.array([z.value for z in classify(sl, rng=1).zeros])
        bare = pencil_eigs(sl).finite()
        assert zeros.size == bare.size > 0
        assert zeros.tobytes() == bare.tobytes()

    @pytest.mark.parametrize("basis", list(Basis))
    def test_without_vectors_same_report_and_no_vector_work(self, qz_runs, basis):
        # a caller that reads no eigenpair runs the full pencil's QZ without
        # vectors and leaves sl.spectrum unrun; the report is the same
        spec = FixtureSpec(seed=5, n=3, p=3, m=3, grade_a=3, grade_d=3,
                           basis_a=basis, basis_d=basis)
        sl = build(gen_fixture(spec))
        bare = classify(sl, vectors=False).to_dict()
        assert qz_runs == [(sl.state.L0.shape, False), (sl.shape, False)]
        assert "spectrum" not in vars(sl)
        assert bare == classify(build(gen_fixture(spec))).to_dict()

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


def _step_list_staircase(l0, l1, norm=None) -> tuple:
    """(indices, Jordan sizes at 0, margin) of `eigsolve._staircase` as it
    was before it ran in place: each step's pencil is a new product of the
    last one with its transforms, uh @ a @ v1.  The reference the in-place
    staircase's indices and sizes are held to.  The margin is the factor by
    which the singular value nearest the cutoff clears it, on either side."""
    scale = max(l0.shape) * np.finfo(float).eps * eigsolve.STAIRCASE_SCALE
    bound = norm or 2.0 * math.hypot(np.linalg.norm(l0), np.linalg.norm(l1))
    sv = np.linalg.svd(l0, compute_uv=False)
    if np.sum(sv > scale * bound) == l0.shape[1]:
        return [], [], np.min(sv, initial=np.inf) / (scale * bound)
    cutoff = scale * (np.linalg.norm(np.hstack([l0, l1]), 2) if norm is None else norm)
    a, b = l0, l1
    indices, sizes, read = [], [], []
    rho = 0
    for k in range(l0.shape[1] + 1):
        _, sv, vh = np.linalg.svd(a)
        rank = int(np.sum(sv > cutoff))
        mu = a.shape[1] - rank
        sizes += [k] * (rho - mu)
        read.append(sv)
        if mu == 0:
            break
        v = vh.conj().T
        u, sb, _ = np.linalg.svd(b @ v[:, rank:])
        rho = int(np.sum(sb > cutoff))
        indices += [k] * (mu - rho)
        read.append(sb)
        uh = u.conj().T[rho:]
        a, b = uh @ a @ v[:, :rank], uh @ b @ v[:, :rank]
    ratios = np.concatenate(read) / cutoff
    ratios = ratios[ratios > 0]  # an exact zero clears any cutoff
    return indices, sizes, np.min(np.maximum(ratios, 1 / ratios), initial=np.inf)


def _staircase_with_vectors(l0, l1) -> tuple:
    """`eigsolve._staircase` without its first-step shortcut: every level
    takes the SVD with vectors, and the cutoff's norm is formed from the
    stacked pencil."""
    cutoff = (max(l0.shape) * np.finfo(float).eps * eigsolve.STAIRCASE_SCALE
              * np.linalg.norm(np.hstack([l0, l1]), 2))
    a, b, p = (np.array(x, dtype=complex) for x in (l0, l1, np.eye(l0.shape[1])))
    indices, sizes, levels = [], [], []
    r = c = rho = 0
    for k in range(l0.shape[1] + 1):
        _, sv, vh = np.linalg.svd(a[r:, c:])
        rank = int(np.sum(sv > cutoff))
        mu = vh.shape[0] - rank
        sizes += [k] * (rho - mu)
        if mu == 0:
            break
        v = vh[np.arange(-mu, rank)].conj().T
        u, sb, wh = np.linalg.svd(b[r:, c:] @ v[:, :mu])
        rho = int(np.sum(sb > cutoff))
        indices += [k] * (mu - rho)
        levels.append((r, c, rho, mu, sb[:rho], wh))
        a[r:, c:], b[r:, c:] = u.conj().T @ a[r:, c:], u.conj().T @ b[r:, c:]
        a[:, c:], b[:, c:], p[:, c:] = a[:, c:] @ v, b[:, c:] @ v, p[:, c:] @ v
        r, c = r + rho, c + mu
    return indices, sizes, (a, b, p, levels) if levels else ()


def _form_items(form) -> list:
    """The arrays and integers of a staircase form, in order."""
    if not form:
        return []
    a, b, p, levels = form
    return [a, b, p, *(x for level in levels for x in level)]


def _entries(obj) -> int:
    """Entries of the arrays held in nested tuples and lists."""
    if isinstance(obj, np.ndarray):
        return obj.size
    return sum(map(_entries, obj)) if isinstance(obj, (tuple, list)) else 0


def _assert_step_list_readings(readings) -> int:
    """Each side's staircase at 0 and at infinity of `readings` reads the
    indices and Jordan sizes of `_step_list_staircase` wherever every
    decision of the step list clears the cutoff by a factor of 10; the
    number of readings so compared.  Nearer the cutoff, roundoff in the
    order of the products, amplified by small singular-value gaps, can
    move a decision either way."""
    compared = 0
    for infinity in (False, True):
        for side in ("right", "left"):
            a, b = eigsolve.side_stack(readings.L0, readings.L1, side)
            *want, margin = (_step_list_staircase(b, a) if infinity else _step_list_staircase(
                a, b, readings.norm if side == "right" else None))
            if margin >= 10.0:
                assert list(readings.staircase(side, infinity)[:2]) == want, (side, infinity)
                compared += 1
    return compared


class TestInvariantOrders:
    def test_staircase_on_reversed_pencils_matches_the_vector_path(self):
        # the reversed state and full pencils of the orders record's
        # fixtures: a generic one takes the shortcut (l0 invertible, no
        # vectors); a rank-deficient leading coefficient or a raised grade
        # makes l0 singular, and every array of the form matches the vector
        # path bitwise
        paths = {True: 0, False: 0}
        for (n, g, seed), ba, bd, (blocks, raise_d) in product(
                [(2, 2, 1), (3, 3, 4)], Basis, Basis,
                [("", 0), ("A", 0), ("BD", 0), ("", 1)]):
            r = gen_fixture(FixtureSpec(seed=seed, n=n, p=n, m=n, grade_a=g,
                                        grade_d=g, basis_a=ba, basis_d=bd))
            sl = build(deficient_leading(r, blocks), grade_d=g + raise_d, rng=1)
            la0, la1 = sl.state.L0, sl.state.L1
            for l0, l1 in ((la1, la0), (sl.L1, sl.L0)):
                got, want = eigsolve._staircase(l0, l1), _staircase_with_vectors(l0, l1)
                assert got[:2] == want[:2]
                items, ref = _form_items(got[2]), _form_items(want[2])
                assert len(items) == len(ref)
                assert all(np.array_equal(x, y) for x, y in zip(items, ref))
                paths[not got[2]] += 1
        assert paths[True] and paths[False], paths

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

    def test_orders_draw_no_sample_points(self, monkeypatch, preset):
        # rank R is read off the reversed pencil's staircase, not sampled
        sls = [build(preset)] + [build(gen_fixture(FixtureSpec(seed=1, structure=s)))
                                 for s in STRUCTURES]
        calls = count_calls(monkeypatch, linbuild.sample_points)
        for sl in sls:
            invariant_orders_at_infinity(sl, rng=1)
        assert calls == []

    def test_orders_and_the_gate_run_one_staircase_per_pencil_side_and_end(
            self, monkeypatch):
        # the orders read the state and full pencils on the right at
        # infinity; the right gate refuses its reading at 0 and takes the
        # full pencil's at infinity that the orders ran: five staircases,
        # each of a different pencil, side or end
        staircase, calls = eigsolve._staircase, []

        def counting(l0, l1, norm=None):
            calls.append((l0.tobytes(), l1.tobytes()))
            return staircase(l0, l1, norm)

        monkeypatch.setattr(eigsolve, "_staircase", counting)
        cheb = Basis.CHEBYSHEV1
        sl = build(gen_fixture(FixtureSpec(seed=1, n=6, p=6, m=6, grade_a=8, grade_d=8,
                                           basis_a=cheb, basis_d=cheb,
                                           structure="zero-column-b")), rng=1)
        invariant_orders_at_infinity(sl)
        recover_minimal_basis(sl, "right", rng=1)
        assert len(calls) == len(set(calls)) == 5

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_a_reading_at_infinity_runs_no_qz_and_samples_no_rank(self, qz_runs, side):
        # the reading at infinity is the pencil's own: it takes no norm,
        # normal rank or regular-part size of a second readings object
        sl = build(gen_fixture(FixtureSpec(seed=1, structure="zero-column-b")), rng=1)
        sl.staircase(side, infinity=True)
        assert qz_runs == []
        assert "rank" not in vars(sl) and "regular_size" not in vars(sl)

    def test_orders_where_no_point_is_well_conditioned(self):
        # cond A(z) = 1e8 everywhere: sampling rank R found no point
        assert invariant_orders_at_infinity(build(stiff_state_realization())) \
            == [-1, -1]

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(eps=st.lists(st.integers(0, 2), min_size=1, max_size=2),
           eta=st.integers(0, 2), k=st.integers(1, 2),
           grade_a=st.integers(1, 3), grade_d=st.integers(1, 3),
           basis_a=st.sampled_from(Basis), basis_d=st.sampled_from(Basis),
           seed=st.integers(0, 2**32 - 1))
    def test_rank_read_at_infinity_on_prescribed_realizations(
            self, eps, eta, k, grade_a, grade_d, basis_a, basis_d, seed):
        # R = U diag(L_eps, L_eta^T, k scalars) V has rank sum(eps) + eta + k,
        # and rank L = rank R + n + s
        r = prescribed_realization(np.random.default_rng(seed), eps, eta, k,
                                   grade_a, grade_d, basis_a, basis_d)
        sl = build(r)
        assert _rank_read_at_infinity(sl) == sl.rank - r.n - sl.s == sum(eps) + eta + k

    @pytest.mark.parametrize("basis_a, basis_d", list(product(Basis, Basis)))
    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    def test_rank_read_at_infinity_on_singular_fixtures(self, structure, basis_a,
                                                        basis_d):
        r = gen_fixture(FixtureSpec(seed=1, basis_a=basis_a, basis_d=basis_d,
                                    structure=structure))
        sl = build(r)
        assert _rank_read_at_infinity(sl) == sl.rank - r.n - sl.s

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
        # sum of invariant orders at infinity == -deg det R, and
        # det [A B; -C D] = det A det R gives deg det R in closed form
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        spec = FixtureSpec(seed=seed, n=int(rng.integers(1, 4)), p=m, m=m,
                           grade_a=int(rng.integers(1, 4)),
                           grade_d=int(rng.integers(1, 4)))
        r = gen_fixture(spec)
        sl = build(r)
        orders = invariant_orders_at_infinity(sl)
        a, b, c, d = (x.to_monomial() for x in (r.A, r.B, r.C, r.D))
        det_s = poly_det_coeffs(vstack(hstack(a, b), hstack(-c, d)))
        det_a = poly_det_coeffs(a)
        assert sum(orders) == (len(det_a) - 1) - (len(det_s) - 1)


class TestPolynomialNullspace:
    def test_kronecker_block(self):
        l0 = np.array([[0.0, 1.0]])
        l1 = np.array([[1.0, 0.0]])
        res = polynomial_nullspace(PencilReadings(l0, l1))
        assert res.indices == [1]
        v = res.vectors
        # v(l) proportional to [1, -l]
        lam = 0.73
        val = v.eval(lam)[:, 0]
        assert abs(val[0] * (-lam) - val[1]) < 1e-12

    def test_wide_block_two_indices(self):
        l0 = np.array([[0.0, 1.0, 0.0]])
        l1 = np.array([[1.0, 0.0, 0.0]])
        res = polynomial_nullspace(PencilReadings(l0, l1))
        assert res.indices == [0, 1]
        diag = certify_minimal_basis(res, l0, l1)
        assert diag["ok"], diag

    def test_left_transpose_symmetry(self):
        l0 = np.array([[0.0, 1.0, 0.0]]).T
        l1 = np.array([[1.0, 0.0, 0.0]]).T
        res = polynomial_nullspace(PencilReadings(l0, l1), side="left")
        assert res.side == "left"
        assert res.indices == [0, 1]
        assert certify_minimal_basis(res, l0, l1)["ok"]

    @pytest.mark.parametrize("side", ["right", "left"])
    def test_regular_pencil_empty(self, side):
        # an empty basis is a minimal basis: reduced, and of full rank 0
        res = polynomial_nullspace(PencilReadings(-np.eye(2), np.eye(2)), side)
        assert res.indices == [] and res.count == 0 and res.side == side
        assert res.is_reduced()
        assert res.full_rank_at([0.0, 1.0, 2.5j])
        # and the certificate's general path says so, with residual 0.0
        assert certify_minimal_basis(res, -np.eye(2), np.eye(2)) == {
            "residual": 0.0, "pointwise_full_rank": True,
            "reduced_full_rank": True, "ok": True}

    def test_count_rule_on_random_singular_pencil(self):
        rng = np.random.default_rng(3)
        left = rng.standard_normal((5, 3))
        right = rng.standard_normal((3, 6))
        l0 = left @ rng.standard_normal((3, 3)) @ right
        l1 = left @ rng.standard_normal((3, 3)) @ right
        res_r = polynomial_nullspace(PencilReadings(l0, l1), "right")
        res_l = polynomial_nullspace(PencilReadings(l0, l1), "left")
        assert len(res_r.indices) == 6 - 3
        assert len(res_l.indices) == 5 - 3
        assert certify_minimal_basis(res_r, l0, l1)["ok"]
        assert certify_minimal_basis(res_l, l0, l1)["ok"]

    def test_staircase_on_known_kronecker_blocks(self):
        l0, l1 = _kronecker_pencil()
        assert l0.shape == (11, 13)
        assert eigsolve._staircase(l0, l1)[:2] == ([0, 1, 3], [])
        assert eigsolve._staircase(l0.T, l1.T)[:2] == ([2], [])
        assert polynomial_nullspace(PencilReadings(l0, l1), "right").indices == [0, 1, 3]
        assert polynomial_nullspace(PencilReadings(l0, l1), "left").indices == [2]

    @pytest.mark.parametrize("t", [1.0, 1e-3])
    @pytest.mark.parametrize("centres", [(0.0,), (0.0, np.exp(2j))],
                             ids=["0", "0-and-e2i"])
    @pytest.mark.parametrize("eta", [0, 1, 2])
    def test_staircase_reads_the_step_list_indices_and_sizes(self, t, centres, eta):
        # on both sides, at 0 and at infinity.  At t = 1 every decision
        # clears the cutoff by orders of magnitude; at t = 1e-3 some readings
        # are wrong, the step list reads the same wrong ones, and the
        # readings with a singular value near the cutoff are left out
        eps_lists = [[0], [1, 2], [0, 3, 3], [2, 4, 5], [7]]
        compared = sum(_assert_step_list_readings(PencilReadings(*planted_kronecker(
            np.random.default_rng(seed), eps, eta, t, centres)))
            for seed, eps in enumerate(eps_lists))
        assert compared == 4 * len(eps_lists) if t == 1.0 else compared >= 10

    def test_a_reading_holds_its_form_in_place(self):
        # a 40-level chain of a 44 x 44 pencil: the form holds the working
        # pencil, its column transform and each level's sigma and W^H, where
        # per-level copies of the active blocks would hold 46 N^2 entries
        l0, l1 = planted_kronecker(np.random.default_rng(0), [40], 0, 1.0)
        n = l0.shape[1]
        assert l0.shape == (n, n) == (44, 44)
        readings = PencilReadings(l0, l1)
        indices, _, form = readings.staircase("right")
        assert indices == [40]
        assert _entries(form) <= 4 * n ** 2
        stack = eigsolve.side_stack(l0, l1, "right")
        basis = eigsolve._basis_result(eigsolve._back_substitute(form), n)
        assert basis.indices == [40]
        assert eigsolve._certified(basis, stack)

    def test_short_reading_at_0_gives_the_reading_at_infinity(self):
        # the reading's own degrees all check out; only its length is short
        l0, l1 = _kronecker_pencil()
        readings = PencilReadings(l0, l1)
        readings._staircases["right", False] = ([0, 1], [], [])
        want = _basis_at_infinity(readings, "right", l0.shape[1])
        got = polynomial_nullspace(readings, "right")
        assert got.indices == want.indices == [0, 1, 3]
        assert got.vectors.coeffs.tobytes() == want.vectors.coeffs.tobytes()
        assert certify_minimal_basis(got, l0, l1)["ok"]

    @pytest.mark.parametrize("structure", ["zero-column-b", "zero-row-c",
                                           "rank-deficient-d"])
    @pytest.mark.parametrize("spoil", ["raise-last", "lower-last", "drop-last"])
    def test_refuted_reading_at_0_gives_the_reading_at_infinity(self, structure,
                                                                spoil):
        # the spoiled reading's transforms are those of the pencil with its
        # columns reversed: the same indices, but vectors that fail the
        # certificate when read in the original order.  Only the reading at
        # 0 of the side is spoiled, and the side gets the reversed pencil's
        # basis, coefficients reversed
        sl = build(gen_fixture(FixtureSpec(seed=4, structure=structure)))
        sides = 0
        for side in ("right", "left"):
            readings = PencilReadings(sl.L0, sl.L1)
            guess, sizes, _ = readings.staircase(side)
            if not guess:
                continue
            a, b = eigsolve.side_stack(sl.L0, sl.L1, side)
            last = {"raise-last": [guess[-1] + 1],
                    "lower-last": [abs(guess[-1] - 1)],  # 0 goes up to 1
                    "drop-last": []}[spoil]
            readings._staircases[side, False] = (
                guess[:-1] + last, sizes, eigsolve._staircase(a[:, ::-1], b[:, ::-1])[2])
            want = _basis_at_infinity(readings, side, a.shape[1])
            got = polynomial_nullspace(readings, side)
            assert got.indices == want.indices == guess
            assert _right_coeffs(got).tobytes() == want.vectors.coeffs.tobytes()
            assert certify_minimal_basis(got, sl.L0, sl.L1)["ok"]
            sides += 1
        assert sides

    @pytest.mark.parametrize("structure", ["zero-column-b", "zero-row-c",
                                           "rank-deficient-d"])
    def test_rejected_bases_give_the_basis_solved_at_the_indices(
            self, monkeypatch, structure):
        # both readings' indices pass the count and the index sum; only the
        # certificate is made to reject their two bases, and the side gets
        # the basis solved at the indices, which the certificate then passes
        sl = build(gen_fixture(FixtureSpec(seed=4, structure=structure)))
        certify = eigsolve.certify_minimal_basis
        calls = []

        def rejecting(*args):
            calls.append(certify(*args))
            return {"ok": False} if len(calls) <= 2 else calls[-1]

        monkeypatch.setattr(eigsolve, "certify_minimal_basis", rejecting)
        sides = 0
        for side in ("right", "left"):
            stack = _pencil_stack(sl.L0, sl.L1, side)
            guess = eigsolve._staircase(*stack)[0]
            calls.clear()
            got = polynomial_nullspace(PencilReadings(sl.L0, sl.L1), side)
            assert got.indices == guess
            if guess:
                refused = _basis_at_0(PencilReadings(sl.L0, sl.L1), side, stack.shape[2])
                want = eigsolve._solve_at(stack, refused)
                assert _right_coeffs(got).tobytes() == want.vectors.coeffs.tobytes()
                assert len(calls) == 3 and calls[-1]["ok"]
                sides += 1
        assert sides

    @pytest.mark.parametrize("misses", [0, 1, 2])
    def test_solve_at_runs_only_when_both_bases_miss_the_gate_residual(
            self, monkeypatch, misses):
        # a certificate that passes at its own 1e-10 with a residual over
        # GATE_RESIDUAL refuses a basis, and one at GATE_RESIDUAL keeps it:
        # the first `misses` bases asked for miss it
        l0, l1 = _kronecker_pencil()
        certify = eigsolve.certify_minimal_basis
        calls, solved = [], []

        def residual(*args):
            calls.append(1)
            scale = 2 if len(calls) <= misses else 1
            return {**certify(*args), "residual": scale * eigsolve.GATE_RESIDUAL}

        solve_at = eigsolve._solve_at
        monkeypatch.setattr(eigsolve, "certify_minimal_basis", residual)
        monkeypatch.setattr(eigsolve, "_solve_at",
                            lambda *args: solved.append(1) or solve_at(*args))
        readings = PencilReadings(l0, l1)
        got = polynomial_nullspace(readings, "right")
        assert got.indices == [0, 1, 3]
        assert len(calls) == misses + 1
        assert bool(solved) == (misses == 2)
        assert (("right", True) in readings._staircases) == (misses > 0)

    def test_solve_at_gives_a_certified_basis_of_the_indices(self):
        # one null space per distinct degree, each deflated of the shifts of
        # the vectors of lower degree, from a basis the gate refuses
        l0, l1 = _kronecker_pencil()
        stack = _pencil_stack(l0, l1, "right")
        refused = _spoiled(_basis_at_0(PencilReadings(l0, l1), "right", l0.shape[1]))
        assert refused.indices == [0, 1, 3] and not eigsolve._certified(refused, stack)
        res = eigsolve._solve_at(stack, refused)
        assert res.indices == [0, 1, 3]
        cert = certify_minimal_basis(res, l0, l1)
        assert cert["ok"] and cert["residual"] <= eigsolve.GATE_RESIDUAL, cert

    def test_solve_at_keeps_every_null_direction_of_a_wide_pencil(self):
        # right indices [0] * 6 + [4, 4, 9] of a 21 x 29 pencil: six vectors
        # of degree 0 and two of degree 4 are iterated together, and the null
        # space of the convolution matrix has singular values from exactly 0
        # up to roundoff, which the unshifted iteration scales apart until
        # the vectors of one degree are no longer independent
        indices = [0] * 6 + [4, 4, 9]
        l0, l1 = planted_kronecker(np.random.default_rng(1), indices, 0, 1.0)
        stack = _pencil_stack(l0, l1, "right")
        refused = _spoiled(_basis_at_0(PencilReadings(l0, l1), "right", l0.shape[1]))
        assert refused.indices == indices and not eigsolve._certified(refused, stack)
        res = eigsolve._solve_at(stack, refused)
        cert = certify_minimal_basis(res, l0, l1)
        assert res.indices == indices
        assert cert["ok"] and cert["residual"] <= eigsolve.GATE_RESIDUAL, cert

    def test_solve_at_never_forms_the_convolution_matrix(self):
        # a right index 24 of a 28 x 28 pencil: the block convolution matrix
        # of degree 24 has 26 x 25 blocks of 28 x 28 complex entries, and
        # solving at the index holds less than that at any one time
        l0, l1 = planted_kronecker(np.random.default_rng(0), [24], 0, 1.0)
        n = l0.shape[1]
        stack = _pencil_stack(l0, l1, "right")
        refused = _spoiled(_basis_at_0(PencilReadings(l0, l1), "right", n))
        assert refused.indices == [24] and not eigsolve._certified(refused, stack)
        tracemalloc.start()
        try:
            res = eigsolve._solve_at(stack, refused)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 26 * n * 25 * n * np.dtype(complex).itemsize
        cert = certify_minimal_basis(res, l0, l1)
        assert res.indices == [24] and cert["ok"] and cert["residual"] <= 1e-15, cert

    @pytest.mark.parametrize("structure", STRUCTURES[1:])
    @pytest.mark.parametrize("basis_a, basis_d", list(product(Basis, Basis)))
    def test_seed1_pencil_sides_need_no_reading_at_infinity_nor_solve_at(
            self, monkeypatch, structure, basis_a, basis_d):
        # every side of these pencils takes the basis read at 0
        staircase = PencilReadings.staircase

        def refuse(*args):
            raise AssertionError("the basis read at 0 was rejected")

        def at_0(readings, side, infinity=False):
            if infinity:
                refuse()
            return staircase(readings, side)
        monkeypatch.setattr(eigsolve, "_solve_at", refuse)
        monkeypatch.setattr(PencilReadings, "staircase", at_0)
        sl = build(gen_fixture(FixtureSpec(seed=1, structure=structure,
                                           basis_a=basis_a, basis_d=basis_d)),
                   rng=1)
        counts = [polynomial_nullspace(PencilReadings(sl.L0, sl.L1), side).count
                  for side in ("right", "left")]
        assert sum(counts) > 0

    def test_side_no_reading_numbers_raises_breakdown(self, monkeypatch):
        # both readings of the right side read one index more than its
        # nullity: no basis is taken and none is solved for, on the right
        # or on the left, whose index sum needs a right reading
        l0, l1 = _kronecker_pencil()
        monkeypatch.setattr(PencilReadings, "staircase", count_off("right"))
        for side in ("right", "left"):
            with pytest.raises(BreakdownError, match=f"no {side} reading"):
                polynomial_nullspace(PencilReadings(l0, l1), side)

    @pytest.mark.parametrize("t, near_shift", [
        (1.0, False), (0.12, False), (1e-3, False), (0.03, True), (1e-3, True)],
        ids=["1.0", "0.12", "0.001", "0.03-near-shift", "0.001-near-shift"])
    @settings(derandomize=True, max_examples=20, deadline=None, database=None)
    @given(eps=st.lists(st.integers(0, 5), min_size=3, max_size=3).filter(
               lambda eps: sum(eps) <= 14),
           eta=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
    def test_planted_indices_on_both_sides(self, t, near_shift, eps, eta, seed):
        # at |t| = 1e-3 the staircase's indices are mostly wrong while its
        # vectors still pass the certificate; the index sum with the
        # regular-part size sends those sides to the reading at infinity.
        # The second centre puts eigenvalues next to e^{2i} as well, which
        # no reading privileges
        eta = min(eta, 14 - sum(eps))  # at most 20 x 20
        centres = (0.0, np.exp(2j)) if near_shift else (0.0,)
        l0, l1 = planted_kronecker(np.random.default_rng(seed), eps, eta, t,
                                   centres)
        for side, want in (("right", sorted(eps)), ("left", [eta])):
            res = polynomial_nullspace(PencilReadings(l0, l1), side)
            assert res.indices == want
            assert certify_minimal_basis(res, l0, l1)["ok"]

    @pytest.mark.parametrize("index_sum", [True, False])
    def test_agreeing_misread_is_caught_by_the_index_sum(self, monkeypatch,
                                                         index_sum):
        # the reading at 0 gives 5 for the planted left index 4 and the
        # certificate passes that basis; the regular-part size, 6 as planted,
        # breaks the index sum.  Given the size that would close the sum
        # with that reading, the gate keeps the misread basis
        l0, l1 = planted_kronecker(np.random.default_rng(0), [2, 3, 4], 4,
                                   1e-3, centres=(0.0, np.exp(2j)))
        readings = PencilReadings(l0, l1)
        right, left = (readings.staircase(side)[0] for side in ("right", "left"))
        assert left == [5]
        assert regular_part_size(PencilReadings(l0, l1)) == 6
        rank = l0.shape[1] - 3
        assert sum(right) + 5 + 6 != rank
        if not index_sum:
            monkeypatch.setattr(eigsolve, "regular_part_size",
                                lambda *args: rank - sum(right) - 5)
        res = polynomial_nullspace(PencilReadings(l0, l1), "left")
        assert res.indices == ([4] if index_sum else [5])

    @pytest.mark.parametrize("spoil_reading", [False, True])
    def test_reading_one_degree_too_high_fails_the_index_sum(self, spoil_reading):
        # a reading at 0 whose last index is one too high, with the
        # staircase's own transforms: the back-substituted basis passes the
        # certificate, and only the index sum refutes it, so the side gets
        # the basis read at infinity; the true reading's basis is kept
        sl = build(gen_fixture(FixtureSpec(seed=4, structure="zero-column-b")))
        stack = _pencil_stack(sl.L0, sl.L1, "right")
        readings = PencilReadings(sl.L0, sl.L1)
        guess, sizes, form = readings.staircase("right")
        basis = eigsolve._basis_result(eigsolve._back_substitute(form),
                                       stack.shape[2])
        assert certify_minimal_basis(basis, *stack)["ok"]
        want = basis
        if spoil_reading:
            readings._staircases["right", False] = (guess[:-1] + [guess[-1] + 1],
                                                    sizes, form)
            want = _basis_at_infinity(readings, "right", stack.shape[2])
        got = polynomial_nullspace(readings, "right")
        assert got.indices == want.indices == guess
        assert got.vectors.coeffs.tobytes() == want.vectors.coeffs.tobytes()


class TestRegularPartSize:
    @pytest.mark.parametrize("t", [1.0, 1e-3])
    @pytest.mark.parametrize("centres", [(0.0,), (0.0, np.exp(2j))],
                             ids=["0", "0-and-e2i"])
    @pytest.mark.parametrize("seed", range(4))
    def test_planted_regular_part(self, t, centres, seed):
        # three 1 x 1 blocks per centre; at t = 1e-3 the reading at 0 takes
        # some of those eigenvalues for higher indices, and the count does not
        l0, l1 = planted_kronecker(np.random.default_rng(seed), [1, 2, 3], 2,
                                   t, centres)
        assert regular_part_size(PencilReadings(l0, l1)) == 3 * len(centres)
        if t == 1e-3 and seed == 0:
            readings = PencilReadings(l0, l1)
            assert [readings.staircase(side)[0] for side in ("right", "left")] \
                != [[1, 2, 3], [2]]

    def test_infinite_eigenvalue_is_counted(self):
        # an extra 1 x 1 block lambda 0 + 1 is an eigenvalue at infinity
        l0, l1 = planted_kronecker(np.random.default_rng(1), [1, 2], 3, 0.5)
        l0, l1 = (scipy.linalg.block_diag(a, [[b]]) for a, b in ((l0, 1.0), (l1, 0.0)))
        assert regular_part_size(PencilReadings(l0, l1)) == 4

    @settings(derandomize=True, max_examples=12, deadline=None, database=None)
    @given(eps=st.lists(st.integers(0, 2), min_size=1, max_size=2),
           eta=st.integers(0, 2), k=st.integers(1, 2),
           grade_a=st.integers(1, 3), grade_d=st.integers(1, 3),
           basis_a=st.sampled_from(Basis), basis_d=st.sampled_from(Basis),
           seed=st.integers(0, 2**32 - 1))
    def test_index_sum_closes_on_prescribed_realizations(
            self, eps, eta, k, grade_a, grade_d, basis_a, basis_d, seed):
        # the pencil's right indices are eps + rho_D and its left index eta,
        # by construction and the shift law; with the pencil's normal rank,
        # its width less the number of right indices, the regular part must
        # make up the rest
        r = prescribed_realization(np.random.default_rng(seed), eps, eta, k,
                                   grade_a, grade_d, basis_a, basis_d)
        sl = build(r)
        rank = sl.shape[1] - len(eps)
        size = rank - sum(e + sl.rho_d for e in eps) - eta
        assert regular_part_size(PencilReadings(sl.L0, sl.L1)) == size
        assert sl.regular_size == size
        _assert_step_list_readings(sl)


def _pencil_stack(l0, l1, side) -> np.ndarray:
    """The coefficient stack polynomial_nullspace reads for one side."""
    pencil = PolyMatrix(np.stack([np.asarray(l0, dtype=complex),
                                  np.asarray(l1, dtype=complex)]))
    return (pencil if side == "right" else pencil.T).coeffs


def _basis_at_0(readings, side, cols):
    """The right basis on `side` back-substituted through the staircase at 0."""
    return eigsolve._basis_result(eigsolve._back_substitute(readings.staircase(side)[2]),
                                  cols)


def _spoiled(res):
    """res with 1e-7 seeded noise on each vector's coefficients up to its
    degree, which the gate refuses."""
    coeffs = res.vectors.coeffs.copy()
    noise = np.random.default_rng(5).standard_normal(coeffs.shape)
    for j, d in enumerate(res.indices):
        coeffs[: d + 1, :, j] += 1e-7 * noise[: d + 1, :, j]
    return eigsolve.MinimalBasisResult(PolyMatrix(coeffs), res.indices, res.side)


def _basis_at_infinity(readings, side, cols):
    """The right basis on `side` back-substituted through the staircase of
    the reversed pencil, each vector's coefficients reversed."""
    found = eigsolve._back_substitute(readings.staircase(side, infinity=True)[2])
    return eigsolve._basis_result([(d, cf[::-1]) for d, cf in found], cols)


def _right_coeffs(res) -> np.ndarray:
    """A basis's coefficients laid out as columns, on either side."""
    return (res.vectors if res.side == "right" else res.vectors.T).coeffs


def _rank_read_at_infinity(sl) -> int:
    """rank R as `invariant_orders_at_infinity` reads it: m less the number
    of right minimal indices of the pencil's right staircase at infinity."""
    return sl.realization.m - len(sl.staircase("right", infinity=True)[0])


def test_rational_rank(preset):
    assert _rank_read_at_infinity(build(preset)) == 2


def test_block_degree_on_the_scale_of_the_built_degree():
    vector = np.zeros((4, 3))
    vector[0, 0] = 1.0
    vector[3, 2] = 1e-11  # top coefficient of a deep vector, still exact
    vector[3, 1] = 1e-12
    assert eigsolve.block_degree(vector) == 3
    assert eigsolve.block_degree(vector, slice(1, 2)) == 3
    assert eigsolve.block_degree(vector, slice(0, 1)) == 0
    vector[2, 1] = 1e-3
    vector[3, 1] = 1e-20  # roundoff next to the top coefficient
    assert eigsolve.block_degree(vector, slice(1, 2)) == 2
    vector[3, 1] = 0.0  # exactly zero at the built degree
    assert eigsolve.block_degree(vector, slice(1, 2)) == 2
    assert eigsolve.block_degree(vector, slice(0, 1)) == 0
    vector[:, 0] = 0.0
    assert eigsolve.block_degree(vector, slice(0, 1)) == eigsolve.NEG_INF
