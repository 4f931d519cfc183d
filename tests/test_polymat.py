import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ratlin.config import DEFAULT_POINTS, DEFAULT_SEED, unit_circle_points
from ratlin.errors import BasisError, DimensionError
from ratlin.polymat import (NEG_INF, Basis, PolyMatrix, generic_rank, hstack,
                            numerical_rank, vstack)

from conftest import random_polymatrix, schoolbook_matmul


def scalar_horner(coeffs, lam):
    """Independent per-entry oracle: plain Horner on a scalar list."""
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * lam + c
    return acc


class TestEval:
    def test_identity_scaling(self):
        p = PolyMatrix.from_list([np.zeros((2, 2)), np.eye(2)])
        assert np.allclose(p.eval(2.0), 2.0 * np.eye(2))

    def test_chebyshev_phi2(self):
        p = PolyMatrix.from_scalar_coeffs([0, 0, 1], Basis.CHEBYSHEV1)
        assert abs(p.eval(0.5)[0, 0] - (-0.5)) < 1e-15

    def test_random_against_entrywise_horner(self):
        rng = np.random.default_rng(1234)
        p = random_polymatrix(rng, 4, 3, 2)
        for _ in range(5):
            lam = complex(rng.standard_normal(), rng.standard_normal())
            got = p.eval(lam)
            for i in range(3):
                for j in range(2):
                    want = scalar_horner([p.coeffs[k][i, j] for k in range(5)], lam)
                    assert abs(got[i, j] - want) <= 1e-13 * max(1.0, abs(want))


class TestDegree:
    def test_trailing_zeros(self):
        p = PolyMatrix.from_list([np.ones((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))])
        assert p.degree() == 0
        assert p.grade == 2

    def test_pencil(self):
        p = PolyMatrix.from_list([np.ones((2, 2)), np.eye(2)])
        assert p.degree() == 1

    def test_chebyshev_degree_counts_basis_index(self):
        p = PolyMatrix.from_scalar_coeffs([1, 0, 1], Basis.CHEBYSHEV1)
        assert p.degree() == 2

    def test_zero_matrix_sentinel(self):
        assert PolyMatrix.zero(2, 3, grade=2).degree() == NEG_INF


class TestToMonomial:
    def test_monomial_unchanged(self):
        p = random_polymatrix(np.random.default_rng(0), 3, 2, 2)
        assert p.to_monomial() is p

    def test_phi2_coefficients(self):
        p = PolyMatrix.from_scalar_coeffs([0, 0, 1], Basis.CHEBYSHEV1)
        assert np.allclose(p.to_monomial().coeffs.ravel(), [-1, 0, 2])

    def test_eval_agreement_grade6(self):
        rng = np.random.default_rng(77)
        p = random_polymatrix(rng, 6, 2, 3, Basis.CHEBYSHEV1)
        q = p.to_monomial()
        for _ in range(20):
            lam = np.exp(2j * np.pi * rng.uniform())
            a, b = p.eval(lam), q.eval(lam)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    def test_infinite_point_rejected(self):
        p = PolyMatrix.identity(2)
        with pytest.raises(ValueError):
            p.eval(np.inf)

    def test_round_trip_to_chebyshev(self):
        rng = np.random.default_rng(5)
        p = random_polymatrix(rng, 5, 2, 2, Basis.CHEBYSHEV1)
        back = p.to_monomial().to_basis(Basis.CHEBYSHEV1)
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-12


@pytest.mark.parametrize("grade", range(13))
def test_to_monomial_matches_cheb2poly(grade):
    """Each T_k converts to cheb2poly's integer coefficients exactly, and a
    random matrix converts entry by entry as cheb2poly does."""
    cheb2poly = np.polynomial.chebyshev.cheb2poly
    for k, unit in enumerate(np.eye(grade + 1)):
        got = PolyMatrix.from_scalar_coeffs(unit, Basis.CHEBYSHEV1).to_monomial()
        assert got.basis is Basis.MONOMIAL and got.grade == grade
        want = np.zeros(grade + 1)
        want[:k + 1] = cheb2poly(unit[:k + 1])
        assert np.array_equal(got.coeffs.ravel(), want)
    p = random_polymatrix(np.random.default_rng(grade), grade, 2, 3, Basis.CHEBYSHEV1)
    want = np.apply_along_axis(cheb2poly, 0, p.coeffs)
    # the monomial coefficients of T_k grow like 2^k, and so do the roundings
    assert np.max(np.abs(p.to_monomial().coeffs - want)) <= 1e-13 * 2.0 ** grade


class TestEmptyStack:
    def test_empty_stack_rejected(self):
        with pytest.raises(DimensionError):
            PolyMatrix(np.zeros((0, 2, 2)))

    def test_with_grade_never_empties(self):
        with pytest.raises(DimensionError):
            PolyMatrix.zero(2, 2, grade=2).with_grade(-1)

    @pytest.mark.parametrize("g", [-1, 0])
    def test_zero_matrix_reversal_keeps_one_coefficient(self, g):
        q = PolyMatrix.zero(2, 3, grade=2, basis=Basis.CHEBYSHEV1).reversal(g)
        assert q.coeffs.shape == (1, 2, 3) and q.is_zero()
        assert q.basis is Basis.MONOMIAL


class TestReversal:
    def test_pencil_swap(self):
        a0, a1 = np.ones((2, 2)), np.eye(2)
        p = PolyMatrix.from_list([a0, a1])
        q = p.reversal(1)
        assert np.allclose(q.coeffs[0], a1)
        assert np.allclose(q.coeffs[1], a0)

    def test_scalar_with_padding(self):
        # lambda^2 - lambda - 2 reversed at grade 3
        p = PolyMatrix.from_scalar_coeffs([-2, -1, 1])
        q = p.reversal(3)
        assert np.allclose(q.coeffs.ravel(), [0, 1, -1, -2])

    def test_involution(self):
        p = random_polymatrix(np.random.default_rng(9), 4, 2, 2)
        back = p.reversal(4).reversal(4)
        assert np.max(np.abs(back.coeffs - p.coeffs)) < 1e-15

    def test_rejects_low_grade(self):
        p = PolyMatrix.from_scalar_coeffs([1, 2, 3])
        with pytest.raises(DimensionError):
            p.reversal(1)

    def test_point_identity(self):
        rng = np.random.default_rng(31)
        p = random_polymatrix(rng, 3, 2, 2)
        g = 5
        q = p.reversal(g)
        for _ in range(5):
            lam = complex(rng.standard_normal(), rng.standard_normal())
            if abs(lam) < 0.1:
                continue
            lhs = q.eval(lam)
            rhs = lam ** g * p.eval(1.0 / lam)
            assert np.max(np.abs(lhs - rhs)) <= 1e-11 * max(1.0, np.max(np.abs(rhs)))


class TestGenericRank:
    def test_identity_times_lambda(self):
        p = PolyMatrix.from_list([np.zeros((3, 3)), np.eye(3)])
        assert generic_rank(p) == 3

    def test_dependent_column(self):
        p = PolyMatrix.from_list([np.zeros((2, 1)), np.array([[1.0], [0.0]]),
                                  np.array([[0.0], [1.0]])])
        assert generic_rank(p) == 1

    def test_known_factor_rank(self):
        rng = np.random.default_rng(17)
        u = random_polymatrix(rng, 2, 4, 2)
        v = random_polymatrix(rng, 1, 2, 5)
        assert generic_rank(u @ v) == 2

    def test_invariant_under_invertible_factors(self):
        rng = np.random.default_rng(23)
        p = random_polymatrix(rng, 2, 3, 4)
        left = PolyMatrix.from_list([rng.standard_normal((3, 3)) + np.eye(3) * 4])
        right = PolyMatrix.from_list([rng.standard_normal((4, 4)) + np.eye(4) * 4])
        assert generic_rank(left @ p @ right) == generic_rank(p)

    @pytest.mark.parametrize("rank_scale", [1.0, 100.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_stops_at_full_rank_with_the_maximum_over_the_points(self, seed, rank_scale):
        # the default seed's points, drawn once per process; the first that
        # shows full rank ends the sampling, as no later one can show more
        rng = np.random.default_rng(seed)
        p = random_polymatrix(rng, 1, 4, 3) @ random_polymatrix(rng, 1, 3, 4 + seed % 2)
        if seed % 3 == 0:  # a rank point among the samples
            p = p @ PolyMatrix(np.array([-DEFAULT_POINTS[0] * np.eye(p.cols), np.eye(p.cols)]))
        fresh = unit_circle_points(np.random.default_rng(DEFAULT_SEED), 5)
        assert fresh.tobytes() == DEFAULT_POINTS.tobytes()
        assert unit_circle_points(None, 3).tobytes() == fresh[:3].tobytes()
        ranks = numerical_rank(p.eval(fresh), rank_scale)
        assert generic_rank(p, rank_scale=rank_scale) == ranks.max()


class TestArithmetic:
    def test_add_zero(self):
        p = random_polymatrix(np.random.default_rng(2), 2, 2, 3)
        q = p + PolyMatrix.zero(2, 3, grade=2)
        assert np.allclose(q.coeffs, p.coeffs)

    def test_identity_matmul(self):
        p = random_polymatrix(np.random.default_rng(3), 2, 2, 2)
        q = PolyMatrix.identity(2) @ p
        assert np.max(np.abs(q.coeffs - p.coeffs)) < 1e-15

    def test_matmul_eval_agreement(self):
        rng = np.random.default_rng(4)
        a = random_polymatrix(rng, 2, 2, 3)
        b = random_polymatrix(rng, 3, 3, 2)
        prod = a @ b
        assert prod.grade == 5
        for _ in range(10):
            lam = np.exp(2j * np.pi * rng.uniform())
            want = a.eval(lam) @ b.eval(lam)
            assert np.max(np.abs(prod.eval(lam) - want)) <= 1e-12 * max(
                1.0, np.max(np.abs(want)))

    def test_add_grade_max_rule(self):
        a = random_polymatrix(np.random.default_rng(5), 1, 2, 2)
        b = random_polymatrix(np.random.default_rng(6), 3, 2, 2)
        assert (a + b).grade == 3

    def test_dimension_mismatch(self):
        a = PolyMatrix.zero(2, 3)
        with pytest.raises(DimensionError):
            _ = a + PolyMatrix.zero(3, 2)
        with pytest.raises(DimensionError):
            _ = a @ PolyMatrix.zero(2, 2)

    def test_basis_mismatch(self):
        a = PolyMatrix.zero(2, 2)
        b = PolyMatrix.zero(2, 2, basis=Basis.CHEBYSHEV1)
        with pytest.raises(BasisError):
            _ = a + b

    def test_matmul_basis_mismatch(self):
        a = PolyMatrix.identity(2)
        b = PolyMatrix.identity(2, Basis.CHEBYSHEV1)
        with pytest.raises(BasisError):
            _ = a @ b
        with pytest.raises(BasisError):
            _ = b @ a

    def test_stacking(self):
        rng = np.random.default_rng(8)
        a = random_polymatrix(rng, 1, 2, 2)
        b = random_polymatrix(rng, 3, 2, 3)
        h = hstack(a, b)
        assert h.shape == (2, 5) and h.grade == 3
        v = vstack(a, random_polymatrix(rng, 2, 4, 2))
        assert v.shape == (6, 2)
        lam = 0.3 + 0.8j
        assert np.allclose(h.eval(lam), np.hstack([a.eval(lam), b.eval(lam)]))


def test_json_round_trip():
    rng = np.random.default_rng(12)
    p = random_polymatrix(rng, 3, 2, 4, Basis.CHEBYSHEV1)
    q = PolyMatrix.from_dict(p.to_dict())
    assert q.basis is Basis.CHEBYSHEV1
    assert q.grade == 3
    assert np.max(np.abs(q.coeffs - p.coeffs)) == 0.0


def test_numerical_rank_cutoff():
    mat = np.diag([1.0, 1e-20, 0.0])
    assert numerical_rank(mat) == 1
    assert numerical_rank(np.zeros((3, 3))) == 0
    assert numerical_rank(np.zeros((0, 3))) == 0


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(grade=st.integers(0, 12), basis=st.sampled_from(list(Basis)),
       shape=st.sampled_from([(1, 1), (2, 3), (3, 1), (1, 4), (3, 3)]),
       is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1),
       polar=st.lists(st.tuples(st.floats(0.0, 30.0), st.floats(-np.pi, np.pi)),
                      min_size=1, max_size=6))
def test_eval_at_points_matches_each_point(grade, basis, shape, is_complex, seed, polar):
    """Slice i of the value at a point array is bit for bit the value at point i."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((grade + 1, *shape))
    if is_complex:
        coeffs = coeffs + 1j * rng.standard_normal(coeffs.shape)
    p = PolyMatrix(coeffs, basis)
    pts = np.array([cmath.rect(r, t) for r, t in polar])
    vals = p.eval(pts)
    assert vals.shape == (len(pts), *shape)
    for i, z in enumerate(pts):
        assert vals[i].tobytes() == p.eval(z).tobytes()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(rows=st.integers(0, 5), cols=st.integers(0, 5), seed=st.integers(0, 2**32 - 1),
       ranks=st.lists(st.tuples(st.integers(0, 5), st.integers(-8, 8)),
                      min_size=1, max_size=6),
       rank_scale=st.sampled_from([1.0, 100.0, 1e6]))
def test_numerical_rank_of_stack_matches_each_matrix(rows, cols, seed, ranks, rank_scale):
    """A stack's ranks are the ranks of its matrices, each cut off at its own
    scale; zero and empty matrices included."""
    rng = np.random.default_rng(seed)
    stack = np.stack([10.0 ** e * (
        rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))
        + 1j * (rng.standard_normal((rows, k)) @ rng.standard_normal((k, cols))))
        for k, e in ((min(r, rows, cols), e) for r, e in ranks)])
    got = numerical_rank(stack, rank_scale)
    assert got.shape == (len(ranks),)
    assert got.tolist() == [numerical_rank(m, rank_scale) for m in stack]


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(grades=st.tuples(st.integers(0, 12), st.integers(0, 12)),
       basis=st.sampled_from(list(Basis)),
       dims=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
       is_complex=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_matmul_stays_in_the_operands_basis(grades, basis, dims, is_complex, seed):
    """P @ Q keeps the basis and has grade g_a + g_b; its values are the
    products of the values, and in the monomial basis its coefficients are
    the schoolbook double loop's, bit for bit."""
    rng = np.random.default_rng(seed)
    (ga, gb), (rows, inner, cols) = grades, dims
    a, b = (rng.standard_normal((g + 1, r, c)) + 1j * is_complex
            * rng.standard_normal((g + 1, r, c))
            for g, r, c in ((ga, rows, inner), (gb, inner, cols)))
    p, q = PolyMatrix(a, basis), PolyMatrix(b, basis)
    prod = p @ q
    assert prod.basis is basis and prod.grade == ga + gb
    assert prod.shape == (rows, cols)
    # an ellipse about [-1, 1], where neither basis grows fast
    theta = rng.uniform(0.0, 2 * np.pi, 5)
    pts = np.cos(theta) + 0.2j * np.sin(theta)
    want = p.eval(pts) @ q.eval(pts)
    assert np.max(np.abs(prod.eval(pts) - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    if basis is Basis.MONOMIAL:
        assert prod.coeffs.tobytes() == schoolbook_matmul(p, q).tobytes()


def test_empty_point_array():
    p = PolyMatrix(np.ones((3, 2, 3)), Basis.CHEBYSHEV1)
    assert p.eval(np.zeros(0)).shape == (0, 2, 3)
    assert numerical_rank(np.zeros((0, 2, 3))).shape == (0,)
