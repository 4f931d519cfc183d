"""Cross-module corner cases: wild grade mixes, Chebyshev everywhere,
degenerate dimensions, and determinant-level spectral cross-checks."""

import numpy as np
import pytest

from ratlin.eigsolve import classify, pencil_eigs
from ratlin.linbuild import PencilReadings, Realization, build, transfer_eval
from ratlin.polymat import Basis, PolyMatrix
from ratlin.recover import eigenpair, factorization_residuals
from ratlin.scalareq import ScalarEquation, cleared_form, solve_scalar

from conftest import (match_multisets, poly_det_coeffs, poly_roots,
                      random_polymatrix, random_realization)


def pencil_det_oracle_roots(sl):
    """Roots of det L(lambda) by evaluation-interpolation on the pencil."""
    pencil = PolyMatrix(np.stack([sl.L0, sl.L1]))
    coeffs = poly_det_coeffs(pencil)
    if coeffs.size <= 1:
        return np.zeros(0, dtype=complex)
    return np.polynomial.polynomial.polyroots(coeffs)


@pytest.mark.parametrize("seed,ba,bd", [
    (301, Basis.CHEBYSHEV1, Basis.CHEBYSHEV1),
    (302, Basis.CHEBYSHEV1, Basis.MONOMIAL),
    (303, Basis.MONOMIAL, Basis.CHEBYSHEV1),
])
def test_classify_matches_pencil_determinant(seed, ba, bd):
    r = random_realization(seed, n=2, p=2, m=2, grade_a=2, grade_d=3,
                           basis_a=ba, basis_d=bd)
    sl = build(r)
    rep = classify(sl)
    oracle = pencil_det_oracle_roots(sl)
    ok, worst = match_multisets([z.value for z in rep.zeros], oracle, 1e-6)
    assert ok, worst
    # recovery works at each classified zero away from poles
    for entry in rep.zeros:
        if entry.near_pole:
            continue
        ep = eigenpair(sl, entry.value)
        assert max(ep.residual_right, ep.residual_left) <= 1e-8


def test_wildly_unbalanced_grades():
    r = random_realization(310, n=2, p=3, m=2, grade_a=4, grade_d=1)
    sl = build(r)
    assert sl.grade_a == 4 and sl.grade_d == 1
    assert sl.shape == (2 * 4 + 3 + 0, 2 * 4 + 2)
    rng = np.random.default_rng(0)
    for _ in range(5):
        z = 1.2 * np.exp(2j * np.pi * rng.uniform())
        rr, ll = factorization_residuals(sl, z)
        assert max(rr, ll) <= 1e-10


def test_one_by_one_everything():
    mk = PolyMatrix.from_scalar_coeffs
    r = Realization(A=mk([1, 0, 1]), B=mk([2]), C=mk([0, 1]), D=mk([1, 1]))
    sl = build(r)
    rep = classify(sl)
    # R = 1 + l + 2l/(l^2+1): zeros where (l+1)(l^2+1) + 2l = 0
    oracle = np.polynomial.polynomial.polyroots([1, 3, 1, 1])
    ok, worst = match_multisets([z.value for z in rep.zeros], oracle, 1e-8)
    assert ok, worst
    poles = sorted((v.imag for v, _ in rep.poles))
    assert np.allclose(poles, [-1, 1], atol=1e-8)


def test_scalar_equation_with_padded_degrees():
    # deg c > deg a and deg d < deg b: the common-grade padding paths
    rng = np.random.default_rng(320)
    a = [1.0]                       # constant denominator, grade padded to 3
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    d = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    eq = ScalarEquation.from_lists(a, c, b, d)
    assert eq.a.grade == 3 and eq.d.grade == 5
    rep = solve_scalar(eq)
    q = cleared_form(eq)
    oracle = np.polynomial.polynomial.polyroots(np.trim_zeros(q.coeffs.ravel(), "b"))
    br = poly_roots(eq.b)
    keep = [z for z in oracle if np.min(np.abs(br - z)) > 1e-7 * max(1, abs(z))]
    ok, worst = match_multisets([v for v, _ in rep.roots], keep, 1e-7)
    assert ok, worst


def test_zero_width_polymatrix_through_ops():
    empty = PolyMatrix(np.zeros((2, 3, 0), dtype=complex))
    assert empty.eval(1.5).shape == (3, 0)
    assert (empty.T @ empty).shape == (0, 0)
    from ratlin.polymat import generic_rank, hstack
    assert generic_rank(empty) == 0
    wide = hstack(empty, PolyMatrix.identity(3))
    assert wide.shape == (3, 3)


def test_state_pencil_eigs_stable_under_grade_override():
    r = random_realization(330, n=2, p=2, m=2, grade_a=2, grade_d=2)
    base = build(r)
    padded = build(r, grade_a=4)
    e1 = pencil_eigs(PencilReadings(base.state.L0, base.state.L1)).finite()
    e2 = pencil_eigs(PencilReadings(padded.state.L0, padded.state.L1)).finite()
    # padding adds infinite eigenvalues only; the finite spectrum is unchanged
    ok, worst = match_multisets(e2, e1, 1e-8)
    assert ok, worst
    lam = 0.4 - 1.1j
    assert np.allclose(transfer_eval(r, lam), transfer_eval(r, lam))


def test_transfer_consistency_between_padded_builds():
    r = random_realization(331, n=2, p=3, m=2, grade_a=1, grade_d=2)
    sl1 = build(r)
    sl2 = build(r, grade_a=3, grade_d=4)
    rng = np.random.default_rng(1)
    for _ in range(5):
        z = 1.1 * np.exp(2j * np.pi * rng.uniform())
        from ratlin.polymat import numerical_rank
        lhs = numerical_rank(sl1.pencil_eval(z)) - sl1.s
        rhs = numerical_rank(sl2.pencil_eval(z)) - sl2.s
        assert lhs == rhs
