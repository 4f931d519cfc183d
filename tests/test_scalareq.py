import numpy as np
import pytest

from ratlin.errors import PreconditionError
from ratlin.linbuild import build, transfer_eval
from ratlin.polymat import PolyMatrix
from ratlin.scalareq import (ScalarEquation, cleared_form, irreducibility_check,
                             poly_roots, solve_scalar)

from conftest import match_multisets


def oracle_roots(eq, tol=1e-7):
    """Companion-matrix roots of the cleared polynomial, poles removed."""
    q = cleared_form(eq)
    roots = np.polynomial.polynomial.polyroots(q.coeffs.ravel())
    a_roots = poly_roots(eq.a)
    b_roots = poly_roots(eq.b)
    keep = []
    for z in roots:
        near_a = a_roots.size and np.min(np.abs(a_roots - z)) <= tol * max(1, abs(z))
        near_b = b_roots.size and np.min(np.abs(b_roots - z)) <= tol * max(1, abs(z))
        if not near_a and not near_b:
            keep.append(z)
    return keep


class TestIrreducibility:
    def test_shared_root(self):
        mk = PolyMatrix.from_scalar_coeffs
        assert not irreducibility_check(mk([-1, 1]), mk([-1, 1]))

    def test_coupled_pair_numerator_denominator(self):
        # (l^2+1)(l+2) over l^2-l-2: roots {+-i, -2} vs {2, -1}
        mk = PolyMatrix.from_scalar_coeffs
        assert irreducibility_check(mk([-2, -1, 1]), mk([2, 1, 2, 1]))

    def test_constant_denominator(self):
        mk = PolyMatrix.from_scalar_coeffs
        assert irreducibility_check(mk([1]), mk([-3, 0, 1]))


class TestSolve:
    def test_pure_numerator_equation(self):
        # c/a = 0, d/b = phi_1: the single root is 0
        eq = ScalarEquation.from_lists([1], [0], [1], [0, 1])
        rep = solve_scalar(eq)
        assert len(rep.roots) == 1
        assert abs(rep.roots[0][0]) < 1e-12

    def test_identity_equation_rejected(self):
        # c = l^2 monomial equals d = phi_2/2 + phi_0/2; r is identically zero
        eq = ScalarEquation.from_lists([1], [0, 0, 1], [1], [0.5, 0, 0.5])
        with pytest.raises(PreconditionError, match="identically"):
            solve_scalar(eq)

    def test_reducible_rejected(self):
        eq = ScalarEquation.from_lists([-1, 1], [-1, 1], [1], [0, 1])
        with pytest.raises(PreconditionError, match="irreducible"):
            solve_scalar(eq)

    def test_coupled_pair_equation_matches_oracle(self):
        # the two scalar functions of the regression preset set equal:
        # (l^2+1)(l+2)/(l^2-l-2) = (l^2-1)l^2/(l+2)
        # left side monomial, right side Chebyshev: l+2 -> [2, 1],
        # (l^2-1) l^2 = l^4 - l^2 -> phi_4/8 - phi_0/8
        eq = ScalarEquation.from_lists(
            [-2, -1, 1], [2, 1, 2, 1], [2, 1], [-0.125, 0, 0, 0, 0.125])
        rep = solve_scalar(eq)
        ok, worst = match_multisets([v for v, _ in rep.roots], oracle_roots(eq), 1e-7)
        assert ok, worst

    def test_pole_exclusion(self):
        # b and the cleared polynomial share the root 1; it must be excluded
        # equation: l^2 / 1 = (l-1)/(l-1);  q = l^2(l-1) - (l-1)
        eq = ScalarEquation.from_lists([1], [0, 0, 1], [-1, 1], [-1, 1])
        rep = solve_scalar(eq)
        vals = sorted(v.real for v, _ in rep.roots)
        assert np.allclose(vals, [-1.0], atol=1e-8)
        assert len(rep.excluded) == 2
        assert all(abs(v - 1.0) < 1e-6 for v in rep.excluded)

    def test_residuals_match_one_root_at_a_time(self):
        """On 40 seeded equations (degrees 1-6, real and complex), every root's
        residual is bit for bit |c b - a d|(lam) over the coefficient-sum
        scale, computed for that root alone with Python's abs."""
        checked = 0
        for seed in range(1, 41):
            rng = np.random.default_rng(seed)
            eq = ScalarEquation.from_lists(*(
                rng.standard_normal(deg + 1) + 1j * (seed % 2) * rng.standard_normal(deg + 1)
                for deg in rng.integers(1, 7, size=4)))
            form = cleared_form(eq)
            total = sum(float(np.sum(np.abs(p.coeffs))) for p in (eq.a, eq.b, eq.c, eq.d))
            power = eq.grade_left + eq.grade_right
            for lam, res in solve_scalar(eq, rng=seed).roots:
                want = abs(complex(form.eval(lam)[0, 0])) / (
                    total * max(1.0, abs(lam)) ** power)
                assert res.hex() == want.hex(), (seed, lam)
                checked += 1
        assert checked > 200

    def test_residual_bound(self):
        rng = np.random.default_rng(9)
        eq = ScalarEquation.from_lists(
            rng.standard_normal(5) + 1j * rng.standard_normal(5),
            rng.standard_normal(5) + 1j * rng.standard_normal(5),
            rng.standard_normal(4) + 1j * rng.standard_normal(4),
            rng.standard_normal(4) + 1j * rng.standard_normal(4))
        rep = solve_scalar(eq)
        assert rep.roots
        assert all(res <= 1e-8 for _, res in rep.roots)


class TestPencilStructure:
    def test_block_templates_full_degree(self):
        # M_a = [a_n l + a_{n-1}, a_{n-2}, ..., a_0]
        # M_d = [2 d_m l + d_{m-1}, d_{m-2} - d_m, ..., d_0]
        rng = np.random.default_rng(12)
        a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        eq = ScalarEquation.from_lists(a, c, b, d)
        from ratlin.linbuild import Realization
        sl = build(Realization(A=eq.a, B=eq.b, C=-eq.c, D=eq.d),
                   grade_a=3, grade_d=4)
        assert np.allclose(sl.m_a.coeff(1)[0], [a[3], 0, 0])
        assert np.allclose(sl.m_a.coeff(0)[0], [a[2], a[1], a[0]])
        assert np.allclose(sl.m_d.coeff(1)[0], [2 * d[4], 0, 0, 0])
        assert np.allclose(sl.m_d.coeff(0)[0], [d[3], d[2] - d[4], d[1], d[0]])
        assert np.allclose(sl.m_b.coeff(0)[0], [b[3], b[2] - b[4], b[1], b[0]])
        # the assembled (3,1) block carries +M_c because C = -c
        assert np.allclose(sl.block("M_C", 0)[0],
                           [c[2], c[1], c[0]])
        assert np.allclose(sl.block("M_C", 1)[0], [c[3], 0, 0])

    def test_transfer_is_residual_function(self):
        rng = np.random.default_rng(13)
        eq = ScalarEquation.from_lists(
            rng.standard_normal(3), rng.standard_normal(3),
            rng.standard_normal(4), rng.standard_normal(4))
        from ratlin.linbuild import Realization
        r = Realization(A=eq.a, B=eq.b, C=-eq.c, D=eq.d)
        for lam in (0.3, 1.7 - 0.2j):
            av = eq.a.eval(lam)[0, 0]
            want = eq.d.eval(lam)[0, 0] - eq.c.eval(lam)[0, 0] * eq.b.eval(lam)[0, 0] / av
            got = transfer_eval(r, lam)[0, 0]
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_common_grade_padding():
    eq = ScalarEquation.from_lists([1], [0, 0, 1], [1], [0, 1])
    assert eq.a.grade == 2 and eq.c.grade == 2
    assert eq.b.grade == 1 and eq.d.grade == 1


def test_report_json():
    eq = ScalarEquation.from_lists([1], [-1, 0, 1], [1], [1])
    rep = solve_scalar(eq)
    obj = rep.to_dict()
    assert len(obj["roots"]) == 2
    assert {"lambda", "residual"} <= set(obj["roots"][0])
