import numpy as np
import pytest

from ratlin.config import MATCH_TOL
from ratlin.errors import PreconditionError
from ratlin.linbuild import Realization, build, transfer_eval
from ratlin.scalareq import ScalarEquation, cleared_form, solve_scalar

from conftest import match_multisets, poly_roots

P = np.polynomial.polynomial


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
    """c/a is reducible when c has a root within MATCH_TOL of a pole, by the
    Newton step of c there; the decision is not read from the rank of
    [a; c] at the poles, which a nonzero 2 x 1 matrix always passes."""

    def test_shared_root(self):
        eq = ScalarEquation.from_lists([-1, 1], [-1, 1], [2, 1], [1, 0, 1])
        with pytest.raises(PreconditionError, match="irreducible"):
            solve_scalar(eq)

    def test_coupled_pair_numerator_denominator(self):
        # (l^2+1)(l+2) over l^2-l-2: roots {+-i, -2} vs {2, -1}
        eq = ScalarEquation.from_lists([-2, -1, 1], [2, 1, 2, 1], [1], [0, 1])
        ok, worst = match_multisets([v for v, _ in solve_scalar(eq).roots],
                                    oracle_roots(eq), 1e-7)
        assert ok, worst

    def test_constant_denominator(self):
        eq = ScalarEquation.from_lists([1], [-3, 0, 1], [1], [0, 1])
        ok, worst = match_multisets([v for v, _ in solve_scalar(eq).roots],
                                    oracle_roots(eq), 1e-7)
        assert ok, worst

    @pytest.mark.parametrize("mult, delta, shared", [
        (1, 0.0, True), (1, 1e-9, True), (1, 0.5 * MATCH_TOL, True),
        (1, 2 * MATCH_TOL, False), (1, 1e-5, False),
        (2, 1.5 * MATCH_TOL, True), (2, 3 * MATCH_TOL, False)])
    def test_near_common_root(self, mult, delta, shared):
        """a = (l - 0.3)(l - 2) and c with a root of multiplicity `mult` at
        0.3 + delta.  The Newton step of c at the pole is delta / mult, so
        c/a counts as reducible when delta is within mult * MATCH_TOL.  For a
        simple root that is the old rule of rooting both and comparing; for
        the double root at 1.5 * MATCH_TOL the old rule solved and this one
        rejects.  0.3 is not a double, so the computed pole is off the root
        of a by roundoff, and [a; c] has numerical rank 1 there even at
        delta = 0: sl.minimality's left test passes.  When solved, every
        root of the cleared form is kept, the one within about delta^2 of
        the pole too: a does not vanish there, so c/a - d/b does."""
        eq = ScalarEquation.from_lists(
            P.polyfromroots([0.3, 2.0]),
            P.polyfromroots([0.3 + delta] * mult + [-1.0] * (2 - mult)),
            [1, 0.5], [0.25, 1])
        sl = build(Realization(A=eq.a, B=eq.b, C=-eq.c, D=eq.d))
        assert all(left for left, _ in sl.minimality.finite_ok_at.values())
        if shared:
            with pytest.raises(PreconditionError, match="irreducible"):
                solve_scalar(eq)
        else:
            ok, worst = match_multisets([v for v, _ in solve_scalar(eq).roots],
                                        poly_roots(cleared_form(eq)), 1e-7)
            assert ok, worst


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

    def test_far_root_kept_with_b_padded_above_its_degree(self):
        """b = 1 + l/2 is padded to d's grade 6, and the cleared polynomial
        has a root at 60.  A scale of sum |b_k| max(1, |l|)^grade for |b(l)|
        would call 60 a root of b; b's Newton step there is 62."""
        c = [1, 1]
        b = [1, 0.5]
        q = P.polyfromroots([60, 1, -1.5, 3, 0.5j, -0.5j])
        d = np.polynomial.chebyshev.poly2cheb(P.polysub(P.polymul(c, [1, 0.5]), q))
        eq = ScalarEquation.from_lists([1], c, b, d)
        assert eq.b.grade == 6
        bound = MATCH_TOL * np.sum(np.abs(eq.b.coeffs)) * 60.0 ** eq.b.grade
        assert abs(eq.b.eval(60.0)[0, 0]) <= bound
        rep = solve_scalar(eq)
        assert rep.excluded == []
        ok, worst = match_multisets([v for v, _ in rep.roots],
                                    [60, 1, -1.5, 3, 0.5j, -0.5j], 1e-9)
        assert ok, worst

    def test_shared_root_of_b_and_cleared_form_excluded(self):
        # b = (l - 0.5)(l + 2) and d = (l - 0.5)(l^2 + 1) vanish together at
        # 0.5, so c b - a d does too; 0.5 is a pole of d/b, not a solution
        b = np.polynomial.chebyshev.poly2cheb(P.polyfromroots([0.5, -2]))
        d = np.polynomial.chebyshev.poly2cheb(P.polyfromroots([0.5, 1j, -1j]))
        eq = ScalarEquation.from_lists([2, 1], [1, 0, 2], b, d)
        assert abs(cleared_form(eq).eval(0.5)[0, 0]) <= 1e-14
        rep = solve_scalar(eq)
        assert len(rep.excluded) == 1 and abs(rep.excluded[0] - 0.5) <= 1e-10
        ok, worst = match_multisets([v for v, _ in rep.roots], oracle_roots(eq), 1e-7)
        assert ok, worst

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
