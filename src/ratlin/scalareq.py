"""Scalar rational equations c(lambda)/a(lambda) = d(lambda)/b(lambda).

a and c are monomial polynomials of a common grade, b and d first-kind
Chebyshev polynomials of a common grade.  The equation is solved through the
structured linearization of the realization (A, B, C, D) = (a, b, -c, d),
whose transfer function is r(lambda) = d - c a^{-1} b; the sign convention
C = -c keeps the transfer function equal to the residual function r, and it
makes the assembled (3,1) block of the pencil equal +M_c.  Roots of b are
filtered out as poles of the right-hand side.
"""

from dataclasses import dataclass

import numpy as np

from .config import MATCH_TOL, make_rng
from .errors import PreconditionError
from .eigsolve import classify
from .linbuild import Realization, _deg, build
from .polymat import Basis, PolyMatrix


@dataclass(frozen=True)
class ScalarEquation:
    """The four scalar polynomials, padded to their side-wise common grades."""

    a: PolyMatrix
    c: PolyMatrix
    b: PolyMatrix
    d: PolyMatrix

    def __post_init__(self):
        for name in ("a", "c", "b", "d"):
            poly = getattr(self, name)
            if poly.shape != (1, 1):
                raise PreconditionError(f"{name} must be a 1x1 polynomial")
        if self.a.basis is not Basis.MONOMIAL or self.c.basis is not Basis.MONOMIAL:
            raise PreconditionError("a and c must be in the monomial basis")
        if self.b.basis is not Basis.CHEBYSHEV1 or self.d.basis is not Basis.CHEBYSHEV1:
            raise PreconditionError("b and d must be in the Chebyshev basis")
        if self.a.is_zero() or self.b.is_zero():
            raise PreconditionError("denominators a and b must be nonzero")
        n = int(max(1, _deg(self.a), _deg(self.c)))
        m = int(max(1, _deg(self.b), _deg(self.d)))
        object.__setattr__(self, "a", self.a.pad_to_grade(n))
        object.__setattr__(self, "c", self.c.pad_to_grade(n))
        object.__setattr__(self, "b", self.b.pad_to_grade(m))
        object.__setattr__(self, "d", self.d.pad_to_grade(m))

    @property
    def grade_left(self) -> int:
        return self.a.grade

    @property
    def grade_right(self) -> int:
        return self.b.grade

    @staticmethod
    def from_lists(a, c, b, d) -> "ScalarEquation":
        return ScalarEquation(
            a=PolyMatrix.from_scalar_coeffs(a, Basis.MONOMIAL),
            c=PolyMatrix.from_scalar_coeffs(c, Basis.MONOMIAL),
            b=PolyMatrix.from_scalar_coeffs(b, Basis.CHEBYSHEV1),
            d=PolyMatrix.from_scalar_coeffs(d, Basis.CHEBYSHEV1))


@dataclass(frozen=True)
class RootReport:
    roots: list       # (value, cleared-form residual) pairs
    excluded: list    # values filtered out as poles

    def to_dict(self) -> dict:
        return {
            "roots": [{"lambda": [v.real, v.imag], "residual": float(res)}
                      for v, res in self.roots],
            "excluded": [[v.real, v.imag] for v in self.excluded],
        }


def cleared_form(eq: ScalarEquation) -> PolyMatrix:
    """The polynomial c*b - a*d in the monomial basis."""
    cb = eq.c @ eq.b.to_monomial()
    ad = eq.a @ eq.d.to_monomial()
    return cb - ad


def cleared_residual(eq: ScalarEquation, form: PolyMatrix, lams) -> tuple:
    """|c b - a d| at a 1-D array of points, from `form` = cleared_form(eq),
    together with its coefficient-sum scale, as two arrays.

    Moduli go through np.hypot, which rounds like Python's abs of a complex
    number (np.abs can differ in the last bit), and the powers through
    Python floats, which np.power can also differ from.
    """
    lams = np.asarray(lams, dtype=complex)
    vals = form.eval(lams)[:, 0, 0]
    total = sum(float(np.sum(np.abs(p.coeffs)))
                for p in (eq.a, eq.b, eq.c, eq.d))
    power = eq.grade_left + eq.grade_right
    scale = [total * max(1.0, m) ** power
             for m in np.hypot(lams.real, lams.imag).tolist()]
    return np.hypot(vals.real, vals.imag), np.array(scale)


def solve_scalar(eq: ScalarEquation, rng=None) -> RootReport:
    """All solutions of c/a = d/b that are not poles of either side.

    The classified zeros of the structured linearization are the roots of
    the cleared polynomial.  c/a is reducible when c has a root at a pole,
    a root of a; a singular pencil means r == 0; zeros at a root of b are
    excluded.  Both root tests are `_near_root`, so no polynomial is rooted
    apart from the pencils' QZ.
    """
    rng = make_rng(rng)
    realiz = Realization(A=eq.a, B=eq.b, C=-eq.c, D=eq.d)
    sl = build(realiz, grade_a=eq.grade_left, grade_d=eq.grade_right, rng=rng)
    if _near_root(eq.c, sl.state_spectrum.finite()).any():
        raise PreconditionError("c/a is not irreducible: a and c share a root")
    try:
        report = classify(sl)
    except PreconditionError as exc:  # with p = m = 1 only a singular pencil
        raise PreconditionError(
            "the equation holds identically (r == 0); no discrete root set") from exc

    zeros = np.array([z.value for z in report.zeros if z.classified], dtype=complex)
    pole = _near_root(eq.b, zeros)
    kept = zeros[~pole].tolist()
    val, scale = cleared_residual(eq, cleared_form(eq), kept)
    return RootReport(roots=list(zip(kept, (val / scale).tolist())),
                      excluded=zeros[pole].tolist())


def _near_root(p: PolyMatrix, pts: np.ndarray) -> np.ndarray:
    """Whether the Newton step |p(z) / p'(z)| of the scalar p is at most
    MATCH_TOL * max(1, |z|) at each point z.  Near a root of multiplicity k
    the step is the distance to it over k, so a k-fold root counts within
    k * MATCH_TOL * max(1, |z|).  The step is free of p's scale and of zero
    leading coefficients; the zero polynomial has no roots."""
    if p.basis is Basis.MONOMIAL:  # np.polynomial is loaded on first use
        val, der = np.polynomial.polynomial.polyval, np.polynomial.polynomial.polyder
    else:
        val, der = np.polynomial.chebyshev.chebval, np.polynomial.chebyshev.chebder
    coeffs = p.coeffs.ravel()
    step = np.abs(val(pts, coeffs)) <= MATCH_TOL * np.maximum(
        1.0, np.abs(pts)) * np.abs(val(pts, der(coeffs)))
    return step & coeffs.any()
