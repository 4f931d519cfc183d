"""Assembly of the structured linear polynomial system matrix.

Given a realization R(lambda) = D + C A^{-1} B with polynomial blocks, the
builder produces the constant pencil pair (L0, L1) whose block template is

    [ M_A   M_B ]
    [ K_A    0  ]
    [-M_C   M_D ]
    [  0    K_D ]

together with the dual-basis pairs and full block-partition metadata.  The
state pencil L_A = [M_A; K_A] occupies the leading n(1+rho_A) rows/columns.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import unit_circle_points
from .dualbases import DualBasisPair, pair_for
from .errors import BasisError, DimensionError, PoleError, PreconditionError
from .polymat import RECURRENCE, Basis, PolyMatrix, generic_rank, numerical_rank


@dataclass(frozen=True)
class Realization:
    """Quadruple (A, B, C, D) with regular n x n state matrix A.

    A and C must share one basis, B and D the other (the two sides may
    differ).  The represented rational matrix is D + C A^{-1} B.
    """

    A: PolyMatrix
    B: PolyMatrix
    C: PolyMatrix
    D: PolyMatrix

    def __post_init__(self):
        for key in "ABCD":
            coeffs = getattr(self, key).coeffs
            finite = np.isfinite(coeffs)
            if not finite.all():
                k, i, j = np.argwhere(~finite)[0].tolist()
                raise ValueError(f"block {key}: non-finite coefficient "
                                 f"{coeffs[k, i, j]} of degree {k} at entry ({i}, {j})")
        n, p, m = self.n, self.p, self.m
        if n < 1:
            raise PreconditionError("state dimension must be >= 1")
        if self.A.shape != (n, n) or self.B.shape != (n, m) \
                or self.C.shape != (p, n) or self.D.shape != (p, m):
            raise DimensionError(
                f"inconsistent block shapes A{self.A.shape} B{self.B.shape} "
                f"C{self.C.shape} D{self.D.shape}")
        if self.A.basis is not self.C.basis:
            raise BasisError("A and C must share a basis")
        if self.B.basis is not self.D.basis:
            raise BasisError("B and D must share a basis")

    @property
    def n(self) -> int:
        return self.A.rows

    @property
    def p(self) -> int:
        return self.C.rows

    @property
    def m(self) -> int:
        return self.B.cols

    def check_state_regular(self, rng=None) -> bool:
        """Probabilistic certificate: A invertible at a seeded random point."""
        return generic_rank(self.A, rng, samples=1) == self.n

    def grade_sides(self, grade_a: int | None = None,
                    grade_d: int | None = None) -> tuple:
        """Grades (d_A, d_D): max(1, deg) over each side's blocks, or the
        given grades where they are higher (overrides only go upward)."""
        da = int(max(1.0, _deg(self.A), _deg(self.C)))
        dd = int(max(1.0, _deg(self.D), _deg(self.B)))
        return max(da, grade_a or 0), max(dd, grade_d or 0)

    def to_dict(self) -> dict:
        return {"A": self.A.to_dict(), "B": self.B.to_dict(),
                "C": self.C.to_dict(), "D": self.D.to_dict()}

    @staticmethod
    def from_dict(obj: dict) -> "Realization":
        if not isinstance(obj, dict):
            raise ValueError("a realization is a JSON object with blocks A, B, C, D")
        blocks = {}
        for key in "ABCD":
            try:
                blocks[key] = PolyMatrix.from_dict(obj[key])
            except ValueError as exc:
                raise ValueError(f"block {key}: {exc}") from exc
        return Realization(**blocks)


def _deg(p: PolyMatrix) -> int:
    """Degree of p, with 0 for the zero matrix."""
    return max(p.degree(), 0)


@dataclass(frozen=True)
class StructuredLinearization:
    """Constant pencil L(lambda) = L1 lambda + L0 with block metadata."""

    L0: np.ndarray
    L1: np.ndarray
    grade_a: int
    grade_d: int
    blocks: dict
    pair_a: DualBasisPair
    pair_d: DualBasisPair
    realization: Realization
    m_a: PolyMatrix
    m_b: PolyMatrix
    m_c: PolyMatrix  # stored unsigned; the assembled (3,1) block is -M_C
    m_d: PolyMatrix

    def __post_init__(self):
        for name in ("L0", "L1"):
            arr = np.array(getattr(self, name), dtype=complex)  # private copy
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def rho_a(self) -> int:
        return self.grade_a - 1

    @property
    def rho_d(self) -> int:
        return self.grade_d - 1

    @property
    def s(self) -> int:
        """Padding size n*rho_A + m*rho_D."""
        r = self.realization
        return r.n * self.rho_a + r.m * self.rho_d

    @property
    def shape(self) -> tuple:
        return self.L0.shape

    def pencil_eval(self, lam) -> np.ndarray:
        """L(lam), or the stack of values at a 1-D array of points."""
        return self.L1 * np.asarray(lam, dtype=complex)[..., None, None] + self.L0

    @cached_property
    def spectrum(self):
        """Full-pencil QZ with left and right vectors, run once on first use."""
        from .eigsolve import pencil_eigs  # eigsolve imports this module
        return pencil_eigs(self.L0, self.L1, vectors=True)

    @cached_property
    def state_spectrum(self):
        """State-pencil QZ without vectors, run once on first use."""
        from .eigsolve import pencil_eigs  # eigsolve imports this module
        return pencil_eigs(*self.state_pencil())

    @cached_property
    def minimality(self) -> "MinimalityReport":
        """Pointwise minimality at the finite eigenvalues of `state_spectrum`,
        and at infinity with the build grades; built once on first use.
        [A; C] and [A, B] have rank n wherever A is invertible, so the finite
        checks can fail only at the poles."""
        return minimality_report(self.realization, self.state_spectrum.finite(),
                                 self.grade_a, self.grade_d)

    @cached_property
    def eigenpairs(self) -> dict:
        """Recovered pair at each finite eigenvalue of `spectrum` off the
        poles whose slice is nonzero, keyed by the eigenvalue; built once on
        first use."""
        from .recover import _spectrum_eigenpairs  # recover imports this module
        return _spectrum_eigenpairs(self)

    def state_pencil(self) -> tuple:
        """(L0, L1) of the state block L_A = [M_A; K_A]."""
        r0, r1, c0, c1 = self.blocks["L_A"]
        return self.L0[r0:r1, c0:c1], self.L1[r0:r1, c0:c1]

    def block(self, name: str, which: int = 0) -> np.ndarray:
        r0, r1, c0, c1 = self.blocks[name]
        src = self.L0 if which == 0 else self.L1
        return src[r0:r1, c0:c1]

    def to_dict(self) -> dict:
        """Pencil and block metadata; L0 and L1 stay complex arrays."""
        return {
            "L0": self.L0,
            "L1": self.L1,
            "blocks": {k: list(v) for k, v in self.blocks.items()},
            "rhoA": self.rho_a,
            "rhoD": self.rho_d,
        }


@dataclass(frozen=True)
class MinimalityReport:
    """Pointwise and at-infinity minimality results for one realization.

    finite_ok_at maps each requested point to the (left, right) rank tests;
    infinity_ok holds the reversal tests at 0; grades records (d_A, d_D).
    """

    finite_ok_at: dict
    infinity_ok: tuple
    grades: tuple

    @property
    def all_ok(self) -> bool:
        return all(l and r for l, r in self.finite_ok_at.values()) \
            and all(self.infinity_ok)

    def to_dict(self) -> dict:
        return {
            "finite": [{"lambda": [z.real, z.imag],
                        "left": bool(l), "right": bool(r)}
                       for z, (l, r) in self.finite_ok_at.items()],
            "infinity": [bool(v) for v in self.infinity_ok],
            "grades": list(self.grades),
        }


def minimality_report(r: Realization, points, grade_a: int | None = None,
                      grade_d: int | None = None) -> MinimalityReport:
    """Run the finite checks at every requested point plus the reversal
    checks at 0, and bundle the results."""
    da, dd = r.grade_sides(grade_a, grade_d)
    pts = np.array(list(points), dtype=complex)
    finite = dict(zip(pts.tolist(), check_finite_minimality(r, pts)))
    inf_ok = check_infinity_minimality(r, da, dd)
    return MinimalityReport(finite_ok_at=finite, infinity_ok=inf_ok,
                            grades=(da, dd))


def row_pencil(p: PolyMatrix, pair: DualBasisPair) -> PolyMatrix:
    """Linear M_P with M_P(lambda) N(lambda)^T = P(lambda), N from the pair.

    With d = pair.d and the recurrence (alpha, beta, gamma) at k = d-1:
    [P_d (l - beta)/alpha + P_{d-1}, P_{d-2} - P_d gamma/alpha, ..., P_0] over
    the padded coefficients, except that a monomial matrix of degree exactly
    d-1 >= 1 is packed as [0, P_{d-1} l + P_{d-2}, P_{d-3}, ..., P_0].
    """
    if p.basis is not pair.basis:
        raise BasisError("row_pencil: matrix and pair bases differ")
    d, deg = pair.d, p.degree()
    if d < max(1, _deg(p)):
        raise DimensionError(f"target grade {d} below degree {deg}")
    if pair.s != p.cols:
        raise DimensionError("pair does not match the block size")

    q, cols = p.with_grade(d).coeffs, p.cols
    m0 = np.concatenate(q[d - 1::-1], axis=1)  # [P_{d-1}, ..., P_0]
    m1 = np.zeros_like(m0)
    if p.basis is Basis.MONOMIAL and deg == d - 1 and deg >= 1:
        m1[:, cols:2 * cols] = m0[:, :cols]
        m0[:, :cols] = 0.0
    else:
        alpha, beta, gamma = RECURRENCE[p.basis](d - 1)
        m1[:, :cols] = q[d] / alpha
        m0[:, :cols] -= beta / alpha * q[d]
        if d > 1:
            m0[:, cols:2 * cols] -= gamma / alpha * q[d]
    return PolyMatrix(np.stack([m0, m1]), p.basis)


def build(r: Realization, grade_a: int | None = None,
          grade_d: int | None = None, rng=None) -> StructuredLinearization:
    """Assemble the structured pencil; grades may only be overridden upward."""
    if not r.check_state_regular(rng):
        raise PreconditionError("state matrix appears singular (rank test failed)")
    da, dd = r.grade_sides(grade_a, grade_d)
    n, p, m = r.n, r.p, r.m

    pair_a = pair_for(r.A.basis, n, da)
    pair_d = pair_for(r.D.basis, m, dd)

    m_a = row_pencil(r.A, pair_a)
    m_c = row_pencil(r.C, pair_a)
    m_b = row_pencil(r.B, pair_d)
    m_d = row_pencil(r.D, pair_d)

    rows = n * da + p + m * (dd - 1)
    cols = n * da + m * dd
    ca = n * da  # column split between the two sides
    stack = np.block([[m_a.coeffs, m_b.coeffs],
                      [pair_a.K.coeffs, np.zeros((2, ca - n, cols - ca))],
                      [-m_c.coeffs, m_d.coeffs],
                      [np.zeros((2, rows - ca - p, ca)), pair_d.K.coeffs]])

    blocks = {
        "M_A": (0, n, 0, ca),
        "K_A": (n, ca, 0, ca),
        "M_B": (0, n, ca, cols),
        "M_C": (ca, ca + p, 0, ca),
        "M_D": (ca, ca + p, ca, cols),
        "K_D": (ca + p, rows, ca, cols),
        "L_A": (0, ca, 0, ca),
    }
    return StructuredLinearization(
        L0=stack[0], L1=stack[1], grade_a=da, grade_d=dd, blocks=blocks,
        pair_a=pair_a, pair_d=pair_d, realization=r,
        m_a=m_a, m_b=m_b, m_c=m_c, m_d=m_d)


def block_pencil(p: PolyMatrix) -> tuple:
    """Degenerate pencil [M_P; K] that linearizes a plain polynomial matrix.

    Returns (L0, L1, pair).  With d = max(1, deg P), right minimal indices of
    the pencil exceed those of P by d-1; left minimal indices agree.
    """
    d = int(max(1.0, _deg(p)))
    pair = pair_for(p.basis, p.cols, d)
    stack = np.concatenate([row_pencil(p, pair).coeffs, pair.K.coeffs], axis=1)
    return stack[0], stack[1], pair


def check_finite_minimality(r: Realization, lam):
    """(rank [A; C](lam) == n, rank [A, B](lam) == n) at a point; at a 1-D
    array of points, the list of these pairs, from one SVD call per side."""
    av = r.A.eval(lam)
    left = numerical_rank(np.concatenate([av, r.C.eval(lam)], axis=-2)) == r.n
    right = numerical_rank(np.concatenate([av, r.B.eval(lam)], axis=-1)) == r.n
    if np.ndim(lam) == 0:
        return left, right
    return list(zip(left.tolist(), right.tolist()))


def check_infinity_minimality(r: Realization, grade_a: int | None = None,
                              grade_d: int | None = None) -> tuple:
    """Rank tests on the reversed blocks at 0, with the build grades."""
    da, dd = r.grade_sides(grade_a, grade_d)
    a0 = r.A.reversal(da).eval(0.0)
    c0 = r.C.reversal(da).eval(0.0)
    b0 = r.B.reversal(dd).eval(0.0)
    left = numerical_rank(np.vstack([a0, c0])) == r.n
    right = numerical_rank(np.hstack([a0, b0])) == r.n
    return left, right


_POLE_HINT = (": pole or state eigenvalue; "
              "use reversal/limit-based routines instead")


def _state_stack(r: Realization, lams: np.ndarray, *pairs) -> tuple:
    """([P + C A^{-1} Q for each (P, Q) in pairs], ok) at a 1-D array of
    points, from one stacked evaluation of each block, one stacked
    invertibility test of A and one stacked solve with every Q side by side.
    ok marks the points where A passes `require_invertible`'s test; the
    stacks hold those points only, so a pole never fails the others."""
    av = r.A.eval(lams)
    ok = ~_singular(np.linalg.svd(av, compute_uv=False))
    pts = lams[ok]
    cv = r.C.eval(pts)
    qs = [q.eval(pts) for _, q in pairs]
    sols = np.split(np.linalg.solve(av[ok], np.concatenate(qs, axis=-1)),
                    np.cumsum([q.shape[-1] for q in qs])[:-1], axis=-1)
    return [p.eval(pts) + cv @ x for (p, _), x in zip(pairs, sols)], ok


def _state_terms(r: Realization, lam, *pairs) -> list:
    """`_state_stack` at one point, or at a 1-D array of points, raising
    PoleError at the first point where A(lam) is singular."""
    pts = np.atleast_1d(np.asarray(lam, dtype=complex))
    terms, ok = _state_stack(r, pts, *pairs)
    if not ok.all():
        at = lam if np.ndim(lam) == 0 else pts[np.argmin(ok)]
        raise PoleError(f"state matrix singular at lambda={at}{_POLE_HINT}")
    return terms if np.ndim(lam) else [t[0] for t in terms]


def transfer_eval(r: Realization, lam) -> np.ndarray:
    """D(lam) + C(lam) A(lam)^{-1} B(lam) via a linear solve; the stack of
    values at a 1-D array of points."""
    return _state_terms(r, lam, (r.D, r.B))[0]


def hat_transfer_eval(sl: StructuredLinearization, lam: complex) -> np.ndarray:
    """Transfer function of the structured pencil at a point:
    [M_D + C A^{-1} M_B; K_D](lam), of shape (p + rho_D m) x m(1 + rho_D)."""
    top, = _state_terms(sl.realization, lam, (sl.m_d, sl.m_b))
    return np.vstack([top, sl.pair_d.K.eval(lam)])


def system_eval(r: Realization, lam) -> np.ndarray:
    """System matrix [A B; -C D](lam), of rank n + rank R(lam) off the poles;
    the stack of them at a 1-D array of points."""
    return np.block([[r.A.eval(lam), r.B.eval(lam)],
                     [-r.C.eval(lam), r.D.eval(lam)]])


def sample_points(r: Realization, rng, count: int, step: float,
                  max_tries: int, cond_max: float | None = None) -> list:
    """Up to `count` random points off the poles.

    Try k draws one point on the unit circle and scales it by 1 + step * k,
    so repeated misses move outward; a point is kept when cond(A(z)) is at
    most `cond_max` (if given) and A(z) passes `require_invertible`, so R(z)
    can be evaluated there.  At most `max_tries` points are drawn.
    """
    out = []
    for k in range(max_tries):
        if len(out) == count:
            break
        z = unit_circle_points(rng, 1)[0] * (1.0 + step * k)
        try:
            sv = require_invertible(r.A.eval(z), z)
        except PoleError:
            continue  # sampled a pole; try another radius
        if cond_max is None or sv[0] / sv[-1] <= cond_max:
            out.append(z)
    return out


def require_invertible(mat: np.ndarray, lam,
                       what: str = "state matrix") -> np.ndarray:
    """Raise PoleError unless the square matrix `what` (evaluated at lam) is
    numerically invertible; return its singular values."""
    sv = np.linalg.svd(mat, compute_uv=False)
    if _singular(sv):
        raise PoleError(f"{what} singular at lambda={lam}")
    return sv


def _singular(sv: np.ndarray):
    """The invertibility cutoff on the singular values of a square matrix, or
    of each matrix of a stack: sigma_min <= n eps max(sigma_max, 1)."""
    n = sv.shape[-1]
    return n == 0 or sv[..., -1] <= n * np.finfo(float).eps * np.maximum(sv[..., 0], 1.0)
