"""Dense polynomial matrices over the complex numbers.

A PolyMatrix stores a graded coefficient stack in either the monomial basis
or the Chebyshev basis of the first kind.  The grade (declared formal degree)
may exceed the actual degree; trailing zero coefficients are legal and
meaningful, e.g. for reversals.
Each basis is one row of the three-term table RECURRENCE, which drives
products (kept in the operands' basis), the conversion to monomials and
`dualbases`; only `eval` writes its Horner and Clenshaw loops out.
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .config import make_rng, unit_circle_points
from .errors import BasisError, DimensionError

NEG_INF = float("-inf")  # degree of the zero matrix


class Basis(enum.Enum):
    MONOMIAL = "monomial"
    CHEBYSHEV1 = "chebyshev1"


# (alpha_k, beta_k, gamma_k) of lambda phi_k = alpha_k phi_{k+1} + beta_k phi_k
# + gamma_k phi_{k-1}, with phi_0 = 1 and gamma_0 = 0 in every basis
# (Amiraslani, Corless & Lancaster, IMA J. Numer. Anal. 29, 2009).
RECURRENCE = {
    Basis.MONOMIAL: lambda k: (1.0, 0.0, 0.0),
    Basis.CHEBYSHEV1: lambda k: (1.0, 0.0, 0.0) if k == 0 else (0.5, 0.0, 0.5),
}


def times_lambda(basis: Basis, grade: int) -> np.ndarray:
    """Square X with lambda sum_k c_k phi_k = sum_k (X c)_k phi_k for
    coefficients c of degree below `grade`: column k holds alpha_k, beta_k,
    gamma_k in rows k+1, k, k-1."""
    x = np.zeros((grade + 2, grade + 1))
    for k in range(grade + 1):
        alpha, beta, gamma = RECURRENCE[basis](k)
        x[k + 1, k], x[k, k] = alpha, beta
        if k:
            x[k - 1, k] = gamma
    return x[:-1]


@functools.lru_cache
def _phi_stack(basis: Basis, x_basis: Basis, grade: int, count: int) -> np.ndarray:
    """Read-only stack whose [j], j < count, maps the x_basis coefficients of
    p, of the given grade, to those of phi_j p (phi_j of `basis`), from
    phi_{j+1} = ((lambda - beta_j) phi_j - gamma_j phi_{j-1}) / alpha_j."""
    g = grade + count - 1
    x = times_lambda(x_basis, g)
    out = np.zeros((count, g + 1, grade + 1))
    out[0] = np.eye(g + 1, grade + 1)
    for j in range(count - 1):
        alpha, beta, gamma = RECURRENCE[basis](j)
        # at j = 0, out[-1] is still zero and gamma_0 = 0
        out[j + 1] = (x @ out[j] - beta * out[j] - gamma * out[j - 1]) / alpha
    out.flags.writeable = False  # shared by every caller
    return out


@dataclass(frozen=True)
class PolyMatrix:
    """p x m polynomial matrix with coefficient stack of shape (grade+1, p, m).

    coeffs[k] multiplies the basis function of degree k.  Instances are
    immutable; the coefficient array is marked read-only at construction.
    """

    coeffs: np.ndarray
    basis: Basis = Basis.MONOMIAL

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=complex)
        if arr.ndim != 3:
            raise DimensionError(f"coefficient stack must be 3-D, got ndim={arr.ndim}")
        arr = np.array(arr, order="C")  # private copy, then freeze
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    # -- shape ----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.coeffs.shape[1]

    @property
    def cols(self) -> int:
        return self.coeffs.shape[2]

    @property
    def grade(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def T(self) -> "PolyMatrix":
        return PolyMatrix(self.coeffs.transpose(0, 2, 1), self.basis)

    def conj(self) -> "PolyMatrix":
        return PolyMatrix(self.coeffs.conj(), self.basis)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_list(mats, basis: Basis = Basis.MONOMIAL) -> "PolyMatrix":
        """Build from a list of equally-sized constant coefficient matrices."""
        mats = [np.atleast_2d(np.asarray(m, dtype=complex)) for m in mats]
        if not mats:
            raise DimensionError("need at least one coefficient matrix")
        shape = mats[0].shape
        for m in mats:
            if m.shape != shape:
                raise DimensionError("coefficient matrices differ in shape")
        return PolyMatrix(np.stack(mats, axis=0), basis)

    @staticmethod
    def from_scalar_coeffs(vals, basis: Basis = Basis.MONOMIAL) -> "PolyMatrix":
        """1x1 polynomial from a flat coefficient list (ascending degree)."""
        vals = np.asarray(list(vals), dtype=complex)
        return PolyMatrix(vals.reshape(-1, 1, 1), basis)

    @staticmethod
    def zero(rows: int, cols: int, grade: int = 0,
             basis: Basis = Basis.MONOMIAL) -> "PolyMatrix":
        return PolyMatrix(np.zeros((grade + 1, rows, cols), dtype=complex), basis)

    @staticmethod
    def identity(n: int, basis: Basis = Basis.MONOMIAL) -> "PolyMatrix":
        return PolyMatrix(np.eye(n, dtype=complex)[None, :, :], basis)

    # -- basic queries ---------------------------------------------------

    def degree(self):
        """Largest k with coeffs[k] != 0, or -inf for the zero matrix.

        Both supported bases have deg(basis function k) = k, so the value is
        basis independent.
        """
        for k in range(self.grade, -1, -1):
            if np.any(self.coeffs[k]):
                return k
        return NEG_INF

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def coeff(self, k: int) -> np.ndarray:
        """Coefficient of the basis function of degree k (zero beyond grade)."""
        if 0 <= k <= self.grade:
            return self.coeffs[k]
        return np.zeros((self.rows, self.cols), dtype=complex)

    # -- evaluation ------------------------------------------------------

    def eval(self, lam) -> np.ndarray:
        """Value at a finite point, or at a 1-D array of points the stack of
        values, of shape (points, rows, cols) (Horner / Clenshaw, with the
        points on a leading axis).

        Structure at infinity is handled through reversals, never by
        evaluating at a non-finite point.
        """
        pts = np.asarray(lam, dtype=complex)
        if not np.all(np.isfinite(pts)):
            raise ValueError("evaluation point must be finite; use reversal "
                             "for structure at infinity")
        x = pts[..., None, None]
        shape = pts.shape + self.shape
        c = self.coeffs
        # copies in C order: each matrix of a stack is then contiguous, and
        # products with it take the BLAS path of a single matrix, bit for bit
        if self.basis is Basis.MONOMIAL:
            out = np.broadcast_to(c[-1], shape).copy()
            for k in range(self.grade - 1, -1, -1):
                out = out * x + c[k]
            return out
        # Clenshaw recurrence for first-kind Chebyshev values
        if self.grade == 0:
            return np.broadcast_to(c[0], shape).copy()
        b1 = np.zeros(shape, dtype=complex)
        b2 = np.zeros(shape, dtype=complex)
        for k in range(self.grade, 0, -1):
            b1, b2 = 2.0 * x * b1 - b2 + c[k], b1
        return x * b1 - b2 + c[0]

    # -- basis handling ---------------------------------------------------

    def to_monomial(self) -> "PolyMatrix":
        """Same matrix, same grade, expressed in the monomial basis."""
        if self.basis is Basis.MONOMIAL:
            return self
        conv = _phi_stack(self.basis, Basis.MONOMIAL, 0, self.grade + 1)[:, :, 0]
        out = np.tensordot(conv.T, self.coeffs, axes=(1, 0))
        return PolyMatrix(out, Basis.MONOMIAL)

    def to_basis(self, basis: Basis) -> "PolyMatrix":
        if basis is self.basis:
            return self
        if basis is Basis.MONOMIAL:
            return self.to_monomial()
        conv = _phi_stack(basis, Basis.MONOMIAL, 0, self.grade + 1)[:, :, 0]
        flat = self.to_monomial().coeffs.reshape(self.grade + 1, -1)
        cheb = np.linalg.solve(conv.T, flat).reshape(self.coeffs.shape)
        return PolyMatrix(cheb, Basis.CHEBYSHEV1)

    def pad_to_grade(self, grade: int) -> "PolyMatrix":
        if grade < self.grade:
            raise DimensionError(
                f"cannot shrink grade {self.grade} to {grade}")
        if grade == self.grade:
            return self
        extra = np.zeros((grade - self.grade, self.rows, self.cols), dtype=complex)
        return PolyMatrix(np.concatenate([self.coeffs, extra], axis=0), self.basis)

    def with_grade(self, grade: int) -> "PolyMatrix":
        """Pad or truncate to the given grade; truncation requires the
        dropped coefficients to be exactly zero."""
        if grade >= self.grade:
            return self.pad_to_grade(grade)
        deg = self.degree()
        if deg != NEG_INF and deg > grade:
            raise DimensionError(
                f"cannot truncate to grade {grade}: degree is {int(deg)}")
        return PolyMatrix(self.coeffs[: grade + 1], self.basis)

    def reversal(self, g: int) -> "PolyMatrix":
        """The grade-g reversal lambda^g * P(1/lambda), in monomial basis."""
        deg = self.degree()
        if deg != NEG_INF and g < deg:
            raise DimensionError(
                f"reversal grade {g} below degree {int(deg)}: result not polynomial")
        mono = self.to_monomial().with_grade(max(g, 0))
        rev = mono.coeffs[g::-1] if g >= 0 else mono.coeffs[:0]
        if rev.shape[0] == 0:
            rev = np.zeros((1, self.rows, self.cols), dtype=complex)
        return PolyMatrix(np.array(rev), Basis.MONOMIAL)

    # -- arithmetic --------------------------------------------------------

    def _check_basis(self, other: "PolyMatrix"):
        if self.basis is not other.basis:
            raise BasisError(
                f"mixed bases {self.basis.value} / {other.basis.value}")

    def __add__(self, other: "PolyMatrix") -> "PolyMatrix":
        self._check_basis(other)
        if self.shape != other.shape:
            raise DimensionError(f"add: {self.shape} vs {other.shape}")
        g = max(self.grade, other.grade)
        a = self.pad_to_grade(g)
        b = other.pad_to_grade(g)
        return PolyMatrix(a.coeffs + b.coeffs, self.basis)

    def __sub__(self, other: "PolyMatrix") -> "PolyMatrix":
        return self + (other * (-1.0))

    def __mul__(self, scalar) -> "PolyMatrix":
        return PolyMatrix(self.coeffs * complex(scalar), self.basis)

    __rmul__ = __mul__

    def __neg__(self) -> "PolyMatrix":
        return self * (-1.0)

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        """Product in the operands' common basis; grade = sum of grades.

        P Q = sum_i P_i (phi_i Q) = sum_j (phi_j P) Q_j, summed over the
        operand of lower grade with i up (j down), one batched product per
        term: for monomials, the schoolbook double loop's result bit for bit.
        """
        self._check_basis(other)
        if self.cols != other.rows:
            raise DimensionError(f"matmul: {self.shape} @ {other.shape}")
        if self.grade <= other.grade:  # sum_i P_i (phi_i Q), i up
            terms = self.coeffs[:, None] @ other._phi_times(self.grade + 1)
        else:  # sum_j (phi_j P) Q_j, j down
            terms = (self._phi_times(other.grade + 1) @ other.coeffs[:, None])[::-1]
        out = np.zeros(terms.shape[1:], dtype=complex)
        for term in terms:
            out += term
        return PolyMatrix(out, self.basis)

    def _phi_times(self, count: int) -> np.ndarray:
        """Coefficient stacks of phi_j P, j < count, at grade P.grade + count - 1."""
        stack = _phi_stack(self.basis, self.basis, self.grade, count)
        return np.tensordot(stack, self.coeffs, axes=(2, 0))

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "basis": self.basis.value,
            "grade": self.grade,
            "coeffs": [
                [[float(v.real), float(v.imag)] for v in self.coeffs[k].ravel()]
                for k in range(self.grade + 1)
            ],
        }

    @staticmethod
    def from_dict(obj: dict) -> "PolyMatrix":
        try:
            rows, cols = int(obj["rows"]), int(obj["cols"])
            basis = Basis(obj["basis"])
            grade = int(obj["grade"])
            raw = obj["coeffs"]
            if grade < 0 or len(raw) != grade + 1:
                raise ValueError(f"grade {grade} does not match "
                                 f"{len(raw)} coefficient matrices")
            stack = np.zeros((grade + 1, rows, cols), dtype=complex)
            for k, flat in enumerate(raw):
                if len(flat) != rows * cols:
                    raise ValueError("coefficient entry count mismatch")
                stack[k] = np.reshape([complex(re, im) for re, im in flat],
                                      (rows, cols))
        except TypeError as exc:  # a list where a number belongs, or the reverse
            raise ValueError(f"malformed polynomial matrix: {exc}") from exc
        return PolyMatrix(stack, basis)


def hstack(*mats: PolyMatrix) -> PolyMatrix:
    """Concatenate horizontally; grades padded to the common maximum."""
    mats = list(mats)
    _common_basis(mats)
    rows = mats[0].rows
    if any(m.rows != rows for m in mats):
        raise DimensionError("hstack: row counts differ")
    g = max(m.grade for m in mats)
    stacked = np.concatenate([m.pad_to_grade(g).coeffs for m in mats], axis=2)
    return PolyMatrix(stacked, mats[0].basis)


def vstack(*mats: PolyMatrix) -> PolyMatrix:
    """Concatenate vertically; grades padded to the common maximum."""
    mats = list(mats)
    _common_basis(mats)
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise DimensionError("vstack: column counts differ")
    g = max(m.grade for m in mats)
    stacked = np.concatenate([m.pad_to_grade(g).coeffs for m in mats], axis=1)
    return PolyMatrix(stacked, mats[0].basis)


def _common_basis(mats):
    if not mats:
        raise DimensionError("need at least one operand")
    basis = mats[0].basis
    for m in mats[1:]:
        if m.basis is not basis:
            raise BasisError("stack: mixed bases")
    return basis


def numerical_rank(mat: np.ndarray, rank_scale: float = 1.0):
    """Rank with the backward-stable cutoff max(dim)*eps*sigma_max; a stack
    (..., M, N) gives the array of its ranks from one SVD call."""
    mat = np.atleast_2d(np.asarray(mat))
    if mat.size == 0:
        ranks = np.zeros(mat.shape[:-2], dtype=int)
    else:
        sv = np.linalg.svd(mat, compute_uv=False)
        cutoff = max(mat.shape[-2:]) * np.finfo(float).eps * sv[..., :1] * rank_scale
        ranks = np.sum(sv > cutoff, axis=-1)
    return int(ranks) if mat.ndim == 2 else ranks


def generic_rank(p: PolyMatrix, rng=None, samples: int = 5,
                 rank_scale: float = 1.0) -> int:
    """Rank over the rational function field, estimated as the maximum
    numerical rank at seeded random points on the unit circle.

    Rank deficiency at a random point has probability zero; several samples
    guard against unlucky draws near structure points.
    """
    if p.rows == 0 or p.cols == 0:
        return 0
    rng = make_rng(rng)
    pts = unit_circle_points(rng, samples)
    return int(numerical_rank(p.eval(pts), rank_scale).max())


def poly_adjugate(p: PolyMatrix) -> tuple:
    """Adjugate and determinant of a square polynomial matrix as polynomial
    objects, via the Faddeev-LeVerrier recurrence.

    Purely polynomial arithmetic: exact zero structure in products is
    preserved bit for bit, unlike evaluation-interpolation.
    """
    if p.rows != p.cols:
        raise DimensionError("adjugate needs a square polynomial matrix")
    n = p.rows
    a = p.to_monomial()
    eye = PolyMatrix.identity(n)
    m_k = eye
    c_k = _poly_trace(a) * (-1.0)
    for k in range(2, n + 1):
        m_k = (a @ m_k) + _scalar_blowup(c_k, n)
        c_k = _poly_trace(a @ m_k) * (-1.0 / k)
    det = c_k * ((-1.0) ** n)
    adj = m_k * ((-1.0) ** (n - 1))
    return adj, det


def _poly_trace(p: PolyMatrix) -> PolyMatrix:
    tr = np.trace(p.coeffs, axis1=1, axis2=2)
    return PolyMatrix(tr.reshape(-1, 1, 1), Basis.MONOMIAL)


def scalar_multiply(c: PolyMatrix, p: PolyMatrix) -> PolyMatrix:
    """Entrywise product of a matrix with a 1x1 polynomial (monomial basis)."""
    if c.shape != (1, 1):
        raise DimensionError("scalar_multiply needs a 1x1 first operand")
    a = c.to_monomial()
    b = p.to_monomial()
    out = np.zeros((a.grade + b.grade + 1, b.rows, b.cols), dtype=complex)
    for i in range(a.grade + 1):
        out[i:i + b.grade + 1] += a.coeffs[i, 0, 0] * b.coeffs
    return PolyMatrix(out, Basis.MONOMIAL)


def _scalar_blowup(c: PolyMatrix, n: int) -> PolyMatrix:
    stack = c.coeffs[:, 0, 0][:, None, None] * np.eye(n)[None, :, :]
    return PolyMatrix(stack, Basis.MONOMIAL)
