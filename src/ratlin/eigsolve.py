"""Dense pencil spectral computations.

Covers the generalized eigensolver contract (QZ as one LAPACK zggev call,
bit for bit what scipy.linalg.eig returns, with the vectors left
unnormalized until a pair is asked for), pole/zero classification of a
structured linearization off its one full-pencil QZ (or, for a caller that
reads no eigenpair, a QZ without vectors), and polynomial nullspace minimal
bases.  One column-compression staircase, run in place on one working
pencil, gives a pencil's right minimal indices, a basis of those degrees
back-substituted through the form it leaves, and its Jordan block sizes at
0, which are the local partial multiplicities and, on reversed pencils, the
invariant orders at infinity.  It runs once per side and end of a pencil's
`PencilReadings`.  A basis is read at 0 and, where that reading is refused,
at infinity, the reading the orders take; a reading is kept only when it
passes a gate: its count, the index sum of the Kronecker form, whose
regular-part size one rank-completing QZ counts, and the certificate.  A
refused basis whose indices pass is refined at those degrees by one step of
inverse iteration through a band QR of the block convolution matrix, which
is never formed.  Only pencils are handled: a polynomial matrix of higher
grade gets its nullspace through a linearization.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import MATCH_TOL, make_rng, unit_circle_points
from .errors import BreakdownError, PreconditionError, RatlinError
from .linbuild import (PencilReadings, StructuredLinearization, block_pencil,
                       check_infinity_minimality)
from .polymat import NEG_INF, PolyMatrix, numerical_rank

INF_BETA_TOL = 1e-12
# multiplier on the staircase rank cutoff max(M, N) * eps * ||[l0 l1]||_2
STAIRCASE_SCALE = 1e6
DEGREE_TOL = 1e-8  # relative norm below which a coefficient row is zero
# certificate residual above which a basis is refused: a tenth of the
# certificate's own 1e-10, so that the basis of R sliced from it still
# meets 1e-10
GATE_RESIDUAL = 1e-11
# max(||V^H x||, ||U^H y||) of unit vectors of the rank-completed pencil of
# `regular_part_size` at or below which an eigenvalue is the pencil's own
TRUE_SCORE = 1e-8


@functools.cache
def _nrm2():
    from scipy.linalg.blas import get_blas_funcs  # loaded with the QZ
    return get_blas_funcs("nrm2", dtype=complex, ilp64="preferred")


@dataclass(frozen=True)
class PencilEig:
    """Generalized eigenvalues of L1*lambda + L0 as (alpha, beta) pairs.

    A pair with |beta| below tolerance is an eigenvalue at infinity.  For a
    singular pencil `regular` is False and the pairs must not be interpreted.
    The vectors are kept as LAPACK returns them, unnormalized; `pair` scales
    the one pair a caller asks for.
    """

    alphas: np.ndarray
    betas: np.ndarray
    right_vectors: np.ndarray | None
    left_vectors: np.ndarray | None
    regular: bool

    def _finite_mask(self) -> np.ndarray:
        return np.abs(self.betas) > INF_BETA_TOL * np.maximum(1.0, np.abs(self.alphas))

    def finite(self) -> np.ndarray:
        """Finite eigenvalues alpha/beta, sorted by (real, imag)."""
        mask = self._finite_mask()
        vals = self.alphas[mask] / self.betas[mask]
        order = np.lexsort((vals.imag, vals.real))
        return vals[order]

    def infinite_count(self) -> int:
        return int(np.sum(~self._finite_mask()))

    def pairs(self, idx) -> tuple:
        """(X, Y) of the pairs idx, L(lam) x = 0 = y^T L(lam), each column
        scaled to unit norm by BLAS nrm2 as scipy.linalg.eig scales it."""
        x, y = (v[:, idx] / [_nrm2()(v[:, i]) for i in idx]
                for v in (self.right_vectors, self.left_vectors))
        return x, y.conj()  # vl^H L = 0

    def pair(self, i: int) -> tuple:
        """(x, y) of pair i, as `pairs` gives it."""
        x, y = self.pairs([i])
        return x[:, 0], y[:, 0]

    def vectors_near(self, lam: complex) -> tuple:
        """`pair` of the finite pair nearest lam."""
        idx = np.flatnonzero(self._finite_mask())
        if self.right_vectors is None or idx.size == 0:
            raise RatlinError("no finite eigenpair with vectors to match")
        i = idx[np.argmin(np.abs(self.alphas[idx] / self.betas[idx] - lam))]
        return self.pair(i)


@dataclass(frozen=True)
class ZeroEntry:
    value: complex
    minimality: tuple
    classified: bool
    near_pole: bool

    def to_dict(self) -> dict:
        return {
            "lambda": [float(self.value.real), float(self.value.imag)],
            "classified": bool(self.classified),
            "minimality": [bool(self.minimality[0]), bool(self.minimality[1])],
            "nearPole": bool(self.near_pole),
        }


@dataclass(frozen=True)
class SpectralReport:
    poles: list            # (value, multiplicity count) pairs
    zeros: list            # ZeroEntry items
    infinity_orders: list | None
    grade_at_infinity: int

    def to_dict(self) -> dict:
        return {
            "poles": [{"lambda": [float(v.real), float(v.imag)], "count": int(c)}
                      for v, c in self.poles],
            "zeros": [z.to_dict() for z in self.zeros],
            "infinityOrders": (None if self.infinity_orders is None
                               else [int(q) for q in self.infinity_orders]),
            "grade": int(self.grade_at_infinity),
        }


@dataclass(frozen=True)
class MinimalBasisResult:
    """Polynomial nullspace basis with its sorted degree list."""

    vectors: PolyMatrix    # columns (right) or rows (left) are the basis
    indices: list
    side: str

    @property
    def count(self) -> int:
        return len(self.indices)

    def full_rank_at(self, points) -> bool:
        """Whether the basis has full rank `count` at every given point."""
        pts = np.array(list(points), dtype=complex)
        return bool(np.all(numerical_rank(self.vectors.eval(pts)) == self.count))

    def is_reduced(self) -> bool:
        """Whether the highest-degree coefficient matrix, taken vector by
        vector, has full rank (no vectors do).  Vectors ascend by degree, so
        the sorted index list doubles as the per-vector degree list."""
        v, right = self.vectors.coeffs, self.side == "right"
        tops = [v[d, :, j] if right else v[d, j, :] for j, d in enumerate(self.indices)]
        return not tops or numerical_rank(np.stack(tops, axis=1 if right else 0)) == self.count


def pencil_eigs(readings: PencilReadings, vectors: bool = False) -> PencilEig:
    """All (alpha, beta) pairs of the square pencil of `readings` from one
    LAPACK zggev run on (-L0, L1), after the workspace query
    scipy.linalg.eig makes, so that the pairs are scipy's bit for bit; the
    vectors stay unnormalized.

    The pencil is regular if `readings.rank`, the rank its nullities read,
    is full; a singular pencil is flagged and its pairs left empty.
    """
    l0 = np.asarray(readings.L0, dtype=complex)
    l1 = np.asarray(readings.L1, dtype=complex)
    if l0.shape != l1.shape or l0.ndim != 2 or l0.shape[0] != l0.shape[1]:
        raise RatlinError(f"pencil must be square, got {l0.shape} and {l1.shape}")
    if not (np.isfinite(l0).all() and np.isfinite(l1).all()):
        raise RatlinError("pencil has non-finite entries")
    empty = np.zeros(0, dtype=complex)
    if readings.rank < l0.shape[0]:
        return PencilEig(empty, empty, None, None, regular=False)
    if l0.size == 0:  # LAPACK rejects the workspace query of an empty pencil
        vecs = l0 if vectors else None
        return PencilEig(empty, empty, vecs, vecs, regular=True)
    from scipy.linalg import lapack  # here, not at the top: most of the import time
    a = -l0
    lwork = int(lapack.zggev(a, l1, lwork=-1)[-2][0].real)
    alpha, beta, vl, vr, _, info = lapack.zggev(a, l1, vectors, vectors, lwork)
    if info != 0:  # surface backend failure, never silent NaN
        raise RatlinError(f"QZ backend failed: zggev info = {info}")
    if np.any(np.isnan(alpha)) or np.any(np.isnan(beta)):
        raise RatlinError("QZ backend returned NaN eigenvalue data")
    if not vectors:
        vl = vr = None
    return PencilEig(alpha, beta, vr, vl, regular=True)


def cluster_eigenvalues(values) -> list:
    """Group eigenvalues into (mean, count) clusters: each value joins the
    first earlier cluster whose mean is within MATCH_TOL * max(1, |value|),
    or starts one, so that a double pole stays whole where the sort by real
    part puts its conjugate between its values."""
    out = []
    for v in values:
        k = next((k for k, (rep, _) in enumerate(out)
                  if abs(v - rep) <= MATCH_TOL * max(1.0, abs(v))), None)
        if k is None:
            out.append((v, 1))
        else:
            rep, c = out[k]
            out[k] = ((rep * c + v) / (c + 1), c + 1)
    return [(complex(v), int(c)) for v, c in out]


def classify(sl: StructuredLinearization, rng=None,
             vectors: bool = True) -> SpectralReport:
    """Pole/zero classification of the rational matrix behind a linearization.

    Poles come from `sl.state_spectrum`, zeros from `sl.spectrum`, the one
    full-pencil QZ of a linearization, whose vectors `eigenpair` reads.  A
    caller that reads no eigenpair passes vectors=False and gets the same
    zeros, bit for bit, from a QZ without vectors, which runs in about half
    the time on large pencils.  Either QZ is regular if `sl.rank`, which
    the nullities read, is full.  `rng` is kept for callers' signatures and
    not drawn from.  A zero within matching
    tolerance of a pole is flagged and tagged with the pointwise minimality
    checks of `sl.minimality` at the nearest pole; any other zero passes
    both, since [A; C] and [A, B] have full rank wherever A is invertible.
    Zeros failing either check are reported unclassified (the spectral
    characterization does not certify them).
    """
    r = sl.realization
    if r.p != r.m:
        raise PreconditionError("classification needs a square rational matrix")
    pole_vals = sl.state_spectrum.finite()
    full = sl.spectrum if vectors else pencil_eigs(sl)
    if not full.regular:
        raise PreconditionError(
            "the pencil is singular; eigenvalues are meaningless — "
            "use polynomial_nullspace for the singular structure")

    poles = cluster_eigenvalues(pole_vals)

    vals = full.finite()
    gap = vals[:, None] - pole_vals[None, :]
    near = np.any(np.hypot(gap.real, gap.imag) <= MATCH_TOL * np.maximum(
        1.0, np.hypot(vals.real, vals.imag))[:, None], axis=1)
    checks = sl.minimality.finite_ok_at if near.any() else {}  # one key per pole value
    keys = np.array(list(checks))
    tags = [checks[keys[np.argmin(np.abs(keys - lam))].item()] if nr else (True, True)
            for lam, nr in zip(vals, near)]
    zeros = [ZeroEntry(lam, mins, mins[0] and mins[1], nr)
             for lam, mins, nr in zip(vals.tolist(), tags, near.tolist())]

    return SpectralReport(poles=poles, zeros=zeros, infinity_orders=None,
                          grade_at_infinity=sl.rho_d + 1)


def partial_multiplicities_at(p: PolyMatrix, lam: complex) -> list:
    """Multiplicities of lam as a zero of P, sorted: the Jordan block sizes
    at 0 of the right `staircase` of the readings of the block pencil of
    P's Taylor expansion at lam, a strong linearization of P(lam + mu).

    The point is usually a computed eigenvalue, exact only to roundoff,
    which the staircase's loosened rank cutoff absorbs.
    """
    if p.cols == 0:  # block_pencil needs a column
        return []
    taylor = PolyMatrix(_taylor_stack(p.to_monomial(), complex(lam)))
    l0, l1, _ = block_pencil(taylor)
    return PencilReadings(l0, l1).staircase("right")[1]


def _taylor_stack(mono: PolyMatrix, lam: complex) -> np.ndarray:
    """Taylor coefficients P_j = P^{(j)}(lam)/j! for j = 0..grade."""
    g = mono.grade
    out = np.zeros_like(mono.coeffs, dtype=complex)
    for j in range(g + 1):
        for t in range(j, g + 1):
            out[j] += math.comb(t, j) * mono.coeffs[t] * lam ** (t - j)
    return out


def invariant_orders_at_infinity(sl: StructuredLinearization, rng=None) -> list:
    """Invariant orders at infinity of the rational matrix, grade rho_D + 1.

    Combines the partial multiplicities at 0 of the reversed state pencil and
    of the reversed full pencil, padded with zeros up to the generic rank of
    the rational matrix, then shifts everything down by the grade.  The
    reversal of lambda L1 + L0 is lambda L0 + L1, its own Taylor expansion
    at 0, so the right staircases at infinity of `sl.state` and `sl`, the
    gate's too, read the multiplicities and its right minimal indices: the
    pencil has n + m + s columns and rank L = rank R + n + s, so rank R is
    m less their count.  `rng` is kept for callers' signatures.
    """
    r = sl.realization
    okl, okr = check_infinity_minimality(r, sl.grade_a, sl.grade_d)
    if not (okl and okr):
        raise PreconditionError(
            f"minimality at infinity fails (left={okl}, right={okr}); "
            "the pencil does not linearize the structure at infinity")
    g = sl.rho_d + 1

    e_list = sl.state.staircase("right", infinity=True)[1]
    right, e_tilde, _ = sl.staircase("right", infinity=True)

    rank_r = r.m - len(right)
    t, u = len(e_list), len(e_tilde)
    if t + u > rank_r:
        raise PreconditionError(
            f"inconsistent rank estimate: {t} + {u} multiplicities for rank {rank_r}")
    body = [-e for e in reversed(e_list)] + [0] * (rank_r - t - u) + list(e_tilde)
    return [q - g for q in body]


def polynomial_nullspace(readings: PencilReadings,
                         side: str = "right") -> MinimalBasisResult:
    """Minimal polynomial nullspace basis on `side` of the pencil whose
    `PencilReadings` is `readings` (a linearization is its own).

    The nullity is read off `readings.rank`, and the basis is back-substituted
    through its `staircase` on `side`, at 0 and, where that reading is
    refused, at infinity, and kept if it passes the gate of `_gated_basis`:
    the count, the index sum with the regular-part size, and the
    certificate.  Indices that pass the gate with no basis that does get a
    basis solved at those degrees (`_solve_at`); a side no reading numbers
    raises BreakdownError.  The output is deterministic.
    """
    if side not in ("right", "left"):
        raise RatlinError(f"side must be 'right' or 'left', got {side!r}")
    stack = side_stack(readings.L0, readings.L1, side)
    cols = stack.shape[2]
    nullity = cols - readings.rank
    res = _gated_basis(stack, nullity, side, readings) if nullity else _basis_result([], cols)
    if side == "left":
        return MinimalBasisResult(vectors=res.vectors.T, indices=res.indices, side="left")
    return res


def side_stack(l0: np.ndarray, l1: np.ndarray, side: str) -> np.ndarray:
    """The contiguous (2, rows, cols) coefficient stack whose right nullspace
    is the pencil's nullspace on `side`: the pencil, or its transpose."""
    stack = np.stack([np.asarray(l0, dtype=complex), np.asarray(l1, dtype=complex)])
    return stack if side == "right" else np.ascontiguousarray(stack.transpose(0, 2, 1))


def _basis_result(found, cols) -> MinimalBasisResult:
    """The right basis of [(degree, coefficients)] listed by ascending degree
    (of none, a grade-0 stack of no columns)."""
    degrees = [d for d, _ in found]
    stack = np.zeros((max(degrees, default=0) + 1, cols, len(found)), dtype=complex)
    for j, (d, cf) in enumerate(found):
        stack[: d + 1, :, j] = cf
    return MinimalBasisResult(PolyMatrix(stack), sorted(degrees), "right")


def _back_substitute(form) -> list:
    """[(degree, coefficients)] of a right basis of the pencil from its
    `_staircase` form (a, b, p, levels), by ascending degree.

    From the deepest level up: the rows of W^H past rho give new degree-0
    vectors in the level's mu columns, and each deeper vector w, shifted up
    one degree, gets u = -W_rho sigma^-1 (a + lambda b)[rows] w there, solved
    from the level's rho rows alone (its a columns vanish, its b columns are
    sigma W^H there).  p maps the form's vectors to the pencil's, once.
    Vectors are scaled to unit norm at each level; whether the result is a
    minimal basis is left to `_gated_basis`.
    """
    a, b, p, levels = form
    vecs, degrees = np.zeros((1, p.shape[1], 0), dtype=complex), []  # (degree, column, count)
    for r, c, rho, mu, sigma, wh in reversed(levels):
        k, rows, cols = mu - rho, slice(r, r + rho), slice(c, c + mu)
        solve, w = -wh[:rho].conj().T / sigma, vecs[:, c + mu:]
        lifted = np.zeros((len(vecs) + 1, p.shape[1], k + len(degrees)), dtype=complex)
        lifted[0, cols, :k] = wh[rho:].conj().T
        lifted[1:, :, k:] = vecs  # w, one degree up
        lifted[:-1, cols, k:] += solve @ a[rows, c + mu:] @ w
        lifted[1:, cols, k:] += solve @ b[rows, c + mu:] @ w
        vecs = lifted / np.linalg.norm(lifted, axis=(0, 1))
        degrees = [0] * k + [d + 1 for d in degrees]
    vecs = p @ vecs
    return [(d, vecs[: d + 1, :, j]) for j, d in enumerate(degrees)]


def _gated_basis(stack, nullity, side, readings) -> MinimalBasisResult:
    """The pencil's right basis on `side` from the staircase of `readings`
    at 0 or, if the gate refuses it, at infinity, which reads the reversed
    pencil (Van Dooren, LAA 1979): its vectors, coefficients reversed, are
    the pencil's.  The gate: the indices number the nullity; some reading
    of the other side numbers its own and closes the index sum, right and
    left indices and regular-part size adding up to the normal rank
    (Gantmacher 1959; Verghese, Van Dooren & Kailath, IJC 30, 1979), which
    a reading that takes eigenvalues near 0 for higher indices breaks; and
    the basis passes `certify_minimal_basis` within GATE_RESIDUAL, as
    back-substitution can lose digits.  Where indices pass and no basis
    does, the first refused basis is refined at its indices (`_solve_at`);
    where none pass, BreakdownError."""
    other = "left" if side == "right" else "right"
    rank, size = stack.shape[2] - nullity, readings.regular_size

    def closes(indices):
        return len(indices) == nullity and size is not None and any(
            len(o) == stack.shape[1] - rank and sum(indices) + sum(o) + size == rank
            for o in (readings.staircase(other, inf)[0] for inf in (False, True)))

    refused = None
    for infinity in (False, True):
        indices, _, form = readings.staircase(side, infinity)
        if closes(indices):
            found = [(d, cf[::-1] if infinity else cf) for d, cf in _back_substitute(form)]
            res = _basis_result(found, stack.shape[2])
            if _certified(res, stack):
                return res
            refused = refused or res
    if refused is None:
        raise BreakdownError(f"no {side} reading, at 0 or at infinity, numbers the "
                             f"nullity {nullity} and closes the index sum")
    res = _solve_at(stack, refused)
    if not _certified(res, stack):
        raise BreakdownError(f"the {side} basis of degrees {res.indices} is not certified")
    return res


def _certified(res, stack) -> bool:
    cert = certify_minimal_basis(res, *stack)
    return cert["ok"] and cert["residual"] <= GATE_RESIDUAL


def _solve_at(stack, refused) -> MinimalBasisResult:
    """The pencil's right basis of the indices of `refused`, a basis the gate
    refused: at each distinct degree delta, its vectors of that degree after
    one step of inverse iteration, z = (R^H R)^-1 x, which takes them into
    the null space of the block convolution matrix C (L0 in block (i, i),
    L1 in (i + 1, i)), less the shifts of the lower-degree vectors
    (`_deflate_shifts`).  R is upper triangular with R^H R = C^H C + s^2 I,
    s = eps ||[L0 L1]||_F, which lifts C's null space as one cluster, clear
    of R's pivots; one QR per block column, of the rows it reaches, gives a
    block row of R, the same at every degree, and C is never formed (band
    QR; Golub & Van Loan, Matrix Computations)."""
    from scipy.linalg import solve_triangular  # here, not at the top: most of the import time
    (l0, l1), n, indices, found = stack, stack.shape[2], refused.indices, []
    shift, carry, blocks = np.finfo(float).eps * np.linalg.norm(stack) * np.eye(n), l0, []
    for _ in range(max(indices) + 1):
        r = np.linalg.qr(np.block([[carry, 0 * carry], [l1, l0], [shift, 0 * shift]]),
                         mode="r")
        blocks.append((r[:n, :n], r[:n, n:]))
        carry = r[n:, n:]
    diag, sup = zip(*blocks)
    for delta in sorted(set(indices)):
        z = refused.vectors.coeffs[: delta + 1, :, [d == delta for d in indices]]
        w = np.zeros_like(z[0])  # the block past either end multiplies zeros
        for i in range(delta + 1):  # R^H w = x, one block row at a time
            z[i] = w = solve_triangular(diag[i], z[i] - sup[i - 1].conj().T @ w, trans="C")
        w = 0 * w
        for i in reversed(range(delta + 1)):  # then R z = w
            z[i] = w = solve_triangular(diag[i], z[i] - sup[i] @ w)
        fresh = _deflate_shifts(z.reshape(-1, w.shape[1]), found, delta)
        found.extend((delta, vec.reshape(delta + 1, n)) for vec in fresh.T)
    return _basis_result(found, n)


def regular_part_size(readings: PencilReadings) -> int | None:
    """Size of the regular part of the pencil of `readings` (finite and
    infinite eigenvalues with multiplicity), or None where the completion
    stays singular.  The pencil, padded to K x K and of normal rank r
    (`readings.rank`), gets tau U diag(d_j) V^H added to its coefficient j,
    with U and V of K - r random orthonormal columns and tau = ||[L0 L1]||_2
    (`readings.norm`); its own eigenvalues are those of the completed pencil
    whose unit vectors have V^H x = 0 and U^H y = 0, within TRUE_SCORE
    (Hochstenbach, Mehl & Plestenjak, SIMAX 40, 2019).  Every draw comes
    from a generator of the default seed, never from a caller's, so that no
    later draw moves."""
    l0, l1 = readings.L0, readings.L1
    size = max(l0.shape)
    k = size - readings.rank
    rng = make_rng()
    u, v = (np.linalg.qr(rng.standard_normal((size, k))
                         + 1j * rng.standard_normal((size, k)))[0] for _ in "uv")
    d = rng.standard_normal((2, k)) + 1j * rng.standard_normal((2, k))
    pad = ((0, size - l0.shape[0]), (0, size - l0.shape[1]))
    eig = pencil_eigs(PencilReadings(*(np.pad(c, pad) + readings.norm * (u * dj) @ v.conj().T
                                       for c, dj in zip((l0, l1), d))), vectors=True)
    if not eig.regular:
        return None
    score = np.maximum(*(np.linalg.norm(w.conj().T @ z, axis=0) / np.linalg.norm(z, axis=0)
                         for w, z in ((v, eig.right_vectors), (u, eig.left_vectors))))
    return int(np.sum(score <= TRUE_SCORE))


def _staircase(l0: np.ndarray, l1: np.ndarray, norm=None) -> tuple:
    """(right minimal indices, Jordan block sizes at 0, form) of
    lambda * l1 + l0, the lists sorted, from Van Dooren's column-compression
    staircase (LAA 1979; Demmel & Kagstrom, ACM TOMS 1993), run in place.
    `PencilReadings.staircase` is its one caller, once per side and end.

    Level k takes the mu_k null columns V2 of the active block a[r:, c:] of
    a working copy (a, b) of the pencil and b's rank rho_k on them,
    b[r:, c:] V2 = U sigma W^H; U^H then acts on rows r:, and V, null columns
    first, on columns c: of a, b and the column transform p.  mu_k - rho_k
    right minimal indices equal k, and rho_k - mu_{k+1} Jordan blocks at 0
    have size k + 1, with mu = 0 at the last level.  Ranks use the absolute
    cutoff max(M, N) * eps * ||[l0 l1]||_2 (`norm`, if given) *
    STAIRCASE_SCALE.  Step 0 first reads l0's singular values alone, against
    2 ||[l0 l1]||_F >= ||[l0 l1]||_2 if no `norm` is given, and takes vectors
    and the 2-norm only if they do not show full column rank.  The form is
    (a, b, p, levels), (r, c, rho, mu, sigma_top, W^H) per level, or ().
    """
    scale = max(l0.shape) * np.finfo(float).eps * STAIRCASE_SCALE
    bound = norm or 2.0 * math.hypot(np.linalg.norm(l0), np.linalg.norm(l1))
    if np.sum(np.linalg.svd(l0, compute_uv=False) > scale * bound) == l0.shape[1]:
        return [], [], ()
    cutoff = scale * (np.linalg.norm(np.hstack([l0, l1]), 2) if norm is None else norm)
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
        v = vh[np.arange(-mu, rank)].conj().T  # null columns first
        u, sb, wh = np.linalg.svd(b[r:, c:] @ v[:, :mu])
        rho = int(np.sum(sb > cutoff))
        indices += [k] * (mu - rho)
        levels.append((r, c, rho, mu, sb[:rho], wh))
        a[r:, c:], b[r:, c:] = u.conj().T @ a[r:, c:], u.conj().T @ b[r:, c:]
        a[:, c:], b[:, c:], p[:, c:] = a[:, c:] @ v, b[:, c:] @ v, p[:, c:] @ v
        r, c = r + rho, c + mu
    return indices, sizes, (a, b, p, levels) if levels else ()


def _deflate_shifts(ns, found, delta):
    """Orthonormal directions of the columns of ns orthogonal to the
    lambda-shifts of the lower-degree vectors of found, at degree delta."""
    shifts = [np.pad(cf, ((j, delta - d - j), (0, 0))).ravel()
              for d, cf in found for j in range(delta - d + 1)]
    if shifts:
        q = np.linalg.qr(np.array(shifts).T)[0]
        ns = ns - q @ (q.conj().T @ ns)
    return np.linalg.svd(ns, full_matrices=False)[0]


def block_degree(vector: np.ndarray, rows=slice(None)):
    """Numerical degree of the block `rows` of a basis vector whose stack
    (degree, entries) ends at the degree it was built with: its highest row
    with norm above DEGREE_TOL times that of the vector's last row, or
    NEG_INF.  The gate certifies the built degree, and at degree 100 and
    more an exact top coefficient can be 1e-11 of the largest one."""
    norms = np.linalg.norm(vector[:, rows].reshape(vector.shape[0], -1), axis=1)
    idx = np.flatnonzero(norms > DEGREE_TOL * np.linalg.norm(vector[-1]))
    return int(idx[-1]) if idx.size else NEG_INF


def certify_minimal_basis(res: MinimalBasisResult, l0: np.ndarray,
                          l1: np.ndarray, rng=None) -> dict:
    """Check the three minimal-basis conditions plus the pencil residual.

    Returns a diagnostics dict: residual of L*V (or V*L), full rank at 5
    random points and at 0, and full rank of the highest-degree coefficient
    matrix taken column-by-column (row-by-row on the left side).
    """
    pencil = PolyMatrix(np.stack([np.asarray(l0, dtype=complex),
                                  np.asarray(l1, dtype=complex)]))
    v = res.vectors
    prod = (pencil @ v) if res.side == "right" else (v @ pencil)
    scale = max(1.0, float(np.max(np.abs(v.coeffs), initial=0.0))) * max(
        1.0, float(np.max(np.abs(pencil.coeffs))))
    residual = float(np.max(np.abs(prod.coeffs), initial=0.0)) / scale

    full = res.full_rank_at(list(unit_circle_points(rng, 5)) + [0.0])
    reduced = res.is_reduced()
    ok = residual <= 1e-10 and full and reduced
    return {"residual": residual, "pointwise_full_rank": full,
            "reduced_full_rank": reduced, "ok": ok}
