"""Dense pencil spectral computations.

Covers the generalized eigensolver contract (QZ via scipy), pole/zero
classification of a structured linearization, and polynomial nullspace
minimal bases.  One column-compression staircase gives a pencil's right
minimal indices, a basis of those degrees by back-substitution through its
own transforms, and its Jordan block sizes at 0, which are the local
partial multiplicities and, on reversed pencils, the invariant orders at
infinity.  A back-substituted basis is kept only when it passes a gate
(count, the nullity of one convolution matrix, and the certificate);
otherwise, and for matrices of higher grade, a degree-sweep convolution
method gives the basis.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import MATCH_TOL, make_rng, unit_circle_points
from .errors import BreakdownError, PreconditionError, RatlinError
from .linbuild import (StructuredLinearization, block_pencil,
                       check_infinity_minimality, sample_points, system_eval)
from .polymat import NEG_INF, PolyMatrix, generic_rank, numerical_rank

INF_BETA_TOL = 1e-12
# multiplier on the staircase rank cutoff max(M, N) * eps * ||[L0 L1]||_2
STAIRCASE_SCALE = 1e6
RANK_SAMPLES = 5   # sample points of rational_rank
DEGREE_TOL = 1e-8  # relative norm below which a coefficient row is zero


@dataclass(frozen=True)
class PencilEig:
    """Generalized eigenvalues of L1*lambda + L0 as (alpha, beta) pairs.

    A pair with |beta| below tolerance is an eigenvalue at infinity.  For a
    singular pencil `regular` is False and the pairs must not be interpreted.
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

    def vectors_near(self, lam: complex) -> tuple:
        """(x, y) of the finite pair nearest lam: L(lam) x = 0 = y^T L(lam)."""
        idx = np.flatnonzero(self._finite_mask())
        if self.right_vectors is None or idx.size == 0:
            raise RatlinError("no finite eigenpair with vectors to match")
        i = idx[np.argmin(np.abs(self.alphas[idx] / self.betas[idx] - lam))]
        return self.right_vectors[:, i], self.left_vectors[:, i].conj()  # vl^H L = 0


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
        vector, has full rank.  Vectors are stored in ascending degree order,
        so the sorted index list doubles as the per-vector degree list."""
        v = self.vectors.coeffs
        if self.side == "right":
            hcd = np.stack([v[d, :, j] for j, d in enumerate(self.indices)], axis=1)
        else:
            hcd = np.stack([v[d, j, :] for j, d in enumerate(self.indices)], axis=0)
        return numerical_rank(hcd) == self.count


def pencil_eigs(l0: np.ndarray, l1: np.ndarray, vectors: bool = False,
                rng=None) -> PencilEig:
    """All (alpha, beta) pairs of a square pencil via the QZ backend.

    Regularity is detected by rank sampling at 3 seeded random points; a
    singular pencil is flagged and its pairs left empty.
    """
    l0 = np.asarray(l0, dtype=complex)
    l1 = np.asarray(l1, dtype=complex)
    if l0.shape != l1.shape or l0.ndim != 2 or l0.shape[0] != l0.shape[1]:
        raise RatlinError(f"pencil must be square, got {l0.shape} and {l1.shape}")
    if not pencil_is_regular(l0, l1, rng=rng):
        empty = np.zeros(0, dtype=complex)
        return PencilEig(empty, empty, None, None, regular=False)
    import scipy.linalg  # here, not at the top: it is most of the import time
    try:
        if vectors:
            w, vl, vr = scipy.linalg.eig(-l0, l1, left=True, right=True,
                                         homogeneous_eigvals=True)
        else:
            w = scipy.linalg.eig(-l0, l1, left=False, right=False,
                                 homogeneous_eigvals=True)
            vl = vr = None
        alpha, beta = w[0], w[1]
    except Exception as exc:  # surface backend failure, never silent NaN
        raise RatlinError(f"QZ backend failed: {exc}") from exc
    if np.any(np.isnan(alpha)) or np.any(np.isnan(beta)):
        raise RatlinError("QZ backend returned NaN eigenvalue data")
    return PencilEig(np.asarray(alpha), np.asarray(beta), vr, vl, regular=True)


def pencil_is_regular(l0: np.ndarray, l1: np.ndarray, rng=None) -> bool:
    """Determinant sampling: full rank at any of 3 random points."""
    if l0.shape[0] != l0.shape[1]:
        return False
    n = l0.shape[0]
    if n == 0:
        return True
    rng = make_rng(rng)
    for z in unit_circle_points(rng, 3):
        if numerical_rank(l1 * z + l0) == n:
            return True
    return False


def cluster_eigenvalues(values) -> list:
    """Group a sorted eigenvalue list into (representative, count) clusters
    of points within MATCH_TOL of each other."""
    out = []
    for v in values:
        if out and abs(v - out[-1][0]) <= MATCH_TOL * max(1.0, abs(v)):
            rep, c = out[-1]
            out[-1] = ((rep * c + v) / (c + 1), c + 1)
        else:
            out.append((v, 1))
    return [(complex(v), int(c)) for v, c in out]


def classify(sl: StructuredLinearization, rng=None) -> SpectralReport:
    """Pole/zero classification of the rational matrix behind a linearization.

    Poles come from the state pencil, zeros from the full pencil.  A zero
    within matching tolerance of a pole is flagged and tagged with the
    pointwise minimality checks of `sl.minimality` at the nearest pole; any
    other zero passes both, since [A; C] and [A, B] have full rank wherever
    A is invertible.  Zeros failing either check are reported unclassified
    (the spectral characterization does not certify them).
    """
    r = sl.realization
    if r.p != r.m:
        raise PreconditionError("classification needs a square rational matrix")
    state = sl.state_spectrum
    if not state.regular:
        raise PreconditionError("state pencil is singular; realization invalid")
    full = pencil_eigs(sl.L0, sl.L1, rng=rng)
    if not full.regular:
        raise PreconditionError(
            "the pencil is singular; eigenvalues are meaningless — "
            "use polynomial_nullspace for the singular structure")

    pole_vals = state.finite()
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
    at 0 of `_staircase` on the block pencil of the Taylor expansion of P at
    lam, a strong linearization of P(lam + mu) (a pencil is its own).

    The point is usually a computed eigenvalue, exact only to roundoff,
    which the staircase's loosened rank cutoff absorbs.
    """
    if p.cols == 0:  # block_pencil needs a column
        return []
    taylor = PolyMatrix(_taylor_stack(p.to_monomial(), complex(lam)))
    l0, l1, _ = block_pencil(taylor)
    return _staircase(l0, l1)[1]


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
    reversal of lambda L1 + L0 is the pencil lambda L0 + L1, its own Taylor
    expansion at 0, so `_staircase` reads the multiplicities off it directly.
    """
    r = sl.realization
    okl, okr = check_infinity_minimality(r, sl.grade_a, sl.grade_d)
    if not (okl and okr):
        raise PreconditionError(
            f"minimality at infinity fails (left={okl}, right={okr}); "
            "the pencil does not linearize the structure at infinity")
    g = sl.rho_d + 1

    la0, la1 = sl.state_pencil()
    e_list = _staircase(la1, la0)[1]
    e_tilde = _staircase(sl.L1, sl.L0)[1]

    rank_r = rational_rank(sl, rng=rng)
    t, u = len(e_list), len(e_tilde)
    if t + u > rank_r:
        raise PreconditionError(
            f"inconsistent rank estimate: {t} + {u} multiplicities for rank {rank_r}")
    body = [-e for e in reversed(e_list)] + [0] * (rank_r - t - u) + list(e_tilde)
    return [q - g for q in body]


def rational_rank(sl: StructuredLinearization, rng=None) -> int:
    """Generic rank of the rational matrix, as max rank P(z) - n over
    RANK_SAMPLES sampled points, where P = [A B; -C D] holds input data only,
    free of the cancellation in forming D + C A^{-1} B.  Points with cond(A)
    above 1e6 are skipped and the cutoff is scaled up, keeping
    exact-by-construction rank drops (residual singular values ~1e-13
    relative) on the zero side.
    """
    r = sl.realization
    pts = sample_points(r, make_rng(rng), RANK_SAMPLES, 0.07, 10 * RANK_SAMPLES,
                        cond_max=1e6)
    if not pts:
        raise RatlinError("could not find well-conditioned sample points")
    return int(numerical_rank(system_eval(r, np.array(pts)), 1e6).max()) - r.n


def polynomial_nullspace(l0: np.ndarray, l1: np.ndarray, side: str = "right",
                         rng=None) -> MinimalBasisResult:
    """Minimal polynomial nullspace basis of a pencil.

    The basis comes from back-substitution through the pencil's staircase
    when it passes the gate of `polymatrix_nullspace`, and from the degree
    sweep otherwise: for each candidate degree the block convolution matrix
    of the pencil is formed, and new nullspace directions are those
    orthogonal to shifts of the lower-degree basis vectors, until the count
    matches the nullity of the pencil over the rational functions.  Either
    way the output is deterministic.
    """
    l0 = np.asarray(l0, dtype=complex)
    l1 = np.asarray(l1, dtype=complex)
    pencil = PolyMatrix(np.stack([l0, l1]))
    # the cutoff is loosened a couple of orders beyond machine epsilon so
    # pencils assembled from computed data (structural zeros only exact to
    # roundoff) are still judged correctly
    rank = generic_rank(pencil, rng, rank_scale=100.0)
    # pencil minimal indices never exceed the rank, so the dimension sum caps
    # the sweep
    return polymatrix_nullspace(pencil, side, rng=rng, rank=rank,
                                cap=sum(l0.shape))


def polymatrix_nullspace(p: PolyMatrix, side: str = "right", rng=None,
                         rank: int | None = None,
                         cap: int | None = None) -> MinimalBasisResult:
    """Degree-sweep minimal basis for a polynomial matrix of any grade.

    Same convolution construction as the pencil case, with one block row per
    coefficient.  Used directly it keeps the sweep depth at the (small)
    minimal indices of the matrix instead of the inflated indices of a
    linearization.

    A pencil (grade 1) first gets the basis back-substituted through its
    `_staircase`, returned if it passes the gate of `_gated_basis`: its
    count is the nullity, the convolution matrix at the top degree has the
    nullity those degrees predict, and `certify_minimal_basis` passes.  A
    rejected basis falls back to the sweep.  Raises BreakdownError when an
    index would exceed `cap`.
    """
    if side not in ("right", "left"):
        raise RatlinError(f"side must be 'right' or 'left', got {side!r}")
    if side == "left":
        res = polymatrix_nullspace(p.T, "right", rng=rng, rank=rank, cap=cap)
        return MinimalBasisResult(vectors=res.vectors.T, indices=res.indices,
                                  side="left")

    mono = p.to_monomial()
    cols = p.cols
    if rank is None:
        rank = generic_rank(mono, rng=rng)
    nullity = cols - rank
    if nullity <= 0:
        return MinimalBasisResult(
            vectors=PolyMatrix(np.zeros((1, cols, 0), dtype=complex)),
            indices=[], side="right")
    if cap is None:
        # an index cannot exceed the degree content rank * grade
        cap = p.rows + cols + rank * max(1, mono.grade)

    if mono.grade == 1:
        res = _gated_basis(mono.coeffs, nullity, cap)
        if res is not None:
            return res
    return _basis_result(_sweep(mono.coeffs, nullity, cap), cols)


def _basis_result(found, cols) -> MinimalBasisResult:
    """The right basis of [(degree, coefficients)] listed by ascending degree."""
    gmax = max(d for d, _ in found)
    stack = np.zeros((gmax + 1, cols, len(found)), dtype=complex)
    for j, (d, cf) in enumerate(found):
        stack[: d + 1, :, j] = cf
    return MinimalBasisResult(vectors=PolyMatrix(stack),
                              indices=sorted(d for d, _ in found),
                              side="right")


def _back_substitute(steps) -> list:
    """[(degree, coefficients)] of a right basis of the pencil from the
    transforms of its `_staircase`, by ascending degree.

    The null vectors z of S = U_top^H b V2 give V2 z, the degree-0 vectors of
    a step's pencil, which are degree-k vectors of the pencil for step k.  A
    vector w of the next step's pencil lifts to x = V1 lambda w + V2 u, with
    S u = -U_top^H (a + lambda b) V1 w solved by u = W_rho sigma^-1 (...):
    so x = (M0 + lambda M1) w, one degree up.  Vectors are scaled to unit
    norm at each step; whether the result is a minimal basis is left to
    `_gated_basis`.
    """
    vecs = np.zeros((1, steps[-1][3], 0), dtype=complex)  # (rows, columns, count)
    degrees = []
    for a, b, v, rank, ut, sb, wh in reversed(steps):
        v1, v2 = v[:, :rank], v[:, rank:]
        solve = -v2 @ (wh[:sb.size].conj().T / sb) @ ut.conj().T
        new = v2 @ wh[sb.size:].conj().T
        k = new.shape[1]
        lifted = np.zeros((vecs.shape[0] + 1, v.shape[0], k + len(degrees)),
                          dtype=complex)
        lifted[0, :, :k] = new
        lifted[:-1, :, k:] = (solve @ a @ v1) @ vecs
        lifted[1:, :, k:] += (v1 + solve @ b @ v1) @ vecs
        vecs = lifted / np.linalg.norm(lifted, axis=(0, 1))
        degrees = [0] * k + [d + 1 for d in degrees]
    return [(d, vecs[: d + 1, :, j]) for j, d in enumerate(degrees)]


def _gated_basis(stack, nullity, cap) -> MinimalBasisResult | None:
    """The pencil's right basis back-substituted through its `_staircase`,
    or None unless the gate passes: the staircase's indices number the
    nullity, none above `cap`; the convolution matrix at the top index D has
    nullity sum(D - d_i + 1); and `certify_minimal_basis` passes with its own
    generator.  A certified basis has degrees bounding the minimal indices
    from above one by one, so the nullity test holds only at the indices;
    the certificate alone passes bases of the wrong degrees.  The nullity
    test needs only the indices and goes first, so a rejection by it costs
    one values-only SVD."""
    guess, _, steps = _staircase(*stack)
    if len(guess) != nullity or max(guess) > cap:
        return None
    top = max(guess)
    conv = _convolution_matrix(stack, top)
    if conv.shape[1] - numerical_rank(conv) != sum(top - d + 1 for d in guess):
        return None
    res = _basis_result(_back_substitute(steps), stack.shape[2])
    return res if certify_minimal_basis(res, *stack)["ok"] else None


def _sweep(stack, nullity, cap) -> list:
    """[(degree, coefficients)] of the basis from every degree up to the last
    index; a degree's nullity comes from its singular values, and the null
    vectors are taken only where that nullity adds some."""
    found = []
    prev_nullity = 0
    for delta in range(cap + 1):
        conv = _convolution_matrix(stack, delta)
        nu = conv.shape[1] - numerical_rank(conv)
        new_count = nu - prev_nullity - len(found)
        prev_nullity = nu
        if new_count > 0:
            _take(found, _null_basis(conv), delta, stack.shape[2], new_count)
        if len(found) == nullity:
            return found
    raise BreakdownError(
        f"nullspace sweep exceeded degree cap {cap} (numerical breakdown)")


def _take(found, ns, delta, cols, new_count):
    """Append the new degree-delta vectors of null basis ns to found."""
    fresh = _deflate_shifts(ns, found, delta, cols, new_count)
    found.extend((delta, vec.reshape(delta + 1, cols)) for vec in fresh.T)


def _staircase(l0: np.ndarray, l1: np.ndarray) -> tuple:
    """(right minimal indices, Jordan block sizes at 0, steps) of
    lambda * l1 + l0, the lists sorted, from Van Dooren's column-compression
    staircase (LAA 1979; Demmel & Kagstrom, ACM TOMS 1993).

    Step k compresses the mu_k null columns of the current l0 block,
    row-compresses the matching columns of l1 to their rank rho_k, and drops
    both.  mu_k - rho_k right minimal indices equal k, and rho_k - mu_{k+1}
    Jordan blocks at 0 have size k + 1, with mu = 0 at the last step.  Ranks
    use the absolute cutoff max(M, N) * eps * ||[l0 l1]||_2 * STAIRCASE_SCALE.
    Each step keeps what it computed, (a, b, V, rank, U_top, sigma_top, W^H)
    for the blocks a, b of the step, a = U S V^H and b V2 = U sigma W^H with
    V = [V1 V2] split at the rank, for `_back_substitute`.
    """
    cutoff = (max(l0.shape) * np.finfo(float).eps * STAIRCASE_SCALE
              * np.linalg.norm(np.hstack([l0, l1]), 2))
    a, b = l0, l1
    indices, sizes, steps = [], [], []
    rho = 0
    for k in range(l0.shape[1] + 1):
        _, sv, vh = np.linalg.svd(a)
        rank = int(np.sum(sv > cutoff))
        mu = a.shape[1] - rank
        sizes += [k] * (rho - mu)
        if mu == 0:
            break
        v = vh.conj().T
        u, sb, wh = np.linalg.svd(b @ v[:, rank:])
        rho = int(np.sum(sb > cutoff))
        indices += [k] * (mu - rho)
        steps.append((a, b, v, rank, u[:, :rho].copy(), sb[:rho], wh))
        uh = u.conj().T[rho:]
        a, b = uh @ a @ v[:, :rank], uh @ b @ v[:, :rank]
    return indices, sizes, steps


def _convolution_matrix(stack: np.ndarray, delta: int):
    g = stack.shape[0] - 1
    rows, cols = stack.shape[1], stack.shape[2]
    conv = np.zeros(((delta + g + 1) * rows, (delta + 1) * cols), dtype=complex)
    for i in range(delta + 1):
        for k in range(g + 1):
            conv[(i + k) * rows:(i + k + 1) * rows,
                 i * cols:(i + 1) * cols] = stack[k]
    return conv


def _null_basis(mat):
    u, sv, vh = np.linalg.svd(mat)
    if sv.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    cutoff = max(mat.shape) * np.finfo(float).eps * sv[0]
    rank = int(np.sum(sv > cutoff))
    return vh[rank:].conj().T


def _deflate_shifts(ns, found, delta, cols, new_count):
    """Remove the span of lambda-shifted lower-degree vectors from ns."""
    shifts = []
    for d, cf in found:
        for j in range(delta - d + 1):
            emb = np.zeros(((delta + 1), cols), dtype=complex)
            emb[j:j + d + 1] = cf
            shifts.append(emb.ravel())
    if shifts:
        q, _ = np.linalg.qr(np.array(shifts).T)
        ns = ns - q @ (q.conj().T @ ns)
    u, sv, _ = np.linalg.svd(ns, full_matrices=False)
    return u[:, :new_count]


def vector_degree(stack: np.ndarray):
    """Numerical degree of a coefficient stack: its highest row with norm
    above DEGREE_TOL relative to the largest."""
    norms = np.linalg.norm(stack.reshape(stack.shape[0], -1), axis=1)
    top = norms.max()
    if top == 0.0:
        return NEG_INF
    idx = np.nonzero(norms > DEGREE_TOL * top)[0]
    return int(idx[-1])


def certify_minimal_basis(res: MinimalBasisResult, l0: np.ndarray,
                          l1: np.ndarray, rng=None) -> dict:
    """Check the three minimal-basis conditions plus the pencil residual.

    Returns a diagnostics dict: residual of L*V (or V*L), full rank at 5
    random points and at 0, and full rank of the highest-degree coefficient
    matrix taken column-by-column (row-by-row on the left side).
    """
    rng = make_rng(rng)
    if res.count == 0:
        return {"residual": 0.0, "pointwise_full_rank": True,
                "reduced_full_rank": True, "ok": True}
    pencil = PolyMatrix(np.stack([np.asarray(l0, dtype=complex),
                                  np.asarray(l1, dtype=complex)]))
    v = res.vectors
    prod = (pencil @ v) if res.side == "right" else (v @ pencil)
    scale = max(1.0, float(np.max(np.abs(v.coeffs)))) * max(
        1.0, float(np.max(np.abs(pencil.coeffs))))
    residual = float(np.max(np.abs(prod.coeffs))) / scale

    full = res.full_rank_at(list(unit_circle_points(rng, 5)) + [0.0])
    reduced = res.is_reduced()
    ok = residual <= 1e-10 and full and reduced
    return {"residual": residual, "pointwise_full_rank": full,
            "reduced_full_rank": reduced, "ok": ok}
