"""Pull-back maps from a structured linearization to the rational matrix.

Eigenvectors come back by slicing the appropriate block of a pencil null
vector; minimal bases come back the same way at the polynomial level, through
one `recover_minimal_basis(sl, side)`: the right basis is the last m rows of
the pencil's, its indices shifted down by rho_D, and the left basis is the
pencil's at the p rows of the M_C block, its indices unchanged.  The
one-sided factorization residuals provide an executable certificate that a
built pencil really carries the transfer function around with it.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import make_rng
from .errors import PreconditionError, RatlinError
from .eigsolve import MinimalBasisResult, block_degree, polynomial_nullspace
from .linbuild import (StructuredLinearization, _state_stack, _state_terms,
                       hat_transfer_eval, require_invertible, sample_points,
                       transfer_eval)
from .polymat import PolyMatrix


@dataclass(frozen=True)
class EigenpairR:
    """Eigenvalue of the rational matrix with recovered vectors, their
    unscaled residuals ||R(lambda) x|| / ||x|| and their normwise backward
    errors eta; eta is the figure to judge, as the unscaled residual grows
    with ||R(lambda)||_2."""

    value: complex
    x: np.ndarray | None
    yT: np.ndarray | None
    residual_right: float
    residual_left: float
    eta_right: float   # residual / ||R(lambda)||_2, the normwise backward error
    eta_left: float

    def __post_init__(self):
        for v in (self.x, self.yT):
            if v is not None:
                v.flags.writeable = False  # memoized pairs go to every caller

    def to_dict(self) -> dict:
        def vec(v):
            return None if v is None else [[float(c.real), float(c.imag)] for c in v]
        return {"lambda": [float(self.value.real), float(self.value.imag)],
                "x": vec(self.x), "yT": vec(self.yT),
                "residuals": [self.residual_right, self.residual_left],
                "eta": [self.eta_right, self.eta_left]}


@dataclass(frozen=True)
class RecoveredNullspace:
    side: str
    basis_r: MinimalBasisResult       # basis of the rational matrix
    basis_l: MinimalBasisResult       # source basis of the pencil
    shift: int
    diagnostics: dict

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "indices": [int(i) for i in self.basis_r.indices],
            "pencilIndices": [int(i) for i in self.basis_l.indices],
            "shift": int(self.shift),
            "basis": self.basis_r.vectors.to_dict(),
            "diagnostics": {k: (bool(v) if isinstance(v, (bool, np.bool_)) else v)
                            for k, v in self.diagnostics.items()},
        }


# ---------------------------------------------------------------------------
# eigenvector maps
# ---------------------------------------------------------------------------

def recover_right_eigvec(sl: StructuredLinearization, lam: complex,
                         x_tilde: np.ndarray) -> np.ndarray:
    """Right eigenvector of the rational matrix from one of the pencil.

    The lower part of x_tilde is N_D(lam)^T x = [phi_{d-1}(lam) x; ...;
    phi_0(lam) x], so every block determines x.  The block with the largest
    |phi_k(lam)| is sliced and divided by phi_k(lam): the phi_0 block alone
    loses relative accuracy like |lam|^{d-1} (Higham, Li & Tisseur, SIMAX
    2007).  A vector from the unclassified part of the spectrum slices to
    numerical zero and is rejected.
    """
    return _right_block(sl, _phis(sl, lam), x_tilde)


def _phis(sl: StructuredLinearization, lam) -> np.ndarray:
    """phi_0(lam), ..., phi_{d-1}(lam) of the D side, or their rows at a 1-D
    array of points: the first row of N_D(lam) at every m-th column, from
    those entries alone."""
    n = sl.pair_d.N
    return PolyMatrix(n.coeffs[:, :1, ::sl.realization.m], n.basis).eval(lam)[..., 0, ::-1]


def _right_block(sl: StructuredLinearization, phis: np.ndarray,
                 x_tilde: np.ndarray) -> np.ndarray:
    m = sl.realization.m
    x_tilde = np.asarray(x_tilde, dtype=complex).ravel()
    if x_tilde.size != sl.shape[1]:
        raise RatlinError("x_tilde length does not match the pencil")
    k = int(np.argmax(np.abs(phis)))  # ties go to the lowest degree
    end = x_tilde.size - k * m
    x = x_tilde[end - m:end] / phis[k]
    if np.linalg.norm(x) <= 1e-12 * np.linalg.norm(x_tilde):
        raise RatlinError(
            "recovered vector is numerically zero: the pencil vector does not "
            "come from the rational matrix (unclassified part)")
    return x


def recover_left_eigvec(sl: StructuredLinearization, lam: complex,
                        y_tilde_t: np.ndarray) -> np.ndarray:
    """Left eigenvector: the block at positions [n(1+rho_A), n(1+rho_A)+p)."""
    r = sl.realization
    y = np.asarray(y_tilde_t, dtype=complex).ravel()
    if y.size != sl.shape[0]:
        raise RatlinError("y_tilde length does not match the pencil")
    na = sl.blocks["L_A"][1]
    out = y[na:na + r.p]
    if np.linalg.norm(out) <= 1e-12 * np.linalg.norm(y):
        raise RatlinError("recovered left vector is numerically zero")
    return out


def lift_right_eigvec(sl: StructuredLinearization, lam: complex,
                      x: np.ndarray) -> np.ndarray:
    """Embed a right eigenvector of the rational matrix into the pencil:
    [-N_A^T A^{-1} B x; N_D^T x] evaluated at the point."""
    r = sl.realization
    x = np.asarray(x, dtype=complex).ravel()
    av = r.A.eval(lam)
    require_invertible(av, lam)
    upper = -sl.pair_a.N.eval(lam).T @ np.linalg.solve(av, r.B.eval(lam) @ x)
    lower = sl.pair_d.N.eval(lam).T @ x
    return np.concatenate([upper, lower])


def lift_left_eigvec(sl: StructuredLinearization, lam: complex,
                     y_t: np.ndarray) -> np.ndarray:
    """Embed a left eigenvector: y^T [M_C L_A^{-1}, I_p, -M_R Nhat_D^T]."""
    r = sl.realization
    y = np.asarray(y_t, dtype=complex).ravel()
    la = sl.state.L1 * complex(lam) + sl.state.L0
    require_invertible(la, lam, "state pencil")
    first = np.linalg.solve(la.T, sl.m_c.eval(lam).T).T
    mr = hat_transfer_eval(sl, lam)[:r.p]
    last = -mr @ sl.pair_d.Nhat.eval(lam).T
    return np.concatenate([y @ first, y, y @ last])


def eigenpair(sl: StructuredLinearization, lam: complex) -> EigenpairR:
    """Both eigenvectors at a point, sliced from a QZ pair of `sl.spectrum`,
    with their unscaled residuals and normwise backward errors eta.

    At a finite eigenvalue of `sl.spectrum`, bit for bit, the pair comes from
    `sl.eigenpairs`, recovered for the whole spectrum on first use; anywhere
    else from `_eigenpair_at`.  Away from the spectrum the nearest pair is
    no eigenpair of R(lam), and its eta says so.  A pole raises PoleError, a
    pair whose slice is numerically zero RatlinError."""
    key = complex(lam)
    ep = sl.eigenpairs.get(key)
    if ep is None or repr(ep.value) != repr(key):  # repr keeps signed zeros
        return _eigenpair_at(sl, lam)
    return ep


def _eigenpair_at(sl: StructuredLinearization, lam: complex) -> EigenpairR:
    """The pair at one point, sliced from the nearest finite QZ pair of
    `sl.spectrum`."""
    rv = transfer_eval(sl.realization, lam)
    (phis,), (scale,) = _pair_terms(sl, np.array([lam], dtype=complex), rv[None])
    x_tilde, y_tilde = sl.spectrum.vectors_near(lam)
    x, y = _right_block(sl, phis, x_tilde), recover_left_eigvec(sl, lam, y_tilde)
    res_r = float(np.linalg.norm(rv @ x) / np.linalg.norm(x))
    res_l = float(np.linalg.norm(y @ rv) / np.linalg.norm(y))
    return EigenpairR(complex(lam), x, y, res_r, res_l, res_r / float(scale),
                      res_l / float(scale))


def _spectrum_eigenpairs(sl: StructuredLinearization) -> dict:
    """`_eigenpair_at` at every finite eigenvalue of `sl.spectrum`, keyed by
    the eigenvalue, bit for bit, in stacked operations over the spectrum but
    the four norms of eta (`_norm`, per pair: a stacked norm sums in another
    order).  Equal eigenvalues take the first pair, as `vectors_near` does;
    poles and the pairs whose slice is numerically zero are left out.  No
    residual is judged here: callers judge eta."""
    try:
        spec = sl.spectrum
    except RatlinError:
        return {}
    fin = np.flatnonzero(spec._finite_mask())
    vals = spec.alphas[fin] / spec.betas[fin]
    first = np.sort(np.unique(vals, return_index=True)[1])
    r = sl.realization
    (rvs,), ok = _state_stack(r, vals[first], (r.D, r.B))
    lams = vals[first][ok]
    phis, scales = _pair_terms(sl, lams, rvs)
    xt, yt = spec.pairs(fin[first][ok])
    at, k = np.arange(lams.size), np.argmax(np.abs(phis), axis=1)  # ties: lowest degree
    rows = xt.shape[0] - (k[:, None] + 1) * r.m + np.arange(r.m)
    xs = xt[rows, at[:, None]] / phis[at, k][:, None]
    na = sl.blocks["L_A"][1]
    ys = np.ascontiguousarray(yt[na:na + r.p].T)
    keep = ((np.linalg.norm(xs, axis=1) > 1e-12 * np.linalg.norm(xt, axis=0))
            & (np.linalg.norm(ys, axis=1) > 1e-12 * np.linalg.norm(yt, axis=0)))
    lams, xs, ys, rvs, scales = (v[keep] for v in (lams, xs, ys, rvs, scales))
    out = {}
    rxs, yrs = (rvs @ xs[:, :, None])[:, :, 0], (ys[:, None] @ rvs)[:, 0]
    for lam, x, y, rx, yr, scale in zip(lams.tolist(), xs, ys, rxs, yrs, scales.tolist()):
        res_r, res_l = _norm(rx) / _norm(x), _norm(yr) / _norm(y)
        out[lam] = EigenpairR(lam, x, y, res_r, res_l, res_r / scale, res_l / scale)
    return out


def _norm(v: np.ndarray) -> float:
    """np.linalg.norm(v) of a complex vector, bit for bit, by its formula."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _pair_terms(sl, lams, rvs) -> tuple:
    """`_phis` and ||R(lam)||_2 at a 1-D array of points, or 1 where R(lam)
    is zero up to roundoff: rank 0 at the cutoff max(p, m) eps 1e6 (that of
    computed data) relative to ||D(lam)||_F + ||C A^{-1} B(lam)||_F.  There
    ||R(lam)||_2 is roundoff itself, as at a zero of a 1 x 1 R, and would
    make eta 1 for any vector."""
    dv = sl.realization.D.eval(lams)
    parts = np.linalg.norm(dv, axis=(1, 2)) + np.linalg.norm(rvs - dv, axis=(1, 2))
    scales = np.linalg.norm(rvs, 2, axis=(1, 2))
    zero = scales <= max(rvs.shape[1:]) * np.finfo(float).eps * 1e6 * parts
    return _phis(sl, lams), np.where(zero, 1.0, scales)


# ---------------------------------------------------------------------------
# one-sided factorization residuals
# ---------------------------------------------------------------------------

def factorization_residuals(sl: StructuredLinearization, lam, *,
                            tested=False) -> tuple | list:
    """Residual norms of the two one-sided factorizations at a point, relative
    to max(1, ||Rhat(lam)|| max(1, ||N_D(lam)||)); at a 1-D array of points,
    the list of these pairs, from one evaluation of each block and one solve
    (and no invertibility test of A at points `tested` by `sample_points`).

    right: Rhat(lam) N_D(lam)^T - [R(lam); 0]
    left:  [I_p, -M_R(lam) Nhat_D(lam)^T] Rhat(lam) - R(lam) Khat_D(lam)
    """
    r = sl.realization
    pts = np.atleast_1d(np.asarray(lam, dtype=complex))
    top, rv = (t.reshape((pts.size,) + t.shape[-2:]) for t in _state_terms(
        r, lam, (sl.m_d, sl.m_b), (r.D, r.B), tested=tested))
    rhat = np.concatenate([top, sl.pair_d.K.eval(pts)], axis=1)
    nd = sl.pair_d.N.eval(pts)
    target = np.concatenate(
        [rv, np.zeros((pts.size, sl.rho_d * r.m, r.m), dtype=complex)], axis=1)
    right = rhat @ nd.transpose(0, 2, 1) - target

    mr = rhat[:, : r.p, :]
    ndhat = sl.pair_d.Nhat.eval(pts)
    eye = np.broadcast_to(np.eye(r.p, dtype=complex), (pts.size, r.p, r.p))
    selector = np.concatenate([eye, -mr @ ndhat.transpose(0, 2, 1)], axis=2)
    left = selector @ rhat - rv @ sl.pair_d.Khat.eval(pts)
    out = []
    for rgt, lft, rh, n in zip(right, left, rhat, nd):
        scale = max(1.0, float(np.linalg.norm(rh)) * max(1.0, float(np.linalg.norm(n))))
        out.append((float(np.linalg.norm(rgt)) / scale, float(np.linalg.norm(lft)) / scale))
    return out[0] if np.ndim(lam) == 0 else out


# ---------------------------------------------------------------------------
# minimal bases
# ---------------------------------------------------------------------------

def recover_minimal_basis(sl: StructuredLinearization, side: str = "right",
                          rng=None) -> RecoveredNullspace:
    """Minimal basis and indices of the rational matrix on `side`, sliced
    from the pencil's basis on that side (`polynomial_nullspace`).

    Right: each basis vector is the last m rows of a pencil vector (the
    lower block, where the selector completion puts x), and its index drops
    by rho_D.  Left: each basis row is a pencil basis row restricted to its
    entries [n(1+rho_A), n(1+rho_A)+p), those of the pencil rows of the M_C
    block, and its index carries over.  Written for columns: a left basis
    goes through its transpose, whose columns are the basis rows.  An empty
    basis takes the same path, and its diagnostics read residual 0.0."""
    rng = make_rng(rng)
    _require_minimality(sl, side)
    basis_l = polynomial_nullspace(sl, side)
    r = sl.realization
    if side == "right":
        first, size, shift = sl.shape[1] - r.m, r.m, sl.rho_d
    else:
        first, size, shift = sl.blocks["L_A"][1], r.p, 0

    def orient(stack):  # (grade+1, size, count) <-> the side's own layout
        return stack if side == "right" else stack.transpose(0, 2, 1)

    vectors = orient(basis_l.vectors.coeffs)
    rows = slice(first, first + size)
    degrees = [index - shift for index in basis_l.indices]
    ok_deg = all(block_degree(vectors[:index + 1, :, j], rows) == index - shift
                 for j, index in enumerate(basis_l.indices))
    out = np.zeros((max(degrees, default=0) + 1, size, len(degrees)), dtype=complex)
    for j, want in enumerate(degrees):
        out[:, :, j] = _normalize_column(vectors[:, rows, j], want)[:len(out)]
    basis_r = MinimalBasisResult(vectors=PolyMatrix(orient(out)),
                                 indices=sorted(degrees), side=side)
    diag = _nullspace_diagnostics(sl, basis_r, side, rng)
    diag["degree_consistent"] = ok_deg
    return RecoveredNullspace(side, basis_r, basis_l, shift, diag)


def _normalize_column(col: np.ndarray, degree: int) -> np.ndarray:
    """Scale so the largest entry of the degree coefficient is exactly 1."""
    if degree < 0 or degree >= col.shape[0]:
        return col
    top = col[degree]
    idx = int(np.argmax(np.abs(top)))
    pivot = top.ravel()[idx]
    if pivot == 0:
        return col
    out = col / pivot
    out[degree + 1:] = 0.0  # exact truncation at the theoretical degree
    return out


def _require_minimality(sl: StructuredLinearization, side: str):
    """The global rank hypotheses of index recovery, from `sl.minimality`.

    The pointwise rank condition of the side ([A; C] for right bases, [A, B]
    for left ones) can fail only at the poles, where it is checked, and the
    matching reversal condition is checked at 0; failures raise with the
    offending points.
    """
    k = 0 if side == "right" else 1
    rep = sl.minimality
    bad = [z for z, oks in rep.finite_ok_at.items() if not oks[k]]
    if bad or not rep.infinity_ok[k]:
        detail = []
        if bad:
            detail.append(f"pointwise rank condition fails at {bad[:4]}")
        if not rep.infinity_ok[k]:
            detail.append("reversal rank condition fails at 0")
        raise PreconditionError(
            f"{side} minimal basis recovery hypotheses not satisfied: "
            + "; ".join(detail))


def _nullspace_diagnostics(sl: StructuredLinearization, basis: MinimalBasisResult,
                           side: str, rng) -> dict:
    """Re-verify a recovered basis: nullspace residual at sample points,
    pointwise full rank (including 0), and reducedness.  The residual is
    relative to max(1, ||R(z)||) max(1, sum_k ||v_k|| |z|^k), which bounds
    the roundoff of v(z) where its coefficients cancel, as ||v(z)|| does not."""
    pts = sample_points(sl.realization, rng, 5, 0.05, 40)
    zs = np.array(pts, dtype=complex)
    r, v = sl.realization, basis.vectors
    (rvs,), vvs = _state_terms(r, zs, (r.D, r.B), tested=True), v.eval(zs)
    sizes = np.abs(zs)[:, None] ** np.arange(v.grade + 1) @ np.linalg.norm(
        v.coeffs, axis=(1, 2))
    worst = 0.0
    for rv, size, res in zip(rvs, sizes, rvs @ vvs if side == "right" else vvs @ rvs):
        scale = max(1.0, np.linalg.norm(rv)) * max(1.0, size)
        worst = max(worst, float(np.linalg.norm(res)) / scale)

    full = basis.full_rank_at(pts + [0.0])
    reduced = basis.is_reduced()
    return {"ok": worst <= 1e-8 and full and reduced,
            "nullspace_residual": worst,
            "pointwise_full_rank": full,
            "reduced_full_rank": reduced}
