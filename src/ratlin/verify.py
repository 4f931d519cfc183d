"""Cross-cutting verification harness.

Generates structured random realizations, runs every identity the library
relies on as an executable check, and reports pass/fail with worst residuals.
The harness ships with the library (not only the tests) because the spectral
guarantees are conditional: users need the condition checks on their own
realizations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .config import RESIDUAL_TOL, make_rng
from .errors import BreakdownError, PreconditionError, RatlinError
from .eigsolve import MinimalBasisResult, block_degree, classify
from .linbuild import (Realization, StructuredLinearization, build,
                       sample_points, system_eval)
from .polymat import RECURRENCE, Basis, PolyMatrix, hstack, numerical_rank
from .recover import eigenpair, factorization_residuals, recover_minimal_basis

STRUCTURES = ("regular", "zero-column-b", "zero-row-c", "rank-deficient-d")


@dataclass(frozen=True)
class FixtureSpec:
    seed: int = 0
    n: int = 2
    p: int = 2
    m: int = 2
    grade_a: int = 2
    grade_d: int = 2
    basis_a: Basis = Basis.MONOMIAL
    basis_d: Basis = Basis.MONOMIAL
    structure: str = "regular"

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise PreconditionError(f"unknown structure flag {self.structure!r}")
        if min(self.n, self.p, self.m) < 1:
            raise PreconditionError("dimensions must be >= 1")
        if min(self.grade_a, self.grade_d) < 0:
            raise PreconditionError("grades must be >= 0")


@dataclass(frozen=True)
class CheckEntry:
    name: str
    status: str          # "pass" | "fail" | "skipped"
    worst_residual: float
    location: complex | None = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "status": self.status,
               "worstResidual": float(self.worst_residual)}
        if self.location is not None:
            out["location"] = [self.location.real, self.location.imag]
        return out


@dataclass(frozen=True)
class CheckReport:
    entries: list

    @property
    def passed(self) -> bool:
        return all(e.status != "fail" for e in self.entries)

    def to_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": [e.to_dict() for e in self.entries]}

    def table(self) -> str:
        width = max(len(e.name) for e in self.entries) if self.entries else 4
        lines = [f"{'check'.ljust(width)}  status   worst residual"]
        for e in self.entries:
            lines.append(f"{e.name.ljust(width)}  {e.status:<7}  {e.worst_residual:.3e}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def gen_fixture(spec: FixtureSpec) -> Realization:
    """Structured random realization; deterministic in the seed.

    Coefficients are standard complex normal, then the structure flag is
    applied.  The singular flags couple B and D so the rational matrix itself
    is singular: zeroing (or linearly combining) a column of B alone would
    leave R regular and the nullspace checks vacuous.
    """
    rng = make_rng(spec.seed)
    n, p, m = spec.n, spec.p, spec.m

    def draw(g, rows, cols, basis):
        stack = rng.standard_normal((g + 1, rows, cols)) \
            + 1j * rng.standard_normal((g + 1, rows, cols))
        return PolyMatrix(stack, basis)

    for attempt in range(10):
        a = draw(spec.grade_a, n, n, spec.basis_a)
        c = draw(spec.grade_a, p, n, spec.basis_a)
        b = draw(spec.grade_d, n, m, spec.basis_d)
        d = draw(spec.grade_d, p, m, spec.basis_d)

        if spec.structure == "zero-column-b":
            if m < 2:
                raise PreconditionError("zero-column-b needs m >= 2")
            bc = b.coeffs.copy(); bc[:, :, -1] = 0.0
            dc = d.coeffs.copy(); dc[:, :, -1] = 0.0
            b = PolyMatrix(bc, spec.basis_d)
            d = PolyMatrix(dc, spec.basis_d)
        elif spec.structure == "zero-row-c":
            if p < 2:
                raise PreconditionError("zero-row-c needs p >= 2")
            cc = c.coeffs.copy(); cc[:, -1, :] = 0.0
            dc = d.coeffs.copy(); dc[:, -1, :] = 0.0
            c = PolyMatrix(cc, spec.basis_a)
            d = PolyMatrix(dc, spec.basis_d)
        elif spec.structure == "rank-deficient-d":
            if m < 2:
                raise PreconditionError("rank-deficient-d needs m >= 2")
            # last column of [B; D] = (first columns) * w(lambda), deg w = 1,
            # so [w; -1] is a polynomial right null vector of R
            w = rng.standard_normal((2, m - 1, 1)) + 1j * rng.standard_normal((2, m - 1, 1))
            bc = draw(spec.grade_d - 1, n, m - 1, spec.basis_d) if spec.grade_d >= 1 \
                else draw(0, n, m - 1, spec.basis_d)
            dc = draw(spec.grade_d - 1, p, m - 1, spec.basis_d) if spec.grade_d >= 1 \
                else draw(0, p, m - 1, spec.basis_d)
            wpoly = PolyMatrix(w, spec.basis_d)
            b = _combine_last_column(bc, wpoly, spec.grade_d)
            d = _combine_last_column(dc, wpoly, spec.grade_d)

        r = Realization(A=a, B=b, C=c, D=d)
        if r.check_state_regular(rng):
            return r
    raise RatlinError("could not draw a regular state matrix in 10 attempts")


def _combine_last_column(base: PolyMatrix, w: PolyMatrix, grade: int) -> PolyMatrix:
    last = (base.to_monomial() @ w.to_monomial()).to_basis(base.basis)
    return hstack(base, last).pad_to_grade(max(grade, last.grade))


def preset_cross_coupled() -> Realization:
    """Coupled pair of scalar rational functions hung off two rank-one
    couplings, with D = I_2 lambda^2; a well-conditioned regression fixture
    whose poles are {2, -1, -2} and whose finite/infinite minimality checks
    all pass."""
    a = PolyMatrix.from_list([np.diag([-2.0, 2.0]), np.diag([-1.0, 1.0]),
                              np.diag([1.0, 0.0])])
    c = PolyMatrix.from_list([np.diag([1.0, -1.0]), np.zeros((2, 2)),
                              np.eye(2)])
    b = PolyMatrix.from_list([np.array([[0.0, 2.0], [0.0, 0.0]]),
                              np.array([[0.0, 1.0], [0.0, 0.0]]),
                              np.array([[0.0, 0.0], [1.0, 0.0]])])
    d = PolyMatrix.from_list([np.zeros((2, 2)), np.zeros((2, 2)), np.eye(2)])
    return Realization(A=a, B=b, C=c, D=d)


PRESETS = {"cross-coupled": preset_cross_coupled}


# ---------------------------------------------------------------------------
# the check battery
# ---------------------------------------------------------------------------

def run_all(r: Realization, seed: int = 0) -> CheckReport:
    """Execute the full identity battery against one realization.  The
    system matrix [A B; -C D] is evaluated at 5 random points off the poles
    and decomposed once: `transfer-rank-additivity` and (at a 1e6 times
    larger cutoff) `nullspace-dimension` read its ranks."""
    rng = make_rng(seed)
    sl = build(r, rng=rng)
    pts = np.array(sample_points(r, rng, 5, 0.11, 50, cond_max=1e7), dtype=complex)
    system_ranks = numerical_rank(system_eval(r, pts), (1.0, 1e6))
    return CheckReport([
        _check_block_factors(sl),
        _check_dual_pairs(sl),
        _check_rank_additivity(sl, pts, system_ranks[0]),
        _check_one_sided_factorizations(sl, rng),
        _check_state_pencil_spectrum(sl, rng),
        _check_minimality_proxy(sl),
        *_check_nullspaces(sl, system_ranks[1], rng),
        _check_eigenvector_recovery(sl, rng),
    ])


def _entry(name, ok, worst, location=None):
    return CheckEntry(name, "pass" if ok else "fail", float(worst), location)


def _skip(name):
    return CheckEntry(name, "skipped", 0.0)


def _check_block_factors(sl: StructuredLinearization) -> CheckEntry:
    """M_X N^T == X coefficient by coefficient in their basis, all four blocks."""
    r = sl.realization
    worst = 0.0
    for mx, x, pair in ((sl.m_a, r.A, sl.pair_a), (sl.m_c, r.C, sl.pair_a),
                        (sl.m_b, r.B, sl.pair_d), (sl.m_d, r.D, sl.pair_d)):
        # initial=0: a realization with no outputs (p = 0) has empty C and D
        scale = max(1.0, float(np.max(np.abs(x.coeffs), initial=0.0)))
        gap = np.max(np.abs((mx @ pair.N.T - x).coeffs), initial=0.0)
        worst = max(worst, float(gap) / scale)
    return _entry("block-factor-identities", worst <= 1e-13, worst)


def _check_dual_pairs(sl: StructuredLinearization) -> CheckEntry:
    worst = 0.0
    for pair in (sl.pair_a, sl.pair_d):
        prods = [pair.K @ pair.N.T,
                 pair.Khat @ pair.N.T - PolyMatrix.identity(pair.s, pair.basis),
                 pair.Khat @ pair.Nhat.T]
        if pair.d > 1:
            prods.append(pair.K @ pair.Nhat.T
                         - PolyMatrix.identity((pair.d - 1) * pair.s, pair.basis))
        for prod in prods:
            if prod.coeffs.size:
                worst = max(worst, float(np.max(np.abs(prod.coeffs))))
    return _entry("dual-pair-identities", worst <= 1e-13, worst)


def _check_rank_additivity(sl, pts, system_ranks) -> CheckEntry:
    """rank L(z) == rank R(z) + n + s at the random non-pole points pts, with
    rank R(z) + n the rank of the system matrix [A B; -C D](z) there."""
    bad = np.flatnonzero(numerical_rank(sl.pencil_eval(pts)) != system_ranks + sl.s)
    return _entry("transfer-rank-additivity", bad.size == 0 and pts.size == 5,
                  float(bad.size > 0), complex(pts[bad[-1]]) if bad.size else None)


def _check_one_sided_factorizations(sl, rng) -> CheckEntry:
    pts = sample_points(sl.realization, rng, 10, 0.07, 60, cond_max=1e6)
    worst = 0.0
    loc = None
    for z, pair in zip(pts, factorization_residuals(sl, np.array(pts, dtype=complex),
                                                    tested=True)):
        val = max(pair)
        if val > worst:
            worst, loc = val, complex(z)
    return _entry("one-sided-factorizations", len(pts) == 10 and worst <= 1e-10,
                  worst, loc)


def _check_state_pencil_spectrum(sl, rng) -> CheckEntry:
    """det L_A(z) == c det A(z) at 5 random points: the state pencil is a
    strong linearization of A, so its finite spectrum is that of A.  The
    constant c = prod_{k=0}^{d_A-2} alpha_k^n comes from the basis
    recurrence (1 for monomials, 2^(-n(d_A-2)) for Chebyshev); the figure is
    the worst relative gap, from log-determinants, gated at 1e-8."""
    r = sl.realization
    pts = np.array(sample_points(r, rng, 5, 0.07, 60, cond_max=1e6), dtype=complex)
    if pts.size < 5:
        return _entry("state-pencil-spectrum", False, 1.0)
    sign_l, log_l = np.linalg.slogdet(sl.state.L1 * pts[:, None, None] + sl.state.L0)
    sign_a, log_a = np.linalg.slogdet(r.A.eval(pts))
    rec = RECURRENCE[sl.pair_a.basis]
    log_c = r.n * sum(math.log(rec(k)[0]) for k in range(sl.grade_a - 1))
    worst = float(np.max(np.abs(sign_l / sign_a * np.exp(log_l - log_a - log_c) - 1)))
    return _entry("state-pencil-spectrum", worst <= 1e-8, worst)


def _check_minimality_proxy(sl) -> CheckEntry:
    """Pointwise minimality at the poles, the only points where it can fail,
    plus the reversal checks at 0: `sl.minimality`.  The figure counts the
    poles that fail."""
    rep = sl.minimality
    bad = [z for z, oks in rep.finite_ok_at.items() if not all(oks)]
    return _entry("minimality-proxy", rep.all_ok, float(len(bad)),
                  complex(bad[-1]) if bad else None)


def _check_nullspaces(sl, system_ranks, rng) -> list:
    """Certificates of the recovered minimal bases, the degree law, and the
    nullspace dimension rule; skipped for regular fixtures.

    An index check passes when the basis sliced from the pencil's basis is
    what the theorem predicts: its degrees are the pencil's indices minus
    rho_D on the right and the pencil's indices on the left, it annihilates
    R at the sample points, it is column reduced, and it has full rank at
    those points and at 0.  The pencil's indices are certified in turn, by
    the gate of `polynomial_nullspace` (the count, the index sum with the
    linearization's `regular_size`, and the certificate), and
    `minimality-proxy` and `nullspace-dimension` check the hypotheses.  The
    latter takes rank R as the largest of `system_ranks`, the sampled system
    matrices' ranks, less n, free of the cancellation in forming D + C A^-1 B,
    with the cutoff scaled up by 1e6 to keep exact-by-construction rank
    drops on the zero side; a sample with no points fails it.  A side is
    skipped (not failed) when recovery refuses its hypotheses or raises
    BreakdownError, as the gate does when no reading of the side, at 0 or at
    infinity, passes its count and index sum.
    """
    r = sl.realization
    right_nullity = sl.shape[1] - sl.rank
    left_nullity = sl.shape[0] - sl.rank
    if right_nullity == 0 and left_nullity == 0:
        return [_skip("right-index-shift"), _skip("left-index-match"),
                _skip("nullvector-degree-law"), _skip("nullspace-dimension")]

    rank_r = int(system_ranks.max(initial=0)) - r.n
    dim_ok = (right_nullity == r.m - rank_r) and (left_nullity == r.p - rank_r)
    entries_dim = _entry("nullspace-dimension", dim_ok,
                         abs(right_nullity - (r.m - rank_r))
                         + abs(left_nullity - (r.p - rank_r)))
    return (_check_index_side(sl, "right", right_nullity, rng)
            + _check_index_side(sl, "left", left_nullity, rng)
            + [entries_dim])


def _check_index_side(sl, side, nullity, rng) -> list:
    """One side of `_check_nullspaces`: the certificate of the recovered
    basis, followed on the right by the degree law."""
    right = side == "right"
    name = "right-index-shift" if right else "left-index-match"
    skipped = [_skip(name)] + ([_skip("nullvector-degree-law")] if right else [])
    if nullity <= 0:
        return skipped
    try:
        rec = recover_minimal_basis(sl, side, rng=rng)
    except (PreconditionError, BreakdownError):
        return skipped
    diag = rec.diagnostics
    entry = _entry(name, diag["ok"] and diag["degree_consistent"],
                   diag["nullspace_residual"])
    return [entry] + ([_degree_law(sl, rec.basis_l)] if right else [])


def _degree_law(sl, basis: MinimalBasisResult) -> CheckEntry:
    """deg z == deg (lower block of z) for every vector of the pencil's right
    minimal basis.  The law needs the left reversal-minimality condition,
    which right-basis recovery has already required of `sl.minimality`."""
    r = sl.realization
    low = sl.shape[1] - r.m * (sl.rho_d + 1)
    ok = all(block_degree(basis.vectors.coeffs[:eps + 1, :, j], rows) == eps
             for j, eps in enumerate(basis.indices)
             for rows in (slice(None), slice(low, None)))
    return _entry("nullvector-degree-law", ok, 0.0 if ok else 1.0)


def _check_eigenvector_recovery(sl, rng) -> CheckEntry:
    """Normwise backward error eta = ||R(lam) x|| / (||R(lam)||_2 ||x||) of
    the recovered pair, both sides, at every certified zero off the poles;
    the figure is the worst eta, gated at RESIDUAL_TOL."""
    try:  # classify refuses a non-square R or a singular pencil
        report = classify(sl)
    except PreconditionError:
        return _skip("eigenvector-recovery")
    worst = 0.0
    loc = None
    used = 0
    for entry in report.zeros:
        if not entry.classified or entry.near_pole:
            continue
        try:
            ep = eigenpair(sl, entry.value)
        except RatlinError:
            return _entry("eigenvector-recovery", False, 1.0, entry.value)
        used += 1
        val = max(ep.eta_right, ep.eta_left)
        if val > worst:
            worst, loc = val, entry.value
    if used == 0:
        return _skip("eigenvector-recovery")
    return _entry("eigenvector-recovery", worst <= RESIDUAL_TOL, worst, loc)
