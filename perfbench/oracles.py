"""Correctness checks computed by the benchmark itself.

Each check takes the generated input (raw coefficient stacks from inputs.py)
and the program's output, and recomputes what it needs with plain numpy: the
rational matrix R is evaluated here, never through ratlin.  A check returns
(ok, reason, figure) where figure is the accuracy number the run reports.
"""

import json

import numpy as np
from numpy.polynomial import chebyshev, polynomial
from scipy.optimize import linear_sum_assignment

from inputs import Case, ScalarCase, basis_values, evaluate

ETA_MAX = 1e-8          # normwise backward error gate for eigenpairs
ROOT_TOL = 1e-6         # relative distance gate for scalar roots
IDENTITY_TOL = 1e-11    # relative residual gate of L(z) blkdiag(N_A^T, N_D^T)


def transfer(case: Case, z: complex) -> np.ndarray:
    """R(z) = D(z) + C(z) A(z)^-1 B(z)."""
    a = evaluate(case.A, case.basis_a, z)
    b = evaluate(case.B, case.basis_d, z)
    return evaluate(case.D, case.basis_d, z) \
        + evaluate(case.C, case.basis_a, z) @ np.linalg.solve(a, b)


def backward_error(r: np.ndarray, v: np.ndarray, side: str) -> float:
    """Normwise backward error ||R v|| / (||R|| ||v||) (Tisseur, LAA 2000)."""
    res = r @ v if side == "right" else v @ r
    return float(np.linalg.norm(res) / (np.linalg.norm(r, 2) * np.linalg.norm(v)))


def check_spectral(case: Case, zeros: int, pairs, orders) -> tuple:
    """Eigenpairs of a generic square regular realization.

    Generic data gives det R = det [A B; -C D] / det A, so R has
    n*grade_a + m*grade_d finite zeros, all simple and away from the poles;
    R(lambda) = lambda^grade_d (R_top + O(1/lambda)) with R_top invertible,
    so every invariant order at infinity is -grade_d.
    """
    grade_a, grade_d = case.A.shape[0] - 1, case.D.shape[0] - 1
    n, m = case.n, case.B.shape[2]
    expected = n * grade_a + m * grade_d
    if zeros != expected or len(pairs) != expected:
        return False, f"{zeros} zeros, {len(pairs)} eigenpairs, expected {expected}", None
    if list(orders) != [-grade_d] * m:
        return False, f"orders at infinity {list(orders)}, expected {[-grade_d] * m}", None
    worst = 0.0
    for lam, x, y in pairs:
        r = transfer(case, lam)
        worst = max(worst, backward_error(r, x, "right"), backward_error(r, y, "left"))
    if not worst <= ETA_MAX:
        return False, f"backward error {worst:.3e} > {ETA_MAX:g}", worst
    return True, "", worst


def scalar_roots(case: ScalarCase) -> np.ndarray:
    """Roots of c*b - a*d that are not roots of b, from numpy.polynomial."""
    cleared = polynomial.polysub(polynomial.polymul(case.c, chebyshev.cheb2poly(case.b)),
                                 polynomial.polymul(case.a, chebyshev.cheb2poly(case.d)))
    roots = polynomial.polyroots(cleared)
    poles = chebyshev.chebroots(case.b)
    keep = [z for z in roots
            if np.min(np.abs(poles - z)) > 1e-7 * max(1.0, abs(z))]
    return np.asarray(keep, dtype=complex)


def match(computed: np.ndarray, expected: np.ndarray) -> float:
    """Largest relative distance of an optimal pairing of two multisets."""
    if computed.size != expected.size:
        return np.inf
    if computed.size == 0:
        return 0.0
    cost = np.abs(computed[:, None] - expected[None, :]) \
        / np.maximum(1.0, np.abs(expected))[None, :]
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def check_scalar(case: ScalarCase, stdout: str) -> tuple:
    """The roots printed by `ratlin scalar --json` against scalar_roots."""
    out = json.loads(stdout)
    got = np.array([complex(*r["lambda"]) for r in out["roots"]], dtype=complex)
    want = scalar_roots(case)
    err = match(got, want)
    if not err <= ROOT_TOL:
        return False, f"{got.size} roots vs {want.size} expected, error {err:.3e}", err
    return True, "", err


def _chain(basis: str, z: complex, size: int, grade: int) -> np.ndarray:
    """N(z)^T = [phi_{grade-1}(z) I; ...; phi_0(z) I] of the dual pair."""
    vals = basis_values(basis, z, grade - 1)[::-1]
    return np.kron(vals[:, None], np.eye(size))


def _rank(mat: np.ndarray) -> int:
    sv = np.linalg.svd(mat, compute_uv=False)
    return int(np.sum(sv > max(mat.shape) * np.finfo(float).eps * sv[0]))


def check_linearize(case: Case, pencil: dict, z: complex) -> tuple:
    """The pencil file written by `ratlin linearize` at a seeded point z.

    Checks the block identities L(z) blkdiag(N_A(z)^T, N_D(z)^T) =
    [A B; 0 0; -C D; 0 0](z), which pin every entry of the pencil, and the
    rank relation rank L(z) = rank R(z) + n + s.
    """
    n, p, m = case.n, case.C.shape[1], case.B.shape[2]
    da, dd = case.A.shape[0] - 1, case.D.shape[0] - 1
    if (pencil["rhoA"], pencil["rhoD"]) != (da - 1, dd - 1):
        return False, f"rhoA/rhoD {pencil['rhoA']}/{pencil['rhoD']}", None
    l0 = np.array(pencil["L0"], dtype=float)
    l1 = np.array(pencil["L1"], dtype=float)
    lz = (l1[..., 0] + 1j * l1[..., 1]) * z + (l0[..., 0] + 1j * l0[..., 1])
    shape = (n * da + p + m * (dd - 1), n * da + m * dd)
    if lz.shape != shape:
        return False, f"pencil shape {lz.shape}, expected {shape}", None

    right = np.zeros((shape[1], n + m), dtype=complex)
    right[:n * da, :n] = _chain(case.basis_a, z, n, da)
    right[n * da:, n:] = _chain(case.basis_d, z, m, dd)
    target = np.zeros((shape[0], n + m), dtype=complex)
    a, b = evaluate(case.A, case.basis_a, z), evaluate(case.B, case.basis_d, z)
    c, d = evaluate(case.C, case.basis_a, z), evaluate(case.D, case.basis_d, z)
    target[:n, :n], target[:n, n:] = a, b
    target[n * da:n * da + p, :n], target[n * da:n * da + p, n:] = -c, d
    resid = float(np.linalg.norm(lz @ right - target)
                  / (np.linalg.norm(lz) * np.linalg.norm(right) + np.linalg.norm(target)))
    if not resid <= IDENTITY_TOL:
        return False, f"block identity residual {resid:.3e}", resid

    s = n * (da - 1) + m * (dd - 1)
    lhs, rhs = _rank(lz), _rank(transfer(case, z)) + n + s
    if lhs != rhs:
        return False, f"rank L(z) = {lhs}, rank R(z) + n + s = {rhs}", resid
    return True, "", resid


def check_battery(entries) -> tuple:
    """run_all's own verdict; entries are (name, status) pairs."""
    failed = [name for name, status in entries if status == "fail"]
    skipped = sum(status == "skipped" for _, status in entries)
    if failed:
        return False, "battery failed: " + ", ".join(failed), skipped
    return True, "", skipped
