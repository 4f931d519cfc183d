import math
import os
import sys

# one BLAS thread, as in perfbench/run.py and tools/parity.py: timings and
# the last digits of computed results depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pinning)
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.optimize  # noqa: E402

from ratlin.config import MATCH_TOL  # noqa: E402
from ratlin.errors import DimensionError  # noqa: E402
from ratlin.polymat import Basis, PolyMatrix  # noqa: E402
from ratlin.linbuild import PencilReadings, Realization  # noqa: E402
from ratlin.verify import FixtureSpec, gen_fixture, preset_cross_coupled  # noqa: E402

DET_RADIUS = 1.15  # sample circle of poly_det_coeffs
DET_TRIM = 1e-10   # relative size below which its trailing coefficients drop


@pytest.fixture
def preset() -> Realization:
    return preset_cross_coupled()


@pytest.fixture
def qz_runs(monkeypatch) -> list:
    """(shape, with vectors) of every LAPACK zggev run from here on, the
    workspace queries left out."""
    zggev = scipy.linalg.lapack.zggev
    runs = []

    def counting(a, b, *args, **kwargs):
        if kwargs.get("lwork") != -1:
            vectors = args[0] if args else kwargs.get("compute_vl", 1)
            runs.append((a.shape, bool(vectors)))
        return zggev(a, b, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "zggev", counting)
    return runs


@pytest.fixture
def svd_matrices(monkeypatch) -> list:
    """The number of matrices of every numpy.linalg.svd call from here on,
    each matrix of a stack counted."""
    svd, counts = np.linalg.svd, []

    def counting(a, *args, **kwargs):
        counts.append(math.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counts


# (seed, k, grade, factor) of `scaled_fixture`: 36 realizations
SCALED = [(seed, k, g, factor) for seed in range(1, 7) for k, g in ((2, 2), (3, 2), (3, 3))
          for factor in (1e-12, 1e-13)]


def scaled_fixture(seed, k, grade, factor) -> Realization:
    """gen_fixture's n = p = m = k realization of grades `grade` with the
    last column of B and of D multiplied by `factor`.  At 1e-12 and 1e-13
    the pencil lies so near the singular one of a zero column that rank
    cutoffs 100 times apart can disagree on its regularity."""
    r = gen_fixture(FixtureSpec(seed=seed, n=k, p=k, m=k, grade_a=grade, grade_d=grade))
    b, d = r.B.coeffs.copy(), r.D.coeffs.copy()
    b[:, :, -1] *= factor
    d[:, :, -1] *= factor
    return Realization(A=r.A, B=PolyMatrix(b, r.B.basis), C=r.C,
                       D=PolyMatrix(d, r.D.basis))


def count_off(side):
    """`PencilReadings.staircase` with one index more on `side`, at 0 and at
    infinity alike: no reading of that side numbers its nullity."""
    staircase = PencilReadings.staircase

    def spoiled(readings, asked, infinity=False):
        indices, *rest = staircase(readings, asked, infinity)
        return (indices + [0] if asked == side else indices, *rest)
    return spoiled


def count_calls(monkeypatch, func) -> list:
    """The positional arguments of every call of the ratlin function `func`
    from here on, wrapped in every ratlin module namespace that binds it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ratlin" \
                and getattr(module, func.__name__, None) is func:
            monkeypatch.setattr(module, func.__name__, counting)
    return calls


def stiff_state_realization(singular: bool = False) -> Realization:
    """A = (1 + lambda / 2) diag(1, 1e-8), of condition number 1e8 at every
    point, with real grade-1 2 x 2 blocks B, C and D drawn in that order
    from seed 3; `singular` zeroes the last column of B and of D."""
    rng = np.random.default_rng(3)
    a = PolyMatrix(np.array([np.diag([1.0, 1e-8]), np.diag([0.5, 0.5e-8])]))
    b, c, d = (rng.standard_normal((2, 2, 2)) for _ in "BCD")
    if singular:
        b[:, :, -1] = d[:, :, -1] = 0.0
    return Realization(A=a, B=PolyMatrix(b), C=PolyMatrix(c), D=PolyMatrix(d))


def random_polymatrix(rng, grade, rows, cols, basis=Basis.MONOMIAL) -> PolyMatrix:
    stack = rng.standard_normal((grade + 1, rows, cols)) \
        + 1j * rng.standard_normal((grade + 1, rows, cols))
    return PolyMatrix(stack, basis)


def random_realization(seed, n=2, p=2, m=2, grade_a=2, grade_d=2,
                       basis_a=Basis.MONOMIAL, basis_d=Basis.MONOMIAL) -> Realization:
    rng = np.random.default_rng(seed)
    return Realization(
        A=random_polymatrix(rng, grade_a, n, n, basis_a),
        B=random_polymatrix(rng, grade_d, n, m, basis_d),
        C=random_polymatrix(rng, grade_a, p, n, basis_a),
        D=random_polymatrix(rng, grade_d, p, m, basis_d))


def schoolbook_matmul(a: PolyMatrix, b: PolyMatrix) -> np.ndarray:
    """Coefficients of a product of monomial polynomial matrices from the
    double loop over coefficient pairs; PolyMatrix.__matmul__ reproduces
    them bit for bit."""
    out = np.zeros((a.grade + b.grade + 1, a.rows, b.cols), dtype=complex)
    for i in range(a.grade + 1):
        for j in range(b.grade + 1):
            out[i + j] += a.coeffs[i] @ b.coeffs[j]
    return out


def l_block(eps: int) -> tuple:
    """(L0, L1) of the eps x (eps + 1) Kronecker block L_eps, whose right
    minimal basis is [1, -lambda, lambda^2, ...] of degree eps."""
    eye = np.eye(eps, eps + 1)
    return np.roll(eye, 1, axis=1), eye


def planted_kronecker(rng, eps, eta, t, centres=(0.0,)) -> tuple:
    """(L0, L1) of lambda L1 + L0 with right minimal indices eps, left
    minimal index eta and, for each centre c, three 1 x 1 blocks
    lambda - c - t_j, t_j = +-t, under a random orthogonal equivalence drawn
    from rng.  Small |t| puts finite eigenvalues next to the centres; a
    staircase at 0 compresses at the centre 0."""
    blocks = [l_block(e) for e in eps]
    l0, l1 = l_block(eta)
    blocks.append((l0.T, l1.T))
    for c in centres:
        blocks += [(np.array([[-c - t * s]]), np.ones((1, 1)))
                   for s in rng.choice([-1.0, 1.0], size=3)]
    l0 = scipy.linalg.block_diag(*[b[0] for b in blocks])
    l1 = scipy.linalg.block_diag(*[b[1] for b in blocks])
    p, _ = np.linalg.qr(rng.standard_normal((l0.shape[0],) * 2))
    q, _ = np.linalg.qr(rng.standard_normal((l0.shape[1],) * 2))
    return p @ l0 @ q, p @ l1 @ q


def prescribed_realization(rng, eps, eta, k, grade_a, grade_d,
                           basis_a=Basis.MONOMIAL,
                           basis_d=Basis.MONOMIAL) -> Realization:
    """Realization of R = U diag(L_eps_1, ..., L_eta^T, d_i + c_i b_i / a_i) V
    with constant random U and V, so that R has exactly the right minimal
    indices eps and the left minimal index eta (De Terán, Dopico & Van
    Dooren, SIMAX 36, 2015).  A = diag(a_i), C = U E diag(c_i),
    B = diag(b_i) F V and D = U blockdiag(L blocks, diag(d_i)) V, with E and
    F placing the k scalar entries last; a_i and c_i have grade_a in basis_a,
    b_i and d_i grade_d >= 1 in basis_d.  The L blocks have the same
    coefficients in both bases, as T_1 = lambda."""
    if grade_d < 1:
        raise ValueError("the L blocks need grade_d >= 1")
    blocks = [l_block(e) for e in eps] + [tuple(x.T for x in l_block(eta))]
    p = sum(b[0].shape[0] for b in blocks) + k
    m = sum(b[0].shape[1] for b in blocks) + k
    u = random_polymatrix(rng, 0, p, p).coeffs[0]
    v = random_polymatrix(rng, 0, m, m).coeffs[0]
    a, c = (random_polymatrix(rng, grade_a, 1, k).coeffs[:, 0] for _ in range(2))
    b, d = (random_polymatrix(rng, grade_d, 1, k).coeffs[:, 0] for _ in range(2))
    middle = np.zeros((grade_d + 1, p, m), dtype=complex)
    row = col = 0
    for block in blocks:
        rows, cols = block[0].shape
        middle[:2, row:row + rows, col:col + cols] = block
        row, col = row + rows, col + cols
    middle[:, row:, col:] = d[:, :, None] * np.eye(k)
    diag = np.eye(k)[None]
    return Realization(
        A=PolyMatrix(a[:, :, None] * diag, basis_a),
        B=PolyMatrix(b[:, :, None] * diag @ v[col:], basis_d),
        C=PolyMatrix(u[:, row:] @ (c[:, :, None] * diag), basis_a),
        D=PolyMatrix(u @ middle @ v, basis_d))


# -- test oracles: computed apart from the library's own spectral path -----

def poly_det_coeffs(p: PolyMatrix) -> np.ndarray:
    """Monomial coefficients of det P(lambda) by evaluation-interpolation.

    Samples on the circle of radius DET_RADIUS at roots of unity and inverts
    the DFT; trailing coefficients below DET_TRIM * max|coeff| are dropped.
    """
    if p.rows != p.cols:
        raise DimensionError("determinant needs a square polynomial matrix")
    if p.rows == 0:
        return np.array([1.0 + 0j])
    bound = p.rows * max(1, p.grade)
    npts = bound + 1
    omega = DET_RADIUS * np.exp(2j * np.pi * np.arange(npts) / npts)
    vals = np.linalg.det(p.eval(omega))
    # samples are sums c_j r^j exp(+2 pi i jk/N): forward FFT/N inverts them
    coeffs = np.fft.fft(vals) / npts / DET_RADIUS ** np.arange(npts)
    mags = np.abs(coeffs)
    top = mags.max()
    if top == 0.0:
        return np.zeros(1, dtype=complex)
    keep = np.nonzero(mags > DET_TRIM * top)[0]
    return np.array(coeffs[: keep[-1] + 1])


def poly_roots(p: PolyMatrix) -> np.ndarray:
    """Roots of a scalar polynomial from numpy.polynomial's companion matrix
    of its monomial coefficients, trailing ones below 1e-12 of the largest
    dropped; empty for a (near-)constant or zero polynomial."""
    coeffs = p.to_monomial().coeffs.ravel()
    mags = np.abs(coeffs)
    keep = np.nonzero(mags > 1e-12 * mags.max())[0]
    if keep.size == 0 or keep[-1] == 0:
        return np.zeros(0, dtype=complex)
    return np.polynomial.polynomial.polyroots(coeffs[: keep[-1] + 1]).astype(complex)


def match_multisets(computed, expected, tol_match: float = MATCH_TOL):
    """Optimal pairing of two eigenvalue multisets.

    Returns (ok, worst) where worst is the largest matched distance relative
    to max(1, |lambda|); ok requires equal sizes and worst <= tol_match.
    """
    a = np.asarray(list(computed), dtype=complex)
    b = np.asarray(list(expected), dtype=complex)
    if a.size != b.size:
        return False, math.inf
    if a.size == 0:
        return True, 0.0
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    scale = np.maximum(1.0, np.abs(b[cols]))
    worst = float(np.max(cost[rows, cols] / scale))
    return worst <= tol_match, worst
