import numpy as np
import pytest

from ratlin.dualbases import pair_for
from ratlin.linbuild import build, row_pencil
from ratlin.polymat import Basis, PolyMatrix, vstack
from ratlin.verify import FixtureSpec, gen_fixture

from conftest import random_polymatrix

GRID = [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (2, 3), (3, 2), (2, 5),
        (1, 8), (2, 8), (1, 10), (3, 10), (1, 12), (2, 12), (5, 6)]


def test_monomial_s1_d3_display():
    pr = pair_for(Basis.MONOMIAL, 1, 3)
    assert np.allclose(pr.K.coeff(0), [[-1, 0, 0], [0, -1, 0]])
    assert np.allclose(pr.K.coeff(1), [[0, 1, 0], [0, 0, 1]])
    # N = [l^2, l, 1]
    assert np.allclose(pr.N.coeff(0), [[0, 0, 1]])
    assert np.allclose(pr.N.coeff(1), [[0, 1, 0]])
    assert np.allclose(pr.N.coeff(2), [[1, 0, 0]])


def test_monomial_degenerate_grade1():
    pr = pair_for(Basis.MONOMIAL, 2, 1)
    assert pr.K.shape == (0, 2)
    assert pr.Nhat.shape == (0, 2)
    assert np.allclose(pr.N.coeff(0), np.eye(2))
    assert np.allclose(pr.Khat.coeff(0), np.eye(2))


def test_monomial_s1_d2_hand_solved():
    pr = pair_for(Basis.MONOMIAL, 1, 2)
    assert np.allclose(pr.K.coeff(0), [[-1, 0]])
    assert np.allclose(pr.K.coeff(1), [[0, 1]])
    assert np.allclose(pr.Khat.coeff(0), [[0, 1]])
    # unique degree-0 completion: Nhat = [-1, 0]
    assert pr.Nhat.grade == 0
    assert np.allclose(pr.Nhat.coeff(0), [[-1, 0]])
    _assert_completion_identities(pr)


def test_monomial_s1_d3_completion_frozen():
    # hand-solved from K Nhat^T = I, Khat Nhat^T = 0 with the last block zero:
    # column 1 of Nhat^T is [-1, 0, 0], column 2 is [-l, -1, 0]
    pr = pair_for(Basis.MONOMIAL, 1, 3)
    assert np.allclose(pr.Nhat.coeff(0), [[-1, 0, 0], [0, -1, 0]])
    assert np.allclose(pr.Nhat.coeff(1), [[0, 0, 0], [-1, 0, 0]])


def test_chebyshev_s1_d4_display():
    pr = pair_for(Basis.CHEBYSHEV1, 1, 4)
    assert np.allclose(pr.K.coeff(0),
                       [[-0.5, 0, -0.5, 0], [0, -0.5, 0, -0.5], [0, 0, -1, 0]])
    assert np.allclose(pr.K.coeff(1),
                       [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    # N rows are phi_3, phi_2, phi_1, phi_0 placed left to right
    lam = 0.37
    phis = [1.0, lam, 2 * lam ** 2 - 1, 4 * lam ** 3 - 3 * lam]
    assert np.allclose(pr.N.eval(lam), [[phis[3], phis[2], phis[1], phis[0]]])


def test_chebyshev_d2_final_row_convention():
    pr = pair_for(Basis.CHEBYSHEV1, 1, 2)
    assert np.allclose(pr.K.coeff(0), [[-1, 0]])
    assert np.allclose(pr.K.coeff(1), [[0, 1]])
    assert np.allclose(pr.N.eval(0.7), [[0.7, 1.0]])


@pytest.mark.parametrize("s,d", GRID)
@pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
def test_completion_identities(basis, s, d):
    pr = pair_for(basis, s, d)
    _assert_completion_identities(pr)
    _assert_dense_kronecker(pr)


def _assert_dense_kronecker(pr):
    """K and N, built on first read, and the K_A and K_D blocks that `build`
    writes into its pencil without building K, equal the dense Kronecker
    product of the scalar pair with I_s bit for bit, signed zeros included."""
    s, d, basis = pr.s, pr.d, pr.basis
    scalar = pair_for(basis, 1, d)

    def dense(p):
        return np.stack([np.kron(c.real, np.eye(s)) for c in p.coeffs]).astype(complex)

    assert pr.K.coeffs.tobytes() == dense(scalar.K).tobytes()
    assert pr.N.coeffs.tobytes() == dense(scalar.N).tobytes()
    spec = FixtureSpec(seed=1, n=s, p=1, m=s, grade_a=d, grade_d=d,
                       basis_a=basis, basis_d=basis)
    sl = build(gen_fixture(spec))
    for name in ("K_A", "K_D"):
        block = np.stack([sl.block(name, k) for k in (0, 1)])
        assert block.tobytes() == dense(scalar.K).tobytes()


def _assert_completion_identities(pr):
    """The identities hold coefficient by coefficient, exactly: every entry
    of the pair is a dyadic rational of modest size."""
    s, d = pr.s, pr.d
    assert not (pr.K @ pr.N.T).coeffs.any()
    assert not (pr.Khat @ pr.N.T - PolyMatrix.identity(s, pr.basis)).coeffs.any()
    if d > 1:
        assert not (pr.K @ pr.Nhat.T
                    - PolyMatrix.identity((d - 1) * s, pr.basis)).coeffs.any()
        assert not (pr.Khat @ pr.Nhat.T).coeffs.any()


@pytest.mark.parametrize("s,d", [(1, 3), (2, 3), (1, 4)])
@pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
def test_unimodularity_det_constancy(basis, s, d):
    rng = np.random.default_rng(55)
    pr = pair_for(basis, s, d)
    u = vstack(pr.K, pr.Khat)
    pts = np.exp(2j * np.pi * rng.uniform(size=5)) * 1.4
    dets = np.array([np.linalg.det(u.eval(z)) for z in pts])
    assert abs(dets[0]) > 1e-8
    assert np.max(np.abs(dets - dets[0])) <= 1e-10 * abs(dets[0])


@pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
def test_n_full_row_rank_everywhere(basis):
    rng = np.random.default_rng(66)
    pr = pair_for(basis, 2, 4)
    pts = list(np.exp(2j * np.pi * rng.uniform(size=10))) + [0.0]
    for z in pts:
        assert np.linalg.matrix_rank(pr.N.eval(z)) == pr.s


@pytest.mark.parametrize("basis", [Basis.MONOMIAL, Basis.CHEBYSHEV1])
def test_row_pencil_reconstruction(basis):
    """row_pencil against this module's N reproduces the input exactly."""
    rng = np.random.default_rng(99)
    p = random_polymatrix(rng, 3, 2, 2, basis)
    pr = pair_for(basis, 2, 3)
    m = row_pencil(p, pr)
    prod = m @ pr.N.T
    assert prod.basis is basis
    diff = prod - p.pad_to_grade(prod.grade)
    assert np.max(np.abs(diff.coeffs)) <= 1e-13
