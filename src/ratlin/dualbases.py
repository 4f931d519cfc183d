"""Dual minimal basis pairs and their unimodular extensions.

For block size s and grade d the pair (K, N) satisfies K(lambda) N(lambda)^T = 0
with K of size (d-1)s x ds (all row degrees 1) and N of size s x ds (all row
degrees d-1).  The pair (Khat, Nhat) makes U = [K; Khat] unimodular with
U^{-1} = [Nhat^T  N^T], which is what turns eigenvector and minimal-basis
recovery into a block slice.  All four are written in closed form from the
basis's row of `polymat.RECURRENCE` and its `times_lambda` matrix
(Amiraslani, Corless & Lancaster, IMA J. Numer. Anal. 2009).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .polymat import RECURRENCE, Basis, PolyMatrix, times_lambda


@dataclass(frozen=True)
class DualBasisPair:
    """The pair of block size s and grade d in `basis`, and its completion:
    each of K, N, Khat and Nhat is built on first read from its scalar
    (s = 1) pattern."""

    s: int
    d: int
    basis: Basis

    @property
    def rho(self) -> int:
        """Degree of N."""
        return self.d - 1

    @property
    def k_pattern(self) -> np.ndarray:
        """K's scalar coefficient stack, (2, d-1, d): row i is the recurrence
        at k = d-2-i, -alpha_k e_i + (lambda - beta_k) e_{i+1} - gamma_k e_{i+2},
        so the last row is [-alpha_0, lambda - beta_0]."""
        rec = RECURRENCE[self.basis]
        k = np.zeros((2, self.d - 1, self.d))
        for i in range(self.d - 1):
            # subtracting from +0.0 keeps a zero coefficient's block at +0.0
            k[0, i, i:i + 3] -= rec(self.d - 2 - i)[:self.d - i]
            k[1, i, i + 1] = 1.0
        return k

    @cached_property
    def K(self) -> PolyMatrix:
        """(d-1)s x ds, row degrees all 1; `build` writes its blocks into the
        pencil through `kron_eye` and does not read it."""
        return _blocks(self.k_pattern, self.s, self.basis)

    @cached_property
    def N(self) -> PolyMatrix:
        """s x ds, row degrees all d-1: degree k carries I in block d-1-k."""
        return _blocks(np.eye(self.d)[::-1, None, :], self.s, self.basis)

    @cached_property
    def Khat(self) -> PolyMatrix:
        """s x ds constant selector of the last block column, where N^T
        holds phi_0 I = I."""
        return _blocks(np.eye(self.d)[None, -1:, :], self.s, self.basis)

    @cached_property
    def Nhat(self) -> PolyMatrix:
        """(d-1)s x ds, degree <= d-2, with K Nhat^T = I and Khat Nhat^T = 0."""
        return _blocks(_nhat(self.basis, self.d), self.s, self.basis)


def pair_for(basis: Basis, s: int, d: int) -> DualBasisPair:
    """The pair dual to N = [phi_{d-1} I, ..., phi_1 I, phi_0 I], with K the
    block recurrence of `DualBasisPair.k_pattern`; no block is built until
    it is read, and `build` reads none."""
    _check_sd(s, d)
    return DualBasisPair(s, d, basis)


def _nhat(basis: Basis, d: int) -> np.ndarray:
    """Coefficient stack of the scalar Nhat, of grade d-2, in the pair's basis.

    Column c of Nhat^T solves K x = e_c with x = 0 in the phi_0 block (so
    Khat Nhat^T = 0).  Writing y_k for the entry in the phi_k block, row
    d-2-k of K gives y_{k+1} = ((lambda - beta_k) y_k - gamma_k y_{k-1}
    - [c == d-2-k]) / alpha_k, a back-substitution up K.  Each y_k has degree
    below k, so every product by lambda stays within grade d-2.
    """
    g = max(d - 2, 0)
    times_lam = times_lambda(basis, g)
    y = np.zeros((d + 1, g + 1, d - 1))  # y[k + 1][degree, c] = y_k; y_{-1} = y_0 = 0
    for k in range(d - 1):
        alpha, beta, gamma = RECURRENCE[basis](k)
        y[k + 2] = times_lam @ y[k + 1] - beta * y[k + 1] - gamma * y[k]
        y[k + 2, 0, d - 2 - k] -= 1.0
        y[k + 2] /= alpha
    return y[:0:-1].transpose(1, 2, 0)  # block j of Nhat holds y_{d-1-j}


def kron_eye(pattern: np.ndarray, s: int, out: np.ndarray) -> np.ndarray:
    """Write each matrix of the scalar stack `pattern` (k, r, c) Kronecker
    I_s into `out`, a complex (k, rs, cs) array or view, by broadcasting.
    Every cell is written: off a block's diagonal, the entry times +0.0,
    so a negative entry's block holds -0.0 there."""
    k, r, c = pattern.shape
    np.multiply(pattern[:, :, None, :, None], np.eye(s)[:, None, :],
                out=out.reshape(k, r, s, c, s, copy=False))
    return out


def _blocks(pattern: np.ndarray, s: int, basis: Basis) -> PolyMatrix:
    """Scalar coefficient stack -> PolyMatrix with each entry times I_s."""
    k, r, c = pattern.shape
    return PolyMatrix(kron_eye(pattern, s, np.empty((k, r * s, c * s), dtype=complex)),
                      basis)


def _check_sd(s: int, d: int):
    if s < 1 or d < 1:
        raise DimensionError(f"need block size >= 1 and grade >= 1, got s={s}, d={d}")
