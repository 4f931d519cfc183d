"""The test-side oracles of conftest: the interpolated determinant and the
multiset matcher that other tests compare the library against."""

import numpy as np

from ratlin.polymat import PolyMatrix

from conftest import match_multisets, poly_det_coeffs


class TestDetInterpolation:
    def test_diagonal(self):
        p = PolyMatrix.from_list([np.diag([-2.0, 2.0]), np.diag([-1.0, 1.0]),
                                  np.diag([1.0, 0.0])])
        det = poly_det_coeffs(p)
        assert np.allclose(det, [-4, -4, 1, 1], atol=1e-10)

    def test_constant(self):
        p = PolyMatrix.from_list([np.diag([2.0, 3.0])])
        assert np.allclose(poly_det_coeffs(p), [6.0])


def test_match_multisets_size_guard():
    ok, worst = match_multisets([1.0], [1.0, 2.0], 1e-7)
    assert not ok and worst == np.inf
