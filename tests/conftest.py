import os

# one BLAS thread, as in perfbench/run.py and tools/parity.py: timings and
# the last digits of computed results depend on the thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pinning)
import pytest  # noqa: E402

from ratlin.polymat import Basis, PolyMatrix  # noqa: E402
from ratlin.linbuild import Realization  # noqa: E402
from ratlin.verify import preset_cross_coupled  # noqa: E402


@pytest.fixture
def preset() -> Realization:
    return preset_cross_coupled()


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
