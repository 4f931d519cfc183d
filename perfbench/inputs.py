"""Seeded inputs for every workload, generated without calling ratlin.

The realization recipes mirror the structure flags of ratlin's fixture
generator (regular, zero-column-b, zero-row-c, rank-deficient-d) but are
written here with plain numpy, so a change to the library cannot change what
the benchmark feeds it.  Inputs of cycle k of a run depend only on
(seed, workload, k, position in the cycle).
"""

import hashlib
from dataclasses import dataclass

import numpy as np

MONO = "monomial"
CHEB = "chebyshev1"
BASIS_PAIRS = ((MONO, MONO), (CHEB, CHEB), (MONO, CHEB))
STRUCTURES = ("regular", "zero-column-b", "zero-row-c", "rank-deficient-d")

# Cells of each workload.  Within a cycle every cell runs once.  A cell's basis
# pair is fixed, laid out as a Latin square over the cell's coordinates, so
# every cycle has the same mix of sizes and bases (only the coefficients are
# drawn afresh) and each size and each grade meets every basis pair.
SPECTRAL_CELLS = [(n, g) for n in (2, 6, 12) for g in (2, 4, 6)]
# (3, 4) and (4, 3) are left out: on the singular flags one run_all there takes
# 1.5-5 s, longer than a quarter of the run.
BATTERY_CELLS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (4, 4)]
SCALAR_DEGREES = list(range(2, 13))
LINEARIZE_CELLS = [(n, g) for n in (6, 12, 16) for g in (4, 6, 8)]

WORKLOAD_TAGS = {"spectral": 1, "battery": 2, "scalar": 3, "linearize": 4}


@dataclass(frozen=True)
class Case:
    """A realization D + C A^-1 B as raw coefficient stacks (grade+1, rows, cols)."""

    structure: str
    basis_a: str
    basis_d: str
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    @property
    def n(self) -> int:
        return self.A.shape[1]

    @property
    def label(self) -> str:
        return (f"{self.structure} n={self.n} g={self.A.shape[0] - 1} "
                f"{self.basis_a[:4]}/{self.basis_d[:4]}")

    def arrays(self):
        return (self.A, self.B, self.C, self.D)


@dataclass(frozen=True)
class ScalarCase:
    """c/a = d/b with a, c monomial and b, d Chebyshev coefficient vectors."""

    a: np.ndarray
    c: np.ndarray
    b: np.ndarray
    d: np.ndarray

    @property
    def label(self) -> str:
        return f"scalar deg={len(self.a) - 1}"

    def arrays(self):
        return (self.a, self.c, self.b, self.d)


def op_rng(seed: int, workload: str, cycle: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed % 2 ** 63, WORKLOAD_TAGS[workload], cycle, index])


def basis_values(basis: str, z: complex, grade: int) -> np.ndarray:
    """[phi_0(z), ..., phi_grade(z)] for the monomial or Chebyshev basis."""
    v = np.empty(grade + 1, dtype=complex)
    v[0] = 1.0
    if grade >= 1:
        v[1] = z
    for k in range(2, grade + 1):
        v[k] = z * v[k - 1] if basis == MONO else 2.0 * z * v[k - 1] - v[k - 2]
    return v


def evaluate(stack: np.ndarray, basis: str, z: complex) -> np.ndarray:
    return np.tensordot(basis_values(basis, z, stack.shape[0] - 1), stack, axes=1)


def _product(x: np.ndarray, y: np.ndarray, basis: str) -> np.ndarray:
    """Coefficient stack of X(lambda) Y(lambda) in the operands' basis
    (Chebyshev: T_i T_j = (T_{i+j} + T_{|i-j|}) / 2)."""
    out = np.zeros((x.shape[0] + y.shape[0] - 1, x.shape[1], y.shape[2]), dtype=complex)
    for i in range(x.shape[0]):
        for j in range(y.shape[0]):
            term = x[i] @ y[j]
            if basis == MONO:
                out[i + j] += term
            else:
                out[i + j] += 0.5 * term
                out[abs(i - j)] += 0.5 * term
    return out


def realization(rng: np.random.Generator, n: int, grade: int, basis_a: str,
                basis_d: str, structure: str = "regular") -> Case:
    """Square (p = m = n) realization with both sides of the given grade."""

    def draw(g, rows, cols):
        shape = (g + 1, rows, cols)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    for _ in range(10):
        a, c = draw(grade, n, n), draw(grade, n, n)
        b, d = draw(grade, n, n), draw(grade, n, n)
        if structure == "zero-column-b":
            b[:, :, -1] = 0.0
            d[:, :, -1] = 0.0
        elif structure == "zero-row-c":
            c[:, -1, :] = 0.0
            d[:, -1, :] = 0.0
        elif structure == "rank-deficient-d":
            # last column of [B; D] = (first columns) * w(lambda), deg w = 1,
            # so [w; -1] is a polynomial right null vector of R
            w = draw(1, n - 1, 1)
            bc, dc = draw(grade - 1, n, n - 1), draw(grade - 1, n, n - 1)
            b = np.zeros((grade + 1, n, n), dtype=complex)
            d = np.zeros_like(b)
            b[:grade, :, :-1], d[:grade, :, :-1] = bc, dc
            b[:, :, -1:] = _product(bc, w, basis_d)
            d[:, :, -1:] = _product(dc, w, basis_d)
        elif structure != "regular":
            raise ValueError(f"unknown structure {structure!r}")
        z = np.exp(2j * np.pi * rng.uniform())
        sv = np.linalg.svd(evaluate(a, basis_a, z), compute_uv=False)
        if sv[-1] > n * np.finfo(float).eps * sv[0]:
            return Case(structure, basis_a, basis_d, a, b, c, d)
    raise RuntimeError("could not draw a regular state matrix in 10 attempts")


def scalar_case(rng: np.random.Generator, degree: int) -> ScalarCase:
    def draw():
        return rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return ScalarCase(a=draw(), c=draw(), b=draw(), d=draw())


def cycle_cases(workload: str, seed: int, cycle: int) -> list:
    """The inputs of one cycle of a workload, in the order they run."""
    out = []
    if workload == "spectral":
        for i, (n, g) in enumerate(SPECTRAL_CELLS):
            ba, bd = BASIS_PAIRS[sum(divmod(i, 3)) % 3]  # size index + grade index
            out.append(realization(op_rng(seed, workload, cycle, i), n, g, ba, bd))
    elif workload == "battery":
        i = 0
        for s, structure in enumerate(STRUCTURES):
            for j, (n, g) in enumerate(BATTERY_CELLS):
                ba, bd = BASIS_PAIRS[(s + j) % 3]
                out.append(realization(op_rng(seed, workload, cycle, i), n, g,
                                       ba, bd, structure))
                i += 1
    elif workload == "scalar":
        for i, deg in enumerate(SCALAR_DEGREES):
            out.append(scalar_case(op_rng(seed, workload, cycle, i), deg))
    elif workload == "linearize":
        for i, (n, g) in enumerate(LINEARIZE_CELLS):
            basis = (MONO, CHEB)[sum(divmod(i, 3)) % 2]
            out.append(realization(op_rng(seed, workload, cycle, i), n, g, basis, basis))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def smoke_cases(workload: str, seed: int) -> list:
    """One smallest input per workload, for the benchmark's own tests."""
    rng = op_rng(seed, workload, 0, 0)
    if workload == "scalar":
        return [scalar_case(rng, 2)]
    if workload == "battery":
        return [realization(rng, 2, 2, MONO, CHEB, "rank-deficient-d")]
    return [realization(rng, 2, 2, MONO, CHEB)]


def digest(cases) -> str:
    """Short hash of the coefficient bytes of a list of cases."""
    h = hashlib.sha256()
    for case in cases:
        for arr in case.arrays():
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


def realization_json(case: Case) -> dict:
    """The realization in ratlin's documented input-file format."""
    def poly(stack, basis):
        return {"rows": stack.shape[1], "cols": stack.shape[2], "basis": basis,
                "grade": stack.shape[0] - 1,
                "coeffs": [[[float(v.real), float(v.imag)] for v in k.ravel()]
                           for k in stack]}
    return {"A": poly(case.A, case.basis_a), "B": poly(case.B, case.basis_d),
            "C": poly(case.C, case.basis_a), "D": poly(case.D, case.basis_d)}


def coeff_arg(vec: np.ndarray) -> str:
    """Coefficients as the CLI's comma list, exact to the last bit."""
    return ",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in vec)
