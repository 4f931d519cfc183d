"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values come from independent oracles computed inside each
test (closed-form products, companion matrices, evaluation-interpolation
determinants) or prescribed by construction (minimal indices), never from
the code paths under test.
"""

import functools
import time
from itertools import product

import numpy as np
import scipy.linalg
from hypothesis import given, settings, strategies as st

from ratlin.eigsolve import (block_degree, certify_minimal_basis, classify,
                             invariant_orders_at_infinity, pencil_eigs,
                             polynomial_nullspace)
from ratlin.linbuild import (PencilReadings, Realization, build,
                             check_finite_minimality, check_infinity_minimality,
                             transfer_eval)
from ratlin.polymat import Basis, PolyMatrix, numerical_rank
from ratlin.recover import (eigenpair, factorization_residuals,
                            lift_left_eigvec, lift_right_eigvec,
                            recover_left_eigvec, recover_minimal_basis,
                            recover_right_eigvec)
from ratlin.verify import FixtureSpec, gen_fixture, preset_cross_coupled, run_all

from conftest import match_multisets, poly_roots, prescribed_realization

ACCEPT_SEED = 0xACC


def report(num, name, ok=True):
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")


BASIS_COMBOS = [
    (Basis.MONOMIAL, Basis.MONOMIAL),
    (Basis.MONOMIAL, Basis.CHEBYSHEV1),
    (Basis.CHEBYSHEV1, Basis.MONOMIAL),
    (Basis.CHEBYSHEV1, Basis.CHEBYSHEV1),
]


@functools.lru_cache(maxsize=1)
def random_fixture_pool():
    """50 seeded random realizations: n,p,m <= 5, grades <= 4, cycling
    through all four basis-side combinations."""
    rng = np.random.default_rng(ACCEPT_SEED)
    out = []
    for k in range(50):
        n = int(rng.integers(1, 6))
        p = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        ga = int(rng.integers(1, 5))
        gd = int(rng.integers(1, 5))
        ba, bd = BASIS_COMBOS[k % 4]

        def draw(g, rows, cols, basis):
            stack = rng.standard_normal((g + 1, rows, cols)) \
                + 1j * rng.standard_normal((g + 1, rows, cols))
            return PolyMatrix(stack, basis)

        r = Realization(A=draw(ga, n, n, ba), B=draw(gd, n, m, bd),
                        C=draw(ga, p, n, ba), D=draw(gd, p, m, bd))
        out.append((k, r, build(r, rng=k)))
    return out


def non_pole_points(r, rng, count, cond_cap=1e5):
    pts = []
    tries = 0
    while len(pts) < count and tries < 30 * count:
        z = np.exp(2j * np.pi * rng.uniform()) * (0.8 + 0.6 * rng.uniform())
        tries += 1
        if np.linalg.cond(r.A.eval(z)) > cond_cap:
            continue
        pts.append(z)
    assert len(pts) == count, "could not find well-conditioned sample points"
    return pts


def test_criterion_1_one_sided_factorizations():
    start = time.monotonic()
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    worst = 0.0
    for k, r, sl in random_fixture_pool():
        for z in non_pole_points(r, rng, 10):
            worst = max(worst, *factorization_residuals(sl, z))
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"worst scaled residual {worst:.3e}"
    assert elapsed <= 30.0, f"runtime {elapsed:.1f}s exceeds budget"
    report(1, "one-sided factorizations")


def test_criterion_2_rank_relation():
    rng = np.random.default_rng(ACCEPT_SEED + 2)
    for k, r, sl in random_fixture_pool():
        for z in non_pole_points(r, rng, 5):
            lhs = numerical_rank(sl.pencil_eval(z))
            rhs = numerical_rank(transfer_eval(r, z)) + r.n + sl.s
            assert lhs == rhs, f"fixture {k}: rank {lhs} != {rhs} at {z}"
    report(2, "rank relation")


def test_criterion_3_structural_golden():
    """Builder output for the degree pattern (A:3, C:1, D:3, B:2) equals the
    reference block layout entrywise, bit-exact."""
    rng = np.random.default_rng(ACCEPT_SEED + 3)
    n, p, m = 2, 2, 2
    A = [rng.standard_normal((n, n)) for _ in range(4)]           # deg 3
    C = [rng.standard_normal((p, n)) for _ in range(2)]           # deg 1
    D = [rng.standard_normal((p, m)) for _ in range(4)]           # deg 3
    B = [rng.standard_normal((n, m)) for _ in range(3)]           # deg 2
    r = Realization(A=PolyMatrix.from_list(A), B=PolyMatrix.from_list(B),
                    C=PolyMatrix.from_list(C), D=PolyMatrix.from_list(D))
    sl = build(r)
    assert (sl.grade_a, sl.grade_d) == (3, 3)

    z, i2 = np.zeros((2, 2)), np.eye(2)
    exp0 = np.block([
        [A[2], A[1], A[0], z, B[1], B[0]],
        [-i2, z, z, z, z, z],
        [z, -i2, z, z, z, z],
        [z, -C[1], -C[0], D[2], D[1], D[0]],
        [z, z, z, -i2, z, z],
        [z, z, z, z, -i2, z],
    ])
    exp1 = np.block([
        [A[3], z, z, z, B[2], z],
        [z, i2, z, z, z, z],
        [z, z, i2, z, z, z],
        [z, z, z, D[3], z, z],
        [z, z, z, z, i2, z],
        [z, z, z, z, z, i2],
    ])
    assert np.array_equal(sl.L0, exp0)
    assert np.array_equal(sl.L1, exp1)
    report(3, "structural golden layout")


def test_criterion_4_coupled_pair_regression():
    start = time.monotonic()
    r = preset_cross_coupled()
    sl = build(r)

    # minimality: all-true finite (at the poles and random points) and infinite
    rng = np.random.default_rng(ACCEPT_SEED + 4)
    probe = [2.0, -1.0, -2.0] + list(np.exp(2j * np.pi * rng.uniform(size=10)))
    assert all(check_finite_minimality(r, z) == (True, True) for z in probe)
    assert check_infinity_minimality(r) == (True, True)

    # poles against the closed-form determinant of the diagonal state matrix
    det_a = (PolyMatrix.from_scalar_coeffs([-2, -1, 1])
             @ PolyMatrix.from_scalar_coeffs([2, 1]))
    pole_oracle = np.polynomial.polynomial.polyroots(det_a.coeffs.ravel())
    state = pencil_eigs(PencilReadings(sl.state.L0, sl.state.L1))
    ok, worst = match_multisets(state.finite(), pole_oracle, 1e-8)
    assert ok, f"pole mismatch {worst:.3e}"

    rep = classify(sl)
    pole_set = sorted(v.real for v, _ in rep.poles)
    assert np.allclose(pole_set, [-2, -1, 2], atol=1e-8)

    # zeros against det of the denominator-cleared matrix Delta R = A D + C B
    # (A and C are diagonal here, so Delta = A commutes through)
    cleared = r.A @ r.D + r.C @ r.B
    det = (_scalar(cleared, 0, 0) @ _scalar(cleared, 1, 1)
           - _scalar(cleared, 0, 1) @ _scalar(cleared, 1, 0))
    zero_oracle = np.polynomial.polynomial.polyroots(
        np.trim_zeros(det.coeffs.ravel(), "b"))
    ok, worst = match_multisets([z.value for z in rep.zeros], zero_oracle, 1e-7)
    assert ok, f"zero mismatch {worst:.3e}"

    elapsed = time.monotonic() - start
    assert elapsed <= 5.0, f"runtime {elapsed:.1f}s exceeds budget"
    report(4, "coupled-pair regression")


def _scalar(p, i, j):
    return PolyMatrix(p.coeffs[:, i:i + 1, j:j + 1], p.basis)


def companion_condition(coeffs):
    """Worst eigenvalue condition number of the companion matrix."""
    trimmed = np.trim_zeros(np.asarray(coeffs, dtype=complex), "b")
    if trimmed.size <= 1:
        return 1.0
    comp = np.polynomial.polynomial.polycompanion(trimmed)
    _, vl, vr = scipy.linalg.eig(comp, left=True, right=True)
    overlaps = np.abs(np.sum(vl.conj() * vr, axis=0))
    return float(np.max(1.0 / np.maximum(overlaps, 1e-300)))


def test_criterion_5_scalar_solver_oracle():
    from ratlin.scalareq import ScalarEquation, cleared_form, solve_scalar
    start = time.monotonic()
    rng = np.random.default_rng(ACCEPT_SEED + 5)
    accepted = 0
    attempts = 0
    while accepted < 200:
        attempts += 1
        assert attempts < 2000, "condition filter rejected too many draws"
        n = int(rng.integers(1, 13))
        m = int(rng.integers(1, 13))

        def draw(k):
            return rng.standard_normal(k + 1) + 1j * rng.standard_normal(k + 1)

        eq = ScalarEquation.from_lists(draw(n), draw(n), draw(m), draw(m))
        q = cleared_form(eq)
        if max(companion_condition(q.coeffs.ravel()),
               companion_condition(eq.a.coeffs.ravel()),
               companion_condition(eq.b.to_monomial().coeffs.ravel())) > 1e8:
            continue
        accepted += 1

        oracle = np.polynomial.polynomial.polyroots(
            np.trim_zeros(q.coeffs.ravel(), "b"))
        a_roots = poly_roots(eq.a)
        b_roots = poly_roots(eq.b)
        keep = [z for z in oracle
                if (a_roots.size == 0
                    or np.min(np.abs(a_roots - z)) > 1e-7 * max(1, abs(z)))
                and (b_roots.size == 0
                     or np.min(np.abs(b_roots - z)) > 1e-7 * max(1, abs(z)))]
        rep = solve_scalar(eq, rng=np.random.default_rng(accepted))
        ok, worst = match_multisets([v for v, _ in rep.roots], keep, 1e-7)
        assert ok, f"draw {accepted} (n={n}, m={m}): mismatch {worst:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"runtime {elapsed:.1f}s exceeds budget"
    report(5, "scalar solver oracle equivalence")


@functools.lru_cache(maxsize=1)
def singular_fixture_pool():
    """20 singular fixtures cycling the three structure flags."""
    shapes = [(2, 2, 2), (2, 3, 2), (1, 2, 3), (3, 2, 2), (2, 3, 3)]
    out = []
    k = 0
    while len(out) < 20:
        structure = ("zero-column-b", "zero-row-c", "rank-deficient-d")[k % 3]
        n, p, m = shapes[k % len(shapes)]
        if structure == "rank-deficient-d" and m < 2:
            m = 2
        ba, bd = BASIS_COMBOS[k % 4]
        spec = FixtureSpec(seed=ACCEPT_SEED + 60 + k, n=n, p=p, m=m,
                           grade_a=1 + k % 3, grade_d=1 + (k + 1) % 3,
                           basis_a=ba, basis_d=bd, structure=structure)
        k += 1
        r = gen_fixture(spec)
        out.append((spec, r, build(r, rng=k)))
    return out


EPS_LISTS = ([0], [1, 2], [0, 3], [1, 1, 3], [2], [0, 0])


@functools.lru_cache(maxsize=1)
def prescribed_fixture_pool():
    """36 realizations of conftest.prescribed_realization, whose minimal
    indices are known exactly: right indices eps (one to three blocks, so
    p != m on most), left index eta, every grade pair in 1..3 and every
    basis pair."""
    grades = list(product(range(1, 4), repeat=2))
    out = []
    for j in range(36):
        eps, eta = EPS_LISTS[j % len(EPS_LISTS)], (j // 3) % 4
        r = prescribed_realization(np.random.default_rng(ACCEPT_SEED + j), eps,
                                   eta, 1 + (j // 4) % 3, *grades[j % 9],
                                   *BASIS_COMBOS[j % 4])
        out.append((j, eps, eta, r, build(r, rng=j)))
    return out


def test_criterion_6_minimal_index_shift_law():
    # the prescribed pool is checked against its indices; both pools are
    # certified, with no independent reference needed for the singular one
    for j, eps, eta, r, sl in prescribed_fixture_pool():
        rng = np.random.default_rng(j)
        right = recover_minimal_basis(sl, "right", rng=rng)
        assert right.basis_r.indices == eps, (j, right.basis_r.indices, eps)
        left = recover_minimal_basis(sl, "left", rng=rng)
        assert left.basis_r.indices == [eta], (j, left.basis_r.indices, eta)
        _assert_index_shift_certified(right, left, sl, rng)
    for spec, r, sl in singular_fixture_pool():
        rng = np.random.default_rng(spec.seed)
        right = recover_minimal_basis(sl, "right", rng=rng)
        left = recover_minimal_basis(sl, "left", rng=rng)
        _assert_index_shift_certified(right, left, sl, rng)
    report(6, "minimal index shift law")


def _assert_index_shift_certified(right, left, sl, rng):
    """The index shifts between the bases of R and of the pencil, and the
    certificates of all four bases at 1e-10."""
    assert right.basis_l.indices == [e + sl.rho_d for e in right.basis_r.indices]
    assert left.basis_l.indices == left.basis_r.indices
    for rec in (right, left):
        d = rec.diagnostics
        assert d["nullspace_residual"] <= 1e-10, d
        assert d["pointwise_full_rank"] and d["reduced_full_rank"], d
        assert d["degree_consistent"], d
        cert = certify_minimal_basis(rec.basis_l, sl.L0, sl.L1, rng=rng)
        assert cert["residual"] <= 1e-10 and cert["ok"], cert


@settings(derandomize=True, max_examples=25, deadline=None, database=None)
@given(eps=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       eta=st.integers(0, 3), k=st.integers(1, 3),
       grade_a=st.integers(1, 3), grade_d=st.integers(1, 3),
       basis_a=st.sampled_from(Basis), basis_d=st.sampled_from(Basis),
       seed=st.integers(0, 2**32 - 1))
def test_prescribed_indices_pass_the_battery(eps, eta, k, grade_a, grade_d,
                                             basis_a, basis_d, seed):
    r = prescribed_realization(np.random.default_rng(seed), eps, eta, k,
                               grade_a, grade_d, basis_a, basis_d)
    sl = build(r, rng=1)
    assert recover_minimal_basis(sl, "right", rng=1).basis_r.indices == sorted(eps)
    assert recover_minimal_basis(sl, "left", rng=1).basis_r.indices == [eta]
    statuses = {e.name: e.status for e in run_all(r, seed=1).entries}
    assert all(statuses[name] == "pass" for name in (
        "right-index-shift", "left-index-match", "nullvector-degree-law",
        "nullspace-dimension")), statuses


def test_criterion_7_eigenvector_recovery():
    checked = 0
    for k, r, sl in random_fixture_pool():
        if r.p != r.m:
            continue
        rep = classify(sl, rng=k)
        for entry in rep.zeros:
            if not entry.classified or entry.near_pole:
                continue
            ep = eigenpair(sl, entry.value)
            assert ep.residual_right <= 1e-8, (k, entry.value, ep.residual_right)
            assert ep.residual_left <= 1e-8, (k, entry.value, ep.residual_left)
            checked += 1
    assert checked >= 50, f"only {checked} classified zeros exercised"

    # the preset's classified zeros away from its poles
    r = preset_cross_coupled()
    sl = build(r)
    for lam in [(-1 + np.sqrt(5)) / 2, (-1 - np.sqrt(5)) / 2, 0.0]:
        ep = eigenpair(sl, lam)
        assert max(ep.residual_right, ep.residual_left) <= 1e-8

    # recover(lift(x)) is the exact identity
    rng = np.random.default_rng(ACCEPT_SEED + 7)
    for k, r, sl in random_fixture_pool()[:10]:
        z = complex(rng.standard_normal(), rng.standard_normal())
        if np.linalg.cond(r.A.eval(z)) > 1e6:
            continue
        x = rng.standard_normal(r.m) + 1j * rng.standard_normal(r.m)
        back = recover_right_eigvec(sl, z, lift_right_eigvec(sl, z, x))
        assert np.max(np.abs(back - x)) <= 1e-13 * max(1.0, np.max(np.abs(x)))
        y = rng.standard_normal(r.p) + 1j * rng.standard_normal(r.p)
        back_l = recover_left_eigvec(sl, z, lift_left_eigvec(sl, z, y))
        assert np.max(np.abs(back_l - y)) <= 1e-13 * max(1.0, np.max(np.abs(y)))
    report(7, "eigenvector recovery")


def test_criterion_8_invariant_orders_at_infinity():
    mk = PolyMatrix.from_scalar_coeffs
    # R(lambda) = lambda, realized with a nonconstant state polynomial
    r_lambda = Realization(A=mk([0, 1]), B=mk([0, 1]), C=mk([1]), D=mk([-1, 1]))
    assert invariant_orders_at_infinity(build(r_lambda)) == [-1]

    # R(lambda) = 1/lambda
    r_inv = Realization(A=mk([0, 1]), B=mk([1]), C=mk([1]), D=mk([0]))
    assert invariant_orders_at_infinity(build(r_inv)) == [1]

    # coupled-pair preset: order sum equals the zero/pole degree balance of
    # det R = det(cleared)/det(Delta), computed from closed-form products
    r = preset_cross_coupled()
    orders = invariant_orders_at_infinity(build(r))
    cleared = r.A @ r.D + r.C @ r.B
    det_cleared = (_scalar(cleared, 0, 0) @ _scalar(cleared, 1, 1)
                   - _scalar(cleared, 0, 1) @ _scalar(cleared, 1, 0))
    det_delta = mk([-2, -1, 1]) @ mk([2, 1])
    balance = int(det_delta.degree()) - int(det_cleared.degree())
    assert sum(orders) == balance == -3
    report(8, "invariant orders at infinity")


def test_criterion_9_degree_law():
    for _, r, sl in singular_fixture_pool():
        left_inf, _ = check_infinity_minimality(r, sl.grade_a, sl.grade_d)
        if not left_inf:
            continue
        basis = polynomial_nullspace(PencilReadings(sl.L0, sl.L1), "right")
        low = sl.shape[1] - r.m * (sl.rho_d + 1)
        for j, eps in enumerate(basis.indices):
            vector = basis.vectors.coeffs[:eps + 1, :, j]
            full_deg = block_degree(vector)
            lower_deg = block_degree(vector, slice(low, None))
            assert full_deg == eps == lower_deg, \
                (spec.structure, j, full_deg, eps, lower_deg)
    report(9, "null vector degree law")
