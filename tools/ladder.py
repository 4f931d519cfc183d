"""Run the identity battery on the size ladder and write its record.

    python3 tools/ladder.py OUT.json [CHECKOUT]

Imports ratlin from CHECKOUT/src (default: the checkout this file lives in)
and runs `run_all(gen_fixture(spec))` on every rung: seed 1, both sides
monomial or both Chebyshev, each of the four STRUCTURES, and grade g on
both sides at
- n = p = m in {2, 6, 12, 20}, g in {2, 4, 6, 8}: 128 square rungs;
- n in {6, 12, 20}, p = n/2, m = n, g in {4, 8}: 48 rectangular rungs,
  whose rational matrix has a right nullspace of dimension at least n/2
  whatever its STRUCTURE.

Each rung runs in a child process of its own whose address space is capped
at LIMIT_GB (RLIMIT_AS, set by the child on itself), so a rung that runs
out of memory is recorded with status "oom" and the ladder goes on.  The
child first writes the rung's realization to a file and runs
`ratlin linearize --input F --output G` on it through `cli.main`, and
records that command's exit code, wall time and the child's peak resident
set (ru_maxrss) after it; then it runs `run_all`, and after it `eigs`,
`infinity`, `nullspace --side right` and `nullspace --side left` (each
with `--json`) through `cli.main`, recording each one's exit code and wall
time, and the orders at infinity that `infinity` prints.  For each rung
the record holds these, the wall time of `run_all`, the child's peak
resident set after it, the status of each check, the minimal indices of
the rational matrix that each side's basis recovery returned, the side
and wall time of each `eigsolve._solve_at` run within `run_all` (the basis
solved at indices whose back-substituted bases the gate refused), the
staircases that `run_all`'s linearization ran, in order, as [side, end]
with end "0" or "inf" (each runs once, on the first reading of its side at
its end; at checkouts that read infinity on a `reversal` object, that
object's runs count as the linearization's at "inf"), and the reason of
each skipped index check:

- "nullity 0": the side has no nullspace (every side of a regular input);
- "uncertified": basis recovery raised `BreakdownError`, as the gate does
  when no reading of the side passes the count and the index sum;
- "precondition": basis recovery refused the side's minimality hypotheses;
- "count": the side's staircase at 0 reads a number of indices other than
  its nullity (checkouts whose `run_all` skips such a side before any
  recovery).

The linearization is the one `run_all` itself built, recorded as it reads
a side's staircase, and the nullity is read off its `rank`, the normal
rank the gate read; a recovery's result or error is recorded as it passes.
The record also holds the BLAS thread count, the environment and a
summary: index-side coverage of the singular rungs (the right-index-shift
and left-index-match checks) with the reasons of its skips, the rungs,
sides and seconds of the `_solve_at` runs, failed checks,
failed `linearize` runs, the exit codes of each other command, counted,
out-of-memory rungs and the slowest rung of the regular and of the singular
rungs (a rectangular rung counts as singular).  One rung alone is

    python3 tools/ladder.py --rung CHECKOUT N P M GRADE BASIS STRUCTURE

which prints its record as one JSON line.
BLAS is pinned to one thread unless the environment already says otherwise.
The full ladder takes several minutes on a 2-vCPU VM.
"""

import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

LIMIT_GB = 3
SIZES = (2, 6, 12, 20)
GRADES = (2, 4, 6, 8)
RECTANGULAR = ((6, 3, 6), (12, 6, 12), (20, 10, 20))  # (n, p, m)
RECTANGULAR_GRADES = (4, 8)
BASES = ("monomial", "chebyshev1")
INDEX_CHECKS = {"right-index-shift": "right", "nullvector-degree-law": "right",
                "left-index-match": "left"}
COMMANDS = ("eigs", "infinity", "nullspace --side right", "nullspace --side left")


def rung(checkout: str, n: int, p: int, m: int, grade: int, basis: str,
         structure: str) -> dict:
    """One rung in this process: the exit code, wall time and peak resident
    set of `linearize --output`, then the statuses, the wall time, the peak
    resident set, the indices, the `_solve_at` runs, the staircases its
    linearization ran and the skip reasons of `run_all`, then the exit code
    and wall time of each of COMMANDS, with the orders that `infinity`
    prints where it exits 0."""
    sys.path.insert(0, str(Path(checkout).resolve() / "src"))
    from ratlin import cli, eigsolve, verify
    from ratlin.linbuild import PencilReadings, StructuredLinearization
    from ratlin.polymat import Basis

    readings, errors, indices, sides, solves, ran = {}, {}, {}, [], [], []
    staircase = PencilReadings.staircase
    solve_at, gated_basis = eigsolve._solve_at, eigsolve._gated_basis

    def recording(obj, side, infinity=False):
        args = (side, infinity) if infinity else (side,)  # older checkouts take side alone
        end = "inf" if infinity else "0"
        if isinstance(obj, StructuredLinearization):
            readings[side] = obj
        elif any(vars(sl).get("reversal") is obj for sl in readings.values()):
            end = "inf"
        else:  # a state, Taylor or completed pencil
            return staircase(obj, *args)
        runs = len(obj._staircases)
        out = staircase(obj, *args)
        if len(obj._staircases) > runs:
            ran.append([side, end])
        return out

    def noting_results(recover, side=None):
        """`recover`, recording the indices it returns or the error it
        raises under its side: `side`, or its own argument where None."""
        def recorded(sl, *args, rng=None):
            which = side or args[0]
            try:
                rec = recover(sl, *args, rng=rng)
            except Exception as exc:
                errors[which] = type(exc).__name__
                raise
            indices[which] = [int(i) for i in rec.basis_r.indices]
            return rec
        return recorded

    def timing(*args):
        start = time.perf_counter()
        try:
            return solve_at(*args)
        finally:
            solves.append({"side": sides[-1],
                           "seconds": round(time.perf_counter() - start, 3)})

    def siding(stack, nullity, side, *args):
        sides.append(side)
        return gated_basis(stack, nullity, side, *args)

    PencilReadings.staircase = recording
    eigsolve._solve_at, eigsolve._gated_basis = timing, siding
    if hasattr(verify, "recover_minimal_basis"):  # recover_minimal_basis(sl, side, rng=)
        verify.recover_minimal_basis = noting_results(verify.recover_minimal_basis)
    else:  # older checkouts name one function per side
        for side in ("right", "left"):
            name = f"recover_{side}_minimal_basis"
            setattr(verify, name, noting_results(getattr(verify, name), side))
    spec = verify.FixtureSpec(seed=1, n=n, p=p, m=m, grade_a=grade, grade_d=grade,
                              basis_a=Basis(basis), basis_d=Basis(basis),
                              structure=structure)
    r = verify.gen_fixture(spec)
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
        with open(src, "w") as fh:
            json.dump(r.to_dict(), fh)

        def command(*argv):
            start = time.perf_counter()
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([*argv, "--input", src, "--seed", "1"])
            out = {"exit": code, "seconds": round(time.perf_counter() - start, 3)}
            if argv[0] == "infinity" and code == 0:
                out["orders"] = json.loads(stdout.getvalue())["infinityOrders"]
            return out

        linearize = {**command("linearize", "--output", dst), "maxrss_mb": maxrss_mb()}
        start = time.perf_counter()
        report = verify.run_all(r, seed=1)
        seconds = time.perf_counter() - start
        rss = maxrss_mb()
        PencilReadings.staircase = staircase  # the commands build their own
        eigsolve._solve_at, eigsolve._gated_basis = solve_at, gated_basis
        commands = {name: command(*name.split(), "--json") for name in COMMANDS}
    checks = {e.name: e.status for e in report.entries}
    skips = {}
    for name, side in INDEX_CHECKS.items():
        if checks[name] != "skipped":
            continue
        if side not in readings:
            skips[name] = "nullity 0"
            continue
        sl = readings[side]
        if sl.shape[1 if side == "right" else 0] == sl.rank:
            skips[name] = "nullity 0"
        else:
            skips[name] = {"BreakdownError": "uncertified",
                           "PreconditionError": "precondition"}.get(errors.get(side),
                                                                    "count")
    return {"seconds": round(seconds, 3), "maxrss_mb": rss, "checks": checks,
            "indices": indices, "skips": skips, "solve_at": solves, "staircases": ran,
            "linearize": linearize, "commands": commands}


def maxrss_mb() -> float:
    """This process's peak resident set so far, in MB (ru_maxrss is in kB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def run_rung(checkout: str, n: int, p: int, m: int, grade: int, basis: str,
             structure: str) -> dict:
    """`rung` in a child process under the address-space cap."""
    args = [sys.executable, __file__, "--rung", checkout,
            *map(str, (n, p, m, grade)), basis, structure]
    proc = subprocess.run(args, capture_output=True, text=True)
    out = {"n": n, "p": p, "m": m, "grade": grade, "basis": basis,
           "structure": structure}
    if proc.returncode == 0:
        return {**out, "status": "ok", **json.loads(proc.stdout)}
    status = "oom" if "MemoryError" in proc.stderr else "error"
    return {**out, "status": status, "exit": proc.returncode,
            "stderr": proc.stderr.strip().splitlines()[-1:]}


def summary(rungs: list) -> dict:
    sides = Counter()
    reasons = Counter()
    slowest = {}
    solve_sides, solve_seconds = Counter(), 0.0
    for rec in rungs:
        square_regular = rec["structure"] == "regular" and rec["p"] == rec["m"]
        kind = "regular" if square_regular else "singular"
        if rec["status"] != "ok":
            continue
        if kind == "singular":
            for name in ("right-index-shift", "left-index-match"):
                sides[rec["checks"][name]] += 1
                if name in rec["skips"]:
                    reasons[rec["skips"][name]] += 1
        for solve in rec["solve_at"]:
            solve_sides[solve["side"]] += 1
            solve_seconds += solve["seconds"]
        if rec["seconds"] > slowest.get(kind, {}).get("seconds", -1.0):
            slowest[kind] = {k: rec[k] for k in ("n", "p", "m", "grade", "basis",
                                                  "structure", "seconds")}
    return {"index_sides": dict(sides), "index_side_skips": dict(reasons),
            "solve_at": {"rungs": sum(bool(rec.get("solve_at")) for rec in rungs),
                         "sides": dict(solve_sides),
                         "seconds": round(solve_seconds, 3)},
            "failed_checks": sum(s == "fail" for rec in rungs if rec["status"] == "ok"
                                 for s in rec["checks"].values()),
            "failed_linearize": sum(rec["linearize"]["exit"] != 0 for rec in rungs
                                    if rec["status"] == "ok"),
            "command_exits": {name: dict(Counter(str(rec["commands"][name]["exit"])
                                                 for rec in rungs if rec["status"] == "ok"))
                              for name in COMMANDS},
            "oom": sum(rec["status"] == "oom" for rec in rungs),
            "errors": sum(rec["status"] == "error" for rec in rungs),
            "slowest": slowest}


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "address_space_cap_gb": LIMIT_GB}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--rung"]:
        cap = LIMIT_GB << 30
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
        checkout, *sizes, basis, structure = argv[1:]
        print(json.dumps(rung(checkout, *map(int, sizes), basis, structure)))
        return 0
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    checkout = argv[1] if len(argv) == 2 else str(Path(__file__).resolve().parents[1])
    shapes = [((n, n, n), GRADES) for n in SIZES] \
        + [(shape, RECTANGULAR_GRADES) for shape in RECTANGULAR]
    rungs = []
    for structure in ("regular", "zero-column-b", "zero-row-c", "rank-deficient-d"):
        for basis in BASES:
            for shape, grades in shapes:
                for grade in grades:
                    rec = run_rung(checkout, *shape, grade, basis, structure)
                    print(json.dumps(rec), file=sys.stderr, flush=True)
                    rungs.append(rec)
    record = {"environment": environment(), "summary": summary(rungs), "rungs": rungs}
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
