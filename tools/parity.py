"""Write every CLI output of a fixed input set, for byte-level parity checks.

    python3 tools/parity.py OUTDIR [CHECKOUT]

Runs `ratlin.cli.main` in-process, importing ratlin from CHECKOUT/src
(default: the checkout this file lives in), on:

- `--preset cross-coupled`;
- `gen_fixture` inputs: 4 STRUCTURES x 4 basis pairs x seeds 1-3 at
  n = p = m = 2, grade 2, plus the same 16 at n = p = m = 3, grade 3, seed 4;
- regular `gen_fixture` inputs at the benchmark's `linearize` sizes, 4 basis
  pairs each: n = p = m = 6, grade 4, seed 5 and n = p = m = 16, grade 8,
  seed 6 (a 256 x 256 pencil);
- the 3 singular STRUCTURES x 4 basis pairs at n = p = m = 4, grade 2,
  seed 7: 16 x 16 pencils with minimal indices 11-15, as deep as the
  indices of the benchmark's battery go;
- the regular seed-2 n = p = m = 2 inputs of grades 10 and 12 with both
  sides Chebyshev, the highest grades `run_all` is tested at;
- the seed-1 n = p = m = 2 grade-2 and seed-4 n = p = m = 3 grade-3 inputs
  again, with the first column of the leading coefficient of A, or of B
  and D, zeroed: a rank-deficient leading coefficient gives orders at
  infinity other than -grade on 48 of these 64 inputs;
- 40 seeded `scalar` equations;
- the 28 inputs of cycle 0 of the benchmark's `battery` workload and the 18
  of cycle 0 of its `spectral` workload (n <= 12, grade <= 6) at seeds 1 and
  7919, from `perfbench/inputs.py` (imported, not copied);
- the 3 singular STRUCTURES at n = p = m = 12, grade 4, seed 1, both sides
  monomial: 96 x 96 pencils with one deep index each (81-95);
- the regular n = p = m = 3, grade 3 inputs of seeds 1-6, both sides
  monomial, with the last column of B and D multiplied by 1e-12 or 1e-13:
  18 x 18 pencils so near singular ones that rank cutoffs 100 times apart
  can disagree on their regularity.

Each realization except the benchmark's goes through `eigs`, `infinity`,
`nullspace --side left`, `nullspace --side right`, `check` (all with
`--json`), `linearize` and `linearize --output`; the `battery` ones go
through `check` and both `nullspace` runs, the `spectral` ones through
`eigs`, `infinity` and `check`, whose `eigenvector-recovery` entry pins the
worst eta of the eigenpairs recovered off the whole spectrum on regular
inputs up to n = 12, the n = 12 singular ones through `check`, both
`nullspace` runs and `infinity`, whose orders read the deep reversed pencil
that the gate's reading at infinity shares, and the scaled ones through
`eigs`, both `nullspace` runs and `check`.  The preset and the 16 seed-1
n = p = m = 2 grade-2 `gen_fixture` inputs also go through `eigs`,
`infinity`, both `nullspace` runs and `check` without `--json` (the table
form, <case>.<command>-table.txt), and the first TABLE_SCALAR_COUNT
`scalar` equations likewise (scalar-table-<seed>.txt).  Every run writes
OUTDIR/<input>.<command>.txt with its exit code, stdout and stderr;
`linearize --output` also writes its file to OUTDIR/<input>.pencil.json,
named by a path relative to OUTDIR so that the `wrote ...` line is the same
in every OUTDIR.  The inputs themselves go to OUTDIR/inputs/.  Two checkouts
are at parity when `diff -r` of their output directories is empty.  BLAS is
pinned to one thread unless the environment already says otherwise.  A run
takes 20 s to a minute on a 2-vCPU VM.

    python3 tools/parity.py --compare OLD NEW

lists what moved between two output directories.  A figure is a float
that is the value of a JSON key, such as `worstResidual` or
`nullspace_residual`; each one that moved is printed with its file, its
path and both values, and then counted by command and path, with the
largest old and new value of each.  Everything else must be the same: the
file set, exit codes, stderr, any stdout that is not JSON, key sets, list
lengths, and every value that is not a figure: a status, an index, a flag,
and every number inside a list, such as a basis coefficient, an
eigenvalue or a pencil entry.  The command exits 1, listing them, if any
of those differ, and 0 otherwise.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
from collections import defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pinning)

COMMANDS = {
    "eigs": ["eigs", "--json"],
    "infinity": ["infinity", "--json"],
    "nullspace-left": ["nullspace", "--side", "left", "--json"],
    "nullspace-right": ["nullspace", "--side", "right", "--json"],
    "linearize": ["linearize"],
    "linearize-output": ["linearize", "--output", "{case}.pencil.json"],
    "check": ["check", "--json"],
}
TABLE_COMMANDS = {f"{name}-table": COMMANDS[name][:-1]  # COMMANDS[name] less --json
                  for name in ("eigs", "infinity", "nullspace-left", "nullspace-right",
                               "check")}
TABLE_CASE = "-n2-g2-s1-"  # with the preset, the inputs run in table form too
SCALAR_COUNT = 40
TABLE_SCALAR_COUNT = 10
BENCH_SEEDS = (1, 7919)
BENCH_COMMANDS = {"battery": ("check", "nullspace-left", "nullspace-right"),
                  "spectral": ("eigs", "infinity", "check")}
SCALED_COMMANDS = ("eigs", "nullspace-left", "nullspace-right", "check")
DEEP_COMMANDS = BENCH_COMMANDS["battery"] + ("infinity",)


def realizations(verify, basis):
    """(name, realization) over the parity set of gen_fixture inputs."""
    bases = (basis.MONOMIAL, basis.CHEBYSHEV1)
    sizes = [(2, 2, seed, verify.STRUCTURES) for seed in (1, 2, 3)] + [
        (3, 3, 4, verify.STRUCTURES), (6, 4, 5, ["regular"]), (16, 8, 6, ["regular"]),
        (4, 2, 7, verify.STRUCTURES[1:])]
    for n, grade, seed, structures in sizes:
        for structure in structures:
            for ba in bases:
                for bd in bases:
                    spec = verify.FixtureSpec(
                        seed=seed, n=n, p=n, m=n, grade_a=grade, grade_d=grade,
                        basis_a=ba, basis_d=bd, structure=structure)
                    name = (f"{structure}-n{n}-g{grade}-s{seed}-"
                            f"{ba.value}-{bd.value}")
                    r = verify.gen_fixture(spec)
                    yield name, r
                    if (n, grade, seed) in ((2, 2, 1), (3, 3, 4)):
                        for blocks in ("A", "BD"):
                            yield f"{name}-lead{blocks}", deficient_leading(r, blocks)
    cheb = basis.CHEBYSHEV1
    for grade in (10, 12):
        spec = verify.FixtureSpec(seed=2, grade_a=grade, grade_d=grade,
                                  basis_a=cheb, basis_d=cheb)
        yield f"regular-n2-g{grade}-s2-{cheb.value}-{cheb.value}", verify.gen_fixture(spec)


def bench_inputs():
    """(workload, name, realization as its JSON object) of cycle 0 of each
    benchmark workload of BENCH_COMMANDS at each of BENCH_SEEDS."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs
    for workload in BENCH_COMMANDS:
        for seed in BENCH_SEEDS:
            for i, case in enumerate(inputs.cycle_cases(workload, seed, 0)):
                yield (workload, f"{workload}-s{seed}-c0-{i:02d}",
                       inputs.realization_json(case))


def scaled_last_column(r, factor: float):
    """r with the last column of B and of D multiplied by factor."""
    parts = {k: getattr(r, k) for k in "ABCD"}
    for k in "BD":
        coeffs = parts[k].coeffs.copy()
        coeffs[:, :, -1] *= factor
        parts[k] = type(parts[k])(coeffs, parts[k].basis)
    return type(r)(**parts)


def deficient_leading(r, blocks: str):
    """r with the first column of the leading coefficient of each named
    block zeroed."""
    parts = {k: getattr(r, k) for k in "ABCD"}
    for k in blocks:
        coeffs = parts[k].coeffs.copy()
        coeffs[-1][:, 0] = 0.0
        parts[k] = type(parts[k])(coeffs, parts[k].basis)
    return type(r)(**parts)


def scalar_args(seed: int) -> list:
    """--a --c --b --d of one seeded equation, degrees 1-6, each coefficient
    printed exactly; odd seeds draw complex coefficients, even seeds real."""
    rng = np.random.default_rng(seed)
    args = []
    for name, deg in zip("acbd", rng.integers(1, 7, size=4)):
        vals = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1) * (seed % 2)
        args.append(f"--{name}=" + ",".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in vals))
    return args


def run_input(cli, case: str, obj: dict, names):
    """Write the realization JSON object obj to inputs/<case>.json and run
    each command of names on it."""
    src = Path("inputs") / f"{case}.json"
    src.write_text(json.dumps(obj, sort_keys=True) + "\n")
    for name in names:
        run(cli, COMMANDS[name] + ["--input", str(src)], Path(f"{case}.{name}.txt"))


def run(cli, argv: list, path: Path):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    path.write_text(f"exit {code}\n--- stdout\n{out.getvalue()}"
                    f"--- stderr\n{err.getvalue()}")


def _documents(path: Path) -> dict:
    """{part: text or JSON value} of one output file: a `run` record's exit
    code, stdout and stderr, with stdout parsed where it is JSON, or a whole
    JSON file."""
    text = path.read_text()
    if path.suffix == ".json":
        return {"json": json.loads(text)}
    head, _, rest = text.partition("\n--- stdout\n")
    out, _, err = rest.rpartition("--- stderr\n")
    try:
        out = json.loads(out)
    except ValueError:
        pass
    return {"exit": head, "stdout": out, "stderr": err}


def _walk(old, new, path: str, figures: list, breaks: list):
    """Pair old and new values: a moved figure goes to `figures` as (path,
    old, new), any other difference to `breaks`.  Where a key set differs,
    the keys on both sides are still paired."""
    if isinstance(old, dict) and isinstance(new, dict):
        if old.keys() != new.keys():
            breaks.append(f"{path}: key set {sorted(old)} -> {sorted(new)}")
        for key in (k for k in old if k in new):
            a, b = old[key], new[key]
            if type(a) is float and type(b) is float and not _same(a, b):
                figures.append((f"{path}.{key}", a, b))
            else:
                _walk(a, b, f"{path}.{key}", figures, breaks)
    elif isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            breaks.append(f"{path}: length {len(old)} -> {len(new)}")
            return
        for i, (a, b) in enumerate(zip(old, new)):
            name = a.get("name") if isinstance(a, dict) else None
            _walk(a, b, f"{path}[{name if isinstance(name, str) else i}]",
                  figures, breaks)
    elif not _same(old, new):
        breaks.append(f"{path}: {old!r} -> {new!r}")


def _same(a, b) -> bool:
    """Equal values of one type, with NaN equal to NaN."""
    return type(a) is type(b) and (a == b or type(a) is float and math.isnan(a)
                                   and math.isnan(b))


def _command(name: Path) -> str:
    """The command of an output file: <case>.<command>.txt,
    scalar-<seed>.txt, scalar-table-<seed>.txt, <case>.pencil.json or
    inputs/<case>.json."""
    if name.parts[0] == "inputs":
        return "inputs"
    parts = name.name.split(".")
    return parts[-2] if len(parts) > 2 else parts[0].rstrip("0123456789-")


def compare(old_dir: Path, new_dir: Path) -> int:
    """Print the figures that moved from old_dir to new_dir, with a count
    per command and path, and every other difference; 1 if there is one."""
    names = {p.relative_to(d) for d in (old_dir, new_dir)
             for p in d.rglob("*") if p.is_file()}
    breaks, moved = [], defaultdict(list)
    files = defaultdict(lambda: [0, 0])  # command -> [files, files that moved]
    for name in sorted(names):
        command = _command(name)
        files[command][0] += 1
        old, new = old_dir / name, new_dir / name
        if not (old.is_file() and new.is_file()):
            breaks.append(f"{name} only in {old_dir if old.is_file() else new_dir}")
            continue
        if old.read_bytes() == new.read_bytes():
            continue
        files[command][1] += 1
        figures, found, parts = [], [], _documents(new)
        for part, value in _documents(old).items():
            if isinstance(value, str) or isinstance(parts[part], str):
                if value != parts[part]:
                    found.append(f"{part} differs")
            else:
                _walk(value, parts[part], part, figures, found)
        breaks += [f"{name} {line}" for line in found]
        for path, a, b in figures:
            print(f"{name} {path}: {a!r} -> {b!r}")
            moved[command, re.sub(r"\[\d+\]", "[]", path)].append((a, b))
    print("\nfiles per command (all, moved):")
    for command, (total, changed) in sorted(files.items()):
        print(f"  {command}: {total}, {changed}")
    print("\nmoved figures per command and path (count, largest |old|, largest |new|):")
    for (command, path), pairs in sorted(moved.items()):
        print(f"  {command} {path}: {len(pairs)}, "
              f"{max(abs(a) for a, _ in pairs):.3g}, {max(abs(b) for _, b in pairs):.3g}")
    for line in breaks:
        print(f"NOT A FIGURE: {line}")
    return 1 if breaks else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--compare"] and len(argv) == 3:
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    checkout = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(checkout.resolve() / "src"))
    from ratlin import cli, verify
    from ratlin.polymat import Basis

    bench = list(bench_inputs())
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    os.chdir(out)  # every path below is relative to OUTDIR
    cases = [("preset", ["--preset", "cross-coupled"])]
    for case, r in realizations(verify, Basis):
        src = Path("inputs") / f"{case}.json"
        src.write_text(json.dumps(r.to_dict(), sort_keys=True) + "\n")
        cases.append((case, ["--input", str(src)]))
    for case, source in cases:
        table = case == "preset" or TABLE_CASE in case and "-lead" not in case
        for name, cmd in {**COMMANDS, **(TABLE_COMMANDS if table else {})}.items():
            run(cli, [a.format(case=case) for a in cmd] + source,
                Path(f"{case}.{name}.txt"))
    for workload, case, obj in bench:
        run_input(cli, case, obj, BENCH_COMMANDS[workload])
    for structure in verify.STRUCTURES[1:]:
        spec = verify.FixtureSpec(seed=1, n=12, p=12, m=12, grade_a=4,
                                  grade_d=4, structure=structure)
        run_input(cli, f"{structure}-n12-g4-s1-monomial-monomial",
                  verify.gen_fixture(spec).to_dict(), DEEP_COMMANDS)
    for seed in range(1, 7):
        r = verify.gen_fixture(verify.FixtureSpec(seed=seed, n=3, p=3, m=3,
                                                  grade_a=3, grade_d=3))
        for factor in (1e-12, 1e-13):
            run_input(cli, f"scaled{factor:.0e}-n3-g3-s{seed}-monomial-monomial",
                      scaled_last_column(r, factor).to_dict(), SCALED_COMMANDS)
    for seed in range(1, SCALAR_COUNT + 1):
        run(cli, ["scalar", "--json"] + scalar_args(seed), Path(f"scalar-{seed}.txt"))
    for seed in range(1, TABLE_SCALAR_COUNT + 1):
        run(cli, ["scalar"] + scalar_args(seed), Path(f"scalar-table-{seed}.txt"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
