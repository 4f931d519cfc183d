"""Command-line front end.

Commands: linearize, eigs, infinity, nullspace, scalar, check.  Options are
the input (--input or --preset, not both), --seed and --json, plus each
command's own; no threshold is settable and nothing is read from the
environment.  Exit codes: 0 success, 1 mathematical precondition failure, 2
I/O or parse failure (a usage error too).
JSON output writes each double exactly (its shortest round-tripping repr),
streamed one piece per array row; tables print 17 significant digits.
Output is byte-stable for a fixed seed, input and BLAS thread count: the last
digits of computed results can differ between thread counts, so the tests
and tools/parity.py pin BLAS to one thread.
"""

import argparse
import cmath
import functools
import json
import sys

import numpy as np

from . import verify
from .config import DEFAULT_SEED
from .errors import RatlinError
from .eigsolve import classify, invariant_orders_at_infinity
from .linbuild import Realization, StructuredLinearization, build
from .recover import recover_minimal_basis
from .scalareq import ScalarEquation, solve_scalar


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RatlinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


@functools.lru_cache(maxsize=None)  # built on first use, once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratlin",
        description="Linearize rational matrices given as D + C A^-1 B, solve "
                    "the associated eigenvalue problem, and recover spectral "
                    "and singular structure from the pencil.",
        epilog="Output is byte-stable for a fixed seed, input and BLAS thread count; "
               "last digits can differ between thread counts, so pin one thread "
               "(OPENBLAS_NUM_THREADS=1) to reproduce --json output exactly.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:  # one source: argparse refuses both
            source = p.add_mutually_exclusive_group()
            source.add_argument("--input", help="realization JSON file")
            source.add_argument("--preset", choices=sorted(verify.PRESETS),
                                help="use a named built-in realization")
        p.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
        p.add_argument("--json", action="store_true", help="emit JSON")

    def grade(text):  # non-negative; one below the realization's is raised to it
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"grade must be non-negative, got {value}")
        return value

    p = sub.add_parser("linearize", help="emit the structured pencil")
    common(p)
    p.add_argument("--grade-a", type=grade, default=None,
                   help="upward override of the state-side grade")
    p.add_argument("--grade-d", type=grade, default=None,
                   help="upward override of the polynomial-side grade")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_linearize)

    p = sub.add_parser("eigs", help="pole/zero classification")
    common(p)
    p.set_defaults(func=_reporting(_cmd_eigs))

    p = sub.add_parser("infinity", help="invariant orders at infinity")
    common(p)
    p.set_defaults(func=_reporting(_cmd_infinity))

    p = sub.add_parser("nullspace", help="minimal basis of a singular input")
    common(p)
    p.add_argument("--side", choices=("left", "right"), default="right")
    p.set_defaults(func=_reporting(_cmd_nullspace))

    p = sub.add_parser("scalar", help="solve c/a = d/b")
    common(p, needs_input=False)
    p.add_argument("--a", required=True, help="monomial coefficients, ascending")
    p.add_argument("--c", required=True, help="monomial coefficients, ascending")
    p.add_argument("--b", required=True, help="Chebyshev coefficients, ascending")
    p.add_argument("--d", required=True, help="Chebyshev coefficients, ascending")
    p.set_defaults(func=_reporting(_cmd_scalar))

    p = sub.add_parser("check", help="run the verification battery")
    common(p)
    p.set_defaults(func=_reporting(_cmd_check))
    return parser


def _load_realization(args) -> Realization:
    if getattr(args, "preset", None):
        return verify.PRESETS[args.preset]()
    if not getattr(args, "input", None):
        raise ValueError("provide --input FILE or --preset NAME")
    with open(args.input) as fh:
        return Realization.from_dict(json.load(fh))


def _linearization(args) -> StructuredLinearization:
    """The pencil of the input, at the grades `linearize` overrides."""
    return build(_load_realization(args), grade_a=getattr(args, "grade_a", None),
                 grade_d=getattr(args, "grade_d", None), rng=args.seed)


def _dumps(obj) -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True): _chunks joined."""
    return "".join(_chunks(obj))


def _chunks(obj, ind="\n"):
    """Yield the text of json.dumps(obj, indent=2, sort_keys=True) in pieces,
    for obj made of str-keyed dicts, lists, tuples and JSON leaves, which may
    also hold numpy scalars and arrays (a complex entry as [re, im]).  A
    float or complex array is spelled by _words a block of leading-axis rows
    at a time, at most BLOCK_CELLS cells or else one row, and written by
    _rows, so a writer of the pieces holds the array plus about one block's
    spelling, not the whole document.  A list or tuple of plain floats and
    ints takes one json.dumps call; int, bool, 0-d and empty arrays are
    written as their lists.  `ind` is the newline and indent of obj's own
    line."""
    sub = ind + "  "
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0 or obj.size == 0 or obj.dtype.kind not in "fc":
            yield from _chunks(obj.tolist(), ind)
        else:
            step = max(1, BLOCK_CELLS * len(obj) // obj.size)  # leading-axis rows
            head = "["
            for i in range(0, len(obj), step):
                yield from _rows(_words(obj[i:i + step], ind), ind, head)
                head = ","
            yield ind + "]"
    elif isinstance(obj, dict) and obj:
        head = "{"
        for k, v in sorted(obj.items()):
            yield f"{head}{sub}{json.dumps(k)}: "
            yield from _chunks(v, sub)
            head = ","
        yield ind + "}"
    elif isinstance(obj, (list, tuple)) and obj:
        if all(type(v) in (float, int) for v in obj):  # bools stay leaves
            flat = json.dumps(obj, separators=("," + sub, ""))
            yield "[" + sub + flat[1:-1] + ind + "]"
        else:
            head = "["
            for v in obj:
                yield head + sub
                yield from _chunks(v, sub)
                head = ","
            yield ind + "]"
    else:
        yield json.dumps(obj.item() if isinstance(obj, np.generic) else obj)


_ZEROS = np.array(["0.0", "-0.0"], dtype=object)  # indexed by np.signbit
BLOCK_CELLS = 2048  # cells of an array that _chunks spells at a time


def _spell(x: np.ndarray) -> np.ndarray:
    """json's spelling of each entry of the float array x, as an object
    array of x's shape: zeros from _ZEROS, the rest from one json.dumps."""
    words = _ZEROS[np.signbit(x).view(np.int8)]
    nonzero = x != 0
    if nonzero.any():
        words[nonzero] = json.dumps(x[nonzero].tolist())[1:-1].split(", ")
    return words


def _words(a: np.ndarray, ind: str) -> np.ndarray:
    """The text of each cell of a nonempty float or complex array of ndim
    >= 1 written at indent `ind`, as an object array of a's shape.  It costs
    what the nonzeros cost: an exact zero is "0.0" or "-0.0", a complex cell
    zero in both parts is one of four constant cells, and the nonzero
    doubles (NaN and infinities included) are spelled by one json.dumps."""
    if not np.iscomplexobj(a):
        return _spell(a)
    pad, end = ind + "  " * (a.ndim + 1), ind + "  " * a.ndim
    cell = "[" + pad + "%s," + pad + "%s" + end + "]"
    real, imag = a.real, a.imag
    words = np.array([cell % (r, i) for r in _ZEROS for i in _ZEROS],
                     dtype=object)[2 * np.signbit(real) + np.signbit(imag)]
    live = (real != 0) | (imag != 0)
    if live.any():
        words[live] = [cell % ri for ri in zip(_spell(real[live]), _spell(imag[live]))]
    return words


def _rows(words: np.ndarray, ind: str, head: str = "["):
    """Yield the cell texts `words` as the items of a JSON list at indent
    `ind`, the first after `head` and the rest after commas, without the
    list's closing bracket: a 1-D `words` in one piece, a deeper one's rows
    as nested lists, one piece per line along the last axis."""
    pad = ind + "  "
    if words.ndim == 1:
        yield head + pad + ("," + pad).join(words.tolist())
        return
    for sub in words:
        yield head + pad
        yield from _rows(sub, pad)
        yield pad + "]"
        head = ","


def _emit(payload: dict):
    sys.stdout.writelines(_chunks(payload))
    sys.stdout.write("\n")


def _reporting(command):
    """The command `command(args) -> (payload, table, exit code)` as one
    that writes the payload under --json, prints the table otherwise, and
    returns the exit code."""
    def run(args) -> int:
        payload, table, code = command(args)
        if args.json:
            _emit(payload)
        else:
            print(table)
        return code
    return run


def _cmd_linearize(args) -> int:
    sl = _linearization(args)
    if args.output:
        with open(args.output, "w") as fh:
            fh.writelines(_chunks(sl.to_dict()))
            fh.write("\n")
        print(f"wrote {args.output} "
              f"(pencil {sl.shape[0]}x{sl.shape[1]}, rhoA={sl.rho_a}, rhoD={sl.rho_d})")
    else:
        _emit(sl.to_dict())
    return 0


def _cmd_eigs(args) -> tuple:
    rep = classify(_linearization(args), vectors=False)
    lines = ["poles (value, count):"]
    for v, c in rep.poles:
        lines.append(f"  {v.real:+.17g}{v.imag:+.17g}j  x{c}")
    lines.append("zeros (value, classified, near pole):")
    for z in rep.zeros:
        lines.append(f"  {z.value.real:+.17g}{z.value.imag:+.17g}j  "
                     f"{'yes' if z.classified else 'NO'}  "
                     f"{'yes' if z.near_pole else 'no'}")
    return rep.to_dict(), "\n".join(lines), 0


def _cmd_infinity(args) -> tuple:
    sl = _linearization(args)
    orders = invariant_orders_at_infinity(sl)
    return ({"infinityOrders": orders, "grade": sl.rho_d + 1},
            f"invariant orders at infinity: {orders} (grade {sl.rho_d + 1})", 0)


def _cmd_nullspace(args) -> tuple:
    rec = recover_minimal_basis(_linearization(args), args.side, rng=args.seed)
    return (rec.to_dict(), f"{args.side} minimal indices: {rec.basis_r.indices} "
            f"(pencil: {rec.basis_l.indices}, shift {rec.shift}); "
            f"verified: {rec.diagnostics['ok']}", 0)


def _cmd_scalar(args) -> tuple:
    eq = ScalarEquation.from_lists(
        *(_parse_coeffs(getattr(args, name), f"--{name}") for name in "acbd"))
    rep = solve_scalar(eq, rng=args.seed)
    lines = [f"{len(rep.roots)} roots:"]
    for v, res in sorted(rep.roots, key=lambda t: (t[0].real, t[0].imag)):
        lines.append(f"  {v.real:+.17g}{v.imag:+.17g}j  residual {res:.3e}")
    if rep.excluded:
        lines.append(f"excluded as poles: {len(rep.excluded)}")
    return rep.to_dict(), "\n".join(lines), 0


def _cmd_check(args) -> tuple:
    rep = verify.run_all(_load_realization(args), seed=args.seed)
    return rep.to_dict(), rep.table(), 0 if rep.passed else 1


def _parse_coeffs(text: str, flag: str = "the list") -> list:
    """Comma-separated finite complex coefficients; entries like 1.5, 2+3i,
    -0.5i.  `flag` names the option in error messages."""
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        val = complex(tok[:-1] + "j" if tok.endswith("i") else tok)
        if not cmath.isfinite(val):
            raise ValueError(f"non-finite coefficient {tok} at position "
                             f"{len(out)} of {flag}")
        out.append(val)
    if not out:
        raise ValueError("empty coefficient list")
    return out


if __name__ == "__main__":
    sys.exit(main())
