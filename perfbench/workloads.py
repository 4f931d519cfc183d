"""The four workloads: how one operation calls ratlin, and how it is checked.

`prepare(case, path)` does the untimed part (building library objects,
writing the input file) and returns the timed operation, a callable that
takes the ratlin package and returns an outcome.  `check(case, outcome)`
runs the oracle on that outcome afterwards and returns (verdict, reason,
figures), the verdict one of OK, FAILED (the program reported its own
failure: a failing battery verdict, the only such case) and WRONG (an
independent oracle rejected the output).  Library functions are looked up on
their module at call time, so the tracer's wrappers are seen.
"""

import contextlib
import io
import json
import os

import numpy as np

import oracles
from inputs import coeff_arg, realization_json

CLI_SEED = "7"  # the program's own --seed, fixed so its output is reproducible
OK, FAILED, WRONG = "ok", "failed", "wrong"


def _oracle(ok):
    return OK if ok else WRONG


def _realization(rl, case):
    def poly(stack, basis):
        return rl.PolyMatrix(stack, rl.Basis(basis))
    return rl.Realization(A=poly(case.A, case.basis_a), B=poly(case.B, case.basis_d),
                          C=poly(case.C, case.basis_a), D=poly(case.D, case.basis_d))


def _cli(rl, argv):
    """ratlin.cli.main in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rl.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _worst(figures, key):
    values = [f[key] for f in figures if f.get(key) is not None]
    return max(values) if values else None


class Spectral:
    """build -> classify -> invariant_orders_at_infinity -> eigenpair per zero."""

    @staticmethod
    def prepare(rl, case, path):
        r = _realization(rl, case)

        def op():
            sl = rl.linbuild.build(r, rng=1)
            report = rl.eigsolve.classify(sl, rng=1)
            orders = rl.eigsolve.invariant_orders_at_infinity(sl, rng=1)
            pairs = [rl.recover.eigenpair(sl, z.value) for z in report.zeros
                     if z.classified and not z.near_pole]
            return {"zeros": len(report.zeros), "orders": orders,
                    "pairs": [(p.value, p.x, p.yT) for p in pairs],
                    "residual": max((max(p.residual_right, p.residual_left)
                                     for p in pairs), default=0.0)}
        return op

    @staticmethod
    def check(case, out):
        ok, reason, eta = oracles.check_spectral(case, out["zeros"], out["pairs"],
                                                 out["orders"])
        return _oracle(ok), reason, {"backward_error_max": eta,
                                     "residual_max": out["residual"]}

    @staticmethod
    def summarize(figures):
        return {key: _worst(figures, key) for key in ("backward_error_max", "residual_max")}


class Battery:
    """verify.run_all on one realization; its own verdict is the check."""

    @staticmethod
    def prepare(rl, case, path):
        r = _realization(rl, case)

        def op():
            report = rl.verify.run_all(r, seed=1)
            return [(e.name, e.status) for e in report.entries]
        return op

    @staticmethod
    def check(case, out):
        ok, reason, skipped = oracles.check_battery(out)
        return OK if ok else FAILED, reason, {"checks": len(out), "skipped": skipped}

    @staticmethod
    def summarize(figures):
        checks = sum(f["checks"] for f in figures)
        return {"check_skip_share": sum(f["skipped"] for f in figures) / checks
                if checks else None}


class Scalar:
    """`ratlin scalar --a= --c= --b= --d= --json` through ratlin.cli.main."""

    @staticmethod
    def prepare(rl, case, path):
        argv = ["scalar", "--a=" + coeff_arg(case.a), "--c=" + coeff_arg(case.c),
                "--b=" + coeff_arg(case.b), "--d=" + coeff_arg(case.d),
                "--json", "--seed", CLI_SEED]

        def op():
            code, out, err = _cli(rl, argv)
            return {"code": code, "stdout": out, "stderr": err,
                    "bytes": len(out.encode())}
        return op

    @staticmethod
    def check(case, out):
        if out["code"] != 0:
            return WRONG, f"exit {out['code']}: {out['stderr'].strip()}", {}
        ok, reason, err = oracles.check_scalar(case, out["stdout"])
        return _oracle(ok), reason, {"root_error_max": err}

    @staticmethod
    def summarize(figures):
        return {"root_error_max": _worst(figures, "root_error_max")}


class Linearize:
    """`ratlin linearize --input F --output G` through ratlin.cli.main."""

    @staticmethod
    def prepare(rl, case, path):
        src, dst = path + "-in.json", path + "-out.json"
        with open(src, "w") as fh:
            json.dump(realization_json(case), fh)
        argv = ["linearize", "--input", src, "--output", dst, "--seed", CLI_SEED]

        def op():
            code, out, err = _cli(rl, argv)
            size = os.path.getsize(dst) if code == 0 else 0
            return {"code": code, "stderr": err, "path": dst,
                    "bytes": size + len(out.encode())}
        return op

    @staticmethod
    def check(case, out):
        if out["code"] != 0:
            return WRONG, f"exit {out['code']}: {out['stderr'].strip()}", {}
        with open(out["path"]) as fh:
            pencil = json.load(fh)
        z = np.exp(2j * np.pi * np.random.default_rng(case.A.shape).uniform())
        ok, reason, resid = oracles.check_linearize(case, pencil, z)
        return _oracle(ok), reason, {"identity_residual_max": resid}

    @staticmethod
    def summarize(figures):
        return {"identity_residual_max": _worst(figures, "identity_residual_max")}


WORKLOADS = {"spectral": Spectral, "battery": Battery, "scalar": Scalar,
             "linearize": Linearize}
