"""Outside-in span tracer for the traced run; it never edits the library.

`Tracer.install()` replaces every public function of the layer modules in
every ratlin namespace that binds it (`build` is bound in linbuild, verify,
scalareq, cli and the package), three PolyMatrix methods on the class, and
the dense kernels numpy.linalg.{svd,solve,lstsq,qr,det,cond} and
scipy.linalg.eig.
`uninstall()` puts the originals back.  Spans are kept in memory as
[name, start, end, parent index, operation id, note].
"""

import functools
import importlib
import sys
import time
import types

LAYERS = ("polymat", "dualbases", "linbuild", "eigsolve", "recover", "scalareq",
          "verify", "cli")
METHODS = ("eval", "__matmul__", "to_monomial")
KERNELS = {"kernel.svd": ("numpy.linalg", "svd"),
           "kernel.solve": ("numpy.linalg", "solve"),
           "kernel.lstsq": ("numpy.linalg", "lstsq"),
           "kernel.qr": ("numpy.linalg", "qr"),
           "kernel.det": ("numpy.linalg", "det"),
           # cond calls numpy's own svd, which stays untraced: no nested kernel span
           "kernel.cond": ("numpy.linalg", "cond"),
           "kernel.qz": ("scipy.linalg", "eig")}
# Called once per number the CLI prints; a span each would triple the CLI's
# time, so its time stays in cli.main.
UNTRACED = ("cli.format_number",)
# Return value -> number kept on the span.
NOTES = {"eigsolve.polymatrix_nullspace":
         lambda res: max(res.indices, default=-1) + 1}

# Per-layer metric groups: span names whose calls and self time they sum.
GROUPS = {
    "dualbases.pair": ("dualbases.pair_for", "dualbases.monomial_pair",
                       "dualbases.chebyshev_pair"),
    "dualbases.completion": ("dualbases.completion",),
    "cli.main": ("cli.main",),
    "linbuild.build": ("linbuild.build",),
    "linbuild.minimality": ("linbuild.check_finite_minimality",
                            "linbuild.check_infinity_minimality",
                            "linbuild.minimality_report"),
    "linbuild.transfer_eval": ("linbuild.transfer_eval", "linbuild.hat_transfer_eval"),
    "eigsolve.pencil_eigs": ("eigsolve.pencil_eigs",),
    "eigsolve.classify": ("eigsolve.classify",),
    "eigsolve.infinity": ("eigsolve.invariant_orders_at_infinity",
                          "eigsolve.partial_multiplicities_at"),
    "eigsolve.nullspace": ("eigsolve.polynomial_nullspace",
                           "eigsolve.polymatrix_nullspace"),
    "eigsolve.rational_rank": ("eigsolve.rational_rank",),
    "recover.eigenpair": ("recover.eigenpair",),
    "recover.minimal_basis": ("recover.recover_right_minimal_basis",
                              "recover.recover_left_minimal_basis"),
    "recover.factorization_residuals": ("recover.factorization_residuals",),
    "polymat.eval": ("polymat.PolyMatrix.eval",),
    "polymat.matmul": ("polymat.PolyMatrix.__matmul__",),
    "polymat.to_monomial": ("polymat.PolyMatrix.to_monomial",),
    "polymat.numerical_rank": ("polymat.numerical_rank", "polymat.generic_rank"),
    "polymat.det_adj": ("polymat.poly_adjugate", "polymat.poly_det_coeffs"),
    "scalareq.solve_scalar": ("scalareq.solve_scalar",),
    "scalareq.cleared_form": ("scalareq.cleared_form",),
    "verify.run_all": ("verify.run_all",),
    **{name: (name,) for name in KERNELS},
}
OP = "op"  # span the benchmark opens around each operation


class Tracer:
    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                   self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if note is not None:
                rec[5] = note(result)
            return result
        return traced

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module("ratlin." + layer)
            for attr, val in vars(mod).items():
                name = f"{layer}.{attr}"
                if isinstance(val, types.FunctionType) and not attr.startswith("_") \
                        and val.__module__ == mod.__name__ and name not in UNTRACED:
                    wrappers[val] = self._wrap(name, val)
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == "ratlin" or key.startswith("ratlin.")]
        for ns in namespaces:
            for attr, val in list(vars(ns).items()):
                if isinstance(val, types.FunctionType) and val in wrappers:
                    self._patch(ns, attr, wrappers[val])
        poly = importlib.import_module("ratlin.polymat").PolyMatrix
        for meth in METHODS:
            self._patch(poly, meth, self._wrap(f"polymat.PolyMatrix.{meth}",
                                               vars(poly)[meth]))
        for name, (modname, attr) in KERNELS.items():
            mod = importlib.import_module(modname)
            self._patch(mod, attr, self._wrap(name, getattr(mod, attr)))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def run_op(self, op_id, fn):
        """Run one operation under an OP span."""
        self.op_id = op_id
        return self._wrap(OP, fn)()


def self_times(spans) -> list:
    """Span duration minus the time its direct children cover (children of
    one span never overlap: the program is single-threaded)."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [(rec[2] - rec[1]) - child[i] for i, rec in enumerate(spans)]


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced pass.

    `<group>.calls` counts calls not nested in another call of the same
    group; `<group>.self_ms` (`.ms` for a kernel) sums self time over the
    group; `<module>.self_ms` sums self time over every traced function of a
    module.
    """
    group_of = {name: g for g, names in GROUPS.items() for name in names}
    own = self_times(spans)
    time_key = {g: f"{g}.ms" if g in KERNELS else f"{g}.self_ms" for g in GROUPS}
    out = {f"{g}.calls": 0 for g in GROUPS}
    out.update({key: 0.0 for key in time_key.values()})
    out.update({f"{layer}.self_ms": 0.0 for layer in LAYERS})
    depth = 0
    for i, rec in enumerate(spans):
        name = rec[0]
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            out[f"{layer}.self_ms"] += own[i] * 1e3
        group = group_of.get(name)
        if group is None:
            continue
        out[time_key[group]] += own[i] * 1e3
        parent = rec[3]
        while parent >= 0 and group_of.get(spans[parent][0]) != group:
            parent = spans[parent][3]
        if parent < 0:
            out[f"{group}.calls"] += 1
        if rec[5] is not None:
            depth = max(depth, rec[5])
    out["eigsolve.nullspace.sweep_depth_max"] = depth
    kernel_s = sum(own[i] for i, rec in enumerate(spans) if rec[0] in KERNELS)
    op_s = sum(rec[2] - rec[1] for rec in spans if rec[0] == OP)
    out["kernel.share"] = kernel_s / op_s if op_s > 0 else 0.0
    return out
