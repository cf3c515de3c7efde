"""One `mzero` CLI call with a span around every layer boundary.

Usage: python3 perfbench/traced_cli.py OUT.json <mzero arguments...>

Run with the package on PYTHONPATH. The script imports `mzero.cli` (timed
as the import cost), wraps the public functions of the layer modules and
the methods of `Poly`, `PolySystem` and `NormalizedFrame`, runs
`mzero.cli.main` on the arguments, and writes per-span self time, call
counts and counters to OUT.json. The CLI's own output goes to stdout as
usual, so the caller checks it like an untraced call.

A function imported by name into another module (`gamma.solve_linear`,
`certify.gamma_mu`, `newton.chainrule_Lk`, ...) is replaced in every
module namespace that binds it, and lazy `from .x import y` lookups read
the patched module attribute. numpy's `linalg.svd`, `solve` and `lstsq`
are counted, not timed: several layers call them directly.
"""

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict

LAYER_MODULES = ("polycore", "dualspace", "gamma", "numkit", "certify", "newton", "cli")
# class -> (span prefix, methods)
CLASS_METHODS = {
    "Poly": ("polycore.poly", ("partial_at",)),
    "PolySystem": ("polycore", ("eval_at", "partials_vector", "jacobian", "derivative_tensor")),
    "NormalizedFrame": (
        "polycore.frame",
        ("eval_at", "jacobian", "derivative_tensor", "partials_vector"),
    ),
}
SYSTEM_TENSOR = "polycore.derivative_tensor"


class Tracer:
    """Self time and call counts per span name, from a stack of open spans.

    A span's self time is its duration minus the durations of the spans
    it directly encloses; calls are single-threaded, so children never
    overlap."""

    def __init__(self):
        self.self_ms = defaultdict(float)
        self.incl_ms = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.tensor_keys = set()
        self._open = [0.0]
        self._nterms = {}
        self._np = None  # numpy, bound by install() after the timed import

    def span(self, name, fn, on_exit=None):
        open_spans = self._open
        self_ms = self.self_ms
        calls = self.calls
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            t0 = perf()
            failed = True
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                dt = perf() - t0
                child = open_spans.pop()
                open_spans[-1] += dt
                self_ms[name] += (dt - child) * 1e3
                calls[name] += 1
                if on_exit is not None:
                    on_exit(args, kwargs, dt, failed)

        return wrapper

    def counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks for the derived counters --------------------------------

    def _system_tensor_exit(self, args, kwargs, dt, failed):
        system, x = args[0], args[1]
        k = args[2] if len(args) > 2 else kwargs["k"]
        self.tensor_keys.add((id(system), self._np.asarray(x, dtype=complex).tobytes(), k))
        self.incl_ms["polycore.derivative_tensor.k%d" % k] += dt * 1e3

    def _partials_exit(self, args, kwargs, dt, failed):
        system = args[0]
        key = id(system)
        if key not in self._nterms:
            self._nterms[key] = sum(len(p.terms) for p in system.polys)
        self.counts["polycore.term_visits"] += self._nterms[key]

    def _frame_tensor(self, fn):
        calls, counts = self.calls, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = calls[SYSTEM_TENSOR]
            try:
                return fn(*args, **kwargs)
            finally:
                counts["polycore.frame.derivative_tensor.calls"] += 1
                if calls[SYSTEM_TENSOR] == before:
                    counts["polycore.frame.derivative_tensor.hits"] += 1

        return wrapper

    def _separation_exit(self, args, kwargs, dt, failed):
        mu = args[0] if args else kwargs["mu"]
        self.incl_ms["certify.separation_constant.mu%d" % mu] += dt * 1e3

    def _root_exit(self, args, kwargs, dt, failed):
        # a raise, e.g. the NoRootError before separation_constant's retry
        if failed:
            self.counts["numkit.smallest_positive_root.failed"] += 1

    # -- installation ----------------------------------------------------

    def install(self):
        import numpy as np

        import mzero
        import mzero.cli  # noqa: F401  loads every layer module

        self._np = np
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "mzero"]
        hooks = {
            "certify.separation_constant": self._separation_exit,
            "numkit.smallest_positive_root": self._root_exit,
        }
        for short in LAYER_MODULES:
            mod = getattr(mzero, short)
            for attr, fn in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not isinstance(fn, types.FunctionType)
                    or fn.__module__ != mod.__name__
                ):
                    continue
                name = "%s.%s" % (short, attr)
                wrapped = self.span(name, fn, hooks.get(name))
                for other in modules:
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapped)

        method_hooks = {
            "polycore.derivative_tensor": self._system_tensor_exit,
            "polycore.partials_vector": self._partials_exit,
        }
        for cls_name, (prefix, methods) in CLASS_METHODS.items():
            cls = getattr(mzero.polycore, cls_name)
            for meth in methods:
                fn = getattr(cls, meth)
                name = "%s.%s" % (prefix, meth)
                if name == "polycore.frame.derivative_tensor":
                    fn = self._frame_tensor(fn)
                setattr(cls, meth, self.span(name, fn, method_hooks.get(name)))

        np.linalg.svd = self.counted("numkit.linalg.svd.calls", np.linalg.svd)
        np.linalg.solve = self.counted("numkit.linalg.solve.calls", np.linalg.solve)
        np.linalg.lstsq = self.counted("numkit.linalg.solve.calls", np.linalg.lstsq)

    def report(self, import_ms):
        return {
            "import_ms": import_ms,
            "self_ms": dict(self.self_ms),
            "incl_ms": dict(self.incl_ms),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "tensor_distinct": len(self.tensor_keys),
        }


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import mzero.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer()
    tracer.install()
    try:
        code = mzero.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as handle:
            json.dump(tracer.report(import_ms), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
