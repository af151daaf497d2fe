"""Run the `tiltrig` CLI with spans around each module's public functions.

Usage: python3 benchmarks/traced.py --spans-out FILE -- <tiltrig CLI arguments>

Every public top-level function of each `tiltrig` module gets a span, and so
do the constructors of `linalg.Subspace` and `rigidity.MinimalPresentation`.
A span records (id, parent id, name, start ns, end ns, extra).  Spans stay in
memory and are written to FILE as JSON when the CLI returns.

`Mat` arithmetic and `Field` operations are not wrapped, to keep the overhead
low: their time stays in the self time of the calling span.  Only two hot
methods are counted, without a span: the entries coerced by `Mat.__init__`
and the calls of `FinDimAlgebra.reduce`.  Generator functions get no span,
because their work runs in the consumer.  A function reached through a
container rather than a module name (such as `acceptance.CRITERIA`) keeps no
span of its own; its time stays in its caller, in the same module.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time

MODULES = (
    "linalg",
    "quiver",
    "modules",
    "highest_weight",
    "rigidity",
    "characters",
    "coeffquiver",
    "acceptance",
    "cli",
)

NOTE = (
    "Mat arithmetic and Field operations are not wrapped; their time stays in the "
    "self time of the calling span. Counters without spans: linalg.Mat.entries, quiver.reduce.calls."
)


def _module_key(rep) -> tuple:
    """Content of a representation: quiver, field, dims and arrow matrices."""
    quiver = rep.algebra.quiver
    return (
        rep.field.characteristic,
        tuple(quiver.arrows.items()),
        tuple(rep.dims.items()),
        tuple((a, tuple(map(tuple, m.data))) for a, m in rep.mats.items()),
    )


class Tracer:
    """In-memory span recorder for one CLI process."""

    def __init__(self):
        self.spans: list = []
        self.counters = {"linalg.Mat.entries": 0, "quiver.reduce.calls": 0}
        self._stack = [0]
        self._next_id = 1
        self._hom_pairs: set = set()

    def wrap(self, name: str, fn, extra=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            info = extra(*args, **kwargs) if extra is not None else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, info))

        return traced

    # -- extras recorded on selected spans ------------------------------------

    @staticmethod
    def rref_cells(m):
        return m.rows * m.cols

    def hom_extra(self, M, N):
        """[unknowns, repeat]: sum of dim M_v * dim N_v, and whether this content pair was seen."""
        unknowns = sum(M.dims[v] * N.dims[v] for v in M.vertices)
        key = (_module_key(M), _module_key(N))
        repeat = key in self._hom_pairs
        self._hom_pairs.add(key)
        return [unknowns, int(repeat)]

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"tiltrig.{name}") for name in MODULES}
        namespaces = [importlib.import_module("tiltrig")] + list(mods.values())
        extras = {"linalg.rref": self.rref_cells, "modules.hom_space": self.hom_extra}
        replaced = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                name = f"{short}.{attr}"
                replaced[id(obj)] = self.wrap(name, obj, extras.get(name))
        # `from .linalg import rref` copies the binding, so rebind it in every namespace
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in replaced:
                    setattr(ns, attr, replaced[id(obj)])

        linalg, quiver, rigidity = mods["linalg"], mods["quiver"], mods["rigidity"]
        linalg.Subspace.__init__ = self.wrap("linalg.Subspace", linalg.Subspace.__init__)
        rigidity.MinimalPresentation.__init__ = self.wrap(
            "rigidity.MinimalPresentation", rigidity.MinimalPresentation.__init__
        )
        counters = self.counters
        mat_init = linalg.Mat.__init__

        def counted_mat_init(mat, field, data):
            mat_init(mat, field, data)
            counters["linalg.Mat.entries"] += mat.rows * mat.cols

        linalg.Mat.__init__ = counted_mat_init
        reduce = quiver.FinDimAlgebra.reduce

        def counted_reduce(alg, path):
            counters["quiver.reduce.calls"] += 1
            return reduce(alg, path)

        quiver.FinDimAlgebra.reduce = counted_reduce

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"note": NOTE, "counters": self.counters, "spans": self.spans}, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer()
    tracer.install()
    from tiltrig import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
