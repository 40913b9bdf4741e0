"""Run one ``g2hecke`` command in this process with its layers traced.

Usage::

    python3 bench/trace_op.py SPANS_FILE -- ARG...

``ARG...`` are the ``g2hecke`` command-line arguments.  The command's
standard output and exit code are those of the untraced CLI.  Before the
command runs, every public function of the traced layers is replaced by a
wrapper that records a span, in every namespace of the package that bound
the function: ``hecke.exact_div`` as well as ``exactalg.exact_div``, and
``blocks.mu`` as well as ``plancherel.mu``.  ``RationalExpr.__init__`` is
wrapped as ``exactalg.RationalExpr``, because constructing one runs the gcd
canonicalization.  Spans stay in memory and are written to SPANS_FILE as
one JSON document when the command ends.

The package under ``src/`` is not modified; everything here patches module
attributes at run time, so each traced op needs a fresh process.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("exactalg", "hecke", "plancherel", "blocks", "extquot", "cli", "rootdata")


def _term_pairs(a, b, *_, **__):
    return len(a.terms) * len(b.terms)


def _mu_case(case, *_, **__):
    return repr(case)


def _div_args(f, g, *_, **__):
    return hash((f, g))


def _basis_dim(m, *_, **__):
    return m.size * (1 if m.gamma is None else 2)


# What a span records beyond its times, computed from the call's arguments:
# exact work counts and the keys behind the distinct-call ratios.
EXTRA = {
    "hecke.multiply": _term_pairs,
    "plancherel.mu": _mu_case,
    "exactalg.exact_div": _div_args,
    "extquot.crossed_product_irr_count": _basis_dim,
}


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, extra, raised]``; ``parent`` is
    the index of the enclosing span, or -1.
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   extra(*args, **kwargs) if extra else None, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()

        return traced


def install(tracer: Tracer):
    """Wrap every public layer function in every package namespace."""
    import g2hecke

    modules = {layer: importlib.import_module(f"g2hecke.{layer}") for layer in LAYERS}
    namespaces = [g2hecke] + list(modules.values())
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            traced = tracer.wrap(f"{layer}.{attr}", obj)
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, bound, traced)
    rational = modules["exactalg"].RationalExpr
    rational.__init__ = tracer.wrap("exactalg.RationalExpr", rational.__init__)


def main(argv: list) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: trace_op.py SPANS_FILE -- ARG...", file=sys.stderr)
        return 2
    spans_file, cli_args = argv[0], argv[2:]
    root_start = time.perf_counter()
    tracer = Tracer()
    install(tracer)
    from g2hecke import cli

    code = 1
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        root_end = time.perf_counter()
        with open(spans_file, "w") as f:
            json.dump({"root": [root_start, root_end], "spans": tracer.spans}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
