"""Span tracing of textforge's layers, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules with
a wrapper that records a span (name, parent, start, end) and, for a few
functions, a count taken from the arguments or the result. The wrapper is
put in place of the original wherever a textforge module holds a reference
to it, so calls through `from .x import f` names are traced too.
`Tracer.remove()` puts the originals back. Spans stay in memory until
`export()`.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types

LAYERS = ("cli", "styles", "config", "scanner", "scriptlet", "rewriter")

# Value helpers run for every expression; their cost is part of the
# caller's, and wrapping them would multiply the tracing overhead.
UNTRACED = frozenset({"scriptlet.stringify", "scriptlet.truthy"})


def _text_arg(args, kwargs):
    text = args[1] if len(args) > 1 else kwargs.get("text")
    return text if isinstance(text, str) else ""


def _conf_count(args, kwargs):
    chain = args[0] if args else kwargs.get("chain")
    return len(getattr(chain, "paths", chain) or ())


# name -> (counter, function of (args, kwargs, result) giving the increment)
COUNTERS = {
    "scanner.detect_output_block": (
        ("scanner.output_blocks", lambda a, k, r: r is not None),),
    "scriptlet.tokenize": (
        ("scriptlet.tokens", lambda a, k, r: len(r)),),
    "config.exec_conf_chain": (
        ("config.confs_run", lambda a, k, r: _conf_count(a, k)),),
    "rewriter.write_if_changed": (
        ("rewriter.files_written", lambda a, k, r: r is True),
        ("rewriter.bytes_out",
         lambda a, k, r: len(_text_arg(a, k).encode("utf-8", "surrogateescape")))),
    "rewriter.choose_infix": (
        ("rewriter.numbered_fences", lambda a, k, r: r != ""),),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start ns, end ns]
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"textforge.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[fn] = self._wrap(name, fn)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._patched.append((mod, attr, value))

    def remove(self) -> int:
        """Restore the originals; returns how many wrappers are left."""
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return sum(1 for mod in self._modules() for value in vars(mod).values()
                   if getattr(value, "_bench_span", None))

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    @staticmethod
    def _modules():
        return [m for n, m in list(sys.modules.items())
                if m is not None and (n == "textforge" or n.startswith("textforge."))]

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter_ns
        counters = COUNTERS.get(name, ())

        def open_span():
            rec = [name, stack[-1] if stack else -1, 0, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            return rec

        if inspect.isgeneratorfunction(fn):
            # One span per step, so the consumer's work between steps is
            # not counted as the generator's.
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    rec = open_span()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        rec[3] = clock()
                        stack.pop()
                    yield item
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                rec = open_span()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[3] = clock()
                    stack.pop()
                for counter, inc in counters:
                    counts[counter] = counts.get(counter, 0) + int(inc(args, kwargs, result))
                return result

        traced._bench_span = name
        return traced
