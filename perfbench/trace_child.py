"""Run one nbx command in this interpreter with its public functions timed.

    PYTHONPATH=src python perfbench/trace_child.py SPANS.json nbx-args...

Before calling ``nbx.cli.run(args)`` it wraps each function in ``TARGETS``
wherever a module looks it up: in the defining module, in every nbx module
that imported the name, and on the class for methods.  Each call records a
span (name, parent span, start, end) in memory, and counts taken from the
call's inputs and return value.  The spans, the counts and the time taken
to import ``nbx.cli`` are written to SPANS.json when the command ends; the
exit status is the command's.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import inspect
import json
import sys
from time import perf_counter

# Module -> public functions timed in it; "Class.method" names a method.
TARGETS = {
    "strings": ("all_strings", "TernaryString.parse"),
    "families": ("Family.from_nbx", "Family.to_nbx", "verify_neighborly"),
    "constructions": ("extremal_dminus1", "realize_mbar", "m_value", "mbar_value"),
    "bounds": ("bounds_table", "best_bounds", "pascal_audit"),
    "search": ("max_family", "enumerate_max_families"),
    "biclique": ("family_to_cover",),
    "cli": ("run",),
}

# Span names, "module.function": the layer metrics are reported under these.
SPAN_NAMES = tuple(f"{mod}.{q.rsplit('.', 1)[-1]}" for mod, qs in TARGETS.items() for q in qs)


def _count_verify(args, result, counts):
    n = len(args[0])
    counts["families.pairs"] += n * (n - 1) // 2
    counts["families.violations"] += len(result.violations)


def _count_search(args, result, counts):
    counts["search.nodes"] += result.stats["nodes"]
    counts["search.candidates"] += result.stats["candidates"]


def _count_enumerate(args, result, counts):
    counts["search.families_enumerated"] += len(result)


def _count_table(args, result, counts):
    counts["bounds.cells"] += len(result)


COUNTERS = {
    "families.verify_neighborly": _count_verify,
    "search.max_family": _count_search,
    "search.enumerate_max_families": _count_enumerate,
    "bounds.bounds_table": _count_table,
}

COUNT_NAMES = ("search.nodes", "search.candidates", "search.families_enumerated",
               "families.pairs", "families.violations", "bounds.cells")


class Tracer:
    """Spans of one command, kept in memory; parents come from a call stack."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNT_NAMES, 0)

    def _open(self, name: str) -> int:
        self.spans.append([name, self.stack[-1] if self.stack else -1, 0.0, 0.0])
        return len(self.spans) - 1

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        def timed(*args, **kwargs):
            sid = self._open(name)
            self.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.stack.pop()
                self.spans[sid][2:] = [start, end]
            if count is not None:
                count(args, result, self.counts)
            return result

        return timed

    def wrap_generator(self, name: str, fn):
        """A generator's span starts when it is first resumed and lasts as
        long as the time spent inside it; the code iterating it is the parent."""

        def timed(*args, **kwargs):
            sid = self._open(name)
            inner = fn(*args, **kwargs)
            first = perf_counter()
            busy = 0.0
            try:
                while True:
                    self.stack.append(sid)
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        busy += perf_counter() - start
                        self.stack.pop()
                    yield item
            finally:
                self.spans[sid][2:] = [first, first + busy]

        return timed


def install(tracer: Tracer) -> None:
    """Replace every target by its timed wrapper wherever nbx looks it up."""
    import nbx

    modules = [nbx] + [sys.modules[f"nbx.{m}"] for m in TARGETS]
    for mod_name, qualnames in TARGETS.items():
        home = sys.modules[f"nbx.{mod_name}"]
        for qual in qualnames:
            name = f"{mod_name}.{qual.rsplit('.', 1)[-1]}"
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(name, raw))
                continue
            fn = getattr(home, qual)
            wrap = tracer.wrap_generator if inspect.isgeneratorfunction(fn) else tracer.wrap
            timed = wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, timed)


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    start = perf_counter()
    import nbx.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return nbx.cli.run(args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "counts": tracer.counts}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
