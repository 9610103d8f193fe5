"""Per-layer tracing from outside the package.

Every public function and method of the ``dpcover`` modules is replaced, by
identity, in every ``dpcover.*`` namespace that holds it -- ``obstruction``,
``gen`` and ``signed`` bind ``blocks``, ``solve``, ``require_valid`` and the
like through ``from .x import y``, so patching only the defining module would
miss those calls. Layers are named ``<module>.<function>``.

Most wrappers record a span (id, parent, layer, op id, start, end) and time;
a layer's self time is its span time minus the time of the wrapped spans
nested directly in it. The hottest leaves only count calls.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter, defaultdict
from types import ModuleType

# Leaves called millions of times per pass: counted, never timed.
COUNT_ONLY = frozenset(
    {
        "multigraph.vertex_pair",
        "multigraph.degree",
        "multigraph.multiplicity",
        "multigraph.neighbors",
        "cover.pairs_between",
        "cover.list_of",
        "obstruction.pattern_adjacent",
        "obstruction.part",
    }
)

SETUP = "setup"
OPS = "ops"


def _layers(modules: list[ModuleType]):
    """(layer, owner, attribute, function) for every public function defined
    in a module and every public method of a class defined there."""
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in sorted(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{short}.{name}", mod, name, obj
            elif inspect.isclass(obj):
                for mname, meth in sorted(vars(obj).items()):
                    if not mname.startswith("_") and inspect.isfunction(meth):
                        yield f"{short}.{mname}", obj, mname, meth


class Tracer:
    """Wraps the package's public callables; aggregates per bucket
    (``SETUP`` or ``OPS``) and keeps every span in memory until ``write``."""

    def __init__(self, package: ModuleType, modules: list[ModuleType]):
        self._namespaces = [package, *modules]
        self._modules = modules
        self._patched: list[tuple[object, str, object]] = []
        self.calls: dict[str, Counter] = defaultdict(Counter)
        self.self_s: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.extra: dict[str, Counter] = defaultdict(Counter)
        self.spans: list[tuple] = []
        self.bucket = SETUP
        self.op_id = -1
        self._op_self: defaultdict = defaultdict(float)
        self._stack: list[list] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        seen: set[str] = set()
        for layer, owner, attr, fn in _layers(self._modules):
            if layer in seen:
                raise RuntimeError(f"two callables map to layer {layer}")
            seen.add(layer)
            wrapper = self._wrap(layer, fn)
            wrappers[id(fn)] = wrapper
            self._patch(owner, attr, wrapper)
        for ns in self._namespaces:
            for name, obj in list(vars(ns).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patch(ns, name, wrappers[id(obj)])

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patched):
            setattr(owner, attr, old)
        self._patched.clear()

    def _wrap(self, layer: str, fn):
        tracer = self
        clock = time.perf_counter
        stack = self._stack

        if layer == "obstruction.pattern_adjacent":

            def pattern_adjacent(kind, n, p, q):
                i1, i2 = p[0], q[0]
                calls = tracer.calls[tracer.bucket]
                calls[layer] += 1
                if i1 != i2 and (kind == "Hnt" or abs(i1 - i2) == 1 or {i1, i2} == {1, n}):
                    tracer.extra[tracer.bucket]["obstruction.pattern_adjacent.edge"] += 1
                return fn(kind, n, p, q)

            return pattern_adjacent

        if layer in COUNT_ONLY:

            def counted(*args, **kwargs):
                tracer.calls[tracer.bucket][layer] += 1
                return fn(*args, **kwargs)

            return counted

        def spanned(*args, **kwargs):
            tracer.calls[tracer.bucket][layer] += 1
            span_id = len(tracer.spans)
            tracer.spans.append(None)  # reserve the id; filled in on exit
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                elapsed = t1 - t0
                tracer._op_self[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                tracer.spans[span_id] = (span_id, parent, layer, tracer.op_id, t0, t1)
            if layer == "obstruction.find_certificate" and out is not None:
                tracer.extra[tracer.bucket]["obstruction.find_certificate.hit"] += 1
            return out

        return spanned

    # ---------------------------------------------------------- bookkeeping

    def begin(self, bucket: str, op_id: int) -> None:
        self.bucket = bucket
        self.op_id = op_id
        self._op_self.clear()

    def end(self, factor: float) -> None:
        """Close the current op; ``factor`` turns its raw seconds into
        normalised seconds."""
        totals = self.self_s[self.bucket]
        for layer, s in self._op_self.items():
            totals[layer] += s * factor
        self._op_self.clear()

    def write(self, path) -> None:
        """Spans as JSON lines, in id order."""
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    sid, parent, layer, op, t0, t1 = span
                    fh.write(json.dumps({"id": sid, "parent": parent, "layer": layer,
                                         "op": op, "start": t0, "end": t1}) + "\n")
