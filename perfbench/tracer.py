"""Per-layer spans around the calls into rodvec's modules.

The tracer replaces each public function of a layer, each public class's
constructor and each public method with a wrapper.  A call that enters a
layer from another layer (or from the benchmark) records a span: layer,
name, start, end and the enclosing span.  A call within the layer it is
already in records none and counts as part of the enclosing span, so
``<layer>.calls`` counts calls into the layer.  A layer's self time is its
spans' time minus the time of the spans they enclose.  The wrappers
are installed from here, so the program's own files stay untouched, and
removed again by :meth:`Tracer.uninstall`.

Methods reached through ``property`` and dunder methods other than
``__init__`` are not wrapped: their time counts to the layer that calls
them.  Private helpers (leading underscore) count to their caller, which
is always in their own layer.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

#: Layer name -> module.  ``kernels`` is whichever backend ``_backend`` chose.
LAYER_MODULES = {
    "cli": "rodvec.cli",
    "kinematics": "rodvec.kinematics",
    "composition": "rodvec.composition",
    "cayley": "rodvec.cayley",
    "core": "rodvec.core",
    "geometry": "rodvec.geometry",
    "checks": "rodvec.checks",
    "kernels": None,
}
LAYERS = tuple(LAYER_MODULES)

#: Layers between the CLI and the kernels; their self time over the
#: kernels' self time is ``kernels.wrapper_ratio``.
TYPED_LAYERS = ("kinematics", "composition", "cayley", "core", "geometry")

#: 1 + trace(R) above this means R is not a half-turn up to rounding.
SNAP_TRACE_SLACK = 1e-12


class Tracer:
    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: spans recorded while ``record`` is True:
        #: (id, parent id, op, layer, name, start ns, end ns)
        self.spans: list[tuple] = []
        self.record = False
        self.op = 0
        self._stack: list[list] = []  # [span id, child ns, name, layer]
        self._next_id = 0
        self._undo: list = []
        self._halfturn = None

    # ----------------------------------------------------------- wrappers

    def _wrap(self, layer: str, name: str, fn, observe=None):
        clock = time.perf_counter_ns
        stack = self._stack
        self_ns, calls, spans = self.self_ns, self.calls, self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if parent is not None and parent[3] == layer:
                # a call within the layer is part of the enclosing span
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            frame = [span_id, 0, name, layer]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                self_ns[layer] += elapsed - frame[1]
                calls[layer] += 1
                if parent is not None:
                    parent[1] += elapsed
                if tracer.record:
                    spans.append((span_id, parent[0] if parent else None, tracer.op, layer, name, start, end))
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ----------------------------------------------------------- install

    def install(self) -> None:
        """Wrap every layer's public functions, constructors and methods."""
        import rodvec._backend as backend
        from rodvec.core import HalfTurn

        self._halfturn = HalfTurn
        modules = {
            layer: (backend.kernels if name is None else importlib.import_module(name))
            for layer, name in LAYER_MODULES.items()
        }
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for name in _public_names(mod):
                obj = getattr(mod, name)
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if id(obj) not in replaced:
                        replaced[id(obj)] = self._wrap(layer, f"{layer}.{name}", obj, self._observer(layer, name))
        if backend.backend_name.__module__ == backend.__name__:
            replaced[id(backend.backend_name)] = self._wrap("kernels", "kernels.backend_name", backend.backend_name)
        # rebind every reference held by a rodvec module namespace, so calls
        # through ``from x import f`` names are traced as well
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("rodvec"):
                continue
            for key, value in list(vars(mod).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, value))

    def _wrap_class(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name != "__init__" and name.startswith("_"):
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                new = type(attr)(self._wrap(layer, qual, attr.__func__))
            elif inspect.isfunction(attr):
                new = self._wrap(layer, qual, attr, self._observer(layer, f"{cls.__name__}.{name}", cls))
            else:
                continue
            setattr(cls, name, new)
            self._undo.append((cls, name, attr))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # ----------------------------------------------------------- counters

    def _observer(self, layer: str, name: str, cls=None):
        counts = self.counts
        if layer == "core" and name.endswith(".__init__"):
            validated = hasattr(cls, "__post_init__")
            is_rotation = name == "RotationMatrix.__init__"

            def observe(args, result):
                if validated:
                    counts["core.validations"] += 1
                if is_rotation:
                    counts["core.so3_checks"] += 1

            return observe
        if layer == "cayley" and name == "rodrigues_from_matrix":

            def observe(args, result):
                e = args[0].elements
                if isinstance(result, self._halfturn) and 1.0 + e[0] + e[4] + e[8] > SNAP_TRACE_SLACK:
                    counts["cayley.halfturn_snaps"] += 1

            return observe
        if layer == "composition" and name in ("compose", "compose_general"):
            general = name == "compose_general"

            def observe(args, result):
                # compose_general hands regular pairs to compose, which
                # counts them; it counts only what its matrix route returns
                if general and not any(isinstance(a, self._halfturn) for a in args[:2]):
                    return
                if general:
                    counts["composition.matrix_route"] += 1
                if isinstance(result, self._halfturn):
                    counts["composition.halfturn_results"] += 1

            return observe
        return None


def _public_names(mod) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)
