"""Spans and counts around the public functions of Python modules.

:class:`Tracer` replaces every public function and method defined in a
set of modules with a wrapper that times the call and counts it, then
puts the originals back.  Nothing in the traced modules changes on disk
or knows it is traced.

Each wrapped function belongs to a *layer* (named after its module) and
to a *group* within the layer (the layer itself unless a classifier
splits it).  Per function the tracer keeps:

* ``calls``;
* ``self_ns``: the call's duration minus the time spent in wrapped
  calls it made;
* ``total_ns``: the call's full duration;
* ``outer_ns``: the full duration, but only for calls with no other call
  of the same group on the stack, so a group's ``outer_ns`` sum counts
  nested calls once.

Every call opens a span with an id and a parent.  A span is kept in
memory, with the id of the cell it ran in, when it lasts at least
``min_span_ns``; its parent lasts at least as long, so kept spans always
nest.  :meth:`write_spans` writes them out at the end.

Per-function hooks see each call's arguments and result, for counts that
need them (transactions per burst, bytes migrated, ...).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: ``hook(tracer, args, kwargs, result)``, called after a call returns.
Hook = Callable[["Tracer", tuple, dict, object], None]

#: Span record: (span id, parent id, cell id, function, start ns, end ns).
Span = Tuple[int, int, str, str, int, int]


class FuncStats:
    """Counts and times of one wrapped function."""

    __slots__ = ("layer", "group", "calls", "self_ns", "total_ns", "outer_ns")

    def __init__(self, layer: str, group: str):
        self.layer = layer
        self.group = group
        self.calls = 0
        self.self_ns = 0
        self.total_ns = 0
        self.outer_ns = 0


def _public_functions(module) -> Iterable[Tuple[object, str, object, Optional[type]]]:
    """(owner, attribute, function, class) for each public function or
    method defined in ``module``."""
    name = module.__name__
    for attr, obj in list(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != name:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, None
        elif inspect.isclass(obj):
            for method, value in list(vars(obj).items()):
                if method.startswith("_"):
                    continue
                if inspect.isfunction(value) or isinstance(
                    value, (staticmethod, classmethod)
                ):
                    yield obj, method, value, obj


class Tracer:
    """Installs span/count wrappers on modules; see the module docstring.

    ``layers`` maps a layer name to the modules it covers.  ``extra``
    names private functions to wrap as well, as ``(module, "Class.method")``
    or ``(module, "function")``.  ``classify(layer, cls, name)`` returns
    the group of a function (default: its layer).  ``scan_prefixes`` are
    the module-name prefixes whose globals are searched for references
    to wrapped module-level functions, so ``from x import f`` call sites
    are traced too.
    """

    def __init__(
        self,
        layers: Dict[str, Sequence[str]],
        extra: Sequence[Tuple[str, str]] = (),
        classify: Optional[Callable[[str, Optional[type], str], str]] = None,
        hooks: Optional[Dict[str, Hook]] = None,
        scan_prefixes: Sequence[str] = (),
        min_span_ns: int = 1_000_000,
    ):
        self.layers = {k: tuple(v) for k, v in layers.items()}
        self.extra = tuple(extra)
        self.classify = classify or (lambda layer, cls, name: layer)
        self.hooks = dict(hooks or {})
        self.scan_prefixes = tuple(scan_prefixes)
        self.min_span_ns = min_span_ns
        self.funcs: Dict[str, FuncStats] = {}
        #: Per-group count of calls currently on the stack.
        self.depth: Dict[str, int] = {}
        #: Free-form counters the hooks add to.
        self.counters: Dict[str, float] = {}
        self.spans: List[Span] = []
        self.cell = ""
        self._next_id = 1
        #: Open frames: [child_ns, span id].  The bottom frame is the root.
        self._stack: List[list] = [[0, 0]]
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # install / remove                                                   #
    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target function; :meth:`remove` undoes it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        # id(original module-level function) -> (original, wrapper)
        wrapped: Dict[int, Tuple[object, object]] = {}
        for layer, modules in self.layers.items():
            for modname in modules:
                module = importlib.import_module(modname)
                for owner, attr, value, cls in _public_functions(module):
                    self._patch(layer, modname, owner, attr, value, cls, wrapped)
        for modname, dotted in self.extra:
            module = importlib.import_module(modname)
            layer = self._layer_of(modname)
            owner: object = module
            cls = None
            *path, attr = dotted.split(".")
            for part in path:
                owner = cls = getattr(owner, part)
            value = vars(owner)[attr]
            self._patch(layer, modname, owner, attr, value, cls, wrapped)
        self._rebind_imports(wrapped)

    def remove(self) -> None:
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _layer_of(self, modname: str) -> str:
        for layer, modules in self.layers.items():
            if modname in modules:
                return layer
        raise KeyError(f"{modname} is in no traced layer")

    def _patch(self, layer, modname, owner, attr, value, cls, wrapped) -> None:
        qualname = f"{modname}:{cls.__name__ + '.' if cls else ''}{attr}"
        group = self.classify(layer, cls, attr)
        if isinstance(value, staticmethod):
            replacement: object = staticmethod(
                self._wrap(layer, group, qualname, value.__func__)
            )
        elif isinstance(value, classmethod):
            replacement = classmethod(
                self._wrap(layer, group, qualname, value.__func__)
            )
        else:
            replacement = self._wrap(layer, group, qualname, value)
            if cls is None:
                wrapped[id(value)] = (value, replacement)
        self._patches.append((owner, attr, value))
        setattr(owner, attr, replacement)

    def _rebind_imports(self, wrapped: Dict[int, Tuple[object, object]]) -> None:
        """Point ``from module import f`` references at the wrappers."""
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith(self.scan_prefixes):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, entry[1])

    # ------------------------------------------------------------------ #
    # the wrapper                                                        #
    # ------------------------------------------------------------------ #

    def _wrap(self, layer: str, group: str, qualname: str, fn):
        stats = self.funcs.get(qualname)
        if stats is None:
            stats = self.funcs[qualname] = FuncStats(layer, group)
        self.depth.setdefault(group, 0)
        depth = self.depth
        stack = self._stack
        spans = self.spans
        hook = self.hooks.get(qualname)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1]
            frame = [0, span_id]
            stack.append(frame)
            level = depth[group]
            depth[group] = level + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                depth[group] = level
                duration = end - start
                parent[0] += duration
                stats.calls += 1
                stats.self_ns += duration - frame[0]
                stats.total_ns += duration
                if not level:
                    stats.outer_ns += duration
                if duration >= tracer.min_span_ns:
                    spans.append(
                        (span_id, parent[1], tracer.cell, qualname, start, end)
                    )
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------------------ #
    # cells                                                              #
    # ------------------------------------------------------------------ #

    def run_cell(self, cell_id: str, fn: Callable[[], object]) -> Tuple[object, int]:
        """Run ``fn`` as cell ``cell_id``; returns (result, root self ns).

        The cell is a root span: every span opened inside it carries its
        id, and the root's self time is the part of the cell spent
        outside any wrapped call.
        """
        if len(self._stack) != 1:
            raise RuntimeError("cells do not nest")
        root = self._stack[0]
        span_id = self._next_id
        self._next_id += 1
        root[0] = 0
        root[1] = span_id
        self.cell = cell_id
        start = time.perf_counter_ns()
        try:
            result = fn()
        finally:
            end = time.perf_counter_ns()
            self.spans.append((span_id, 0, cell_id, "cell", start, end))
            self.cell = ""
            root[1] = 0
        return result, (end - start) - root[0]

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to the free-form counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + value

    def inside(self, group: str) -> bool:
        """Whether a call of ``group`` is on the stack."""
        return self.depth.get(group, 0) > 0

    # ------------------------------------------------------------------ #
    # results                                                            #
    # ------------------------------------------------------------------ #

    def write_spans(self, path: Path) -> None:
        """Write every kept span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, cell, name, start, end in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "cell": cell,
                            "name": name,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
