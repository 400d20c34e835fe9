"""Outside-in tracer for the huacheck layers.

The tracer wraps the public functions of each package module from outside
the package: every module-level binding of a wrapped function is replaced,
not only the one in its home module, because several modules import
``wirtinger_hessian`` and ``sample_silov`` by name. Each call records a span
(name, start, end, parent) in memory; a few calls also add counts read from
their arguments. ``aggregate`` turns the spans into calls, busy time and
self time per span name.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time

# The package modules that are layers, in dependency order.
LAYERS = (
    "domains",
    "fields",
    "kernels",
    "operators",
    "hypergeom",
    "dirichlet",
    "embeddings",
    "report",
    "cli",
)


class Tracer:
    """Spans and counts of one traced campaign, kept in memory.

    Each wrapped call appends one [name, start, end, parent index] list to
    ``spans``, in start order; ``stack`` holds the indices of open spans.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()


def aggregate(spans):
    """Per span name: calls, busy_s and self_s.

    Self time is a span's duration minus the durations of its direct
    children; on one thread children nest inside the parent and do not
    overlap each other. Busy time is the union of a name's intervals: a span
    nested inside another span of the same name (recursion) adds nothing.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls = collections.Counter()
    busy = collections.defaultdict(float)
    self_s = collections.defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        calls[name] += 1
        self_s[name] += duration - child_time[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            busy[name] += duration
    return {
        name: {"calls": calls[name], "busy_s": busy[name], "self_s": self_s[name]}
        for name in calls
    }


def _bound_arguments(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


def wrap(tracer, fn, name, counter=None):
    """A traced stand-in for fn.

    ``name`` is the span name, or a callable of the bound arguments that
    returns it. ``counter`` maps the bound arguments to counts added under
    ``<span name>.<key>``.
    """
    bind = _bound_arguments(fn) if callable(name) or counter else None
    spans, stack, clock, counts = tracer.spans, tracer.stack, tracer.clock, tracer.counts

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = name
        if bind is not None:
            arguments = bind(args, kwargs)
            if callable(name):
                span = name(arguments)
            if counter is not None:
                for key, value in counter(arguments).items():
                    counts[f"{span}.{key}"] += value
        index = len(spans)
        spans.append([span, clock(), None, stack[-1] if stack else -1])
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index][2] = clock()
            stack.pop()

    return traced


def public_functions(module):
    """Functions defined in module whose names do not start with '_'."""
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not attr.startswith("_")
    }


class Installation:
    """Wrappers patched into every binding; ``restore`` undoes them."""

    def __init__(self, originals, patches):
        self.originals = originals  # id(original) -> original
        self._patches = patches  # (namespace object, attribute, original)

    def restore(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []


def install(tracer, package, special=None, extra=()):
    """Wrap the public functions of each layer module of ``package``.

    special maps "<module>.<function>" to ``wrap`` keyword arguments (name,
    counter); the span name defaults to "<module>.<function>". extra lists (owner, attribute, wrapper
    factory) triples for attributes that are not module functions, such as
    a method that is counted. Every binding of a wrapped function in any
    module of the package is replaced by the same wrapper.
    """
    special = special or {}
    prefix = package.__name__ + "."
    modules = [
        module
        for key, module in sorted(sys.modules.items())
        if module is not None and (key == package.__name__ or key.startswith(prefix))
    ]
    wrappers = {}
    originals = {}
    for layer in LAYERS:
        module = sys.modules[prefix + layer]
        for attr, fn in public_functions(module).items():
            qualified = f"{layer}.{attr}"
            options = {"name": qualified, **special.get(qualified, {})}
            wrappers[id(fn)] = wrap(tracer, fn, **options)
            originals[id(fn)] = fn
    patches = []
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in originals and originals[id(obj)] is obj:
                patches.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])
    for owner, attr, factory in extra:
        original = owner.__dict__[attr]
        patches.append((owner, attr, original))
        setattr(owner, attr, factory(original))
    return Installation(originals, patches)


def unpatched_bindings(installation, modules=None):
    """Module-level names that still refer to an original wrapped function.

    Scans every loaded module unless ``modules`` is given. A non-empty
    result means some caller would bypass the tracer.
    """
    if modules is None:
        modules = [m for m in list(sys.modules.values()) if m is not None]
    missed = []
    for module in modules:
        try:
            namespace = vars(module)
        except TypeError:
            continue
        for attr, obj in list(namespace.items()):
            if id(obj) in installation.originals and installation.originals[id(obj)] is obj:
                missed.append(f"{module.__name__}.{attr}")
    return sorted(missed)
