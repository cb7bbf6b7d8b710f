"""Per-module spans around thetacob's public functions, installed from outside.

``Tracer.install()`` wraps every public module-level function of each
thetacob module, a few named methods (``GradedPoly.__mul__``,
``TruncSeries.revert``, ...) and the acceptance criteria, and rebinds the
wrapper wherever the original was bound: in every ``thetacob.*`` module
namespace (so ``genera.ln_apply`` is wrapped as well as
``landweber.ln_apply``), in class dictionaries (so ``__rmul__`` is wrapped
with ``__mul__``) and in ``acceptance.CHECKS``.  Nothing in the package is
edited.

A span is ``[id, name, start, end, parent_id, request_id, kernel_s]``,
where ``kernel_s`` is the time spent in aggregated kernels called directly
beneath it.  Hot kernels (``KERNELS``, and any name that passes
``SPAN_CAP`` spans in one request) are not recorded as spans: they keep
per-name counts and summed self time.  Everything beneath a kernel is
aggregated too, so a span never has a kernel as its parent.  Spans stay in
memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("core", "gradedring", "series", "symfun", "cobordism", "landweber",
           "genera", "lattices", "weierstrass", "acceptance", "cli")

# Named methods: span name -> (module, class, attribute).
METHODS = {
    "gradedring.add": ("gradedring", "GradedPoly", "__add__"),
    "gradedring.sub": ("gradedring", "GradedPoly", "__sub__"),
    "gradedring.mul": ("gradedring", "GradedPoly", "__mul__"),
    "gradedring.pow": ("gradedring", "GradedPoly", "__pow__"),
    "gradedring.substitute": ("gradedring", "GradedPoly", "substitute"),
    "series.add": ("series", "TruncSeries", "__add__"),
    "series.mul": ("series", "TruncSeries", "__mul__"),
    "series.pow": ("series", "TruncSeries", "__pow__"),
    "series.inv": ("series", "TruncSeries", "inv"),
    "series.compose": ("series", "TruncSeries", "compose"),
    "series.revert": ("series", "TruncSeries", "revert"),
    "series.exp": ("series", "TruncSeries", "exp"),
    "series.log": ("series", "TruncSeries", "log"),
    "series.bi_mul": ("series", "BiTruncSeries", "__mul__"),
    "landweber.tensor_mul": ("landweber", "TensorElement", "__mul__"),
}

# The per-point Weierstrass evaluators share one aggregate name.
EVAL_FUNCTIONS = ("wp", "wp_prime", "zeta_w", "sigma_w", "xi", "phi_eps")

# Module functions that are not layer work: the CLI front end is traced
# only through `main`, and `check` is the registry's decorator.
SKIP = {"cli": lambda name: name != "main", "acceptance": lambda name: name == "check"}

# Called up to ~10^6 times in one request: counted, never recorded as spans.
KERNELS = frozenset({
    "core.partition_union", "core.partition_factorial", "core.partitions_of",
    "core.splittings", "gradedring.add", "gradedring.sub", "gradedring.mul",
    "gradedring.t", "landweber.ln_on_generator", "landweber.intersection_class",
    "weierstrass.eval",
})

SPAN_CAP = 100_000


def _is_public_function(mod, attr: str, obj) -> bool:
    if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
        return False
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


def targets() -> dict[str, list]:
    """Span name -> the original callables, for every function the tracer wraps."""
    found: dict[str, list] = {}
    mods = {m: importlib.import_module(f"thetacob.{m}") for m in MODULES}
    for short, mod in mods.items():
        skip = SKIP.get(short, lambda name: False)
        for attr, obj in vars(mod).items():
            if _is_public_function(mod, attr, obj) and not skip(attr):
                name = "weierstrass.eval" if short == "weierstrass" and attr in EVAL_FUNCTIONS \
                    else f"{short}.{attr}"
                found.setdefault(name, []).append(obj)
    for criterion, fn in mods["acceptance"].CHECKS:
        for name in [n for n, objs in found.items() if fn in objs]:
            found[name].remove(fn)
            if not found[name]:
                del found[name]
        found[f"acceptance.{criterion}"] = [fn]
    for name, (short, cls, attr) in METHODS.items():
        found[name] = [vars(getattr(mods[short], cls))[attr]]
    return found


class Tracer:
    """Records spans and kernel counters for the calls made while installed."""

    def __init__(self, kernels=KERNELS, span_cap: int = SPAN_CAP):
        self.kernels = frozenset(kernels)
        self.span_cap = span_cap
        self.request_id = None
        self.spans: list[list] = []
        # name -> [calls, self_s, outer_calls, outer_s]; "outer" calls are
        # the ones not nested directly in a call of the same name.
        self.counters: dict[str, list] = {}
        self._stack: list[list] = []
        self._span_counts: dict[tuple, int] = {}
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for name, originals in targets().items():
            for fn in originals:
                wrappers[id(fn)] = self.wrap(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "thetacob" and not modname.startswith("thetacob."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._rebind(mod, attr, obj, wrappers[id(obj)])
                elif inspect.isclass(obj) and obj.__module__ == modname:
                    for cattr, cobj in list(vars(obj).items()):
                        if id(cobj) in wrappers:
                            self._rebind(obj, cattr, cobj, wrappers[id(cobj)])
        acceptance = sys.modules["thetacob.acceptance"]
        original_checks = list(acceptance.CHECKS)
        acceptance.CHECKS[:] = [(c, wrappers[id(fn)]) for c, fn in original_checks]
        self._patched.append((acceptance.CHECKS, None, original_checks))

    def _rebind(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if attr is None:
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- recording --------------------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return `fn` wrapped in a span (or kernel counter) called `name`."""
        tracer = self
        clock = time.perf_counter
        static_kernel = name in self.kernels

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            kernel = static_kernel or (parent is not None and parent[0] is None) \
                or tracer._over_cap(name)
            # frame: [span id or None for a kernel, kernel time beneath, name]
            frame = [None if kernel else tracer._new_id(), 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if kernel:
                    tracer._count(name, end - start, frame[1],
                                  outer=parent is None or parent[2] != name)
                    if parent is not None:
                        parent[1] += end - start
                else:
                    tracer.spans.append([frame[0], name, start, end,
                                         parent[0] if parent else None,
                                         tracer.request_id, frame[1]])

        return traced

    def _new_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _over_cap(self, name: str) -> bool:
        key = (self.request_id, name)
        n = self._span_counts.get(key, 0)
        self._span_counts[key] = n + 1
        return n >= self.span_cap

    def _count(self, name: str, dur: float, beneath: float, outer: bool) -> None:
        c = self.counters.get(name)
        if c is None:
            c = self.counters[name] = [0, 0.0, 0, 0.0]
        c[0] += 1
        c[1] += dur - beneath
        if outer:
            c[2] += 1
            c[3] += dur

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)
