"""Layer tracing from outside the program.

``Tracer.install`` replaces every public function of every loaded ``ucx``
module, wherever it is bound (a function imported into another module, or
re-exported by the package, is wrapped at each binding), plus the public
methods and ``__init__`` of classes defined in ``ucx``.  Each wrapper keeps
per-function aggregates in memory: call count, inclusive time and self
time (inclusive time minus the time of wrapped calls made inside it).
Work in private helpers therefore lands in the calling public function's
self time.  Generator functions are not wrapped, because a wrapper would
time only the creation of the generator; their work shows in the consumer.
Calls made through references captured at import time (dispatch tables,
default arguments) bypass the wrappers.  ``Tracer.remove`` restores every
binding.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("core", "spectral", "influence", "families", "verify", "familyfile", "extremal", "cli")

# metric -> (unit, better, definition); "total" sums inclusive seconds of the
# named functions, "calls" counts calls, "counter" reads a wrapper counter.
LAYER_METRICS = {
    "spectral.fwht_s": ("s", "lower", ("total", "spectral.fwht_rows")),
    "spectral.fwht_rows": ("count", "lower", ("counter", "fwht_rows")),
    "spectral.fwht_bytes_computed": ("B", "lower", ("counter", "fwht_bytes")),
    "spectral.transform_s": ("s", "lower", ("total", "spectral.transform")),
    "influence.pair_counts_s": ("s", "lower", ("total", "influence.pair_counts")),
    "influence.pair_counts_calls": ("count", "lower", ("calls", "influence.pair_counts")),
    "influence.profile_s": ("s", "lower", ("total", "influence.profile")),
    "families.is_union_closed_s": ("s", "lower", ("total", "families.is_union_closed")),
    "families.is_union_closed_calls": ("count", "lower", ("calls", "families.is_union_closed")),
    "families.roots_s": ("s", "lower", ("total", "families.roots")),
    "families.is_simply_rooted_s": ("s", "lower", ("total", "families.is_simply_rooted")),
    "families.duality_check_s": ("s", "lower", ("total", "families.duality_check")),
    "families.shadow_lemma_check_s": ("s", "lower", ("total", "families.shadow_lemma_check")),
    "families.theorem2_quantities_s": ("s", "lower", ("total", "families.theorem2_quantities")),
    "families.stats_s": ("s", "lower", ("total", "families.stats")),
    "core.members_s": ("s", "lower", ("total", "core.SetFamily.members")),
    "core.bitset_convert_s": ("s", "lower", ("total", "core.bits_to_bool", "core.bool_to_bits")),
    "core.setfamily_new": ("count", "lower", ("calls", "core.SetFamily.__init__")),
    "familyfile.parse_s": ("s", "lower", ("total", "familyfile.parse_family")),
    "familyfile.format_s": ("s", "lower", ("total", "familyfile.format_family")),
    "familyfile.bytes": ("B", "lower", ("counter", "familyfile_bytes")),
    "verify.union_closure_s": ("s", "lower", ("total", "verify.union_closure")),
    "extremal.nearest_dictator_s": ("s", "lower", ("total", "extremal.nearest_dictator")),
}
for _layer in LAYERS:
    LAYER_METRICS[f"{_layer}.self_s"] = ("s", "lower", ("self", _layer))


def _count_fwht(counters: dict, args, result) -> None:
    mat = args[0]
    rows, cols = mat.shape
    counters["fwht_rows"] += rows
    # each butterfly pass reads and writes the whole matrix once
    counters["fwht_bytes"] += 2 * mat.nbytes * max(cols.bit_length() - 1, 0)


def _count_parse(counters: dict, args, result) -> None:
    counters["familyfile_bytes"] += len(args[0])


def _count_format(counters: dict, args, result) -> None:
    counters["familyfile_bytes"] += len(result)


COUNTER_HOOKS = {
    "spectral.fwht_rows": _count_fwht,
    "familyfile.parse_family": _count_parse,
    "familyfile.format_family": _count_format,
}


def _layer_of(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _is_ucx(obj) -> bool:
    return getattr(obj, "__module__", "").partition(".")[0] == "ucx"


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, self s]
        self.counters = {"fwht_rows": 0, "fwht_bytes": 0, "familyfile_bytes": 0}
        self._stack: list[float] = []
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []

    def _wrapper(self, key: str, fn):
        cached = self._wrappers.get(id(fn))
        if cached is not None:
            return cached
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = COUNTER_HOOKS.get(key)
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(counters, args, result)
            return result

        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls) -> None:
        prefix = f"{_layer_of(cls.__module__)}.{cls.__qualname__}"
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            if isinstance(attr, (classmethod, staticmethod)):
                fn = attr.__func__
                if inspect.isfunction(fn) and not inspect.isgeneratorfunction(fn):
                    self._patch(cls, name, type(attr)(self._wrapper(f"{prefix}.{name}", fn)))
            elif inspect.isfunction(attr) and not inspect.isgeneratorfunction(attr):
                self._patch(cls, name, self._wrapper(f"{prefix}.{name}", attr))

    def install(self) -> None:
        """Wrap every public ucx function at every module binding."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "ucx" or name.startswith("ucx."))]
        classes = {}
        for module in modules:
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not _is_ucx(obj):
                    continue
                if isinstance(obj, type):
                    classes[id(obj)] = obj
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    key = f"{_layer_of(obj.__module__)}.{obj.__qualname__}"
                    self._patch(module, name, self._wrapper(key, obj))
        for cls in classes.values():
            self._wrap_class(cls)

    def remove(self) -> None:
        """Restore every binding replaced by ``install``."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)
        self._wrappers.clear()

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per pass of the workload's fixed work."""
        out = {}
        for metric, (_, _, (kind, *keys)) in LAYER_METRICS.items():
            if kind == "total":
                value = sum(self.stats.get(k, (0, 0.0, 0.0))[1] for k in keys)
            elif kind == "calls":
                value = sum(self.stats.get(k, (0, 0.0, 0.0))[0] for k in keys)
            elif kind == "counter":
                value = self.counters[keys[0]]
            else:  # self time of one layer
                prefix = keys[0] + "."
                value = sum(s[2] for k, s in self.stats.items() if k.startswith(prefix))
            out[metric] = value / passes
        return out

    def table(self) -> list[dict]:
        """Per-function aggregates, largest self time first."""
        rows = [
            {"function": key, "calls": s[0], "total_s": s[1], "self_s": s[2]}
            for key, s in self.stats.items()
            if s[0]
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
