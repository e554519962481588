"""Span tracing of the threestroke modules, installed from outside the package.

Every module of the package is a layer. The tracer wraps, in place, the
attributes through which callers reach a layer:

* public functions in the module that defines them;
* every name a module imported from another module of the package, public or
  private, under the namespace of the importing module, because a module binds
  imported names at import time (``cli.optimal_performance`` is a separate
  binding of ``engine.optimal_performance``);
* public methods and ``__post_init__`` of the package's classes, so every
  dataclass construction (``PopulationVector``, ``EngineParams``, ...) is a
  span of the layer that defines the class;
* a few private helpers whose time or counts are metrics (``_HOOKED``).

A span records calls, inclusive time and self time (inclusive time minus the
time of its child spans). Spans are aggregated in memory per wrapped symbol,
which keeps the cost bounded on workloads with millions of calls. The
wrappers are built once and swapped in and out around each traced operation,
so checks between operations run on the original code.

A wrapper costs time of its own: some of it falls inside its span's clock
window, the rest before and after it, where the caller's clock sees it. The
caller of ``charge`` gives the cost per span (traced minus untraced time of the
same operations, over the spans); a wrapped no-op, timed when the tracer is
built, gives the share that falls inside. ``stat`` and ``layers`` take both
parts out of every span's inclusive and self time, so these are the program's
times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import statistics
import time
import types

# Private helpers that are spans of their own: the CSV layer of the CLI and
# the grid kernel of the brute-force oracle.
_HOOKED = {"cli": ("_emit_csv",), "bath_oracle": ("_cycle_grid",)}

_COST_CALLS = 2_000  # wrapped no-op calls per round when measuring a wrapper's cost
_COST_ROUNDS = 51

_JC_DEFAULT_TIME_POINTS = 100_000  # documented default grid of jc_time_scan
_JC_WEIGHT_FLOOR = 1e-18  # manifolds with smaller thermal weight are dropped


def _jc_sin_evals(arguments: dict) -> int:
    """Time points times kept manifolds of one jc_time_scan call (computed)."""
    beta = float(arguments["beta_omega"])
    grid = arguments["time_grid"]
    points = _JC_DEFAULT_TIME_POINTS if grid is None else len(grid)
    truncation = int(arguments["truncation"])
    kept = sum(1 for n in range(truncation) if math.exp(-beta * n) > _JC_WEIGHT_FLOOR)
    return points * kept


def _grid_cells(arguments: dict) -> int:
    return len(arguments["lh"]) * len(arguments["lc"])


def _blocks(arguments: dict) -> int:
    return int(arguments["d"])


# Counters computed from the arguments of a wrapped call: span key -> (counter, function).
_COUNTERS = {
    "bath_oracle.jc_time_scan": ("bath_oracle.jc_time_scan.sin_evals", _jc_sin_evals),
    "bath_oracle._cycle_grid": ("bath_oracle.brute_force.cells", _grid_cells),
    "bath_oracle.simulate_finite_bath_map": ("bath_oracle.simulate.blocks", _blocks),
}


class SpanStat:
    __slots__ = ("layer", "calls", "total_ns", "self_ns", "children", "descendants")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.children = 0  # spans called directly from this one
        self.descendants = 0  # spans called from this one at any depth


class Tracer:
    """Wrappers for every layer boundary of a package, plus their statistics."""

    def __init__(self, package: types.ModuleType) -> None:
        self.package = package.__name__
        self.stats: dict[str, SpanStat] = {}
        self.counters: dict[str, int | None] = {name: 0 for name, _ in _COUNTERS.values()}
        self._stack: list[list[int]] = []
        self._wrappers: dict[int, object] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self.noop_inside_ns, self.noop_outside_ns = self._noop_cost()
        self.span_cost_ns = 0.0
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for module in modules:
            self._plan_module(module)

    # -- building the wrappers ---------------------------------------------

    def _noop_cost(self) -> tuple[int, int]:
        """Nanoseconds a wrapper adds inside and outside its own clock window.

        Measured on a wrapped no-op of two arguments: inside is the recorded
        span time minus the no-op's own call time, outside is the caller's time
        of the wrapped call minus the recorded span time. Rounds alternate the
        plain and the wrapped calls, and each part is the median over rounds,
        so a change of host speed during the measurement cancels.
        """
        def noop(a, b):
            return None

        stat = SpanStat("trace")
        wrapped = self._span(noop, stat)
        clock = time.perf_counter_ns
        calls = range(_COST_CALLS)
        inside, outside = [], []
        for _ in range(_COST_ROUNDS):
            start = clock()
            for _ in calls:
                noop(1, 2)
            raw = clock() - start
            stat.total_ns = 0
            start = clock()
            for _ in calls:
                wrapped(1, 2)
            outer = clock() - start
            inside.append((stat.total_ns - raw) / _COST_CALLS)
            outside.append((outer - stat.total_ns) / _COST_CALLS)
        return (round(max(0.0, statistics.median(inside))),
                round(max(0.0, statistics.median(outside))))

    def _layer(self, module_name: str) -> str | None:
        prefix = self.package + "."
        return module_name[len(prefix):] if module_name.startswith(prefix) else None

    def _plan_module(self, module: types.ModuleType) -> None:
        here = self._layer(module.__name__)
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj):
                layer = self._layer(obj.__module__)
                if layer is None:
                    continue
                own = obj.__module__ == module.__name__
                if own and name.startswith("_") and name not in _HOOKED.get(layer, ()):
                    continue
                key = f"{layer}.{obj.__name__}"
                self._patches.append((module, name, obj, self._wrap(obj, key, layer)))
            elif inspect.isclass(obj) and obj.__module__ == module.__name__ and here:
                self._plan_class(obj, here)

    def _plan_class(self, cls: type, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name != "__post_init__" and name.startswith("_"):
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, f"{layer}.{cls.__name__}.{name}", layer))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(raw, f"{layer}.{cls.__name__}.{name}", layer)
            else:
                continue
            self._patches.append((cls, name, raw, wrapped))

    def _wrap(self, fn, key: str, layer: str):
        existing = self._wrappers.get(id(fn))
        if existing is None:
            stat = self.stats.setdefault(key, SpanStat(layer))
            existing = self._wrappers[id(fn)] = self._span(fn, stat, _COUNTERS.get(key))
        return existing

    def _span(self, fn, stat: SpanStat, counter=None):
        stack = self._stack
        clock = time.perf_counter_ns
        signature = inspect.signature(fn) if counter else None
        counters = self.counters

        def count(args, kwargs) -> None:
            name, compute = counter
            if counters[name] is None:
                return
            try:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counters[name] += compute(bound.arguments)
            except (TypeError, ValueError, KeyError):
                counters[name] = None  # the signature changed: report as missing

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                count(args, kwargs)
            frame = [0, 0, 0]  # time of child spans, their number, number of descendants
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat.calls += 1
                stat.total_ns += elapsed
                stat.self_ns += elapsed - frame[0]
                stat.children += frame[1]
                stat.descendants += frame[2]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
                    parent[2] += 1 + frame[2]

        return traced

    # -- using them ----------------------------------------------------------

    def install(self) -> None:
        for owner, name, _, wrapped in self._patches:
            setattr(owner, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def call(self, key: str, layer: str, fn, *args, **kwargs):
        """Run fn inside a span of its own, for the benchmark's glue around an op."""
        stat = self.stats.setdefault(key, SpanStat(layer))
        return self._span(fn, stat)(*args, **kwargs)

    def spans(self) -> int:
        return sum(stat.calls for stat in self.stats.values())

    def charge(self, cost_ns: float) -> None:
        """Set the tracer's cost per span, taken out of the times stat and layers report."""
        self.span_cost_ns = max(0.0, cost_ns)

    def stat(self, key: str) -> SpanStat | None:
        """Statistics of one wrapped symbol, without the tracer's cost; None when the
        symbol does not exist."""
        raw = self.stats.get(key)
        if raw is None:
            return None
        noop = self.noop_inside_ns + self.noop_outside_ns
        inside = self.span_cost_ns * (self.noop_inside_ns / noop if noop else 0.0)
        outside = self.span_cost_ns - inside
        stat = SpanStat(raw.layer)
        stat.calls, stat.children, stat.descendants = raw.calls, raw.children, raw.descendants
        stat.total_ns = raw.total_ns - raw.calls * inside - raw.descendants * self.span_cost_ns
        stat.self_ns = raw.self_ns - raw.calls * inside - raw.children * outside
        return stat

    def layers(self) -> dict[str, SpanStat]:
        """Calls and self time summed per layer (total_ns is left at 0)."""
        out: dict[str, SpanStat] = {}
        for stat in map(self.stat, self.stats):
            layer = out.setdefault(stat.layer, SpanStat(stat.layer))
            layer.calls += stat.calls
            layer.self_ns += stat.self_ns
        return out
