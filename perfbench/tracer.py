"""Outside-in tracing of ``obskit``: spans and counters from wrapped names.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` wraps
every public function defined in an ``obskit`` module and rebinds it under
the same name in every ``obskit`` module that holds it (the package
namespace included), so calls between modules are traced as well as calls
from the CLI.  A function's calls from inside its own module go through the
module global, which is rebound too.  Besides functions it wraps:

* ``SpectralSystem.__init__`` (construction and validation), as the span
  ``spectral.SpectralSystem``;
* ``__call__`` of every ``DecayFunction`` subclass, counted as
  ``decay.eval.calls`` (a counter, not a span: there are ~10⁵ calls a pass);
* ``numpy.linalg.eigh``/``eigvalsh`` and ``scipy.linalg.eigh``, counted as
  ``linalg.eigensolves`` with the largest order and Σ n³ (a computed, not a
  measured, flop figure);
* each item of ``parallel.ordered_map`` as a ``parallel.item`` span whose
  parent is the map's span, whichever thread runs it.

Spans stay in memory as ``(id, parent, name, start, end)`` tuples until
``aggregate`` turns them into calls, total and self time per name.  Self
time is a span's duration minus the part of its interval that its child
spans cover (children on worker threads can overlap each other).
``uninstall`` puts back every original object; ``snapshot``/``restored``
prove it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from collections import defaultdict

import numpy.linalg
import scipy.linalg

ROOT = 0  # parent id of a span that no traced call encloses


def obskit_modules(package) -> list:
    """The package and each of its public submodules."""
    names = sorted(m.name for m in pkgutil.iter_modules(package.__path__) if not m.name.startswith("_"))
    return [package] + [importlib.import_module(f"{package.__name__}.{name}") for name in names]


class Tracer:
    """Span recorder for one traced pass at a time."""

    def __init__(self, package):
        self.package = package
        self.modules = obskit_modules(package)
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._tallies: dict[str, itertools.count] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, parent: int | None, fn, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None:
            parent = stack[-1] if stack else ROOT
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def gauge_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def reset(self) -> None:
        """Forget recorded spans and counters."""
        self.spans = []
        self.counters = defaultdict(float)
        self.maxima = defaultdict(float)
        self._tallies = {}

    def counts(self) -> dict[str, float]:
        """Counters and tallies; reading a tally consumes it, so read once."""
        merged = dict(self.counters)
        for name, tally in self._tallies.items():
            merged[name] = merged.get(name, 0.0) + next(tally)
        return merged

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, after=None):
        """``name`` is a string or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            result = tracer._call(span, None, fn, args, kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def _ordered_map(self, original):
        tracer = self

        def traced_map(fn, items):
            items = list(items)
            parent = tracer._stack()[-1]  # this call's own parallel.ordered_map span
            tracer.count("parallel.ordered_map.items", len(items))

            def item(x):
                return tracer._call("parallel.item", parent, fn, (x,), {})

            return original(item, items)

        return self._span_wrapper("parallel.ordered_map", functools.wraps(original)(traced_map))

    def _counted(self, name: str, fn):
        # A lock-free tally for hot calls: next() on itertools.count is atomic.
        tally = self._tallies.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            next(tally)
            return fn(*args, **kwargs)

        return wrapper

    def _eigensolver(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            n = int(a.shape[-1])
            with tracer._lock:
                tracer.counters["linalg.eigensolves"] += 1
                tracer.counters["linalg.flops_computed"] += float(n) ** 3
                tracer.maxima["linalg.max_order"] = max(tracer.maxima["linalg.max_order"], n)
            return fn(a, *args, **kwargs)

        return wrapper

    def _function_wrapper(self, span: str, fn):
        if span == "parallel.ordered_map":
            return self._ordered_map(fn)
        if span == "scenarios.run_scenario":
            return self._span_wrapper(lambda cfg: f"scenarios.{cfg.scenario}", fn)
        after = {
            "coercivity.estimate_admissibility": lambda r, system, epsilon, lambda_grid: self.count(
                "coercivity.estimate_admissibility.grid_points", len(lambda_grid)
            ),
            "square.build_square_system": lambda r, *a, **k: self.gauge_max("square.modes", r.size),
            "report.bundle_to_json_text": lambda r, *a, **k: self.count(
                "report.bytes", len(r.encode("utf-8"))
            ),
            "parallel.worker_count": lambda r, *a, **k: self.gauge_max("parallel.workers", r),
        }.get(span)
        return self._span_wrapper(span, fn, after)

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def snapshot(self) -> dict:
        """Every attribute the tracer may rebind, by owner and name."""
        owners = self.modules + self._classes() + [numpy.linalg, scipy.linalg]
        return {id(owner): (owner, dict(vars(owner))) for owner in owners}

    @staticmethod
    def restored(before: dict) -> list[str]:
        """Names whose current object is not the one in ``before``."""
        changed = []
        for owner, attrs in before.values():
            now = vars(owner)
            changed += [
                f"{owner.__name__}.{k}"
                for k, v in attrs.items() if now.get(k) is not v
            ]
        return changed

    def _classes(self) -> list:
        """``SpectralSystem``, then each ``DecayFunction`` subclass with its own ``__call__``."""
        spectral = importlib.import_module(f"{self.package.__name__}.spectral")
        decay = importlib.import_module(f"{self.package.__name__}.decay")
        subclasses = [
            cls for cls in vars(decay).values()
            if inspect.isclass(cls) and issubclass(cls, decay.DecayFunction)
            and cls is not decay.DecayFunction and "__call__" in vars(cls)
        ]
        return [spectral.SpectralSystem] + subclasses

    def install(self) -> None:
        prefix = self.package.__name__ + "."
        for module in self.modules[1:]:
            short = module.__name__[len(prefix):]
            for name, fn in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self._function_wrapper(f"{short}.{name}", fn)
                for holder in self.modules:
                    if vars(holder).get(name) is fn:
                        self._patch(holder, name, wrapper)
        system_class, *decay_classes = self._classes()
        self._patch(system_class, "__init__", self._span_wrapper("spectral.SpectralSystem", system_class.__init__))
        for cls in decay_classes:
            self._patch(cls, "__call__", self._counted("decay.eval.calls", cls.__call__))
        for owner, attr in ((numpy.linalg, "eigh"), (numpy.linalg, "eigvalsh"), (scipy.linalg, "eigh")):
            self._patch(owner, attr, self._eigensolver(getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- aggregation -----------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end in self.spans:
            children[parent].append((start, end))
        table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for sid, _, name, start, end in self.spans:
            row = table[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - _covered(children.get(sid, ()), start, end)
        return dict(table)

    def top_level_s(self) -> float:
        """Summed duration of the spans that no traced call encloses."""
        return sum(end - start for _, parent, _, start, end in self.spans if parent == ROOT)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total
