"""Spans around the public functions of each jshadow layer, from outside.

`Tracer.install` rebinds every reference to a traced function that the
jshadow modules hold (module attributes, values of module-level dicts such
as `sweeps.SWEEPS`, and class attributes) to a wrapper, and `uninstall`
puts the originals back.  No file of the program changes.

Each wrapper records a span (name, start, end, parent).  Spans are folded
into per-name aggregates as they close (calls, total time, self time =
duration minus the time covered by child spans), because a traced
`sweep all` opens millions of them; the first `SPAN_CAP` spans are also
kept whole and written out with `write_spans`.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

MODULES = ("_integers", "symbols", "padic", "imj", "jmaps", "sweeps", "cli")

# module -> public functions traced, named <layer>.<function>.  `cli._emit`
# is the report writer, traced as cli.emit.
FUNCTIONS = {
    "_integers": ("factorint", "is_prime"),
    "symbols": (
        "hilbert_reciprocity_check",
        "hilbert_symbol",
        "jacobi",
        "tame_symbol",
        "hilbert_oracle",
        "zolotarev_sign",
    ),
    "padic": ("embed", "padic_log", "teichmuller", "rezk_log_pi0", "smallest_topological_generator"),
    "imj": ("bernoulli", "k1_sphere_order", "surjectivity_check", "norm_identity_check", "k_finite_field"),
    "jmaps": ("j_tame_pi1", "adelic_norm_product"),
    "cli": ("build_parser", "run", "_emit"),
}

# (module, class, attribute) -> span name.  Place construction is counted
# through __post_init__, which every Place constructor runs.
METHODS = {("symbols", "Place", "__post_init__"): "symbols.Place"} | {
    ("padic", "PadicNumber", m): "padic.arith"
    for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "inv", "__pow__")
}

# Functions whose distinct first arguments are counted, to expose repeated work.
DISTINCT = ("integers.factorint", "padic.smallest_topological_generator")

SPAN_CAP = 100_000
_MARK = "__perfbench_span__"


def span_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function.lstrip('_')}"


class Tracer:
    """Aggregated spans of one traced pass."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT}
        self.sweep_checks: dict[str, int] = {}
        self.spans: list = []  # (name, start, end, parent index) for the first SPAN_CAP spans
        self.dropped_spans = 0
        self._stack: list[list] = []  # open spans: [span index, child time]
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn, sweep: str | None = None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack, spans = self._stack, self.spans
        distinct = self.distinct.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if distinct is not None:
                distinct.add((args, tuple(kwargs.items())))
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            else:
                index = -1
                tracer.dropped_spans += 1
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[1]
                parent = stack[-1][0] if stack else -1
                if stack:
                    stack[-1][1] += duration
                if index >= 0:
                    spans[index] = (name, start, end, parent)
            if sweep is not None:
                tracer.sweep_checks[sweep] = tracer.sweep_checks.get(sweep, 0) + result.checked
            return result

        setattr(wrapper, _MARK, name)
        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a jshadow module refers to it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = {m: importlib.import_module(f"jshadow.{m}") for m in MODULES}
        wrappers: dict[int, object] = {}
        for module, names in FUNCTIONS.items():
            for fn_name in names:
                fn = getattr(modules[module], fn_name)
                wrappers[id(fn)] = self._wrap(span_name(module, fn_name), fn)
        for sweep, fn in modules["sweeps"].SWEEPS.items():
            wrappers[id(fn)] = self._wrap(f"sweeps.{sweep}", fn, sweep=sweep)
        for module in all_modules():
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._restore.append((namespace, key, value))
                    namespace[key] = wrappers[id(value)]
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if id(v) in wrappers:
                            self._restore.append((value, k, v))
                            value[k] = wrappers[id(v)]
        for (module, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[module], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Put back every original, in reverse order of wrapping."""
        while self._restore:
            container, key, original = self._restore.pop()
            if isinstance(container, type):
                setattr(container, key, original)
            else:
                container[key] = original

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"dropped": self.dropped_spans, "spans": self.spans}, f)


def all_modules() -> list:
    """The jshadow package and every submodule it has loaded."""
    import sys

    return [m for name, m in sorted(sys.modules.items()) if name == "jshadow" or name.startswith("jshadow.")]


def leftover_wrappers() -> list[str]:
    """Every place in jshadow that still holds a wrapper, as readable paths."""
    found = []
    for module in all_modules():
        for key, value in vars(module).items():
            if hasattr(value, _MARK):
                found.append(f"{module.__name__}.{key}")
            elif isinstance(value, dict):
                found += [f"{module.__name__}.{key}[{k!r}]" for k, v in value.items() if hasattr(v, _MARK)]
            elif isinstance(value, type) and value.__module__ == module.__name__:
                found += [f"{module.__name__}.{key}.{a}" for a, v in vars(value).items() if hasattr(v, _MARK)]
    return found
