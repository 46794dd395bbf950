"""Per-layer tracing from outside the package.

`Tracer.install` rebinds each named public function in every `entswap` module
namespace that holds it, so calls through `measures.hermitian_eigenvalues` or
`cli.run_ensemble` are seen as well. Constructions of the `DensityMatrix` and
`PureState` dataclasses are timed by wrapping `__post_init__`. Spans stay in
memory as [name, start, end, parent, items]; self time is a span's duration
minus that of its direct children. A name missing from the package is listed
in `absent` and reported with zero counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

PACKAGE = "entswap"
LAYERS = {
    "linalg": ("hermitian_eigenvalues", "partial_trace", "DensityMatrix"),
    "rng": ("uniforms", "complex_normals", "categorical"),
    "states": ("haar_states", "PureState", "schmidt_pair"),
    "measures": ("report", "svn"),
    "swap": ("bbm_outcomes", "post_entropies", "special_case_probs", "predictability_probability"),
    "experiment": ("run_ensemble",),
    "cli": ("main", "build_parser"),
}
NAMES = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)

# Batch size of one call, read from its bound arguments.
BATCH = {
    "rng.uniforms": lambda a: a["count"],
    "rng.complex_normals": lambda a: a["count"],
    "rng.categorical": lambda a: len(a["u"]),
    "states.haar_states": lambda a: a["count"],
    "experiment.run_ensemble": lambda a: a["cfg"].shots,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        batch = BATCH.get(name)
        signature = inspect.signature(fn) if batch else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = None
            if batch is not None:
                try:
                    items = int(batch(signature.bind(*args, **kwargs).arguments))
                except (KeyError, TypeError, AttributeError):
                    pass
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, items]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for module_name, names in LAYERS.items():
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.absent += [f"{module_name}.{name}" for name in names]
                continue
            for name in names:
                key = f"{module_name}.{name}"
                target = module.__dict__.get(name)
                if target is None:
                    self.absent.append(key)
                elif isinstance(target, type):
                    hook = "__post_init__" if "__post_init__" in target.__dict__ else "__init__"
                    self._rebind(target, hook, self._wrap(key, target.__dict__[hook]))
                else:
                    wrapper = self._wrap(key, target)
                    for holder in modules:
                        for attr, value in list(vars(holder).items()):
                            if value is target:
                                self._rebind(holder, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self, first: int = 0) -> dict[str, dict[str, float]]:
        """calls, items and self_s per name over spans[first:], which must start at a top-level span."""
        spans = self.spans[first:]
        self_time = [s[2] - s[1] for s in spans]
        for s in spans:
            if s[3] >= 0:
                self_time[s[3] - first] -= s[2] - s[1]
        out = {name: {"calls": 0, "items": 0, "self_s": 0.0} for name in NAMES}
        for s, own in zip(spans, self_time):
            stats = out[s[0]]
            stats["calls"] += 1
            stats["items"] += s[4] or 0
            stats["self_s"] += own
        return out

    def write(self, path) -> None:
        """All spans as [name index, start_s, end_s, parent index] rows."""
        index = {name: i for i, name in enumerate(NAMES)}
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "names": list(NAMES),
            "absent": self.absent,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": [[index[s[0]], round(s[1] - t0, 9), round(s[2] - t0, 9), s[3]] for s in self.spans],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
