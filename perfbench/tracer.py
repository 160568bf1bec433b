"""Spans around qmetric's public functions, recorded from outside the program.

A span is a dict with ``name``, ``start``, ``end`` (``time.perf_counter``,
which is CLOCK_MONOTONIC and so comparable across processes on one host),
``parent`` (index of the enclosing span in the same list, or None) and a few
attributes measured at the call boundary. Spans stay in memory; the caller
writes them out as JSON lines when the run ends.

Wrappers are installed at every module attribute of the loaded qmetric
modules that is bound to the traced function, because callers look
functions up in their own namespace (``weyl`` calls ``operator_norm``
through ``qmetric.weyl.operator_norm``, not ``qmetric.linalg``).
"""

from __future__ import annotations

import functools
import json
import sys
import time


def _minkowski_attrs(args, kwargs, result):
    a, b = args[0], args[1]
    return {"candidates": int(a.cardinality) * int(b.cardinality),
            "kept": int(result.cardinality)}


def _lip_attrs(args, kwargs, result):
    w = args[0].window
    return {"group": int(w.p) ** (2 * int(w.n_sites))}


def _norm_attrs(args, kwargs, result):
    shape = getattr(args[0], "shape", ())
    return {"side": int(max(shape)) if shape else 0}


# traced functions, as "module.function", with the attributes each records
TARGETS = {
    "entropy.lattice_orbit_card": None,
    "entropy.minkowski_sum": _minkowski_attrs,
    "entropy.box_bound_card": None,
    "entropy.product_set": None,
    "nctorus.toral_map_apply": None,
    "nctorus.lip_bounds": None,
    "weyl.weyl_lip_norm": _lip_attrs,
    "weyl.weyl_expand": None,
    "weyl.conditional_expectation": None,
    "weyl.monomial_lip_norm": None,
    "linalg.operator_norm": _norm_attrs,
    "metricspace.box_dimension": None,
    "metricspace.greedy_spanning": None,
    "approxdim.dim_bracket": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.tags: dict = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, attrs=None):
        """Return ``fn`` wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = {"name": name, "start": time.perf_counter(), "end": None,
                   "parent": stack[-1] if stack else None, **self.tags}
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec["error"] = type(exc).__name__
                raise
            finally:
                rec["end"] = time.perf_counter()
                stack.pop()
            if attrs is not None:
                rec.update(attrs(args, kwargs, result))
            return result

        return wrapper

    def install(self, package: str = "qmetric") -> None:
        """Wrap every target at each attribute of a loaded module bound to it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == package or k.startswith(package + "."))]
        for target, attrs in TARGETS.items():
            mod_name, func_name = target.split(".")
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if original is None:
                self.absent.append(target)
                continue
            wrapped = self.span(target, original, attrs)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def read_spans(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
