"""Timing spans around the library's public functions, installed from
outside the package.

A ``Tracer`` replaces every module binding of each traced function (the
defining module's own global, which is what intra-module calls resolve
through, and every ``from .x import f`` copy elsewhere in the package) with a
wrapper that records one span: name, parent span, start and end.  Spans stay
in memory; self time is a span's duration minus the durations of its direct
children.  ``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

#: traced functions, by module of definition
TRACED = {
    "chern": ("screen_2fano", "ch2_dot_invariant_surface", "divisor_dot_orbit"),
    "fan": ("wall_relation", "locate", "spans_cone", "validate", "is_projective"),
    "lattice": ("solve_integer_system", "express_in_basis", "has_nonnegative_kernel"),
    "primitive": ("primitive_collections", "primitive_relations", "relevant_collections"),
    "birational": ("is_contractible", "contract", "flip", "multi_flip"),
    "pipeline": ("run_step1", "detect_exceptional", "verify_output"),
    "certificate": ("build_certificate", "check_certificate"),
    "fanio": ("read_fan", "classify_file", "reconstruct_fan", "batch_classify"),
    "cli": ("main",),
}

#: spans whose (fan, wall) arguments are also recorded, for repeat ratios
KEYED = {"fan.wall_relation"}


def package_modules():
    """Every loaded module of the toricfans package."""
    return [m for name, m in sorted(sys.modules.items()) if name == "toricfans" or name.startswith("toricfans.")]


def reset_caches() -> None:
    """Empty every module-level function cache in the package, so that the
    next call starts as cold as in a fresh process."""
    for module in package_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.keys: dict[str, set] = {name: set() for name in KEYED}
        self._pinned: dict[int, object] = {}  # keeps keyed arguments alive, so ids stay unique

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = package_modules()
        for mod_name, funcs in TRACED.items():
            module = importlib.import_module(f"toricfans.{mod_name}")
            for func in funcs:
                original = getattr(module, func)
                wrapper = self._wrap(f"{mod_name}.{func}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        s_name, s_parent, s_start, s_end = self.span_name, self.span_parent, self.span_start, self.span_end
        keys = self.keys.get(name)
        pinned = self._pinned

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(s_name)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_end.append(0.0)
            if keys is not None:
                pinned[id(args[0])] = args[0]
                keys.add((id(args[0]), tuple(args[1])))
            stack.append(sid)
            s_start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[sid] = perf_counter()
                stack.pop()

        return wrapper

    # -- results -------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self seconds (and distinct keys where recorded)."""
        n = len(self.span_name)
        child = [0.0] * n
        for sid in range(n):
            parent = self.span_parent[sid]
            if parent >= 0:
                child[parent] += self.span_end[sid] - self.span_start[sid]
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            row = out[self.names[self.span_name[sid]]]
            row["calls"] += 1
            row["self_s"] += self.span_end[sid] - self.span_start[sid] - child[sid]
        for name, keys in self.keys.items():
            out[name]["distinct"] = len(keys)
        return out
