"""Span recording around the public functions of navstack, from outside.

The tracer replaces each traced function in every navstack module that holds
it by name, so a call is seen wherever the caller looks the name up:
``stack`` imports ``integrate_scan`` by name, ``blocked_mask`` calls
``planning.inflate_occupied`` through its module globals, ``training`` calls
``world.raycast`` through the module attribute.  ``uninstall`` puts the
originals back.

Spans (name, start, end, parent) go into flat arrays in memory and are
written out once, after timing ends.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

# Traced public functions, by module.  Each becomes a span named
# "<module>.<function>".
LAYERS = {
    "world": ("spawn", "step", "raycast", "check_collision"),
    "mapping": ("integrate_scan", "frontier_cells", "map_entropy"),
    "planning": ("distance_field", "plan_path", "blocked_mask", "inflate_occupied", "extract_waypoint"),
    "exploration": ("should_reselect", "score_candidates", "select_exploration_point"),
    "policy": ("build_observation", "forward", "gate", "fuse"),
    "rewards": ("step_reward",),
    "training": ("rollout_lower",),
    "stack": ("run_episode",),
}

# Results some spans report besides their time: plan_path's None returns
# (wasted searches) and the number of candidates score_candidates returns.
OBSERVERS = {
    "planning.plan_path": lambda result: result is None,
    "exploration.score_candidates": len,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.observed: dict[str, float] = {}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        """Return ``fn`` recording one span per call under ``name``."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        observe = OBSERVERS.get(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._open
        observed = self.observed

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observed[name] = observed.get(name, 0.0) + observe(result)
            return result

        return traced

    def install(self) -> None:
        owners = {name: importlib.import_module(f"navstack.{name}") for name in LAYERS}
        modules = [m for key, m in sorted(sys.modules.items()) if key == "navstack" or key.startswith("navstack.")]
        for mod_name, funcs in LAYERS.items():
            owner = owners[mod_name]
            for func in funcs:
                original = getattr(owner, func)
                traced = self.wrap(original, f"{mod_name}.{func}")
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, original))
                            setattr(mod, key, traced)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived views -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict]:
        """Per span name: call count, durations (s) and self time (s).

        Self time is a span's duration minus the durations of its direct
        children; spans of one caller never overlap, so children cover
        disjoint parts of their parent.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = a["name_id"] == nid
            out[name] = {
                "calls": int(sel.sum()),
                "durations": dur[sel],
                "total": float(dur[sel].sum()),
                "self": float(self_time[sel].sum()),
                "root": float(dur[sel & ~has_parent].sum()),
            }
        return out

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
