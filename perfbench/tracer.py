"""Per-layer self time, measured by wrapping the program's public functions.

Nothing in ``ffsipp`` is edited: ``Tracer.install`` swaps each public entry
point of a layer for a timing wrapper wherever a module binds it (so
``from .landscape import enumerate_paths`` is caught too) and ``uninstall``
puts the originals back. Private helpers are never wrapped, so the layer
names survive refactors inside a module. A function that a later version
of the program removes is simply not wrapped.

A layer's self time is the time inside its wrapped calls minus the time of
wrapped calls they make. The wrappers' own bookkeeping is charged to no
layer; it shows up as ``trace_overhead_pct`` and in ``sim.self``.
"""
from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

BUILD = "optimizer.build"
WORSTCASE = "worstcase"
ASSEMBLE = "milp.assemble"
HIGHS = "highs"
DECODE = "optimizer.decode"
VERIFY = "milp.verify"
CONTROLLER = "controller"
WAKEUP = "optimizer.next_wakeup"
LAYERS = (BUILD, WORSTCASE, ASSEMBLE, HIGHS, DECODE, VERIFY, CONTROLLER, WAKEUP)

# layer -> (module, public attribute) pairs that enter it. milp.solve is
# HiGHS plus matrix assembly; the HiGHS part is the scipy call below it.
ENTRY_POINTS = {
    BUILD: (("ffsipp.optimizer", "build"), ("ffsipp.baseline", "build_baseline")),
    WORSTCASE: (
        ("ffsipp.worstcase", "remaining_structure"),
        ("ffsipp.worstcase", "remaining_duration"),
    ),
    ASSEMBLE: (("ffsipp.milp", "solve"),),
    HIGHS: (("scipy.optimize", "milp"),),
    VERIFY: (("ffsipp.milp", "verify"),),
    CONTROLLER: (("ffsipp.controller", "transform"), ("ffsipp.controller", "plan_actions")),
    WAKEUP: (("ffsipp.optimizer", "next_wakeup"),),
}
GAP_EPS = 1e-9


def _bindings(original):
    """Every (namespace, name) in the program's modules bound to ``original``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "ffsipp" or mod_name.startswith("ffsipp.")):
            continue
        for name, value in list(vars(mod).items()):
            if value is original:
                yield mod, name


def percentile(values, q: float) -> float:
    """Linearly interpolated percentile; 0 for no values."""
    return float(np.percentile(values, q)) if len(values) else 0.0


class _Patcher:
    """Swaps public functions for wrappers and restores them on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def install(self):
        raise NotImplementedError

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, target, name, make_wrapper):
        """Wrap ``target.name`` and every binding of it in the program."""
        original = vars(target).get(name)
        if original is None:
            return
        wrapper = make_wrapper(original)
        wrapper.__wrapped__ = original
        for ns, bound in [(target, name), *_bindings(original)]:
            if vars(ns).get(bound) is original:
                self._undo.append((ns, bound, original))
                setattr(ns, bound, wrapper)

    def _patch_entry_points(self, layer: str, make_wrapper):
        for mod_name, attr in ENTRY_POINTS[layer]:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            self._patch(mod, attr, make_wrapper)


class RoundClock(_Patcher):
    """Timestamps the start of every scheduling round (a top-level model
    build); nothing else is wrapped. Just before each round it runs
    ``probe`` (a callable returning seconds) and keeps its result, so a
    round's time, from ``starts[k]`` to ``probe_starts[k + 1]``, leaves the
    probe out."""

    def __init__(self, probe):
        super().__init__()
        self.starts: list[float] = []
        self.probe_starts: list[float] = []
        self.probes: list[float] = []
        self._probe = probe
        self._depth = 0

    def install(self):
        self._patch_entry_points(BUILD, self._stamped)

    def _stamped(self, fn):
        def wrapper(*args, **kwargs):
            if not self._depth:
                self.probe_starts.append(time.perf_counter())
                self.probes.append(self._probe())
                self.starts.append(time.perf_counter())
            self._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._depth -= 1

        return wrapper


@dataclass
class _Frame:
    layer: str
    child_s: float = 0.0


@dataclass(eq=False)
class Tracer(_Patcher):
    """Collects per-round layer self times and per-layer counters."""

    rounds: list[dict[str, float]] = field(default_factory=list)
    totals: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    highs_calls: list[tuple[int, float, int]] = field(default_factory=list)  # status, gap, nodes
    model_sizes: list[tuple[int, int, int]] = field(default_factory=list)  # vars, rows, nnz
    plans: int = 0
    plans_placing_nothing: int = 0
    decode_failed: int = 0
    verify_violations: int = 0
    fallbacks: int = 0
    enumerate_paths_calls: int = 0
    actions: int = 0
    _stack: list[_Frame] = field(default_factory=list)

    def __post_init__(self):
        _Patcher.__init__(self)

    def install(self):
        from ffsipp import landscape, optimizer

        for layer in ENTRY_POINTS:
            self._patch_entry_points(layer, lambda fn, layer=layer: self._timed(layer, fn))
        model_cls = getattr(optimizer, "FfsippModel", None)
        if model_cls is not None:
            self._patch(model_cls, "decode", lambda fn: self._timed(DECODE, fn))
        self._patch(landscape, "enumerate_paths", self._counted)

    # -- wrappers ----------------------------------------------------------

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            self.enumerate_paths_calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, layer: str, fn):
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            enter = clock()
            if layer == BUILD and not self._stack:
                self.rounds.append(dict.fromkeys(LAYERS, 0.0))
            outermost = all(f.layer != layer for f in self._stack)
            frame = _Frame(layer)
            self._stack.append(frame)
            result = None
            try:
                start = clock()
                result = fn(*args, **kwargs)
                stop = clock()
            except Exception:
                stop = clock()
                if layer == DECODE and outermost:
                    self.decode_failed += 1
                raise
            finally:
                self._stack.pop()
                self._charge(layer, (stop - start) - frame.child_s)
                if outermost and result is not None:
                    self._observe(layer, args, kwargs, result)
                if self._stack:
                    self._stack[-1].child_s += clock() - enter
            return result

        return wrapper

    def _charge(self, layer: str, seconds: float):
        self.totals[layer] += seconds
        if self.rounds:
            self.rounds[-1][layer] += seconds

    def _observe(self, layer, args, kwargs, result):
        if layer == HIGHS:
            self.highs_calls.append(
                (
                    int(result.status),
                    float(getattr(result, "mip_gap", 0.0) or 0.0),
                    int(getattr(result, "mip_node_count", 0) or 0),
                )
            )
            n_vars = len(args[0]) if args else len(kwargs["c"])
            rows = nnz = 0
            for con in kwargs.get("constraints") or ():
                rows += con.A.shape[0]
                nnz += con.A.nnz if hasattr(con.A, "nnz") else int(np.count_nonzero(con.A))
            self.model_sizes.append((n_vars, rows, nnz))
        elif layer == ASSEMBLE and result.values is None:
            self.fallbacks += 1
        elif layer == DECODE:
            self.plans += 1
            if not result.assignments:
                self.plans_placing_nothing += 1
        elif layer == VERIFY:
            self.verify_violations += len(result)
        elif layer == CONTROLLER and isinstance(result, list):
            self.actions += len(result)

    # -- summary -----------------------------------------------------------

    def metrics(self, wall_s: float, in_sim: bool) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        n = len(self.rounds)
        for layer in LAYERS:
            per_round = [r[layer] * 1000.0 for r in self.rounds]
            out[f"{layer}.ms_p50"] = (percentile(per_round, 50), "ms")
            out[f"{layer}.ms_p95"] = (percentile(per_round, 95), "ms")
            out[f"{layer}.share_pct"] = (100.0 * self.totals[layer] / wall_s, "%")
        layered = sum(self.totals.values())
        out["sim.self.share_pct"] = (100.0 * (wall_s - layered) / wall_s if in_sim else 0.0, "%")
        out["rounds"] = (float(n), "count")
        out["rounds_placing_nothing_pct"] = (
            100.0 * self.plans_placing_nothing / self.plans if self.plans else 0.0,
            "%",
        )
        nodes = [c[2] for c in self.highs_calls]
        out["highs.nodes_p50"] = (percentile(nodes, 50), "count")
        out["highs.nodes_p95"] = (percentile(nodes, 95), "count")
        gap_limited = sum(1 for s, gap, _ in self.highs_calls if s == 0 and gap > GAP_EPS)
        out["highs.gap_limited_pct"] = (
            100.0 * gap_limited / len(self.highs_calls) if self.highs_calls else 0.0,
            "%",
        )
        out["highs.time_limit_hits"] = (float(self.time_limit_hits), "count")
        out["optimizer.decode.failed"] = (float(self.decode_failed), "count")
        out["milp.verify.violations"] = (float(self.verify_violations), "count")
        out["sim.fallbacks"] = (float(self.fallbacks), "count")
        for i, key in enumerate(("vars", "rows", "nnz")):
            sizes = [s[i] for s in self.model_sizes]
            out[f"model.{key}_p50"] = (percentile(sizes, 50), "count")
            out[f"model.{key}_p95"] = (percentile(sizes, 95), "count")
        out["landscape.enumerate_paths.calls_per_round"] = (
            self.enumerate_paths_calls / n if n else 0.0,
            "count",
        )
        out["controller.actions_per_round"] = (self.actions / n if n else 0.0, "count")
        return out

    @property
    def time_limit_hits(self) -> int:
        # scipy's milp status 1: iteration or time limit reached.
        return sum(1 for s, _, _ in self.highs_calls if s == 1)
