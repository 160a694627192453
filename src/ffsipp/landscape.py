"""Domain model: services, VM types, workflow trees, process instances.

All times are integer milliseconds internally; scenario files use seconds
and are converted exactly on parse.
"""
from __future__ import annotations

import functools
import re as _re
import sys
from dataclasses import dataclass, field
from typing import ClassVar

import yaml

PENDING = "pending"
RUNNING = "running"
DONE = "done"
SKIPPED = "skipped"

STEP = "step"
SEQUENCE = "sequence"
AND_BLOCK = "and_block"
XOR_BLOCK = "xor_block"
REPEAT_LOOP = "repeat_loop"

DEFAULT_LOOP_REPETITIONS = 3


class ScenarioError(ValueError):
    """Raised for malformed or inconsistent scenario configurations."""


def ms(seconds: float) -> int:
    return int(round(seconds * 1000))


@dataclass(frozen=True)
class ServiceType:
    id: str
    cpu_demand: float  # percent of one core (mean)
    ram_demand: float
    duration_ms: int  # mean service makespan
    image_pull_ms: int
    container_start_ms: int


@dataclass(frozen=True)
class VmType:
    id: str
    cpu_supply: float  # cores * 100 percent
    ram_supply: float
    btu_ms: int
    cost_per_btu: float
    startup_ms: int
    pool_limit: int | None  # None = unbounded (public cloud)


@dataclass
class WorkflowNode:
    kind: str
    children: list["WorkflowNode"] = field(default_factory=list)
    service: str | None = None  # steps only
    repetitions: int | None = None  # loops only
    node_id: int = -1  # assigned by ProcessModel
    step_index: int = -1  # steps only, assigned by ProcessModel


@dataclass
class ProcessModel:
    id: int
    root: WorkflowNode
    nodes: list[WorkflowNode] = field(init=False, repr=False)  # pre-order, by node_id
    step_nodes: list[WorkflowNode] = field(init=False, repr=False)  # by step_index

    def __post_init__(self):
        self.nodes = list(_iter_nodes(self.root))
        self.step_nodes = [node for node in self.nodes if node.kind == STEP]
        for i, node in enumerate(self.nodes):
            node.node_id = i
        for i, node in enumerate(self.step_nodes):
            node.step_index = i

    @functools.cached_property
    def paths(self) -> "PathDecomposition":
        """``enumerate_paths(self)``, computed once per model."""
        return enumerate_paths(self)


@dataclass
class StepState:
    service: str
    status: str = PENDING
    cpu_demand: float = 0.0
    ram_demand: float = 0.0
    expected_ms: int = 0
    # Only the benchmark's snapshot generator writes these four; nothing in
    # ffsipp reads them (ROADMAP item 17(b) drops them).
    assigned_vm: str | None = None
    remaining_ms: int | None = None
    scheduled_at: int | None = None
    runs: int = 0


@dataclass
class ProcessInstance:
    id: int
    model: ProcessModel
    arrival_ms: int
    deadline_ms: int
    penalty_rate: float  # planning penalty cost per ms of (worst-case) delay
    steps: list[StepState]
    xor_choices: dict[int, int] = field(default_factory=dict)  # node_id -> branch
    loop_iters_done: dict[int, int] = field(default_factory=dict)
    loop_planned: dict[int, int] = field(default_factory=dict)  # runtime iterations
    finished_ms: int | None = None

    def __post_init__(self):
        if self.deadline_ms <= self.arrival_ms:
            raise ScenarioError(f"instance {self.id}: deadline before arrival")
        if self.penalty_rate < 0:
            raise ScenarioError(f"instance {self.id}: negative penalty rate")

    @property
    def done(self) -> bool:
        return all(s.status in (DONE, SKIPPED) for s in self.steps)


def make_instance(
    model: ProcessModel,
    services: dict[str, ServiceType],
    iid: int,
    arrival_ms: int,
    deadline_ms: int,
    penalty_rate: float,
    step_cpu: list[float] | None = None,
    step_durations_ms: list[int] | None = None,
    loop_iterations: dict[int, int] | None = None,
) -> ProcessInstance:
    """Instantiate a model. Demands/durations default to the catalog means;
    the simulator passes sampled values instead."""
    steps = []
    for i, node in enumerate(model.step_nodes):
        svc = services[node.service]
        steps.append(
            StepState(
                service=node.service,
                cpu_demand=step_cpu[i] if step_cpu else svc.cpu_demand,
                ram_demand=svc.ram_demand,
                expected_ms=step_durations_ms[i] if step_durations_ms else svc.duration_ms,
            )
        )
    inst = ProcessInstance(
        id=iid,
        model=model,
        arrival_ms=arrival_ms,
        deadline_ms=deadline_ms,
        penalty_rate=penalty_rate,
        steps=steps,
    )
    for node_id, _, reps in model.paths.loops:
        inst.loop_iters_done[node_id] = 0
        inst.loop_planned[node_id] = (loop_iterations or {}).get(node_id, reps)
    return inst


def _iter_nodes(node: WorkflowNode):
    yield node
    for child in node.children:
        yield from _iter_nodes(child)


# ---------------------------------------------------------------------------
# Structural queries


@dataclass
class PathDecomposition:
    """A model's top-level sequence in order, one (node_id, kind, step lists,
    repetitions) item per entry: a lone step is one list of one step, an
    AND/XOR block one list per branch, a loop one list (its body) repeated at
    most ``repetitions`` times (1 for the others). Nothing sits deeper, so
    every step occupies exactly one position."""

    items: list[tuple[int, str, list[list[int]], int]]

    @functools.cached_property
    def blocks(self) -> list[tuple[int, list[list[int]]]]:
        """AND and XOR blocks in sequence order: (node_id, step lists per branch)."""
        return [(n, lists) for n, kind, lists, _ in self.items if kind in (AND_BLOCK, XOR_BLOCK)]

    @functools.cached_property
    def loops(self) -> list[tuple[int, list[int], int]]:
        """(node_id, body steps, maximum repetitions) per loop."""
        return [(n, lists[0], reps) for n, kind, lists, reps in self.items if kind == REPEAT_LOOP]


def enumerate_paths(model: ProcessModel) -> PathDecomposition:
    """The model's decomposition, read off the tree ``parse_structure`` builds:
    a top-level step is its own one list, and each branch or loop body is one
    step or a sequence of steps."""
    items = []
    for node in model.root.children:
        lists = [[n.step_index for n in b.children or [b]] for b in node.children or [node]]
        items.append((node.node_id, node.kind, lists, node.repetitions or 1))
    return PathDecomposition(items)


def _frontier(inst: ProcessInstance) -> tuple[list[list[int]], list[int]]:
    """The step lists of the first top-level item with a step neither done
    nor skipped or, if that item is an XOR block whose branch is not chosen
    yet, its node id instead."""
    for node_id, kind, lists, _ in inst.model.paths.items:
        for steps in lists:
            for i in steps:
                if inst.steps[i].status not in (DONE, SKIPPED):
                    if kind == XOR_BLOCK and node_id not in inst.xor_choices:
                        return [], [node_id]
                    return lists, []
    return [], []


def next_steps(inst: ProcessInstance) -> set[int]:
    """Step indices whose structural predecessors are all done (J*): the
    pending head of each list of the first unfinished top-level item."""
    ready = set()
    for steps in _frontier(inst)[0]:
        for i in steps:
            if inst.steps[i].status != DONE:
                if inst.steps[i].status == PENDING:
                    ready.add(i)
                break
    return ready


def pending_xor_choices(inst: ProcessInstance) -> list[int]:
    """Enabled XOR blocks whose branch has not been chosen yet: at most one,
    in sequence order."""
    return _frontier(inst)[1]


def apply_xor_choice(inst: ProcessInstance, node_id: int, branch: int):
    """Record a branch choice and mark the other branches' steps skipped."""
    inst.xor_choices[node_id] = branch
    (branches,) = [lists for nid, lists in inst.model.paths.blocks if nid == node_id]
    for b, steps in enumerate(branches):
        if b != branch:
            for i in steps:
                inst.steps[i].status = SKIPPED


def advance_loops(inst: ProcessInstance) -> list[tuple[int, list[int]]]:
    """Start the next iteration of any loop whose body just completed.

    Returns (loop node id, reset step indices) per restarted loop so the
    simulator can resample durations for the new iteration.
    """
    restarted: list[tuple[int, list[int]]] = []
    for node_id, body, _ in inst.model.paths.loops:
        done_iters = inst.loop_iters_done[node_id] + 1
        body_done = all(inst.steps[i].status == DONE for i in body)
        if done_iters >= inst.loop_planned[node_id] or not body_done:
            continue
        inst.loop_iters_done[node_id] = done_iters
        for i in body:
            inst.steps[i].status = PENDING
        restarted.append((node_id, list(body)))
    return restarted


def _critical_path(model: ProcessModel, services: dict[str, ServiceType]) -> tuple[float, int]:
    """(mean service seconds, deployment overhead ms) along the path with the
    longest mean service time: the sequence sums, AND/XOR take the (first)
    longest branch, loops multiply by their maximum repetitions."""
    secs, overhead = 0, 0
    for _, _, lists, reps in model.paths.items:
        best = None
        for steps in lists:
            branch_secs, branch_overhead = 0, 0
            for i in steps:
                svc = services[model.step_nodes[i].service]
                branch_secs += svc.duration_ms / 1000.0
                branch_overhead += svc.image_pull_ms + svc.container_start_ms
            if best is None or branch_secs > best[0]:
                best = branch_secs, branch_overhead
        secs += reps * best[0]
        overhead += reps * best[1]
    return secs, overhead


def average_makespan(model: ProcessModel, services: dict[str, ServiceType]) -> float:
    """Service-time-only makespan in seconds using mean durations; VM and
    container overheads are excluded."""
    return _critical_path(model, services)[0]


def critical_path_overhead_ms(
    model: ProcessModel, services: dict[str, ServiceType], startup_ms: int
) -> int:
    """Expected one-off deployment overheads along the makespan-critical path:
    one VM startup for the instance plus pull + container start per step."""
    return startup_ms + _critical_path(model, services)[1]


# ---------------------------------------------------------------------------
# Scenario parsing


@dataclass(frozen=True)
class ArrivalSpec:
    kind: str  # "constant" | "pyramid"
    interval_ms: int
    batch_models: tuple[tuple[int, ...], ...] | None
    total_requests: int


@dataclass(frozen=True)
class SlaSpec:
    factor: float
    penalty_policy: str  # "fraction" (per 10% of SLA window) | "per_10s"
    planning_rate_per_s: float  # the round model's price of one second of lateness


@dataclass(frozen=True)
class Weights:
    dl_per_ms: float
    d_per_ms: float
    f_cpu: float
    f_ram: float
    z: float


@dataclass(frozen=True)
class OptimizerConfig:
    """The settings of every round's model and solve."""

    weights: Weights
    epsilon_ms: int  # optimization period
    fresh_candidates: int  # fresh VMs offered per type
    # HiGHS's mip_rel_gap, milp.solve's default: every round is solved to a
    # proven optimum. Only perfbench/ still passes it; ROADMAP item 17(b)
    # drops it.
    gap_tol: ClassVar[float] = 0.0
    # No wall-clock limit decides a plan; ROADMAP item 17(b) drops this.
    time_limit_ms: ClassVar[None] = None

    @classmethod
    def from_scenario(cls, sc: "Scenario") -> "OptimizerConfig":
        """``sc.config``. Only ``perfbench/snapshots.py`` still calls this;
        ROADMAP item 17(b) drops it once that caller reads ``sc.config``."""
        return sc.config


@dataclass
class Scenario:
    services: dict[str, ServiceType]
    vm_types: dict[str, VmType]
    models: list[ProcessModel]
    arrival: ArrivalSpec
    sla: SlaSpec
    config: OptimizerConfig


_STRUCTURE_TOKEN = _re.compile(r"\s*((?i:AND|XOR|LOOP(?:\*\d+)?)|s|[(),|]|\Z)")
_BLOCK_KINDS = {"AND": AND_BLOCK, "XOR": XOR_BLOCK, "LOOP": REPEAT_LOOP}


def parse_structure(text: str) -> WorkflowNode:
    """Parse the compact workflow grammar into the model's top-level sequence.

    The sequence is items joined by ``,``. An item is a step ``s``, an
    ``AND(...)`` or ``XOR(...)`` split/merge block with ``|``-separated
    branches, or ``LOOP*n(...)``, whose body runs at most n times (default
    3). Every branch and loop body is steps joined by ``,``: a block or loop
    there is refused at its token. Whitespace may sit between any tokens and
    at either end.
    """
    pos = 0

    def take(*expected: str) -> str:
        """The next token, ``''`` at the end; refused unless it is one of ``expected``."""
        nonlocal pos
        m = _STRUCTURE_TOKEN.match(text, pos)
        if not m:
            raise ScenarioError(f"bad workflow structure near {text[pos:pos + 12]!r}")
        tok = m.group(1)
        if expected and tok not in expected:
            raise refused(tok)
        pos = m.end()
        return tok

    def refused(tok: str) -> ScenarioError:
        if not tok:
            return ScenarioError("bad workflow structure: unexpected end")
        return ScenarioError(f"bad workflow structure at token {tok!r}")

    def sequence(nested: bool, *end: str) -> tuple[list[WorkflowNode], str]:
        """Items joined by ``,`` (steps only if ``nested``) and the token after them."""
        nodes = [item(nested)]
        while (tok := take(",", *end)) == ",":
            nodes.append(item(nested))
        return nodes, tok

    def item(nested: bool) -> WorkflowNode:
        """A step or, unless ``nested``, a block or loop."""
        tok = take()
        if tok == "s":
            return WorkflowNode(STEP)
        kind = _BLOCK_KINDS.get(tok[:4].upper())
        if kind is None:
            raise refused(tok)
        if nested:
            what = "loop" if kind == REPEAT_LOOP else "block"
            raise ScenarioError(f"a {what} inside a block or loop is not supported")
        reps = None
        if kind == REPEAT_LOOP:
            digits = tok[5:] or str(DEFAULT_LOOP_REPETITIONS)
            # The simulator draws iterations from [1, reps] as an int64, and
            # int() refuses a string of over 4300 digits with a bare ValueError.
            reps = int(digits) if len(digits) < 20 else 2**63
            if not 1 <= reps < 2**63:
                raise ScenarioError(f"loop repetitions must be >= 1 and < 2**63, got {digits}")
        take("(")
        end = (")",) if kind == REPEAT_LOOP else (")", "|")
        branches, tok = [], "|"
        while tok == "|":
            steps, tok = sequence(True, *end)
            branches.append(steps[0] if len(steps) == 1 else WorkflowNode(SEQUENCE, steps))
        return WorkflowNode(kind, branches, repetitions=reps)

    return WorkflowNode(SEQUENCE, sequence(False, "")[0])


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a YAML scenario configuration."""
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"malformed scenario file: {exc}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("malformed scenario file: expected a mapping")
    _known("scenario", raw, _SCENARIO_KEYS)

    btu_ms = _ms("btu_seconds", raw.get("btu_seconds", 300), positive=True)
    epsilon_ms = _number("epsilon_ms", raw.get("epsilon_ms", 2000), int, low=1)

    services: dict[str, ServiceType] = {}
    for where, entry in _entries(
        raw, "services", ("name", "duration_s"), ("cpu", "ram", "pull_s", "start_s")
    ):
        cpu = _number(f"{where}.cpu", entry.get("cpu", 0.0), low=0)
        ram = _number(f"{where}.ram", entry.get("ram", 0.0), low=0)
        if cpu <= 0 and ram <= 0:
            raise ScenarioError(f"{where}.cpu or {where}.ram must be > 0, got {cpu:g} and {ram:g}")
        svc = ServiceType(
            id=str(entry["name"]),
            cpu_demand=cpu,
            ram_demand=ram,
            duration_ms=_ms(f"{where}.duration_s", entry["duration_s"], positive=True),
            image_pull_ms=_ms(f"{where}.pull_s", entry.get("pull_s", 30)),
            container_start_ms=_ms(f"{where}.start_s", entry.get("start_s", 2)),
        )
        if svc.id in services:
            raise ScenarioError(f"{where}.name: duplicate service {svc.id!r}")
        services[svc.id] = svc
    if not services:
        raise ScenarioError("no services")

    vm_types: dict[str, VmType] = {}
    for where, entry in _entries(
        raw,
        "vm_types",
        ("name", "cores", "cost_per_btu"),
        ("ram", "startup_s", "pool_limit"),
    ):
        limit = entry.get("pool_limit")
        vt = VmType(
            id=str(entry["name"]),
            cpu_supply=_number(f"{where}.cores", entry["cores"], int, low=1) * 100.0,
            ram_supply=_number(f"{where}.ram", entry.get("ram", 1024), low=0),
            btu_ms=btu_ms,
            cost_per_btu=_positive(f"{where}.cost_per_btu", entry["cost_per_btu"]),
            startup_ms=_ms(f"{where}.startup_s", entry.get("startup_s", 60)),
            pool_limit=None if limit is None else _number(f"{where}.pool_limit", limit, int, low=1),
        )
        if vt.id in vm_types:
            raise ScenarioError(f"{where}.name: duplicate vm type {vt.id!r}")
        vm_types[vt.id] = vt
    if not vm_types:
        raise ScenarioError("no vm types")
    largest_cpu = max(vt.cpu_supply for vt in vm_types.values())
    largest_ram = max(vt.ram_supply for vt in vm_types.values())
    for i, svc in enumerate(services.values()):
        if svc.cpu_demand > largest_cpu:
            raise ScenarioError(
                f"services[{i}].cpu must be <= {largest_cpu:g}, got {svc.cpu_demand:g}"
            )
        if svc.ram_demand > largest_ram:
            raise ScenarioError(
                f"services[{i}].ram must be <= {largest_ram:g}, got {svc.ram_demand:g}"
            )

    model_entries = _entries(raw, "models", ("id", "structure"), ("steps",))
    if not model_entries:
        raise ScenarioError("no process models")
    service_cycle = list(services)
    models: list[ProcessModel] = []
    seen_ids = set()
    for where, entry in model_entries:
        mid = _number(f"{where}.id", entry["id"], int)
        if mid in seen_ids:
            raise ScenarioError(f"{where}.id: duplicate model id {mid}")
        seen_ids.add(mid)
        try:
            root = parse_structure(str(entry["structure"]))
        except ScenarioError as exc:
            raise ScenarioError(f"{where}.structure: {exc}") from None
        model = ProcessModel(id=mid, root=root)
        explicit = entry.get("steps")
        if explicit is not None:
            if not isinstance(explicit, list):
                raise ScenarioError(f"{where}.steps must be a list, got {explicit!r}")
            if len(explicit) != len(model.step_nodes):
                raise ScenarioError(
                    f"{where}.steps must list {len(model.step_nodes)} services, "
                    f"got {len(explicit)}"
                )
            assigned = [str(s) for s in explicit]
        else:
            assigned = [service_cycle[i % len(service_cycle)] for i in range(len(model.step_nodes))]
        for k, (node, svc_id) in enumerate(zip(model.step_nodes, assigned)):
            if svc_id not in services:
                raise ScenarioError(f"{where}.steps[{k}]: unknown service {svc_id!r}")
            node.service = svc_id
        models.append(model)

    arr = _section(raw, "arrival", ("kind", "interval_s", "batch_models", "total_requests"))
    kind = arr.get("kind", "constant")
    if kind not in ("constant", "pyramid"):
        raise ScenarioError(f"arrival.kind must be 'constant' or 'pyramid', got {kind!r}")
    batch = arr.get("batch_models")
    if batch is not None:
        if kind != "constant":
            raise ScenarioError(f"arrival.batch_models needs kind 'constant', got {kind!r}")
        if not isinstance(batch, list) or not all(isinstance(g, list) for g in batch):
            raise ScenarioError(f"arrival.batch_models must be a list of lists, got {batch!r}")
        batch = tuple(tuple(_number("arrival.batch_models", m, int) for m in g) for g in batch)
        for i, group in enumerate(batch):
            if not group:
                raise ScenarioError(f"arrival.batch_models[{i}] must name at least one model")
            for mid in group:
                if mid not in seen_ids:
                    raise ScenarioError(f"arrival.batch_models[{i}]: unknown model {mid}")
    constant = kind == "constant"
    interval_s = arr.get("interval_s", 120 if constant else 60)
    requests = arr.get("total_requests", 50 if constant else 100)
    arrival = ArrivalSpec(
        kind=kind,
        interval_ms=_ms("arrival.interval_s", interval_s),
        batch_models=batch,
        total_requests=_number("arrival.total_requests", requests, int, low=1),
    )

    sla_raw = _section(raw, "sla", ("factor", "penalty_policy", "planning_rate_per_s"))
    factor = sla_raw.get("factor", 1.5)
    sla = SlaSpec(
        factor=_number("sla.factor", factor),
        penalty_policy=str(sla_raw.get("penalty_policy", "fraction")),
        planning_rate_per_s=_number(
            "sla.planning_rate_per_s", sla_raw.get("planning_rate_per_s", 100), low=0
        ),
    )
    if sla.factor <= 1:
        raise ScenarioError(f"sla.factor must be > 1, got {factor!r}")
    if sla.penalty_policy not in ("fraction", "per_10s"):
        raise ScenarioError(
            f"sla.penalty_policy must be 'fraction' or 'per_10s', got {sla.penalty_policy!r}"
        )

    w = _section(raw, "weights", ("dl", "d", "f_cpu", "f_ram", "z"))
    # Free capacity has no upper bound, so a negative price on it makes the
    # round model unbounded.
    weights = Weights(
        dl_per_ms=_number("weights.dl", w.get("dl", 0.001)) / 1000.0,
        d_per_ms=_number("weights.d", w.get("d", 0.0001)) / 1000.0,
        f_cpu=_number("weights.f_cpu", w.get("f_cpu", 0.01), low=0),
        f_ram=_number("weights.f_ram", w.get("f_ram", 0.0), low=0),
        z=_number("weights.z", w.get("z", 1.0)),
    )

    s = _section(raw, "solver", ("fresh_candidates",))
    config = OptimizerConfig(
        weights=weights,
        epsilon_ms=epsilon_ms,
        fresh_candidates=_number(
            "solver.fresh_candidates", s.get("fresh_candidates", 3), int, low=1
        ),
    )

    return Scenario(
        services=services,
        vm_types=vm_types,
        models=models,
        arrival=arrival,
        sla=sla,
        config=config,
    )


_SCENARIO_KEYS = (
    "btu_seconds", "epsilon_ms", "services", "vm_types", "models", "arrival", "sla", "weights",
    "solver",
)


def _number(name: str, value, kind=float, low=None):
    """``value`` converted by ``kind``, or a ScenarioError naming the key.

    Only finite YAML numbers are accepted: no bools, no strings, no nan or
    inf, for int keys no fractional values, and nothing below ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # also false for nan
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ScenarioError(f"{name} must be a whole number, got {value!r}")
    if low is not None and value < low:
        raise ScenarioError(f"{name} must be >= {low}, got {value!r}")
    return kind(value)


def _positive(name: str, value) -> float:
    """``_number(name, value)``, refused unless it is above 0."""
    number = _number(name, value)
    if number <= 0:
        raise ScenarioError(f"{name} must be > 0, got {value!r}")
    return number


def _ms(name: str, seconds, positive: bool = False) -> int:
    """``seconds`` in whole ms: finite, at least 0, and at least 1 if ``positive``."""
    number = _number(name, seconds, low=None if positive else 0)
    if not abs(number) * 1000 <= sys.float_info.max:
        raise ScenarioError(f"{name} must be finite in ms, got {seconds!r}")
    if positive and ms(number) <= 0:
        raise ScenarioError(f"{name} must be at least 1 ms, got {seconds:g}")
    return ms(number)


def _known(where: str, mapping: dict, keys: tuple[str, ...]):
    """Refuse a key of ``mapping`` outside ``keys``, which the parser reads."""
    for key in mapping:
        if key not in keys:
            raise ScenarioError(f"{where}: unknown key {key!r}")


def _section(raw: dict, key: str, keys: tuple[str, ...]) -> dict:
    """The optional mapping ``key``, setting only ``keys``; absent or null
    means all defaults."""
    section = {} if raw.get(key) is None else raw[key]
    if not isinstance(section, dict):
        raise ScenarioError(f"{key}: expected a mapping, got {section!r}")
    _known(key, section, keys)
    return section


def _entries(
    raw: dict, section: str, keys: tuple[str, ...], optional: tuple[str, ...]
) -> list[tuple[str, dict]]:
    """The required list ``section`` as (``section[i]``, entry) pairs, each
    entry a mapping that sets ``keys`` and may set ``optional``."""
    entries = raw.get(section)
    if entries is None:
        raise ScenarioError(f"missing scenario key {section!r}")
    if not isinstance(entries, list):
        raise ScenarioError(f"{section}: expected a list")
    out = []
    for i, entry in enumerate(entries):
        where = f"{section}[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(f"{where}: expected a mapping, got {entry!r}")
        for key in keys:
            if entry.get(key) is None:
                raise ScenarioError(f"{where}: missing key {key!r}")
        _known(where, entry, keys + optional)
        out.append((where, entry))
    return out
