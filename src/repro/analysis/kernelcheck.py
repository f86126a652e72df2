"""kernelcheck — static verification of simulated-GPU device kernels.

The runtime gpusanitizer (:mod:`repro.gpusim.sanitizer`) can only judge
schedules that actually execute; this module verifies the kernel
invariants **over all paths, before any launch**, by analyzing the
``device_code`` generator of each :class:`~repro.gpusim.launch.Kernel`.
Every device-code pass reads one analysis per kernel:
:func:`repro.analysis.absint.interpret_kernel` parses the source, builds
the CFG (:mod:`repro.analysis.cfg`) and abstractly interprets it once.
Whether a value is the same in every thread, and its stride in the
thread id, is the interpreter's tid-stride fact.  Seven passes:

``KC001`` — barrier divergence
    A ``yield ctx.syncthreads()`` that is control-dependent on a
    *thread-dependent* condition (a test whose value is not uniform
    across the block) without
    a matching barrier on the sibling path, a barrier inside a loop
    whose trip count is thread-dependent, or a thread-dependent early
    ``return`` that skips a downstream barrier.  All are the UB class
    :class:`~repro.gpusim.kernelapi.BarrierDivergenceError` catches at
    runtime — on the one schedule that ran.

``KC002`` — shared-memory race
    A write to a ``ctx.shared(...)`` buffer and a read/write of the
    same buffer connected by a barrier-free CFG path (loop back edges
    included), where the two accesses may come from different threads
    and may touch the same slot.  Per-thread slots (identical
    tid-affine index expressions) and same-single-thread-guarded
    accesses (``if tid == 0:``) are exempt.

``KC003`` — uncoalesced global access
    Global-buffer index expressions that are affine in the thread id
    with |stride| > 1, or non-affine pure functions of the thread id
    (``tid * tid``).  Runtime-dependent gathers (index loaded from
    another array, symbolic strides) are no longer skipped: the
    abstract interpreter (:mod:`repro.analysis.absint`) classifies each
    access uniform / coalesced / strided / bounded-stride /
    gather-bounded / gather-unbounded in the report's access table.

``KC004`` — static resources / occupancy
    Shared bytes are the interpreter's ``ctx.shared`` shapes evaluated
    at each ``block_dim`` and cross-checked against the kernel's
    declared ``shared_mem_per_block``; the declared footprint plus the
    register estimate feed :func:`repro.gpusim.occupancy.occupancy` to
    predict occupancy per ``(block_dim, DeviceSpec)`` — the exact
    computation :func:`repro.gpusim.launch.launch` performs, so the
    static table provably matches the simulator's achieved occupancy.

``KC005`` — static bounds proofs
    The abstract interpreter (interval × tid-affine product domain with
    widening, :mod:`repro.analysis.absint`) attempts to prove every
    global/shared array access in-bounds against the buffer-length and
    value contracts each kernel declares via
    :meth:`~repro.gpusim.launch.Kernel.value_invariants`.  A shared
    access that can exceed its declared shape, or a contract-covered
    global access whose index interval is not contained in
    ``[0, len)``, is an error — caught before the runtime memcheck
    ever launches.  Global accesses with no contract are reported as
    *assumed*, never as findings.

``KC006`` — register-pressure estimate
    Backward liveness over the statement CFG
    (:func:`repro.analysis.cfg.compute_liveness`) gives max-live-across-
    program-points of the kernel's locals, with loop-carried values
    weighted double (they stay resident across whole iterations).  The
    estimate is checked against the kernel's declared
    ``registers_per_thread``; declaring fewer registers than the
    estimate is a warning because the occupancy table would be
    optimistic.

``KC007`` — symbolic cost model
    :func:`repro.analysis.costmodel.derive_cost` over the same analysis;
    an unbounded loop is an error, a ``cost_contract()`` declaring less
    than the derived worst case (or one that is unusable) a warning.

``analyze_shipped()`` runs all passes over the registered kernel set
(:func:`repro.kernels.shipped_kernels`); the CLI front end is
``repro analyze kernels [--format json] [--fail-on warn|error]``.
"""

from __future__ import annotations

import ast
import json
import sys
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.analysis.absint import (
    AbsintResult,
    AbsVal,
    KernelInvariants,
    SharedDecl,
    interpret,
    interpret_kernel,
    parse_device_fn,
)
from repro.analysis.cfg import CFG, CFGNode, compute_liveness
from repro.analysis.costmodel import derive_cost
from repro.gpusim.device import DeviceSpec
from repro.gpusim.launch import Kernel
from repro.gpusim.occupancy import OccupancyLimits, occupancy

__all__ = [
    "Finding",
    "KernelReport",
    "OccupancyEntry",
    "SharedDecl",
    "analyze_device_source",
    "analyze_kernel",
    "analyze_shipped",
    "default_block_dims",
    "static_occupancy_table",
    "main",
]

#: block dims the static occupancy table is evaluated at by default
DEFAULT_BLOCK_DIMS: tuple[int, ...] = (64, 128, 256)

SEVERITY_ORDER = {"warn": 0, "error": 1}


def default_block_dims() -> tuple[int, ...]:
    return DEFAULT_BLOCK_DIMS


# ======================================================================
# report datatypes
# ======================================================================
@dataclass(frozen=True)
class Finding:
    """One static-analysis violation in one kernel."""

    rule: str  #: KC001..KC004
    severity: str  #: ``"error"`` or ``"warn"``
    kernel: str
    line: int  #: 1-based line within the ``device_code`` source
    message: str

    def render(self) -> str:
        return f"{self.kernel}:{self.line}: {self.rule} [{self.severity}] {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "kernel": self.kernel,
            "line": self.line,
            "message": self.message,
        }


@dataclass(frozen=True)
class OccupancyEntry:
    """Predicted occupancy for one ``(block_dim, DeviceSpec)`` pair."""

    block_dim: int
    spec: str
    shared_bytes: int
    registers_per_thread: int
    feasible: bool
    active_blocks_per_sm: int = 0
    active_warps_per_sm: int = 0
    max_warps_per_sm: int = 0
    fraction: float = 0.0
    limiter: str = ""

    def as_dict(self) -> dict:
        return {
            "block_dim": self.block_dim,
            "spec": self.spec,
            "shared_bytes": self.shared_bytes,
            "registers_per_thread": self.registers_per_thread,
            "feasible": self.feasible,
            "active_blocks_per_sm": self.active_blocks_per_sm,
            "active_warps_per_sm": self.active_warps_per_sm,
            "max_warps_per_sm": self.max_warps_per_sm,
            "fraction": round(self.fraction, 6),
            "limiter": self.limiter,
        }


@dataclass
class KernelReport:
    """Full static-analysis result for one kernel."""

    kernel: str
    has_device_code: bool
    barriers: int
    registers_per_thread: int
    shared_decls: list[SharedDecl]
    static_shared_bytes: dict[int, Optional[int]]
    declared_shared_bytes: dict[int, int]
    occupancy: list[OccupancyEntry]
    findings: list[Finding] = field(default_factory=list)
    #: KC006 weighted max-live register estimate (None = no device code)
    register_estimate: Optional[int] = None
    #: KC005/KC003 per-access table (AccessRecord dicts)
    accesses: list[dict] = field(default_factory=list)
    #: KC007 symbolic cost model report (None = no device code)
    cost: Optional[dict] = None

    @property
    def errors(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[Finding]:
        return [f for f in self.findings if f.severity == "warn"]

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "has_device_code": self.has_device_code,
            "barriers": self.barriers,
            "registers_per_thread": self.registers_per_thread,
            "shared_decls": [d.as_dict() for d in self.shared_decls],
            "static_shared_bytes": {
                str(k): v for k, v in self.static_shared_bytes.items()
            },
            "declared_shared_bytes": {
                str(k): v for k, v in self.declared_shared_bytes.items()
            },
            "occupancy": [e.as_dict() for e in self.occupancy],
            "findings": [f.as_dict() for f in self.findings],
            "register_estimate": self.register_estimate,
            "accesses": self.accesses,
            "cost": self.cost,
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


# ======================================================================
# access extraction
# ======================================================================
@dataclass(frozen=True)
class _Access:
    node_id: int
    buffer: str  #: shared-buffer name or global param name
    shared: bool
    write: bool
    idx_dump: str
    idx_text: str
    idx: AbsVal
    guard: Optional[str]  #: dump of a single-thread pin (``tid == 0``), if any
    line: int


def _node_exprs(node: CFGNode) -> list[ast.expr]:
    s = node.stmt
    if node.kind == "branch":
        return [node.test] if node.test is not None else []
    if node.kind == "loop":
        if isinstance(s, ast.For):
            return [s.iter]
        return [node.test] if node.test is not None else []
    if isinstance(s, ast.Assign):
        return [*s.targets, s.value]
    if isinstance(s, ast.AugAssign):
        return [s.target, s.value]
    if isinstance(s, ast.AnnAssign):
        return [e for e in (s.target, s.value) if e is not None]
    if isinstance(s, ast.Expr):
        return [s.value]
    if isinstance(s, ast.Return):
        return [s.value] if s.value is not None else []
    if isinstance(s, ast.With):
        return [i.context_expr for i in s.items]
    return []


def _single_thread_guard(res: AbsintResult, node: CFGNode) -> Optional[str]:
    """Dump of an enclosing ``tid == <uniform>`` pin, if one exists."""
    for frame in node.stack:
        if frame.kind != "if":
            continue
        test = res.cfg.node(frame.node_id).test
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            continue
        if not isinstance(test.ops[0], ast.Eq):
            continue
        left, right = res.fact(test.left), res.fact(test.comparators[0])
        if (left.stride == 1 and right.uniform) or (
            right.stride == 1 and left.uniform
        ):
            return ast.dump(test)
    return None


def _extract_accesses(res: AbsintResult) -> list[_Access]:
    accesses: list[_Access] = []
    aug_targets: set[int] = set()
    for node in res.cfg.statements():
        if isinstance(node.stmt, ast.AugAssign) and isinstance(
            node.stmt.target, ast.Subscript
        ):
            aug_targets.add(id(node.stmt.target))
        guard = _single_thread_guard(res, node)
        for expr in _node_exprs(node):
            for sub in ast.walk(expr):
                if not isinstance(sub, ast.Subscript):
                    continue
                if not isinstance(sub.value, ast.Name):
                    continue
                base = sub.value.id
                is_shared = base in res.shared
                if not is_shared and base not in res.params:
                    continue
                buffer = res.shared[base].name if is_shared else base
                idx = res.fact(sub.slice)
                writes = [isinstance(sub.ctx, ast.Store)]
                if id(sub) in aug_targets:
                    writes = [True, False]  # read-modify-write
                for w in writes:
                    accesses.append(
                        _Access(
                            node_id=node.id,
                            buffer=buffer,
                            shared=is_shared,
                            write=w,
                            idx_dump=ast.dump(sub.slice),
                            idx_text=ast.unparse(sub.slice),
                            idx=idx,
                            guard=guard,
                            line=sub.lineno,
                        )
                    )
    return accesses


# ======================================================================
# passes KC001–KC003 (device-code passes)
# ======================================================================
def _pass_kc001(res: AbsintResult, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    cfg = res.cfg
    barriers = cfg.barriers()
    seen_loops: set[int] = set()
    seen_branches: set[int] = set()

    def barrier_count_in_arm(branch_id: int, arm: str) -> int:
        return sum(
            1
            for b in barriers
            if any(
                fr.kind == "if" and fr.node_id == branch_id and fr.arm == arm
                for fr in b.stack
            )
        )

    for b in barriers:
        for frame in b.stack:
            ctrl = cfg.node(frame.node_id)
            if ctrl.test is None or res.fact(ctrl.test).uniform:
                continue
            if frame.kind == "loop" and frame.node_id not in seen_loops:
                seen_loops.add(frame.node_id)
                findings.append(
                    Finding(
                        "KC001",
                        "error",
                        kernel_name,
                        b.line,
                        "barrier inside a loop with thread-dependent trip "
                        f"count (loop at line {ctrl.line}: "
                        f"'{ast.unparse(ctrl.test) if ctrl.test else '?'}'); "
                        "threads may execute different barrier sequences",
                    )
                )
            elif frame.kind == "if" and frame.node_id not in seen_branches:
                then_n = barrier_count_in_arm(frame.node_id, "then")
                else_n = barrier_count_in_arm(frame.node_id, "else")
                if then_n != else_n:
                    seen_branches.add(frame.node_id)
                    findings.append(
                        Finding(
                            "KC001",
                            "error",
                            kernel_name,
                            b.line,
                            "barrier under thread-dependent branch at line "
                            f"{ctrl.line} "
                            f"('{ast.unparse(ctrl.test) if ctrl.test else '?'}') "
                            f"without a matching barrier on the sibling path "
                            f"({then_n} vs {else_n})",
                        )
                    )

    # thread-dependent early return that skips a downstream barrier
    for node in cfg.statements():
        if not isinstance(node.stmt, ast.Return):
            continue
        for frame in node.stack:
            if frame.kind != "if":
                continue
            branch = cfg.node(frame.node_id)
            if branch.test is None or res.fact(branch.test).uniform:
                continue
            divergent = [
                b
                for b in barriers
                if not any(
                    fr.kind == "if"
                    and fr.node_id == frame.node_id
                    and fr.arm == frame.arm
                    for fr in b.stack
                )
                and b.id in _reachable(cfg, frame.node_id)
            ]
            if divergent:
                findings.append(
                    Finding(
                        "KC001",
                        "error",
                        kernel_name,
                        node.line,
                        "thread-dependent early return (branch at line "
                        f"{branch.line}: "
                        f"'{ast.unparse(branch.test) if branch.test else '?'}') "
                        f"while block-mates still reach the barrier at line "
                        f"{divergent[0].line}",
                    )
                )
                break
    return findings


def _reachable(cfg: CFG, src: int) -> set[int]:
    seen: set[int] = set()
    work = list(cfg.node(src).succs)
    while work:
        nid = work.pop()
        if nid in seen:
            continue
        seen.add(nid)
        work.extend(cfg.node(nid).succs)
    return seen


def _pass_kc002(res: AbsintResult, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    accesses = [a for a in _extract_accesses(res) if a.shared]
    if not accesses:
        return findings
    reach = {
        nid: res.cfg.reachable_without_barrier(nid)
        for nid in {a.node_id for a in accesses}
    }
    reported: set[tuple] = set()

    def report(key: tuple, line: int, message: str) -> None:
        if key in reported:
            return
        reported.add(key)
        findings.append(Finding("KC002", "error", kernel_name, line, message))

    # a uniform-index write performed by every thread races with itself
    for a in accesses:
        if a.write and a.idx.uniform and a.guard is None:
            report(
                ("self", a.buffer, a.line),
                a.line,
                f"all threads of the block write shared buffer "
                f"'{a.buffer}[{a.idx_text}]' (same slot, no single-thread "
                f"guard)",
            )

    def conflict(a: _Access, b: _Access) -> bool:
        if not (a.write or b.write):
            return False
        if a.guard is not None and a.guard == b.guard:
            return False  # both pinned to the same single thread
        if a.idx_dump == b.idx_dump and not a.idx.uniform:
            return False  # each thread touches its own slot in both
        a_slot, b_slot = a.idx.rng.is_const(), b.idx.rng.is_const()
        if a_slot is not None and b_slot is not None and a_slot != b_slot:
            return False  # provably disjoint constant slots
        if a.idx_dump == b.idx_dump and a.idx.uniform and a.guard == b.guard:
            # same uniform slot: racy unless single-thread (handled above)
            return a.guard is None
        return True

    for a in accesses:
        for b in accesses:
            if a.buffer != b.buffer:
                continue
            same_node = a.node_id == b.node_id and a is not b
            connected = b.node_id in reach[a.node_id] or same_node
            if not connected:
                continue
            if not conflict(a, b):
                continue
            lo, hi = sorted((a.line, b.line))
            report(
                ("pair", a.buffer, lo, hi, a.idx_dump, b.idx_dump),
                hi,
                f"shared buffer '{a.buffer}': "
                f"{'write' if a.write else 'read'} of [{a.idx_text}] at line "
                f"{a.line} and {'write' if b.write else 'read'} of "
                f"[{b.idx_text}] at line {b.line} on the same barrier-free "
                f"path segment",
            )
    return findings


def _pass_kc003(res: AbsintResult, kernel_name: str) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[tuple] = set()
    for a in _extract_accesses(res):
        if a.shared:
            continue
        key = (a.buffer, a.idx_dump, a.write)
        if key in seen:
            continue
        seen.add(key)
        kind = "store to" if a.write else "load from"
        stride = a.idx.stride
        if stride is not None and abs(stride) > 1:
            findings.append(
                Finding(
                    "KC003",
                    "warn",
                    kernel_name,
                    a.line,
                    f"uncoalesced {kind} global buffer "
                    f"'{a.buffer}[{a.idx_text}]': affine in the thread id "
                    f"with stride {stride} (warp touches "
                    f"{abs(stride)}x the cache lines)",
                )
            )
        elif stride is None and a.idx.pure and not a.idx.uniform:
            findings.append(
                Finding(
                    "KC003",
                    "warn",
                    kernel_name,
                    a.line,
                    f"uncoalesced {kind} global buffer "
                    f"'{a.buffer}[{a.idx_text}]': non-affine in the thread "
                    f"id (stride unbounded)",
                )
            )
    return findings


# ======================================================================
# KC005: abstract-interpretation bounds proofs
# ======================================================================
def _pass_kc005(res: AbsintResult, kernel_name: str) -> list[Finding]:
    """Unproved accesses become findings; so does an unusable contract.

    Shared-buffer accesses are always checked against their declared
    shapes.  Global accesses are only *provable* when the kernel ships a
    ``value_invariants()`` contract; without one they are recorded as
    ``assumed`` and never fire.
    """
    if res.contract_error is not None:
        return [
            Finding(
                "KC005",
                "error",
                kernel_name,
                0,
                f"unusable value_invariants() contract: {res.contract_error}",
            )
        ]
    return [
        Finding(
            "KC005",
            "error",
            kernel_name,
            a.line,
            f"cannot prove {'store to' if a.write else 'load from'} "
            f"{'shared' if a.shared else 'global'} buffer "
            f"'{a.buffer}[{a.index}]' in bounds: {a.detail} "
            f"(index interval {a.interval})",
        )
        for a in res.unproved()
    ]


def _device_passes(res: AbsintResult, kernel_name: str) -> list[Finding]:
    """KC001–KC003 and KC005: everything read off one interpretation."""
    return (
        _pass_kc001(res, kernel_name)
        + _pass_kc002(res, kernel_name)
        + _pass_kc003(res, kernel_name)
        + _pass_kc005(res, kernel_name)
    )


# ======================================================================
# KC006: liveness-based register estimate
# ======================================================================
def _register_estimate(res: AbsintResult) -> int:
    """Weighted max-live register estimate over the statement CFG.

    Counts only kernel *locals* — launch parameters live in constant
    memory, ``ctx`` is the machine, and shared-buffer handles are
    addresses into shared storage, none of which occupy a per-thread
    register.  Loop-carried values (live across a back edge and
    redefined in the loop) weigh double: they must stay resident across
    a whole iteration, exactly the values a real compiler cannot
    rematerialize.  The +4 is a fixed overhead for address/predicate
    scratch.
    """
    lv = compute_liveness(res.cfg)
    locals_: set[str] = set()
    for d in lv.defs.values():
        locals_ |= d
    locals_ -= set(res.params)
    locals_ -= set(res.shared)
    locals_.discard(res.ctx_name)
    locals_.discard("self")
    best = 0
    for n in res.cfg.nodes:
        live = (lv.live_in[n.id] | lv.defs[n.id]) & locals_
        best = max(
            best, sum(2 if v in lv.loop_carried else 1 for v in live)
        )
    return 4 + best


def _pass_kc006(
    res: AbsintResult, kernel_name: str, declared_registers: int
) -> tuple[list[Finding], int]:
    estimate = _register_estimate(res)
    findings: list[Finding] = []
    if estimate > declared_registers:
        findings.append(
            Finding(
                "KC006",
                "warn",
                kernel_name,
                res.fn.body[0].lineno if res.fn.body else 0,
                f"live-range register estimate {estimate} exceeds the "
                f"declared registers_per_thread={declared_registers}; "
                f"the occupancy table is optimistic",
            )
        )
    return findings, estimate


# ======================================================================
# KC004: occupancy
# ======================================================================
def _occupancy_entry(
    kernel: Kernel, block_dim: int, spec: DeviceSpec
) -> tuple[OccupancyEntry, Optional[Finding]]:
    shared_bytes = kernel.shared_mem_per_block(block_dim)
    base = dict(
        block_dim=block_dim,
        spec=spec.name,
        shared_bytes=shared_bytes,
        registers_per_thread=kernel.registers_per_thread,
    )
    try:
        occ = occupancy(
            block_dim,
            limits=OccupancyLimits.for_spec(spec),
            registers_per_thread=kernel.registers_per_thread,
            shared_mem_per_block_bytes=shared_bytes,
        )
    except ValueError as exc:
        return (
            OccupancyEntry(feasible=False, limiter="infeasible", **base),
            Finding(
                "KC004",
                "error",
                kernel.name,
                0,
                f"launch configuration block_dim={block_dim} on {spec.name} "
                f"is infeasible: {exc}",
            ),
        )
    return (
        OccupancyEntry(
            feasible=True,
            active_blocks_per_sm=occ.active_blocks_per_sm,
            active_warps_per_sm=occ.active_warps_per_sm,
            max_warps_per_sm=occ.max_warps_per_sm,
            fraction=occ.fraction,
            limiter=occ.limiter,
            **base,
        ),
        None,
    )


# ======================================================================
# kernel-level entry points
# ======================================================================
def analyze_kernel(
    kernel: Kernel,
    *,
    block_dims: Sequence[int] = DEFAULT_BLOCK_DIMS,
    specs: Optional[Sequence[DeviceSpec]] = None,
) -> KernelReport:
    """Run every kernelcheck pass over one kernel.

    The device-code passes (KC001–KC007) all read one
    :func:`~repro.analysis.absint.interpret_kernel` analysis.
    """
    specs = list(specs) if specs is not None else [DeviceSpec()]
    res = interpret_kernel(kernel)
    findings: list[Finding] = []
    declared = {bd: kernel.shared_mem_per_block(bd) for bd in block_dims}
    static: dict[int, Optional[int]] = dict.fromkeys(block_dims)
    shared_decls: list[SharedDecl] = []
    barriers = 0
    estimate: Optional[int] = None
    accesses: list[dict] = []
    cost: Optional[dict] = None

    if res is not None:
        barriers = len(res.cfg.barriers())
        shared_decls = list(res.shared.values())
        findings += _device_passes(res, kernel.name)
        kc6, estimate = _pass_kc006(res, kernel.name, kernel.registers_per_thread)
        findings += kc6
        # KC007 — skipped when KC005 already rejected the value contract
        if res.contract_error is None:
            accesses = [a.to_dict() for a in res.accesses]
            model = derive_cost(kernel, res)
            assert model is not None
            findings += [
                Finding("KC007", i.severity, kernel.name, i.line, i.message)
                for i in model.issues
            ]
            cost = model.to_dict()
        for bd in block_dims:
            sizes = [decl.nbytes(bd) for decl in shared_decls]
            extracted = (
                None if None in sizes else sum(n for n in sizes if n is not None)
            )
            static[bd] = extracted
            if extracted is not None and extracted > declared[bd]:
                findings.append(
                    Finding(
                        "KC004",
                        "error",
                        kernel.name,
                        shared_decls[0].line if shared_decls else 0,
                        f"device code allocates {extracted} B of shared "
                        f"memory at block_dim={bd} but "
                        f"shared_mem_per_block declares only "
                        f"{declared[bd]} B — occupancy prediction and the "
                        f"runtime budget check disagree",
                    )
                )

    entries: list[OccupancyEntry] = []
    for spec in specs:
        for bd in block_dims:
            entry, finding = _occupancy_entry(kernel, bd, spec)
            entries.append(entry)
            if finding is not None:
                findings.append(finding)

    return KernelReport(
        kernel=kernel.name,
        has_device_code=res is not None,
        barriers=barriers,
        registers_per_thread=kernel.registers_per_thread,
        shared_decls=shared_decls,
        static_shared_bytes=static,
        declared_shared_bytes=declared,
        occupancy=entries,
        findings=findings,
        register_estimate=estimate,
        accesses=accesses,
        cost=cost,
    )


def analyze_device_source(
    source: str,
    kernel_name: str = "<source>",
    *,
    invariants: Optional[KernelInvariants] = None,
    declared_registers: Optional[int] = None,
) -> list[Finding]:
    """Run the device-code passes (KC001–KC003, KC005, KC006) over raw
    source.

    The source must contain one function definition (the device code).
    ``invariants`` feeds KC005's bounds proofs; KC006 only fires when a
    ``declared_registers`` budget is given to check the estimate
    against.  Used by the seeded-violation corpus and the
    no-false-positive property tests.
    """
    res = interpret(parse_device_fn(source), invariants)
    findings = _device_passes(res, kernel_name)
    if declared_registers is not None:
        findings += _pass_kc006(res, kernel_name, declared_registers)[0]
    return findings


def analyze_shipped(
    *,
    block_dims: Sequence[int] = DEFAULT_BLOCK_DIMS,
    specs: Optional[Sequence[DeviceSpec]] = None,
) -> list[KernelReport]:
    """Analyze every registered (shipped) kernel."""
    from repro.kernels import shipped_kernels

    return [
        analyze_kernel(k, block_dims=block_dims, specs=specs)
        for k in shipped_kernels()
    ]


def static_occupancy_table(
    kernel: Kernel,
    *,
    block_dims: Sequence[int] = DEFAULT_BLOCK_DIMS,
    spec: Optional[DeviceSpec] = None,
) -> dict[int, OccupancyEntry]:
    """Predicted occupancy per block_dim for one kernel on one spec."""
    spec = spec or DeviceSpec()
    return {bd: _occupancy_entry(kernel, bd, spec)[0] for bd in block_dims}


# ======================================================================
# CLI shim (the primary front end is `repro analyze kernels`)
# ======================================================================
def worst_severity(reports: Iterable[KernelReport]) -> Optional[str]:
    worst: Optional[str] = None
    for r in reports:
        for f in r.findings:
            if worst is None or SEVERITY_ORDER[f.severity] > SEVERITY_ORDER[worst]:
                worst = f.severity
    return worst


def render_text(reports: Sequence[KernelReport]) -> str:
    lines: list[str] = []
    for r in reports:
        occ = {
            (e.block_dim, e.spec): e for e in r.occupancy
        }
        occ_bits = ", ".join(
            f"bd={bd}: {e.fraction:.3f} ({e.limiter})" if e.feasible else f"bd={bd}: infeasible"
            for (bd, _), e in occ.items()
        )
        lines.append(
            f"{r.kernel}: "
            f"{'device code' if r.has_device_code else 'vector-only'}, "
            f"{r.barriers} barrier(s), "
            f"{len(r.shared_decls)} shared buffer(s); occupancy {occ_bits}"
        )
        if r.has_device_code:
            proved = sum(1 for a in r.accesses if a["status"] == "proved")
            lines.append(
                f"  accesses: {proved}/{len(r.accesses)} proved in bounds; "
                f"registers: estimate {r.register_estimate} "
                f"(declared {r.registers_per_thread})"
            )
        if r.cost is not None:
            state = "bounded" if r.cost["bounded"] else "UNBOUNDED"
            busy = {
                c: b
                for c, b in r.cost["per_thread_bounds"].items()
                if b not in (None, "0")
            }
            bits = ", ".join(f"{c} <= {b}" for c, b in sorted(busy.items()))
            lines.append(f"  cost (KC007): {state}; per-thread {bits or 'zero'}")
        for f in r.findings:
            lines.append(f"  {f.render()}")
        if not r.findings:
            lines.append("  findings: none")
    n = sum(len(r.findings) for r in reports)
    lines.append(
        f"kernelcheck: {len(reports)} kernel(s), {n} finding(s)"
        if n
        else f"kernelcheck: {len(reports)} kernel(s), clean"
    )
    return "\n".join(lines)


def main(argv: Optional[list[str]] = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="kernelcheck",
        description="static verification of simulated-GPU device kernels",
    )
    parser.add_argument("--format", choices=["text", "json"], default="text")
    parser.add_argument(
        "--fail-on",
        choices=["warn", "error"],
        default="error",
        help="exit non-zero when findings at/above this severity exist",
    )
    parser.add_argument(
        "--block-dims", type=int, nargs="+", default=list(DEFAULT_BLOCK_DIMS)
    )
    args = parser.parse_args(argv)
    reports = analyze_shipped(block_dims=tuple(args.block_dims))
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
    else:
        print(render_text(reports))
    worst = worst_severity(reports)
    if worst is None:
        return 0
    if SEVERITY_ORDER[worst] >= SEVERITY_ORDER[args.fail_on]:
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    sys.exit(main())
