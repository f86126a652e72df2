"""Repo-invariant AST lint for the simulated-GPU codebase.

The gpusanitizer (:mod:`repro.gpusim.sanitizer`) catches violations at
*runtime*; this module statically enforces the coding invariants that
keep the simulation honest.  Three rules:

``GS001`` — device memory is opaque to host code
    Host code outside ``gpusim/`` and ``kernels/`` must not touch
    ``DeviceBuffer.data`` directly; data moves through the device's
    transfer engine (``to_device`` / ``from_device``) so the cost model
    sees every byte.  Names are tracked through assignments from
    ``allocate`` / ``allocate_result_buffer`` / ``alloc_pinned`` /
    ``to_device`` calls and through ``DeviceBuffer`` / ``ResultBuffer``
    / ``PinnedHostBuffer`` annotations.

``GS002`` — no wall clocks inside the simulator
    ``time.time()`` and ``datetime.now()/utcnow()/today()`` inside
    ``gpusim/`` would leak host wall-clock into simulated timestamps;
    monotonic ``time.perf_counter`` (kernel wall-time metering) is
    allowed.

``GS003`` — locks are scoped
    Bare ``.acquire()`` on lock-like names (``lock``, ``_lock``,
    ``mutex``, ...), on names assigned from a ``Lock()`` / ``RLock()``
    / ``Semaphore()`` / ``Condition()`` constructor, or inline on the
    constructor itself (``threading.Lock().acquire()``) is an unwind
    hazard — a raised exception between ``acquire`` and ``release``
    deadlocks the stream workers.  Use ``with lock:``.

``GS004`` — randomness is seeded
    The legacy global-state ``np.random.*`` API (``np.random.rand``,
    ``np.random.shuffle``, ``np.random.seed``, ...) and a bare
    ``np.random.default_rng()`` draw from process-global or
    entropy-seeded state; the sharded-recovery property tests rely on
    bit-reproducible runs, so every random stream must be an explicit
    seeded ``Generator`` / ``SeedSequence``.

``GS005`` — device code stays on the device
    ``device_code`` bodies run per-thread under the SIMT interpreter
    and are the subject of the kernelcheck static passes; a call to a
    host-only API (``print``, ``open``, ``np.argsort``, ...) inside one
    would be invisible to the cost model and unanalyzable statically.
    Only ``ctx.<method>`` calls, ``math.*`` intrinsics, the arithmetic
    builtins (``int``, ``float``, ``min``, ``max``, ``abs``, ``round``,
    ``len``, ``range``, ``bool``, ``enumerate``), and the
    ``kernelapi.device_array`` unwrap helper are allowed.

``GS006`` — device loop bounds are contracted
    A ``for ... in range(...)`` inside ``device_code`` whose bound
    names a kernel parameter the class's ``value_invariants()`` does
    not cover leaves the trip count symbolic in a parameter that no
    contract gives a range — the KC007 cost model stays bounded in that
    symbol, but nothing says how large its worst case can get.
    Constant bounds and ``ctx.*`` geometry are exempt, as are classes
    whose ``value_invariants()`` body is a ``raise`` stub (abstract
    bases declare no contract on purpose).

Run as ``python -m repro.analysis.lint [paths...] [--format
text|json|github]`` (exit code 1 on findings); file discovery skips
``__pycache__`` and ``*.egg-info`` artifacts.  CI runs it next to the
``GPUSAN=1`` test job.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

__all__ = ["LintFinding", "lint_source", "run_lint", "main"]

#: directories whose code legitimately touches DeviceBuffer internals
DEVICE_LAYER_DIRS = ("gpusim", "kernels")

#: factory call names whose result is a device-side buffer
_BUFFER_FACTORIES = {
    "allocate",
    "allocate_result_buffer",
    "alloc_pinned",
    "to_device",
}

#: annotations marking a parameter/variable as a device-side buffer
_BUFFER_TYPES = {"DeviceBuffer", "ResultBuffer", "PinnedHostBuffer"}

#: wall-clock calls disallowed inside the simulator
_WALL_CLOCKS = {
    ("time", "time"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
}

#: variable-name fragments treated as locks for GS003
_LOCKISH = ("lock", "mutex", "sem", "semaphore", "condition")

#: constructor names whose instances are locks for GS003 (covers
#: ``threading.Lock().acquire()`` and receivers assigned from them)
_LOCK_CONSTRUCTORS = {
    "Lock",
    "RLock",
    "Semaphore",
    "BoundedSemaphore",
    "Condition",
}

#: builtins device code may call (GS005) — arithmetic/iteration only
_DEVICE_BUILTINS = {
    "int",
    "float",
    "min",
    "max",
    "abs",
    "round",
    "len",
    "range",
    "bool",
    "enumerate",
}

#: non-ctx callables from the kernel API whitelisted for GS005
_DEVICE_HELPERS = {"device_array"}

#: the only ``np.random`` attributes host code may call (GS004) — the
#: explicitly seedable Generator/BitGenerator construction API
_SEEDED_RANDOM_API = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


def _annotation_name(node: Optional[ast.expr]) -> Optional[str]:
    """Terminal name of an annotation (handles Optional[X], "X", a.b.X)."""
    if node is None:
        return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.split(".")[-1].split("[")[0].strip()
    if isinstance(node, ast.Subscript):
        # Optional[DeviceBuffer], Union[DeviceBuffer, ...] — scan inside
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in _BUFFER_TYPES:
                return sub.id
            if isinstance(sub, ast.Attribute) and sub.attr in _BUFFER_TYPES:
                return sub.attr
    return None


def _call_func_name(call: ast.Call) -> Optional[str]:
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute):
        return f.attr
    return None


class _Linter(ast.NodeVisitor):
    """Single-file linter; ``in_device_layer`` relaxes GS001/tightens GS002."""

    def __init__(self, path: str, *, in_device_layer: bool):
        self.path = path
        self.in_device_layer = in_device_layer
        self.findings: list[LintFinding] = []
        #: names known to hold device-side buffers (module-wide — scope
        #: precision is not worth the complexity for a repo invariant)
        self.buffer_names: set[str] = set()
        #: names assigned from Lock()/RLock()/... constructors (GS003
        #: receivers that are not lock-*named*)
        self.lock_names: set[str] = set()

    # -- bookkeeping: which names hold device buffers -------------------
    def _note_target(self, target: ast.expr) -> None:
        if isinstance(target, ast.Name):
            self.buffer_names.add(target.id)

    def visit_Assign(self, node: ast.Assign) -> None:
        if isinstance(node.value, ast.Call):
            fn = _call_func_name(node.value)
            if fn in _BUFFER_FACTORIES:
                for t in node.targets:
                    self._note_target(t)
            if fn in _LOCK_CONSTRUCTORS:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.lock_names.add(t.id)
                    elif isinstance(t, ast.Attribute):
                        self.lock_names.add(t.attr)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if _annotation_name(node.annotation) in _BUFFER_TYPES:
            self._note_target(node.target)
        elif isinstance(node.value, ast.Call):
            if _call_func_name(node.value) in _BUFFER_FACTORIES:
                self._note_target(node.target)
        self.generic_visit(node)

    def _note_args(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        args = node.args
        for a in [
            *args.posonlyargs,
            *args.args,
            *args.kwonlyargs,
            args.vararg,
            args.kwarg,
        ]:
            if a is not None and _annotation_name(a.annotation) in _BUFFER_TYPES:
                self.buffer_names.add(a.arg)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._note_args(node)
        self._check_gs005(node)
        self.generic_visit(node)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_gs006(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._note_args(node)
        self.generic_visit(node)

    # -- GS001 / GS002 / GS003 ------------------------------------------
    def _finding(self, rule: str, node: ast.AST, message: str) -> None:
        self.findings.append(
            LintFinding(
                rule=rule,
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.in_device_layer
            and node.attr == "data"
            and isinstance(node.value, ast.Name)
            and node.value.id in self.buffer_names
        ):
            self._finding(
                "GS001",
                node,
                f"host code reaches into device buffer "
                f"'{node.value.id}.data'; move bytes with "
                f"to_device/from_device so the cost model sees them",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        fn = node.func
        if self.in_device_layer and isinstance(fn, ast.Attribute):
            base = fn.value
            if (
                isinstance(base, ast.Name)
                and (base.id, fn.attr) in _WALL_CLOCKS
            ):
                self._finding(
                    "GS002",
                    node,
                    f"wall-clock '{base.id}.{fn.attr}()' inside the "
                    f"simulator; simulated time comes from the cost "
                    f"model (use time.perf_counter for host metering)",
                )
        if (
            isinstance(fn, ast.Attribute)
            and fn.attr == "acquire"
            and self._lockish(fn.value)
        ):
            self._finding(
                "GS003",
                node,
                "bare lock acquire(); use 'with <lock>:' so unwinding "
                "releases it",
            )
        self._check_gs004(node)
        self.generic_visit(node)

    def _lockish(self, node: ast.expr) -> bool:
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Call):
            # inline constructor receiver: threading.Lock().acquire()
            return _call_func_name(node) in _LOCK_CONSTRUCTORS
        if name is None:
            return False
        if name in self.lock_names:
            return True
        low = name.lower()
        return any(frag in low for frag in _LOCKISH)

    # -- GS005 ----------------------------------------------------------
    def _check_gs005(self, node: ast.FunctionDef) -> None:
        """Flag host-only API calls inside ``device_code`` bodies."""
        if node.name != "device_code":
            return
        args = node.args
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        kw_names = [a.arg for a in args.kwonlyargs]
        if "ctx" in positional + kw_names:
            ctx_name = "ctx"
        else:
            non_self = [a for a in positional if a != "self"]
            ctx_name = non_self[0] if non_self else "ctx"
        # `raise NotImplementedError(...)` interface stubs are host-side
        # by construction, not device work
        raised = {
            id(s.exc)
            for body_stmt in node.body
            for s in ast.walk(body_stmt)
            if isinstance(s, ast.Raise) and s.exc is not None
        }
        for body_stmt in node.body:
            for sub in ast.walk(body_stmt):
                if not isinstance(sub, ast.Call) or id(sub) in raised:
                    continue
                fn = sub.func
                if isinstance(fn, ast.Attribute):
                    base = fn.value
                    if isinstance(base, ast.Name) and base.id in (
                        ctx_name,
                        "math",
                    ):
                        continue  # ctx.<method> / math intrinsic
                    called = ast.unparse(fn)
                elif isinstance(fn, ast.Name):
                    if fn.id in _DEVICE_BUILTINS or fn.id in _DEVICE_HELPERS:
                        continue
                    called = fn.id
                else:
                    called = ast.unparse(fn)
                self._finding(
                    "GS005",
                    sub,
                    f"device code calls host-only API '{called}(...)'; "
                    f"per-thread code may only use {ctx_name}.<method>, "
                    f"math intrinsics, arithmetic builtins, and "
                    f"kernelapi.device_array",
                )

    # -- GS006 ----------------------------------------------------------
    def _check_gs006(self, cls: ast.ClassDef) -> None:
        """Flag ``device_code`` range loops whose bound names a kernel
        parameter the class's ``value_invariants()`` does not cover."""
        methods = {
            m.name: m
            for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        dc = methods.get("device_code")
        if dc is None or not isinstance(dc, ast.FunctionDef):
            return
        inv = methods.get("value_invariants")
        #: every string literal inside value_invariants() — the lengths/
        #: scalars/elements dict keys and RowRange buffer names; loose on
        #: purpose (a lint must never false-positive on a covered name)
        covered: set[str] = set()
        if inv is not None:
            for stmt in inv.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Raise):
                        # abstract stub: the contract is absent on purpose
                        return
                    if isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str
                    ):
                        covered.add(sub.value)
        args = dc.args
        params = {
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        params.discard("self")
        # the ctx parameter (geometry like ctx.block_dim is always bounded)
        positional = [a.arg for a in (*args.posonlyargs, *args.args)]
        kw_names = [a.arg for a in args.kwonlyargs]
        if "ctx" in positional + kw_names:
            params.discard("ctx")
        else:
            non_self = [a for a in positional if a != "self"]
            if non_self:
                params.discard(non_self[0])
        for body_stmt in dc.body:
            for sub in ast.walk(body_stmt):
                if not isinstance(sub, ast.For):
                    continue
                it = sub.iter
                if not (
                    isinstance(it, ast.Call)
                    and isinstance(it.func, ast.Name)
                    and it.func.id == "range"
                ):
                    continue
                names = {
                    n.id
                    for arg in it.args
                    for n in ast.walk(arg)
                    if isinstance(n, ast.Name)
                }
                uncovered = sorted((names & params) - covered)
                if uncovered:
                    self._finding(
                        "GS006",
                        sub,
                        f"device loop bound uses parameter(s) "
                        f"{', '.join(repr(u) for u in uncovered)} not "
                        f"covered by value_invariants(); KC007 keeps the "
                        f"trip count symbolic in a parameter that no "
                        f"contract gives a range",
                    )

    # -- GS004 ----------------------------------------------------------
    def _check_gs004(self, node: ast.Call) -> None:
        fn = node.func
        if not isinstance(fn, ast.Attribute):
            return
        base = fn.value
        # np.random.<attr>(...) / numpy.random.<attr>(...)
        if not (
            isinstance(base, ast.Attribute)
            and base.attr == "random"
            and isinstance(base.value, ast.Name)
            and base.value.id in ("np", "numpy")
        ):
            return
        if fn.attr not in _SEEDED_RANDOM_API:
            self._finding(
                "GS004",
                node,
                f"global-state 'np.random.{fn.attr}()'; draw from an "
                f"explicit seeded Generator (np.random.default_rng(seed))",
            )
        elif fn.attr == "default_rng" and not node.args and not node.keywords:
            self._finding(
                "GS004",
                node,
                "entropy-seeded 'np.random.default_rng()'; pass an "
                "explicit seed/SeedSequence for reproducible runs",
            )


def _is_device_layer(path: Path) -> bool:
    return any(part in DEVICE_LAYER_DIRS for part in path.parts)


def lint_source(
    source: str, path: str = "<string>", *, in_device_layer: bool = False
) -> list[LintFinding]:
    """Lint one source string; ``path`` is used for reporting only."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, in_device_layer=in_device_layer)
    linter.visit(tree)
    return sorted(linter.findings, key=lambda f: (f.line, f.col))


def _is_artifact(path: Path) -> bool:
    """Build/debris directories whose .py files are not source."""
    return any(
        part == "__pycache__" or part.endswith(".egg-info")
        for part in path.parts
    )


def run_lint(paths: Iterable[str]) -> list[LintFinding]:
    """Lint every ``*.py`` under the given files/directories.

    Skips ``__pycache__`` and ``*.egg-info`` artifact directories during
    discovery (explicitly named files are always linted).
    """
    findings: list[LintFinding] = []
    for root in paths:
        rootp = Path(root)
        if rootp.is_dir():
            files = [f for f in sorted(rootp.rglob("*.py")) if not _is_artifact(f)]
        else:
            files = [rootp]
        for f in files:
            findings.extend(
                lint_source(
                    f.read_text(encoding="utf-8"),
                    str(f),
                    in_device_layer=_is_device_layer(f),
                )
            )
    return findings


def _emit(findings: list[LintFinding], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2))
        return
    for f in findings:
        if fmt == "github":
            print(
                f"::error file={f.path},line={f.line},col={f.col},"
                f"title={f.rule}::{f.message}"
            )
        else:
            print(f.render())
    if fmt == "text":
        if findings:
            print(f"gpulint: {len(findings)} finding(s)")
        else:
            print("gpulint: clean")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.analysis.lint", description="repo-invariant AST lint"
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="output format (github emits workflow annotations)",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else argv)
    findings = run_lint(args.paths)
    _emit(findings, args.format)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - CLI shim
    raise SystemExit(main())
