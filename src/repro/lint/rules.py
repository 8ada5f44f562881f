"""The project rules (``RPL001``–``RPL007``).

Each rule encodes one cross-cutting contract established by earlier
PRs; see ``docs/STATIC_ANALYSIS.md`` for the catalog with rationale and
the suppression policy.  Rules are registered with the :func:`~repro.lint.core.rule`
decorator and discovered by :func:`~repro.lint.core.all_rules`.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .core import Diagnostic, ModuleSource, iter_statements_shallow, rule

__all__: List[str] = []

#: Attribute names on a metrics registry (or the module-level helpers)
#: whose first argument is a metric name.
_METRIC_SINKS = frozenset({"inc", "counter", "gauge", "histogram", "timed"})

#: Pipeline-stage packages whose raises must use the robust taxonomy.
_STAGE_PACKAGES = ("/voxel/", "/skeleton/", "/features/", "/geometry/")

#: Exception types that swallow too much when caught without conversion.
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _norm(path: str) -> str:
    return path.replace("\\", "/")


def _diag(
    module: ModuleSource, code: str, node: ast.AST, message: str
) -> Diagnostic:
    return Diagnostic(
        code=code,
        path=module.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
    )


# ----------------------------------------------------------------------
# RPL001 — broad except must re-raise or classify
# ----------------------------------------------------------------------
def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    candidates: List[ast.expr] = (
        list(node.elts) if isinstance(node, ast.Tuple) else [node]
    )
    return any(
        isinstance(c, ast.Name) and c.id in _BROAD_EXCEPTIONS
        for c in candidates
    )


def _handler_converts(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body (directly, not in nested defs) re-raises
    or routes the exception through the taxonomy classifier."""
    for node in iter_statements_shallow(handler.body):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name == "classify_exception":
                return True
    return False


@rule(
    "RPL001",
    "broad-except-swallows",
    "bare/broad `except` must re-raise or convert via `classify_exception`",
)
def check_broad_except(module: ModuleSource) -> Iterator[Diagnostic]:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _is_broad_handler(node) and not _handler_converts(node):
            if node.type is None:
                caught = "bare `except:`"
            elif isinstance(node.type, ast.Name):
                caught = f"`except {node.type.id}`"
            else:
                caught = "broad `except`"
            yield _diag(
                module,
                "RPL001",
                node,
                f"{caught} swallows without re-raising or classifying; "
                "narrow it, route through `classify_exception`, or suppress "
                "with a justification",
            )


# ----------------------------------------------------------------------
# RPL002 — metric names must be declared in repro.obs.catalog
# ----------------------------------------------------------------------
def _rpl002_exempt(path: str) -> bool:
    p = _norm(path)
    return (
        p.endswith("obs/registry.py")
        or p.endswith("obs/catalog.py")
        or "/lint/" in p
    )


def _static_prefix(node: ast.JoinedStr) -> str:
    prefix = ""
    for value in node.values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            prefix += value.value
        else:
            break
    return prefix


def _metric_name_arg(call: ast.Call) -> Optional[ast.expr]:
    if call.args:
        return call.args[0]
    for kw in call.keywords:
        if kw.arg == "name":
            return kw.value
    return None


@rule(
    "RPL002",
    "metric-not-in-catalog",
    "metric names passed to obs counters/gauges/histograms must be "
    "declared in `repro.obs.catalog`",
)
def check_metric_catalog(module: ModuleSource) -> Iterator[Diagnostic]:
    if _rpl002_exempt(module.path):
        return
    from ..obs.catalog import is_known_metric, matches_metric_prefix

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in _METRIC_SINKS:
            pass
        elif isinstance(func, ast.Name) and func.id in _METRIC_SINKS:
            pass
        else:
            continue
        arg = _metric_name_arg(node)
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            if not is_known_metric(arg.value):
                yield _diag(
                    module,
                    "RPL002",
                    arg,
                    f"metric name {arg.value!r} is not declared in "
                    "`repro.obs.catalog.CATALOG`",
                )
        elif isinstance(arg, ast.JoinedStr):
            prefix = _static_prefix(arg)
            if not matches_metric_prefix(prefix):
                yield _diag(
                    module,
                    "RPL002",
                    arg,
                    f"dynamic metric name with prefix {prefix!r} matches no "
                    "entry in `repro.obs.catalog.CATALOG`",
                )


# ----------------------------------------------------------------------
# RPL003 — exit codes come from an ExitCode enum, not literals
# ----------------------------------------------------------------------
def _int_literal(node: Optional[ast.expr]) -> Optional[int]:
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, int)
        and not isinstance(node.value, bool)
    ):
        return node.value
    return None


class _ExitCodeVisitor(ast.NodeVisitor):
    def __init__(self) -> None:
        self.findings: List[Tuple[ast.AST, str]] = []
        self._func_stack: List[str] = []

    def _in_exit_func(self) -> bool:
        return bool(self._func_stack) and (
            self._func_stack[-1] == "main"
            or self._func_stack[-1].startswith("_cmd_")
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._func_stack.append(node.name)
        self.generic_visit(node)
        self._func_stack.pop()

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        is_sys_exit = (
            isinstance(func, ast.Attribute)
            and func.attr == "exit"
            and isinstance(func.value, ast.Name)
            and func.value.id == "sys"
        )
        if is_sys_exit and node.args:
            value = _int_literal(node.args[0])
            if value is not None:
                self.findings.append(
                    (node, f"`sys.exit({value})` uses a numeric literal")
                )
        self.generic_visit(node)

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        if (
            isinstance(exc, ast.Call)
            and isinstance(exc.func, ast.Name)
            and exc.func.id == "SystemExit"
            and exc.args
        ):
            value = _int_literal(exc.args[0])
            if value is not None:
                self.findings.append(
                    (node, f"`raise SystemExit({value})` uses a numeric literal")
                )
        self.generic_visit(node)

    def visit_Return(self, node: ast.Return) -> None:
        if self._in_exit_func():
            value = _int_literal(node.value)
            if value is not None:
                self.findings.append(
                    (
                        node,
                        f"`return {value}` in {self._func_stack[-1]}() "
                        "returns a numeric exit code",
                    )
                )
        self.generic_visit(node)


@rule(
    "RPL003",
    "numeric-exit-code",
    "CLI exit codes must come from an `ExitCode` enum, not numeric "
    "literals",
)
def check_exit_codes(module: ModuleSource) -> Iterator[Diagnostic]:
    visitor = _ExitCodeVisitor()
    visitor.visit(module.tree)
    for node, detail in visitor.findings:
        yield _diag(
            module,
            "RPL003",
            node,
            f"{detail}; use a member of the `ExitCode` enum",
        )


# ----------------------------------------------------------------------
# RPL005 — job handlers / pool factories must be module-level picklables
# ----------------------------------------------------------------------
def _nested_function_names(tree: ast.Module) -> Set[str]:
    """Names of functions defined inside another function scope."""
    nested: Set[str] = set()

    def walk(node: ast.AST, inside_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if inside_function:
                    nested.add(child.name)
                walk(child, True)
            else:
                walk(child, inside_function)

    walk(tree, False)
    return nested


def _unpicklable(node: ast.expr, nested: Set[str]) -> Optional[str]:
    if isinstance(node, ast.Lambda):
        return "a lambda"
    if isinstance(node, ast.Name) and node.id in nested:
        return f"nested function `{node.id}`"
    return None


@rule(
    "RPL005",
    "unpicklable-handler",
    "JobRunner handlers and WorkerPool factories must be module-level "
    "picklables, not lambdas/closures",
)
def check_picklable_handlers(module: ModuleSource) -> Iterator[Diagnostic]:
    nested = _nested_function_names(module.tree)

    def emit(node: ast.expr, role: str) -> Iterator[Diagnostic]:
        what = _unpicklable(node, nested)
        if what is not None:
            yield _diag(
                module,
                "RPL005",
                node,
                f"{what} passed as {role}; it cannot cross a worker pipe "
                "— use a module-level function or a dataclass with "
                "`__call__`",
            )

    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        candidates: List[Tuple[ast.expr, str]] = []
        if isinstance(func, ast.Attribute) and func.attr == "register":
            if len(node.args) >= 2:
                candidates.append((node.args[1], "a JobRunner handler"))
            for kw in node.keywords:
                if kw.arg == "handler":
                    candidates.append((kw.value, "a JobRunner handler"))
        elif isinstance(func, ast.Name) and func.id == "JobRunner":
            values: List[ast.expr] = []
            if len(node.args) >= 2 and isinstance(node.args[1], ast.Dict):
                values.extend(node.args[1].values)
            for kw in node.keywords:
                if kw.arg == "handlers" and isinstance(kw.value, ast.Dict):
                    values.extend(kw.value.values)
            candidates.extend((v, "a JobRunner handler") for v in values)
        elif isinstance(func, ast.Name) and func.id == "WorkerPool":
            if node.args:
                candidates.append((node.args[0], "a WorkerPool factory"))
            for kw in node.keywords:
                if kw.arg == "factory":
                    candidates.append((kw.value, "a WorkerPool factory"))
        elif isinstance(func, ast.Attribute) and func.attr == "submit":
            candidates.extend(
                (arg, "a WorkerPool task payload")
                for arg in node.args
                if isinstance(arg, ast.Lambda)
            )
        for value, role in candidates:
            for diag in emit(value, role):
                yield diag


# ----------------------------------------------------------------------
# RPL006 — pipeline-stage raises must use the taxonomy
# ----------------------------------------------------------------------
def _in_stage_package(path: str) -> bool:
    p = _norm(path)
    return any(pkg in p for pkg in _STAGE_PACKAGES)


@rule(
    "RPL006",
    "untyped-stage-raise",
    "raises inside pipeline stages (voxel/skeleton/features/geometry) "
    "must use the `repro.robust.errors` taxonomy",
)
def check_stage_raises(module: ModuleSource) -> Iterator[Diagnostic]:
    if not _in_stage_package(module.path):
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Raise):
            continue
        exc = node.exc
        name: Optional[str] = None
        if isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name):
            name = exc.func.id
        elif isinstance(exc, ast.Name):
            name = exc.id
        if name in ("ValueError", "RuntimeError"):
            yield _diag(
                module,
                "RPL006",
                node,
                f"`raise {name}` in a pipeline stage; use a "
                "`repro.robust.errors` taxonomy class (e.g. "
                "`InvalidParameterError`, `VoxelizationError`) so failures "
                "carry a machine-readable stage/code",
            )


# ----------------------------------------------------------------------
# RPL007 — no internal callers of the multi_step search-mode shim
# ----------------------------------------------------------------------
def _mode_is_multi_step(call: ast.Call) -> bool:
    for kw in call.keywords:
        if (
            kw.arg == "mode"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value == "multi_step"
        ):
            return True
    return False


@rule(
    "RPL007",
    "multi-step-mode-shim",
    'internal code must not construct `SearchRequest(mode="multi_step")` '
    "— the shim exists for external callers only",
)
def check_multi_step_shim(module: ModuleSource) -> Iterator[Diagnostic]:
    """The ``multi_step`` mode is a deprecation shim: it warns and runs
    the equivalent cascade.  Internal code (and the examples users copy)
    must express the plan directly as ``mode="cascade"`` with a
    :class:`CascadeStrategy` so the shim can eventually be removed.
    Both direct construction and ``search(..., mode="multi_step")``
    keyword calls are flagged; only a literal mode string triggers, so
    protocol decoders that thread a client-sent mode through are exempt.
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call) or not _mode_is_multi_step(node):
            continue
        func = node.func
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr
            if isinstance(func, ast.Attribute)
            else None
        )
        if name in ("SearchRequest", "search"):
            yield _diag(
                module,
                "RPL007",
                node,
                f'`{name}(mode="multi_step")` uses the deprecated shim; '
                'build the equivalent cascade with `mode="cascade"` and '
                "`CascadeStrategy.from_steps(...)`",
            )
