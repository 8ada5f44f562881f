"""``repro.lint`` — project-invariant static analysis.

An AST-based pass (stdlib :mod:`ast`, no third-party deps) enforcing
the cross-cutting contracts earlier PRs established by convention:

* ``RPL001`` — broad ``except`` must re-raise or classify;
* ``RPL002`` — metric names must be declared in :mod:`repro.obs.catalog`;
* ``RPL003`` — exit codes come from an ``ExitCode`` enum, not literals;
* ``RPL005`` — job handlers / pool factories must be picklable;
* ``RPL006`` — pipeline-stage raises use the error taxonomy;
* ``RPL007`` — no internal callers of the ``mode="multi_step"`` shim.

A flow-sensitive tier (:mod:`repro.lint.cfg` control-flow graphs +
:mod:`repro.lint.flow` dataflow fixpoints) backs three further rules:

* ``RPL100`` — lock discipline: attributes written under a class lock
  must always be accessed holding it (guarded-by inference);
* ``RPL101`` — a ``Deadline`` parameter must be checked or forwarded
  into every deadline-aware call;
* ``RPL102`` — ``open()``/socket/``HTTPConnection`` values must reach
  ``close()`` or ``with`` on every non-exceptional path.

Accepted pre-existing findings live in a committed baseline
(:mod:`repro.lint.baseline`, ``--baseline`` / ``--baseline-write``).
Run it with ``python -m repro.lint`` or ``three-dess lint``; the rule
catalog and suppression policy live in ``docs/STATIC_ANALYSIS.md``.
"""

from .baseline import (
    BASELINE_SCHEMA_VERSION,
    BaselineError,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .cfg import CFG, Block, build_cfg
from .core import (
    Diagnostic,
    LintReport,
    ModuleSource,
    Rule,
    all_rules,
    collect_files,
    get_rule,
    lint_paths,
    lint_source,
    rule,
)
from .flow import ForwardAnalysis, FlowResult, run_forward
from .reporters import REPORT_SCHEMA_VERSION, render_json, render_text

__all__ = [
    "BASELINE_SCHEMA_VERSION",
    "BaselineError",
    "Block",
    "CFG",
    "Diagnostic",
    "FlowResult",
    "ForwardAnalysis",
    "LintReport",
    "ModuleSource",
    "Rule",
    "all_rules",
    "apply_baseline",
    "build_cfg",
    "collect_files",
    "get_rule",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "rule",
    "render_json",
    "render_text",
    "run_forward",
    "write_baseline",
    "REPORT_SCHEMA_VERSION",
]
