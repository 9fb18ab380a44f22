"""repro.analysis — the repo's invariant linter (``repro lint``).

Static AST passes over the installed package (control-frame symmetry,
determinism, lock discipline, registry consistency) plus a runtime
lock-order tracer.  See :mod:`repro.analysis.base` for the framework and
the README "Static analysis" section for the rule catalogue.
"""

from repro.analysis.base import (
    PASSES,
    AnalysisPass,
    Finding,
    SourceFile,
    SourceTree,
    available_rules,
    load_builtin_passes,
    register_pass,
    run_passes,
)
from repro.analysis.baseline import (
    BASELINE_FILENAME,
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.lockorder import (
    LOCK_TRACE_ENV,
    LockOrderViolation,
    assert_acyclic,
    make_condition,
    make_lock,
    trace_enabled,
)

__all__ = [
    "AnalysisPass",
    "Finding",
    "SourceFile",
    "SourceTree",
    "PASSES",
    "register_pass",
    "run_passes",
    "available_rules",
    "load_builtin_passes",
    "BASELINE_FILENAME",
    "load_baseline",
    "save_baseline",
    "apply_baseline",
    "LOCK_TRACE_ENV",
    "LockOrderViolation",
    "assert_acyclic",
    "make_lock",
    "make_condition",
    "trace_enabled",
]
