"""Rule config-coverage: every engine knob meets a differential harness.

The heap-vs-scan, event-vs-eager, and batch-vs-serial harnesses are the
repo's correctness backstop — but only for the configuration space
they actually sweep.  A knob that no harness parametrization touches
is a code path whose equivalence contract is unproven.  This rule
extracts every ``EngineConfig``/``RunSpec`` field and requires its
name (or a manifest-declared alias, e.g. ``with_dpm`` for ``dpm``) to
appear as a keyword argument somewhere in the differential test files.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.contracts.findings import Finding
from repro.contracts.loader import ContractError, find_class

RULE = "config-coverage"


def check(ctx) -> List[Finding]:
    m = ctx.manifest
    aliases = dict(m.coverage_aliases)
    out: List[Finding] = []

    knobs = []  # (relpath, class name, field, lineno)
    for relpath, clsname in m.config_sources:
        cls = find_class(ctx.cache.tree(relpath), clsname)
        if cls is None:
            out.append(Finding(
                rule=RULE, path=relpath, line=0, scope=clsname,
                detail="missing-class",
                message=f"config source not found: {clsname}",
                hint=("update CONFIG_SOURCES in "
                      "src/repro/contracts/manifest.py"),
            ))
            continue
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                knobs.append((relpath, clsname, stmt.target.id, stmt.lineno))

    used: Set[str] = set()
    for test_rel in m.coverage_test_files:
        try:
            tree = ctx.cache.tree(test_rel)
        except ContractError:
            out.append(Finding(
                rule=RULE, path=test_rel, line=0, scope=test_rel,
                detail="missing-test-file",
                message=f"coverage test file not found: {test_rel}",
                hint=("update COVERAGE_TEST_FILES in "
                      "src/repro/contracts/manifest.py"),
            ))
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                for kw in node.keywords:
                    if kw.arg:
                        used.add(kw.arg)

    for relpath, clsname, name, lineno in knobs:
        candidates = (name,) + tuple(aliases.get(name, ()))
        if not any(c in used for c in candidates):
            out.append(Finding(
                rule=RULE, path=relpath, line=lineno,
                scope=f"{clsname}.{name}", detail="knob-uncovered",
                message=(f"{clsname}.{name} never appears in a "
                         "differential-harness parametrization"),
                hint=("exercise the knob in one of: "
                      + ", ".join(m.coverage_test_files)),
            ))
    return out
