"""Rule base classes, per-file context, and the global rule registry.

Every rule has a stable id (``RL###``) that appears in reports, in
suppression comments, and in the committed baseline; ids are never reused
once published.  Numbering groups the families:

* ``RL1xx`` — autograd contract
* ``RL2xx`` — in-place mutation
* ``RL3xx`` — determinism
* ``RL4xx`` — observability hot-path guard
* ``RL5xx`` — benchmark contract
* ``RL6xx`` — export hygiene
* ``RL7xx`` — parallel-substrate contract (explicit jobs/seed)
* ``RL8xx`` — fault-injection hygiene (no swallowed injected faults)
* ``RL9xx`` — serving read-only contract (no training in repro/serve)
* ``RL10xx`` — batched-kernel contract (no per-pair loops on hot paths)
* ``RL11xx`` — whole-program interprocedural contracts (call-graph
  taint/reachability over a :class:`~repro.lint.project.ProjectContext`)

Rules come in two scopes: ``file`` rules (:class:`Rule`) see one parsed
file at a time via :class:`FileContext`; ``project`` rules
(:class:`ProjectRule`) run once per lint invocation over the whole-program
:class:`~repro.lint.project.ProjectContext` the engine builds from every
collected file.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.findings import SEVERITIES, Finding
from repro.lint.suppress import Suppressions

__all__ = [
    "FAMILIES",
    "FileContext",
    "ProjectRule",
    "Rule",
    "all_rules",
    "get_rule",
    "register",
    "registry_table",
    "rule_family",
]

# Family names keyed by the RL number's hundreds digit(s): RL302 -> 3,
# RL1104 -> 11.  RL000 is the engine's own parse-error pseudo-rule.
FAMILIES = {
    0: "engine",
    1: "autograd",
    2: "mutation",
    3: "determinism",
    4: "obs-guard",
    5: "bench-contract",
    6: "exports",
    7: "par",
    8: "faults",
    9: "serve",
    10: "kernels",
    11: "interproc",
}


def rule_family(rule_id: str) -> str:
    """Family name for a stable rule id (``"RL1104"`` -> ``"interproc"``)."""
    try:
        return FAMILIES[int(rule_id[2:]) // 100]
    except (KeyError, ValueError):
        return "unknown"


@dataclass
class FileContext:
    """Everything a file-scope rule may inspect about one source file.

    ``display`` is the posix-style path used in reports and baseline
    fingerprints (relative to the lint invocation root when possible, so
    fingerprints are stable across checkouts).
    """

    path: Path
    display: str
    source: str
    tree: ast.Module
    suppressions: Suppressions
    root: Path | None = None
    _sibling_cache: dict = field(default_factory=dict)

    def finding(self, rule_id: str, node: ast.AST | None, message: str) -> Finding:
        """Build a finding anchored at ``node`` (module level when None)."""
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        return Finding(rule_id=rule_id, path=self.display, line=line, col=col + 1, message=message)

    def sibling_tree(self, name: str) -> ast.Module | None:
        """Parse (and cache) a file next to this one; None when unreadable.

        Cross-file rules (e.g. the bench-registration check) use this to
        look at a neighbour without the engine having to lint it.
        """
        if name not in self._sibling_cache:
            sibling = self.path.parent / name
            try:
                self._sibling_cache[name] = ast.parse(sibling.read_text())
            except (OSError, SyntaxError, ValueError):
                self._sibling_cache[name] = None
        return self._sibling_cache[name]


class Rule:
    """Base class for file-scope lint rules.

    Subclasses set ``id``/``name``/``description`` and implement
    :meth:`check`.  ``path_markers`` scopes the rule: the rule runs only
    on files whose posix path contains at least one marker (empty means
    every file).  ``severity`` is the default severity stamped onto the
    rule's findings (a rule may override per finding via
    :meth:`Finding.with_severity`).
    """

    id: str = ""
    name: str = ""
    description: str = ""
    path_markers: tuple[str, ...] = ()
    scope: str = "file"
    severity: str = "error"

    def applies(self, display: str) -> bool:
        """Whether this rule runs on the file at ``display`` path."""
        if not self.path_markers:
            return True
        probe = "/" + display.lstrip("/")
        return any(marker in probe for marker in self.path_markers)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for ``ctx``; must not mutate the tree."""
        raise NotImplementedError
        yield  # pragma: no cover


class ProjectRule(Rule):
    """Base class for whole-program rules.

    Project rules never see individual :class:`FileContext` objects; the
    engine calls :meth:`check_project` exactly once per run with the
    :class:`~repro.lint.project.ProjectContext` built from every collected
    file.  The engine does not filter files by ``path_markers``; a rule
    may read them (via :meth:`applies`) to pick its roots in the graph.
    """

    scope = "project"

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Yield findings over the whole-program context."""
        raise NotImplementedError
        yield  # pragma: no cover


_RULES: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance of ``rule_cls`` to the registry."""
    rule = rule_cls()
    if not rule.id or not rule.id.startswith("RL"):
        raise ValueError(f"rule {rule_cls.__name__} has no stable RL id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    if rule.severity not in SEVERITIES:
        raise ValueError(f"rule {rule.id} has unknown severity {rule.severity!r}")
    if rule.scope not in ("file", "project"):
        raise ValueError(f"rule {rule.id} has unknown scope {rule.scope!r}")
    _RULES[rule.id] = rule
    return rule_cls


def _id_key(rule_id: str) -> tuple[int, str]:
    try:
        return (int(rule_id[2:]), rule_id)
    except ValueError:
        return (10**9, rule_id)


def all_rules() -> list[Rule]:
    """Registered rules, ordered numerically by id (RL999 before RL1001)."""
    return [_RULES[rule_id] for rule_id in sorted(_RULES, key=_id_key)]


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id (KeyError when unknown)."""
    return _RULES[rule_id]


def registry_table() -> list[dict]:
    """One row per registered rule: id, family, scope, severity, doc.

    This is the single source of truth the ``--rules`` CLI listing prints,
    so README's rule inventory can be regenerated instead of hand-kept.
    """
    return [
        {
            "id": rule.id,
            "family": rule_family(rule.id),
            "scope": rule.scope,
            "severity": rule.severity,
            "name": rule.name,
            "doc": " ".join(rule.description.split()),
        }
        for rule in all_rules()
    ]


def iter_findings(rules: Iterable[Rule], ctx: FileContext) -> Iterator[Finding]:
    """Run every applicable file rule over ``ctx``, filtering suppressions."""
    for rule in rules:
        if rule.scope != "file" or not rule.applies(ctx.display):
            continue
        for finding in rule.check(ctx):
            if ctx.suppressions.is_suppressed(finding.rule_id, finding.line):
                continue
            # Stamp the rule's default severity onto findings that did not
            # set one explicitly (ctx.finding() always yields "error").
            if rule.severity != "error" and finding.severity == "error":
                finding = finding.with_severity(rule.severity)
            yield finding
