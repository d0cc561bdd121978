"""Whole-program interprocedural rules (RL11xx).

These rules run over the :class:`~repro.lint.project.ProjectContext`
call graph the engine builds from every collected file, closing the
cross-file blind spots of the per-file families:

* RL1101 — determinism taint: nondeterministic sources (``time.time``,
  ``os.urandom``, module-level ``random``/``np.random`` calls, set
  iteration) must not flow, through any chain of calls, into bench rows
  (``run_experiment``), span meta, or serving code.
* RL1102 — interprocedural seed flow: every RNG construction must trace
  back through the call graph to an explicit seed; a helper that
  launders ``time.time()`` (or a silent ``None`` default) into
  ``default_rng`` is flagged at the call site RL702 cannot see.
* RL1103 — fault-site registry coherence: every literal ``inject()`` /
  ``site=`` string must resolve to a site declared in
  ``repro.faults.sites``, and every declared concrete site must be used
  somewhere (typos and dead sites both surface).
* RL1104 — serve purity: functions under ``repro/serve/`` and
  ``repro/gateway/``, and everything they transitively call anywhere in
  the tree, must not ``.fit``, step an optimizer, ``.backward`` or write
  ``.data``; serving modules must not import ``repro.nn.optim``.
"""

from __future__ import annotations

import fnmatch
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.project import ProjectContext
from repro.lint.registry import ProjectRule, register

__all__ = [
    "DeterminismTaintRule",
    "FaultSiteCoherenceRule",
    "SeedFlowRule",
    "ServePurityClosureRule",
]

_SITES_MODULE_SUFFIX = "faults.sites"
_SITE_CONSTANT_NAMES = ("RETRY_SITES", "LATENCY_ONLY_SITES")
_SITE_SUBSET_NAMES = ("CORRUPT_SITES",)


# The gateway is part of the online serving surface: it inherits both the
# determinism-sink status (RL1101) and the purity roots (RL1104).
_SERVING_MARKERS = ("/repro/serve/", "/repro/gateway/")


def _in_serve(display: str) -> bool:
    padded = "/" + display.lstrip("/")
    return any(marker in padded for marker in _SERVING_MARKERS)


def _finding(
    rule_id: str, display: str, line: int, message: str, severity: str = "error"
) -> Finding:
    return Finding(
        rule_id=rule_id, path=display, line=line, col=1,
        message=message, severity=severity,
    )


@register
class DeterminismTaintRule(ProjectRule):
    """RL1101: nondeterminism must not reach bench rows, span meta, or serving."""

    id = "RL1101"
    name = "interproc-determinism-taint"
    description = (
        "a nondeterministic source (time.time/time_ns, os.urandom, uuid, "
        "module-level random/np.random calls, set iteration) reaches a "
        "reproducibility sink — a benchmark run_experiment, a span-meta "
        "writer, or the serving layer — through the call graph; "
        "perf_counter/monotonic duration timing is exempt"
    )

    def _sink_kind(self, project: ProjectContext, fid: str) -> str | None:
        display = project.display_of(fid)
        fact = project.functions[fid]
        if _in_serve(display):
            return "the serving layer"
        name = fid.split("::", 1)[1]
        if display.split("/")[0] == "benchmarks" and name.split(".")[-1] == "run_experiment":
            return "bench rows (run_experiment)"
        if fact.get("span_meta"):
            return "span meta"
        return None

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        direct = {
            fid: (fact["nondet"][0][1], fact["nondet"][0][0])
            for fid, fact in project.functions.items()
            if fact["nondet"]
        }
        if not direct:
            return
        tainted = project.taint_closure(direct)
        for fid in sorted(tainted):
            kind = self._sink_kind(project, fid)
            if kind is None:
                continue
            line, _ = tainted[fid]
            chain = project.chain_text(fid, tainted)
            yield _finding(
                self.id, project.display_of(fid), line,
                f"nondeterminism reaches {kind}: {chain}; thread a seeded "
                "generator / SimClock value instead (perf_counter is the "
                "sanctioned duration idiom)",
            )


@register
class SeedFlowRule(ProjectRule):
    """RL1102: every RNG construction must trace to an explicit seed."""

    id = "RL1102"
    name = "interproc-seed-flow"
    description = (
        "an RNG construction (default_rng/SeedSequence/Random) is unseeded "
        "or receives a seed that a caller, possibly through helper "
        "functions, derived from a nondeterministic source or silently "
        "omitted via a None default; seeds must be threaded explicitly "
        "from the entry point (closes RL702's helper-function blind spot)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        # (fid, param) pairs whose value ends up seeding an RNG, and the
        # construction they feed (for messages + the omission check).
        required: dict[tuple[str, str], tuple[str, int]] = {}
        seen: set[tuple[str, str, int]] = set()

        for fid in sorted(project.functions):
            fact = project.functions[fid]
            for rng in fact["rng"]:
                if rng.get("splat"):
                    continue
                arg, line, callee = rng["arg"], rng["line"], rng["callee"]
                where = project.display_of(fid)
                if arg in ("absent", "none"):
                    yield _finding(
                        self.id, where, line,
                        f"unseeded {callee}() in {project.short(fid)}; "
                        "construct RNGs from an explicit seed or "
                        "SeedSequence threaded down from the entry point",
                    )
                elif arg.startswith("nondet:"):
                    yield _finding(
                        self.id, where, line,
                        f"{callee}() seeded from {arg.split(':', 1)[1]} in "
                        f"{project.short(fid)}; seeds must be deterministic",
                    )
                elif arg.startswith("param:"):
                    required.setdefault(
                        (fid, arg.split(":", 1)[1]), (callee, line)
                    )

        # Fixpoint: walk seed-requiring params up the call graph.
        queue = list(required)
        while queue:
            fid, param = queue.pop()
            callee_name, rng_line = required[(fid, param)]
            fact = project.functions[fid]
            try:
                position = fact["params"].index(param)
            except ValueError:
                continue
            if fact.get("method") and fact["params"][:1] == ["self"]:
                position -= 1
            directly_constructs = any(
                rng["arg"] == f"param:{param}" for rng in fact["rng"]
            )
            for edge in project.redges.get(fid, ()):
                record = edge.record
                if record.get("splat"):
                    continue
                if param in record["kwargs"]:
                    cls = record["kwargs"][param]
                elif 0 <= position < len(record["args"]):
                    cls = record["args"][position]
                else:
                    cls = "absent"
                key = (edge.caller, param, edge.line)
                if cls.startswith("nondet:"):
                    if key not in seen:
                        seen.add(key)
                        yield _finding(
                            self.id, project.display_of(edge.caller), edge.line,
                            f"call to {project.short(fid)}() passes "
                            f"{cls.split(':', 1)[1]} as seed argument "
                            f"{param!r}, laundering nondeterminism into the "
                            f"{callee_name}() at "
                            f"{project.display_of(fid)}:{rng_line}",
                        )
                elif cls == "absent":
                    # Provably unseeded only when the omitted param's None
                    # default feeds a construction in this very function.
                    if (
                        param in fact["none_defaults"]
                        and directly_constructs
                        and key not in seen
                    ):
                        seen.add(key)
                        yield _finding(
                            self.id, project.display_of(edge.caller), edge.line,
                            f"call to {project.short(fid)}() omits seed "
                            f"argument {param!r}; its None default launders "
                            f"an unseeded {callee_name}() at "
                            f"{project.display_of(fid)}:{rng_line}",
                        )
                elif cls == "none":
                    if param in fact["none_defaults"] and directly_constructs \
                            and key not in seen:
                        seen.add(key)
                        yield _finding(
                            self.id, project.display_of(edge.caller), edge.line,
                            f"call to {project.short(fid)}() passes seed "
                            f"argument {param!r}=None, laundering an "
                            f"unseeded {callee_name}() at "
                            f"{project.display_of(fid)}:{rng_line}",
                        )
                elif cls.startswith("param:"):
                    up = (edge.caller, cls.split(":", 1)[1])
                    if up not in required:
                        required[up] = (callee_name, rng_line)
                        queue.append(up)


@register
class FaultSiteCoherenceRule(ProjectRule):
    """RL1103: inject()/retry site strings and the declared catalog must agree."""

    id = "RL1103"
    name = "fault-site-coherence"
    description = (
        "every literal fault-site string at an inject()/inject_result()/"
        "site= call must resolve to a site (or fnmatch pattern) declared "
        "in repro.faults.sites, and every declared concrete site must be "
        "referenced somewhere — typos become errors, dead sites warnings"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        catalog = None
        for module in sorted(project.modules):
            if module.endswith(_SITES_MODULE_SUFFIX):
                catalog = project.modules[module]
                break
        if catalog is None:
            return  # not a tree that declares fault sites; nothing to check
        declared: dict[str, int] = {}
        for name in _SITE_CONSTANT_NAMES:
            declared.update(catalog["site_constants"].get(name, {}))
        if not declared:
            return
        sites_display = catalog["display"]

        for name in _SITE_SUBSET_NAMES:
            for site, line in catalog["site_constants"].get(name, {}).items():
                if site not in declared:
                    yield _finding(
                        self.id, sites_display, line,
                        f"{name} entry {site!r} is not a declared retry/"
                        "latency site; the corrupt-site list must be a "
                        "subset of the catalog",
                    )

        used: dict[str, list[tuple[str, int]]] = {}
        for fid in sorted(project.functions):
            fact = project.functions[fid]
            for site, line in fact["sites"]:
                used.setdefault(site, []).append((project.display_of(fid), line))

        patterns = [s for s in declared if "*" in s or "?" in s or "[" in s]
        for site in sorted(used):
            if site in declared or any(fnmatch.fnmatch(site, p) for p in patterns):
                continue
            for display, line in used[site]:
                yield _finding(
                    self.id, display, line,
                    f"fault site {site!r} is not declared in the "
                    "repro.faults.sites catalog; declare it (or fix the "
                    "typo) so chaos plans can schedule it",
                )

        for site in sorted(declared):
            if "*" in site or "?" in site or "[" in site:
                continue  # patterns are matched by dynamic site strings
            if site not in used:
                yield _finding(
                    self.id, sites_display, declared[site],
                    f"declared fault site {site!r} has no inject()/site= "
                    "reference anywhere in the tree; remove the dead "
                    "catalog entry or wire the site",
                    severity="warning",
                )


@register
class ServePurityClosureRule(ProjectRule):
    """RL1104: serving code must be inference-only, over its whole closure."""

    id = "RL1104"
    name = "serve-purity-closure"
    description = (
        "code under repro/serve/ or repro/gateway/ serves a frozen model: "
        "neither a serving function nor anything it transitively calls may "
        "train (.fit), import or step an optimizer, run .backward(), or "
        "write a .data attribute; such a call breaks the read-only "
        "inference contract that makes serving answers reproducible and "
        "parameter fingerprints stable"
    )
    # Roots of the closure; the gateway fronts the serving stack, so it is
    # held to the same contract.
    path_markers = _SERVING_MARKERS

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        for module in sorted(project.modules):
            summary = project.modules[module]
            if self.applies(summary["display"]):
                for line in summary["optim_imports"]:
                    yield _finding(
                        self.id, summary["display"], line,
                        "optimizer import in serving code; the serving layer "
                        "must never update weights",
                    )
        roots = [
            fid for fid in sorted(project.functions)
            if self.applies(project.display_of(fid))
        ]
        for root in roots:
            for kind, line, detail in project.functions[root]["mutations"]:
                suffix = f" ({detail})" if detail else ""
                yield _finding(
                    self.id, project.display_of(root), line,
                    f"serve code performs a {kind}{suffix} in "
                    f"{project.short(root)}; serve a model that is already "
                    "fitted and keep its weights read-only",
                )

        def mutates_outside_serve(fid: str) -> bool:
            # A serving function's own mutation is reported above.
            return bool(project.functions[fid]["mutations"]) and not self.applies(
                project.display_of(fid)
            )

        witnesses = project.reach_forward(roots, mutates_outside_serve)
        for root in sorted(witnesses):
            path = witnesses[root]
            target = path[-1].callee
            kind, _, detail = project.functions[target]["mutations"][0]
            chain = " -> ".join(
                [project.short(root)] + [project.short(e.callee) for e in path]
            )
            suffix = f" ({detail})" if detail else ""
            yield _finding(
                self.id, project.display_of(root), path[0].line,
                f"serve code reaches a mutating function: {chain} performs "
                f"a {kind}{suffix}; the serving closure must stay "
                "inference-only",
            )
