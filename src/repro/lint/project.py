"""Whole-program context: import graph, call graph, and per-file facts.

The engine summarizes every collected file once (:func:`summarize_module`)
into a JSON-serializable fact dict — imports, classes, functions, the
calls each function makes, nondeterministic primitive uses, RNG
constructions, mutation sites, fault-site strings, optimizer imports — and
:class:`ProjectContext` assembles those summaries into a conservatively
resolved program graph the ``RL11xx`` interprocedural rules
(:mod:`repro.lint.rules.interproc`) run fixpoint passes over.

Summaries (not ASTs) are what the incremental cache persists: a warm run
re-reads only facts for unchanged files, so the whole-program pass costs
one graph build instead of one parse per file.

Resolution is deliberately conservative.  A call edge exists only when
the callee provably lives in the linted tree: module-qualified direct
calls (``helper()``, ``mod.helper()``, ``pkg.mod.helper()``), imports
(including relative ones), ``self.method()`` within a class,
constructor calls (``C()`` edges to ``C.__init__``), and method calls on
locals/attributes whose class was resolved from a constructor assignment.
Everything else resolves to *no* edge — interprocedural rules may miss a
flow through an unresolvable call, but never invent one.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from pathlib import PurePosixPath

__all__ = [
    "ProjectContext",
    "SUMMARY_VERSION",
    "module_name_for",
    "summarize_module",
]

# Bump whenever the summary shape changes: invalidates every cache entry.
SUMMARY_VERSION = 2

# Nondeterministic primitives (dotted call chains after alias expansion).
# time.perf_counter / time.monotonic are deliberately exempt: they are the
# sanctioned duration-measurement idiom (they cannot leak wall-clock epoch
# into values or seeds the way time.time / time_ns do).
_NONDET_CHAINS = {
    ("time", "time"): "time.time()",
    ("time", "time_ns"): "time.time_ns()",
    ("os", "urandom"): "os.urandom()",
    ("uuid", "uuid1"): "uuid.uuid1()",
    ("uuid", "uuid4"): "uuid.uuid4()",
}

# numpy.random module-level functions that are *not* nondeterministic
# constructors of explicitly-seeded state.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}

# RNG constructors whose first argument is the seed.
_RNG_CONSTRUCTORS = {"default_rng", "SeedSequence", "Random", "RandomState"}

_IN_PLACE_DATA_METHODS = {"fill", "sort", "put", "partition", "resize", "itemset"}
_OPTIMIZER_HINTS = ("optim", "adam", "sgd", "rmsprop", "momentum")
_OPTIM_MODULE = "repro.nn.optim"


def module_name_for(display: str) -> str | None:
    """Dotted module name for a posix display path, or None.

    ``src/repro/serve/service.py`` -> ``repro.serve.service``;
    ``benchmarks/run_all.py`` -> ``benchmarks.run_all``; ``__init__.py``
    maps to its package.  Paths outside the conventional layout still get
    a best-effort name so fixture trees resolve the same way the repo does.
    """
    parts = list(PurePosixPath(display).parts)
    if not parts or not parts[-1].endswith(".py"):
        return None
    if parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return None
    parts[-1] = parts[-1][: -len(".py")]
    if parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts or any(not p.isidentifier() for p in parts):
        return None
    return ".".join(parts)


def _attribute_chain(node: ast.AST) -> list[str] | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


class _ExprFacts:
    """Classify expressions relative to one function's scope."""

    def __init__(self, params: set[str], seed_pure: set[str], imports: dict[str, str]):
        self.params = params
        self.seed_pure = seed_pure
        self.imports = imports

    def nondet_call(self, node: ast.Call) -> str | None:
        """Nondeterministic primitive this call is (after alias expansion)."""
        chain = _attribute_chain(node.func)
        if not chain:
            return None
        head = self.imports.get(chain[0], chain[0])
        expanded = head.split(".") + chain[1:]
        if tuple(expanded[-2:]) in _NONDET_CHAINS:
            return _NONDET_CHAINS[tuple(expanded[-2:])]
        # Module-level random.* / np.random.* calls (an unseeded global
        # stream); Generator *methods* are invisible here because the
        # receiver is a variable, not the module alias.
        if expanded[0] == "random" and len(expanded) == 2:
            return f"random.{expanded[1]}()"
        if (
            len(expanded) >= 3
            and expanded[0] in ("numpy", "np")
            and expanded[-2] == "random"
            and expanded[-1] not in _NP_RANDOM_OK
        ):
            return f"np.random.{expanded[-1]}()"
        return None

    def nondet_in(self, node: ast.AST) -> str | None:
        """First nondeterministic primitive called anywhere inside ``node``."""
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                kind = self.nondet_call(child)
                if kind is not None:
                    return kind
        return None

    def classify_arg(self, node: ast.expr | None) -> str:
        """Provenance class of a call argument expression.

        ``"absent"`` / ``"none"`` / ``"literal"`` / ``"param:<name>"`` /
        ``"nondet:<what>"`` / ``"expr"`` (unknown: treated as fine).
        """
        if node is None:
            return "absent"
        if isinstance(node, ast.Constant):
            return "none" if node.value is None else "literal"
        kind = self.nondet_in(node)
        if kind is not None:
            return f"nondet:{kind}"
        names = {
            child.id
            for child in ast.walk(node)
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
        }
        via_param = names & (self.params | self.seed_pure)
        if via_param:
            # Deterministic arithmetic/wrapping over a parameter still
            # traces to that parameter (pick one stably).
            return f"param:{sorted(via_param)[0]}"
        return "expr"


def _literal_strings(node: ast.expr) -> dict[str, int] | None:
    """String keys/elements of a literal dict/tuple/list/set, with lines."""
    out: dict[str, int] = {}
    if isinstance(node, ast.Dict):
        items = node.keys
    elif isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        items = node.elts
    else:
        return None
    for item in items:
        if isinstance(item, ast.Constant) and isinstance(item.value, str):
            out[item.value] = item.lineno
        else:
            return None
    return out


def _walk_function(scope: ast.AST):
    """Walk a function body including nested defs/lambdas (facts roll up
    into the enclosing indexed function) but not nested class bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, ast.ClassDef):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_data_attr(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "data"


def _is_optim_module(dotted: str) -> bool:
    return dotted == _OPTIM_MODULE or dotted.startswith(_OPTIM_MODULE + ".")


def _summarize_function(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    imports: dict[str, str],
    class_name: str | None,
    optim_imported: bool,
) -> dict:
    args = fn.args
    all_args = list(args.posonlyargs) + list(args.args)
    params = [a.arg for a in all_args]
    kwonly = [a.arg for a in args.kwonlyargs]
    none_defaults: list[str] = []
    for name, default in zip(params[len(params) - len(args.defaults):], args.defaults):
        if isinstance(default, ast.Constant) and default.value is None:
            none_defaults.append(name)
    for name, default in zip(kwonly, args.kw_defaults):
        if isinstance(default, ast.Constant) and default.value is None:
            none_defaults.append(name)
    params += kwonly

    # Seed-pure local names: assigned directly from a parameter (or a
    # chain of such assignments) — lets `s = seed; default_rng(s)` trace.
    seed_pure: set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in _walk_function(fn):
            if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)):
                continue
            if node.value.id not in set(params) | seed_pure:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id not in seed_pure:
                    seed_pure.add(target.id)
                    changed = True

    facts = _ExprFacts(set(params), seed_pure, imports)
    out = {
        "line": fn.lineno,
        "params": params,
        "none_defaults": none_defaults,
        "has_varargs": bool(args.vararg or args.kwarg),
        "method": class_name is not None,
        "calls": [],
        "nondet": [],
        "rng": [],
        "mutations": [],
        "sites": [],
        "span_meta": False,
        "var_types": {},
    }

    for node in _walk_function(fn):
        if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            iterable = node.iter
            if isinstance(iterable, (ast.Set, ast.SetComp)) or (
                isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id == "set"
            ):
                line = getattr(node, "lineno", getattr(iterable, "lineno", fn.lineno))
                out["nondet"].append(["set iteration", line])
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if target is None:
                    continue
                # `self.data = ...` is the storage-owning constructor idiom
                # (Tensor.__init__); a *parameter* write always goes through
                # another receiver (`p.data = ...`, `w.data[...] = ...`).
                own_storage = (
                    _is_data_attr(target)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                )
                if not own_storage and (
                    _is_data_attr(target)
                    or (isinstance(target, ast.Subscript) and _is_data_attr(target.value))
                ):
                    out["mutations"].append([".data write", node.lineno, ""])
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr == "meta"
                ):
                    out["span_meta"] = True
            # Track `x = C(...)` for method-call resolution.
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                chain = _attribute_chain(node.value.func)
                if chain:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            out["var_types"][target.id] = ".".join(chain)
                        elif (
                            isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                        ):
                            out["var_types"]["self." + target.attr] = ".".join(chain)
        if not isinstance(node, ast.Call):
            continue

        nondet = facts.nondet_call(node)
        if nondet is not None:
            out["nondet"].append([nondet, node.lineno])

        chain = _attribute_chain(node.func)
        raw = ".".join(chain) if chain else None
        callee_last = chain[-1] if chain else None

        if callee_last in _RNG_CONSTRUCTORS:
            head = facts.imports.get(chain[0], chain[0]) if chain else ""
            expanded = head.split(".") + chain[1:]
            looks_like_rng = (
                callee_last in ("default_rng", "SeedSequence")
                or ("random" in expanded[:-1])
            )
            if looks_like_rng:
                seed_arg = node.args[0] if node.args else None
                if seed_arg is None:
                    for kw in node.keywords:
                        if kw.arg in ("seed", "entropy"):
                            seed_arg = kw.value
                            break
                out["rng"].append({
                    "line": node.lineno,
                    "callee": callee_last,
                    "arg": facts.classify_arg(seed_arg),
                    "splat": any(
                        isinstance(a, ast.Starred) for a in node.args
                    ) or any(kw.arg is None for kw in node.keywords),
                })

        if callee_last == "fit" and chain is not None and len(chain) > 1:
            out["mutations"].append([".fit() call", node.lineno, raw])
        elif callee_last == "backward" and chain is not None and len(chain) > 1:
            out["mutations"].append([".backward() call", node.lineno, raw])
        elif callee_last == "step" and chain is not None and len(chain) > 1:
            # Once the module imports the optimizers, any `.step()` is one.
            receiver = ".".join(chain[:-1]).lower()
            if optim_imported or any(hint in receiver for hint in _OPTIMIZER_HINTS):
                out["mutations"].append(["optimizer step", node.lineno, raw])
        elif (
            callee_last in _IN_PLACE_DATA_METHODS
            and isinstance(node.func, ast.Attribute)
            and _is_data_attr(node.func.value)
        ):
            out["mutations"].append([".data write", node.lineno, raw])

        if callee_last in ("inject", "inject_result") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                out["sites"].append([first.value, node.lineno])
        for kw in node.keywords:
            if (
                kw.arg == "site"
                and isinstance(kw.value, ast.Constant)
                and isinstance(kw.value.value, str)
            ):
                out["sites"].append([kw.value.value, node.lineno])

        if callee_last == "span" and node.keywords:
            out["span_meta"] = True

        if chain:
            record = {
                "raw": raw,
                "line": node.lineno,
                "args": [facts.classify_arg(a) for a in node.args
                         if not isinstance(a, ast.Starred)],
                "kwargs": {
                    kw.arg: facts.classify_arg(kw.value)
                    for kw in node.keywords
                    if kw.arg is not None
                },
                "splat": any(isinstance(a, ast.Starred) for a in node.args)
                or any(kw.arg is None for kw in node.keywords),
            }
            out["calls"].append(record)
    return out


def summarize_module(tree: ast.Module, display: str) -> dict:
    """Extract the whole-program facts for one parsed file."""
    module = module_name_for(display)
    package = module
    if module is not None and not PurePosixPath(display).name == "__init__.py":
        package = module.rsplit(".", 1)[0] if "." in module else ""

    imports: dict[str, str] = {}
    optim_imports: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_optim_module(alias.name):
                    optim_imports.add(node.lineno)
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    imports.setdefault(alias.name.split(".")[0], alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level and module is not None:
                anchor = (package or "").split(".") if package else []
                anchor = anchor[: len(anchor) - (node.level - 1)] if node.level > 1 else anchor
                base = ".".join([p for p in anchor if p] + ([base] if base else []))
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{base}.{alias.name}" if base else alias.name
                if _is_optim_module(imports[local]):
                    optim_imports.add(node.lineno)

    classes: dict[str, dict] = {}
    functions: dict[str, dict] = {}
    site_constants: dict[str, dict[str, int]] = {}

    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            strings = _literal_strings(value)
            if strings is None:
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    site_constants[target.id] = strings
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = _summarize_function(
                node, imports, None, bool(optim_imports)
            )
        elif isinstance(node, ast.ClassDef):
            info: dict = {"methods": [], "attr_types": {}, "line": node.lineno}
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    info["methods"].append(item.name)
                    fact = _summarize_function(
                        item, imports, node.name, bool(optim_imports)
                    )
                    functions[f"{node.name}.{item.name}"] = fact
                    for var, cls in fact["var_types"].items():
                        if var.startswith("self."):
                            info["attr_types"][var[len("self."):]] = cls
            classes[node.name] = info

    return {
        "version": SUMMARY_VERSION,
        "module": module,
        "display": display,
        "imports": imports,
        "optim_imports": sorted(optim_imports),
        "classes": classes,
        "functions": functions,
        "site_constants": site_constants,
    }


@dataclass(frozen=True)
class CallEdge:
    """One resolved call-graph edge."""

    caller: str
    callee: str
    line: int
    record: dict


class ProjectContext:
    """The resolved whole-program graph the RL11xx rules run over.

    Function ids are ``"<module>::<func>"`` or ``"<module>::<Class>.<method>"``.
    """

    def __init__(self, summaries: dict[str, dict]):
        # display -> summary; module -> summary (first wins on collision).
        self.summaries = summaries
        self.modules: dict[str, dict] = {}
        for display in sorted(summaries):
            summary = summaries[display]
            module = summary.get("module")
            if module and module not in self.modules:
                self.modules[module] = summary
        self.functions: dict[str, dict] = {}
        for module, summary in self.modules.items():
            for fq, fact in summary["functions"].items():
                self.functions[f"{module}::{fq}"] = fact
        self.edges: dict[str, list[CallEdge]] = {}
        self.redges: dict[str, list[CallEdge]] = {}
        for fid in self.functions:
            self.edges[fid] = []
            self.redges.setdefault(fid, [])
        for fid, fact in self.functions.items():
            for record in fact["calls"]:
                callee = self._resolve_call(fid, record["raw"])
                if callee is None or callee == fid:
                    continue
                edge = CallEdge(fid, callee, record["line"], record)
                self.edges[fid].append(edge)
                self.redges.setdefault(callee, []).append(edge)

    # -- identity helpers ------------------------------------------------

    def display_of(self, fid: str) -> str:
        return self.modules[fid.split("::", 1)[0]]["display"]

    def line_of(self, fid: str) -> int:
        return self.functions[fid]["line"]

    def short(self, fid: str) -> str:
        """Human form of a function id: ``module.func``."""
        module, fq = fid.split("::", 1)
        return f"{module}.{fq}"

    def is_suppressed(self, display: str, rule_id: str, line: int) -> bool:
        summary = self.summaries.get(display)
        if summary is None:
            return False
        suppress = summary.get("suppress", {})
        file_rules = set(suppress.get("file", []))
        if "all" in file_rules or rule_id in file_rules:
            return True
        at_line = set(suppress.get("lines", {}).get(str(line), []))
        return "all" in at_line or rule_id in at_line

    # -- resolution ------------------------------------------------------

    def _lookup(self, dotted: str) -> str | None:
        """Resolve a fully-expanded dotted name to a function id."""
        parts = dotted.split(".")
        for i in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:i])
            summary = self.modules.get(module)
            if summary is None:
                continue
            rest = parts[i:]
            if len(rest) == 1:
                name = rest[0]
                if name in summary["functions"]:
                    return f"{module}::{name}"
                if name in summary["classes"]:
                    init = f"{name}.__init__"
                    return f"{module}::{init}" if init in summary["functions"] else None
                # Re-exported name (`from x import f` in a package __init__).
                target = summary["imports"].get(name)
                if target is not None and target != dotted:
                    return self._lookup(target)
            elif len(rest) == 2:
                fq = f"{rest[0]}.{rest[1]}"
                if fq in summary["functions"]:
                    return f"{module}::{fq}"
            return None
        return None

    def _method_on(
        self, class_dotted: str, method: str, imports: dict, module: str | None = None
    ) -> str | None:
        """Resolve ``method`` on a class named by ``class_dotted`` (raw)."""
        if module is not None and "." not in class_dotted:
            info = self.modules[module]["classes"].get(class_dotted)
            if info is not None:
                if method in info.get("methods", ()):
                    return f"{module}::{class_dotted}.{method}"
                return None
        head = class_dotted.split(".")[0]
        expanded = imports.get(head, head).split(".") + class_dotted.split(".")[1:]
        return self._lookup(".".join(expanded + [method]))

    def _resolve_call(self, caller: str, raw: str) -> str | None:
        module, fq = caller.split("::", 1)
        summary = self.modules[module]
        imports = summary["imports"]
        fact = self.functions[caller]
        chain = raw.split(".")

        if chain[0] == "self" and "." in fq:
            class_name = fq.split(".", 1)[0]
            info = summary["classes"].get(class_name, {})
            if len(chain) == 2:
                if chain[1] in info.get("methods", ()):
                    return f"{module}::{class_name}.{chain[1]}"
                return None
            if len(chain) == 3:
                attr_cls = info.get("attr_types", {}).get(chain[1])
                if attr_cls is not None:
                    return self._method_on(attr_cls, chain[2], imports, module)
            return None

        if len(chain) == 1:
            name = chain[0]
            if name in summary["functions"]:
                return f"{module}::{name}"
            if name in summary["classes"]:
                init = f"{name}.__init__"
                return f"{module}::{init}" if init in summary["functions"] else None
            target = imports.get(name)
            return self._lookup(target) if target else None

        # obj.method() on a local whose class we tracked.
        var_cls = fact["var_types"].get(chain[0])
        if var_cls is not None and len(chain) == 2:
            return self._method_on(var_cls, chain[1], imports, module)

        head = imports.get(chain[0], chain[0])
        return self._lookup(".".join(head.split(".") + chain[1:]))

    # -- graph queries ---------------------------------------------------

    def reach_forward(self, roots, hit) -> dict[str, list]:
        """BFS from ``roots`` along call edges until ``hit(fid)`` matches.

        Returns ``{root: [edge, edge, ...]}`` — for each root that reaches
        a hit, the shortest witness path (list of :class:`CallEdge`).
        """
        out: dict[str, list] = {}
        for root in roots:
            if root not in self.functions:
                continue
            parent: dict[str, CallEdge] = {}
            seen = {root}
            queue: deque[str] = deque([root])
            found = None
            while queue and found is None:
                fid = queue.popleft()
                if fid != root and hit(fid):
                    found = fid
                    break
                for edge in self.edges.get(fid, ()):
                    if edge.callee not in seen:
                        seen.add(edge.callee)
                        parent[edge.callee] = edge
                        queue.append(edge.callee)
            if found is not None:
                path = []
                node = found
                while node != root:
                    edge = parent[node]
                    path.append(edge)
                    node = edge.caller
                out[root] = list(reversed(path))
        return out

    def taint_closure(self, direct: dict[str, tuple]) -> dict[str, tuple]:
        """Fixpoint backwards closure over the call graph.

        ``direct`` maps fid -> (witness line, what) for functions that are
        sources themselves.  The result adds every function with a call
        path to a source, mapped to (call line, callee fid) breadcrumbs so
        rules can reconstruct the chain.
        """
        tainted = dict(direct)
        queue = deque(direct)
        while queue:
            fid = queue.popleft()
            for edge in self.redges.get(fid, ()):
                if edge.caller not in tainted:
                    tainted[edge.caller] = (edge.line, fid)
                    queue.append(edge.caller)
        return tainted

    def chain_text(self, fid: str, tainted: dict[str, tuple]) -> str:
        """Render the breadcrumb chain from ``fid`` to its taint source."""
        hops = [self.short(fid)]
        node = fid
        for _ in range(32):
            _, nxt = tainted[node]
            if isinstance(nxt, str) and nxt in tainted:
                hops.append(self.short(nxt))
                node = nxt
            else:
                hops.append(str(nxt))
                break
        return " -> ".join(hops)
