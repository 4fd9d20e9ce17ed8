"""Shared lightweight dataflow core for the analysis passes.

The single-module AST rules of :mod:`repro.analysis.ddlint` (DD001 —
DD006) are *syntactic*: they match code shapes in one file.  The pass
families introduced with ddlint v2 (DD007 — DD012) need three things a
per-file scan cannot provide, and this module builds exactly those —
nothing more:

* **Import and alias resolution** — ``import numpy as np``,
  ``from numpy import hypot as fast_hypot``, and relative imports
  (``from ..ctable import snap``) all resolve to dotted origin names,
  so a banned ufunc is found no matter how it is spelled.
* **Per-function def-use chains** — flow-insensitive, last-write-wins
  assignment tracking inside each function (including closures over
  enclosing functions), enough to answer "what does this name denote?"
  for lock objects, queues, fork contexts, numpy arrays with a complex
  dtype, and aliased callables.
* **A module-level call graph** — call sites resolved to project
  functions (plain calls, ``self.method()``, method calls through
  instance attributes typed by ``self.x = ClassName(...)``, and the
  ``target=`` callables handed to threads/processes), so a violation
  is detected even when it hides behind helper functions.

The index is deliberately *approximate*: names that cannot be resolved
stay unresolved and the passes treat them as silent (no guessing, no
false positives from unknown receivers).  Everything here is standard
library only — like ddlint itself it must run before the package's own
dependencies are installed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

__all__ = [
    "CallSite",
    "ClassInfo",
    "FunctionScope",
    "ModuleScope",
    "Origin",
    "ProjectIndex",
    "iter_scope_nodes",
]


@dataclass(frozen=True)
class Origin:
    """What a name or expression denotes, as far as we can tell.

    ``kind`` is one of:

    * ``"dotted"`` — an external dotted name (``numpy.hypot``,
      ``open``, ``signal.signal``); ``ref`` is the dotted path.
    * ``"project_func"`` / ``"project_class"`` — a function or class
      defined in the linted tree; ``ref`` is its qualname
      (``module:name`` or ``module:Class.method``).
    * ``"instance"`` — an instance of a project class; ``ref`` is the
      class qualname.
    * ``"param"`` — a function parameter (opaque, but known-local).
    * a *resource* kind inferred from a constructor call: ``lock``,
      ``condition``, ``event``, ``queue``, ``shared``, ``thread``,
      ``process`` (non-fork start method), ``process_fork``,
      ``forkctx``, ``mpctx``, ``pool_fork``, ``pool``, ``socket``,
      ``popen``, ``complex_array``, ``float_array``, ``array``.
    """

    kind: str
    ref: str = ""


@dataclass
class CallSite:
    """One resolved call expression inside a function scope.

    Exactly one of the resolution fields is typically set:
    ``dotted`` for external targets, ``target`` for project functions,
    or ``recv_kind``/``method`` for method calls on a resource-typed
    receiver.  ``method`` is also set (with ``recv_kind=None``) when
    only the attribute name of an unresolved receiver is known.
    """

    node: ast.Call
    line: int
    dotted: str | None = None
    target: str | None = None
    recv_kind: str | None = None
    method: str | None = None


@dataclass
class FunctionScope:
    """Per-function dataflow facts (see the module docstring)."""

    qualname: str
    module: str
    path: str
    node: ast.AST
    class_qualname: str | None = None
    parent: "FunctionScope | None" = None
    params: set[str] = field(default_factory=set)
    assigns: dict[str, ast.expr] = field(default_factory=dict)
    attr_assigns: list[tuple[str, ast.expr]] = field(default_factory=list)
    nested: dict[str, str] = field(default_factory=dict)
    calls: list[CallSite] = field(default_factory=list)

    @property
    def display_name(self) -> str:
        return self.qualname.split(":", 1)[1]


@dataclass
class ClassInfo:
    """A project class: its methods and inferred instance attributes
    (inherited ones from project base classes included)."""

    qualname: str
    module: str
    methods: dict[str, str] = field(default_factory=dict)
    attrs: dict[str, Origin] = field(default_factory=dict)
    bases: list[ast.expr] = field(default_factory=list)


@dataclass
class ModuleScope:
    """One linted module: imports, top-level defs, top-level code."""

    module: str
    path: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    top_funcs: dict[str, str] = field(default_factory=dict)
    top_classes: dict[str, str] = field(default_factory=dict)
    assigns: dict[str, ast.expr] = field(default_factory=dict)


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def iter_scope_nodes(scope: FunctionScope) -> list[ast.AST]:
    """All AST nodes belonging to a scope, *excluding* nested defs.

    Nested functions and classes are separate scopes; their bodies must
    not leak into the enclosing function's statement stream.
    """
    out: list[ast.AST] = []
    roots: list[ast.AST]
    if isinstance(scope.node, ast.Module):
        roots = [
            stmt
            for stmt in scope.node.body
            if not isinstance(stmt, _SCOPE_NODES)
        ]
    else:
        roots = list(scope.node.body)  # type: ignore[attr-defined]

    def walk(node: ast.AST) -> None:
        out.append(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            walk(child)

    for root in roots:
        if isinstance(root, _SCOPE_NODES):
            continue
        walk(root)
    return out


# ----------------------------------------------------------------------
# Constructor classification tables
# ----------------------------------------------------------------------

_RESOURCE_CTORS: dict[str, str] = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Semaphore": "lock",
    "threading.BoundedSemaphore": "lock",
    "threading.Condition": "condition",
    "threading.Event": "event",
    "threading.Thread": "thread",
    "threading.Timer": "thread",
    "queue.Queue": "queue",
    "queue.LifoQueue": "queue",
    "queue.PriorityQueue": "queue",
    "queue.SimpleQueue": "queue",
    "multiprocessing.Queue": "queue",
    "multiprocessing.JoinableQueue": "queue",
    "multiprocessing.SimpleQueue": "queue",
    "multiprocessing.Lock": "lock",
    "multiprocessing.RLock": "lock",
    "multiprocessing.Condition": "condition",
    "multiprocessing.Event": "event",
    "multiprocessing.Value": "shared",
    "multiprocessing.Array": "shared",
    # On Linux the default start method is fork, so a bare Process is
    # treated as fork-spawned for the fork-discipline pass.
    "multiprocessing.Process": "process_fork",
    "socket.socket": "socket",
    "socket.create_connection": "socket",
    "subprocess.Popen": "popen",
}

#: Constructors reached through a multiprocessing context object.
_CTX_CTORS: dict[str, str] = {
    "Queue": "queue",
    "JoinableQueue": "queue",
    "SimpleQueue": "queue",
    "Lock": "lock",
    "RLock": "lock",
    "Condition": "condition",
    "Event": "event",
    "Value": "shared",
    "Array": "shared",
}

_NUMPY_ARRAY_CTORS = frozenset(
    {
        "numpy.array",
        "numpy.asarray",
        "numpy.asanyarray",
        "numpy.zeros",
        "numpy.ones",
        "numpy.empty",
        "numpy.full",
        "numpy.fromiter",
    }
)

_COMPLEX_DTYPES = frozenset(
    {
        "numpy.complex128",
        "numpy.complex64",
        "numpy.cdouble",
        "numpy.csingle",
        "numpy.cfloat",
        "complex",
        "complex128",
        "complex64",
    }
)

_FLOAT_DTYPES = frozenset(
    {
        "numpy.float64",
        "numpy.float32",
        "numpy.double",
        "float",
        "float64",
        "float32",
        "numpy.int32",
        "numpy.int64",
        "int",
        "bool",
    }
)

#: Builtins whose identity the passes care about.
_KNOWN_BUILTINS = frozenset({"open", "print", "abs", "eval", "exec"})

_MAX_RESOLVE_DEPTH = 24


class ProjectIndex:
    """The project-wide dataflow index shared by all analysis passes."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleScope] = {}
        self.functions: dict[str, FunctionScope] = {}
        self.classes: dict[str, ClassInfo] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(
        cls, sources: list[tuple[str, str, ast.Module]]
    ) -> "ProjectIndex":
        """Index a set of parsed modules.

        Args:
            sources: ``(repo-relative path, module name, parsed tree)``
                triples, typically every file handed to the linter.
        """
        project = cls()
        for path, module, tree in sources:
            project._index_module(path, module, tree)
        project._infer_class_attrs()
        for scope in project.functions.values():
            project._resolve_calls(scope)
        return project

    def _index_module(
        self, path: str, module: str, tree: ast.Module
    ) -> None:
        mod = ModuleScope(module=module, path=path, tree=tree)
        self.modules[module] = mod
        for node in ast.walk(tree):
            self._collect_import(mod, node)
        pseudo = FunctionScope(
            qualname=f"{module}:<module>",
            module=module,
            path=path,
            node=tree,
        )
        self.functions[pseudo.qualname] = pseudo
        self._collect_bindings(pseudo)
        mod.assigns = dict(pseudo.assigns)
        for stmt in tree.body:
            self._index_statement(mod, stmt, pseudo)

    def _index_statement(
        self,
        mod: ModuleScope,
        stmt: ast.stmt,
        parent: FunctionScope,
        class_info: ClassInfo | None = None,
    ) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._index_function(mod, stmt, parent, class_info)
        elif isinstance(stmt, ast.ClassDef):
            qualname = f"{mod.module}:{stmt.name}"
            info = ClassInfo(
                qualname=qualname, module=mod.module, bases=list(stmt.bases)
            )
            self.classes[qualname] = info
            if class_info is None:
                mod.top_classes[stmt.name] = qualname
            for inner in stmt.body:
                self._index_statement(mod, inner, parent, info)

    def _index_function(
        self,
        mod: ModuleScope,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        parent: FunctionScope,
        class_info: ClassInfo | None,
    ) -> None:
        if class_info is not None:
            bare = class_info.qualname.split(":", 1)[1]
            qualname = f"{mod.module}:{bare}.{node.name}"
            class_info.methods[node.name] = qualname
            scope_parent: FunctionScope | None = None
        else:
            if parent.qualname.endswith(":<module>"):
                qualname = f"{mod.module}:{node.name}"
                mod.top_funcs[node.name] = qualname
                scope_parent = None
            else:
                qualname = f"{parent.qualname}.{node.name}"
                parent.nested[node.name] = qualname
                scope_parent = parent
        scope = FunctionScope(
            qualname=qualname,
            module=mod.module,
            path=mod.path,
            node=node,
            class_qualname=(
                class_info.qualname if class_info is not None else None
            ),
            parent=scope_parent,
        )
        self.functions[qualname] = scope
        args = node.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            scope.params.add(arg.arg)
        self._collect_bindings(scope)
        for stmt in node.body:
            self._index_statement(mod, stmt, scope, None)

    def _collect_bindings(self, scope: FunctionScope) -> None:
        """Record name and ``self.attr`` assignments (last write wins)."""
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._record_target(scope, target, node.value)
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                self._record_target(scope, node.target, node.value)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        self._record_target(
                            scope, item.optional_vars, item.context_expr
                        )

    def _record_target(
        self, scope: FunctionScope, target: ast.expr, value: ast.expr
    ) -> None:
        if isinstance(target, ast.Name):
            scope.assigns[target.id] = value
        elif isinstance(target, ast.Attribute) and isinstance(
            target.value, ast.Name
        ) and target.value.id == "self":
            scope.attr_assigns.append((target.attr, value))
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Tuple unpacking: record each element as opaque (no chain).
            return

    def _collect_import(self, mod: ModuleScope, node: ast.AST) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                origin = alias.name if alias.asname else local
                mod.imports[local] = origin
        elif isinstance(node, ast.ImportFrom):
            base = self._resolve_from_module(mod.module, node)
            if base is None:
                return
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                mod.imports[local] = (
                    f"{base}.{alias.name}" if base else alias.name
                )

    @staticmethod
    def _resolve_from_module(
        module: str, node: ast.ImportFrom
    ) -> str | None:
        if node.level == 0:
            return node.module or ""
        parts = module.split(".")
        # ``module`` names a module, not a package: one level strips the
        # module's own name, each further level one package.
        if node.level > len(parts):
            return None
        base_parts = parts[: len(parts) - node.level]
        if node.module:
            base_parts.append(node.module)
        return ".".join(base_parts)

    # ------------------------------------------------------------------
    # Class attribute inference
    # ------------------------------------------------------------------

    def _infer_class_attrs(self) -> None:
        for info in self.classes.values():
            for method_qualname in info.methods.values():
                scope = self.functions.get(method_qualname)
                if scope is None:
                    continue
                for attr, value in scope.attr_assigns:
                    origin = self.resolve_expr(value, scope)
                    if origin is not None and attr not in info.attrs:
                        info.attrs[attr] = origin
        for info in list(self.classes.values()):
            self._inherit(info, {info.qualname})

    def _inherit(self, info: ClassInfo, seen: set[str]) -> None:
        """Fold project base classes' methods and attributes into
        ``info``; the subclass's own definitions win.  Without this a
        ``with self._lock:`` in a subclass whose base creates the lock
        would not register as a lock region."""
        module_scope = self.functions.get(f"{info.module}:<module>")
        if module_scope is None:
            return
        for expr in info.bases:
            origin = self.resolve_expr(expr, module_scope)
            if origin is None or origin.kind != "project_class":
                continue
            base = self.classes.get(origin.ref)
            if base is None or base.qualname in seen:
                continue
            seen.add(base.qualname)
            self._inherit(base, seen)
            for name, target in base.methods.items():
                info.methods.setdefault(name, target)
            for name, attr in base.attrs.items():
                info.attrs.setdefault(name, attr)

    # ------------------------------------------------------------------
    # Expression resolution
    # ------------------------------------------------------------------

    def resolve_name(
        self, name: str, scope: FunctionScope, _depth: int = 0
    ) -> Origin | None:
        """Resolve a bare name within a function scope."""
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        if name == "self" and scope.class_qualname is not None:
            return Origin("instance", scope.class_qualname)
        walk: FunctionScope | None = scope
        while walk is not None:
            if name in walk.nested:
                return Origin("project_func", walk.nested[name])
            if name in walk.assigns:
                return self.resolve_expr(
                    walk.assigns[name], walk, _depth + 1
                )
            if name in walk.params:
                return Origin("param", name)
            walk = walk.parent
        mod = self.modules.get(scope.module)
        if mod is None:
            return None
        if name in mod.top_funcs:
            return Origin("project_func", mod.top_funcs[name])
        if name in mod.top_classes:
            return Origin("project_class", mod.top_classes[name])
        if name in mod.imports:
            return self._classify_dotted(mod.imports[name])
        if name in mod.assigns:
            module_scope = self.functions.get(f"{scope.module}:<module>")
            if module_scope is not None and module_scope is not scope:
                return self.resolve_expr(
                    mod.assigns[name], module_scope, _depth + 1
                )
        if name in _KNOWN_BUILTINS:
            return Origin("dotted", name)
        return None

    def _classify_dotted(self, dotted: str) -> Origin:
        """Map a dotted import origin onto a project symbol if it is one."""
        module, _, symbol = dotted.rpartition(".")
        if module in self.modules and symbol:
            mod = self.modules[module]
            if symbol in mod.top_funcs:
                return Origin("project_func", mod.top_funcs[symbol])
            if symbol in mod.top_classes:
                return Origin("project_class", mod.top_classes[symbol])
        if dotted in self.modules:
            return Origin("dotted", dotted)
        return Origin("dotted", dotted)

    def resolve_expr(
        self, expr: ast.expr, scope: FunctionScope, _depth: int = 0
    ) -> Origin | None:
        """Resolve an expression to an :class:`Origin` (or ``None``)."""
        if _depth > _MAX_RESOLVE_DEPTH:
            return None
        if isinstance(expr, ast.Name):
            return self.resolve_name(expr.id, scope, _depth + 1)
        if isinstance(expr, ast.Attribute):
            return self._resolve_attribute(expr, scope, _depth + 1)
        if isinstance(expr, ast.Call):
            return self._resolve_call_value(expr, scope, _depth + 1)
        if isinstance(expr, ast.BinOp):
            left = self.resolve_expr(expr.left, scope, _depth + 1)
            right = self.resolve_expr(expr.right, scope, _depth + 1)
            kinds = {o.kind for o in (left, right) if o is not None}
            if "complex_array" in kinds:
                return Origin("complex_array")
            if "float_array" in kinds:
                return Origin("float_array")
            return None
        if isinstance(expr, ast.Subscript):
            base = self.resolve_expr(expr.value, scope, _depth + 1)
            if base is not None and base.kind in (
                "complex_array",
                "float_array",
            ):
                return base
            return None
        return None

    def _resolve_attribute(
        self, expr: ast.Attribute, scope: FunctionScope, depth: int
    ) -> Origin | None:
        base = self.resolve_expr(expr.value, scope, depth)
        if base is None:
            return None
        attr = expr.attr
        if base.kind == "dotted":
            return self._classify_dotted(f"{base.ref}.{attr}")
        if base.kind in ("instance", "project_class"):
            info = self.classes.get(base.ref)
            if info is None:
                return None
            if attr in info.methods:
                return Origin("project_func", info.methods[attr])
            return info.attrs.get(attr)
        if base.kind == "complex_array" and attr in ("real", "imag"):
            return Origin("float_array")
        if base.kind == "float_array" and attr in ("real", "imag"):
            return Origin("float_array")
        return None

    def _resolve_call_value(
        self, call: ast.Call, scope: FunctionScope, depth: int
    ) -> Origin | None:
        """What a *call expression* evaluates to (ctor classification)."""
        func = call.func
        # Context-object constructors: ctx.Queue(), ctx.Process(), ...
        if isinstance(func, ast.Attribute):
            recv = self.resolve_expr(func.value, scope, depth)
            if recv is not None and recv.kind in ("forkctx", "mpctx"):
                if func.attr == "Process":
                    return Origin(
                        "process_fork"
                        if recv.kind == "forkctx"
                        else "process"
                    )
                if func.attr in _CTX_CTORS:
                    return Origin(_CTX_CTORS[func.attr])
                return None
        target = self.resolve_expr(func, scope, depth)
        if target is None:
            return None
        if target.kind == "project_class":
            return Origin("instance", target.ref)
        if target.kind != "dotted":
            return None
        dotted = target.ref
        if dotted.endswith(".get_context") or dotted == "get_context":
            method = None
            if call.args and isinstance(call.args[0], ast.Constant):
                method = call.args[0].value
            return Origin("forkctx" if method == "fork" else "mpctx")
        if dotted in _RESOURCE_CTORS:
            return Origin(_RESOURCE_CTORS[dotted])
        if dotted in _NUMPY_ARRAY_CTORS:
            return self._classify_array_ctor(call, scope, depth)
        if dotted.endswith("ProcessPoolExecutor"):
            for keyword in call.keywords:
                if keyword.arg == "mp_context":
                    ctx = self.resolve_expr(keyword.value, scope, depth)
                    if ctx is not None and ctx.kind == "forkctx":
                        return Origin("pool_fork")
            return Origin("pool")
        return None

    def _classify_array_ctor(
        self, call: ast.Call, scope: FunctionScope, depth: int
    ) -> Origin:
        for keyword in call.keywords:
            if keyword.arg != "dtype":
                continue
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(
                value.value, str
            ):
                name = value.value
            else:
                origin = self.resolve_expr(value, scope, depth)
                if origin is None or origin.kind != "dotted":
                    return Origin("array")
                name = origin.ref
            if name in _COMPLEX_DTYPES:
                return Origin("complex_array")
            if name in _FLOAT_DTYPES:
                return Origin("float_array")
            return Origin("array")
        return Origin("array")

    # ------------------------------------------------------------------
    # Call-site resolution (the call graph)
    # ------------------------------------------------------------------

    def _resolve_calls(self, scope: FunctionScope) -> None:
        for node in iter_scope_nodes(scope):
            if isinstance(node, ast.Call):
                site = self.classify_call(node, scope)
                scope.calls.append(site)
                self._record_target_edges(node, scope, site)

    def _record_target_edges(
        self, call: ast.Call, scope: FunctionScope, site: CallSite
    ) -> None:
        """Thread/Process ``target=`` callables are deferred call edges."""
        ctor_kinds = ("thread", "process", "process_fork")
        value = self._resolve_call_value(call, scope, 0)
        if value is None and isinstance(call.func, ast.Attribute):
            # ``ctx.Process(target=...)`` where ``ctx`` is opaque (a
            # parameter, say): the start method is unknown but the
            # target still runs in a child process.
            if call.func.attr == "Process":
                value = Origin("process")
        if value is None or value.kind not in ctor_kinds:
            return
        for keyword in call.keywords:
            if keyword.arg != "target":
                continue
            origin = self.resolve_expr(keyword.value, scope, 0)
            if origin is not None and origin.kind == "project_func":
                scope.calls.append(
                    CallSite(
                        node=call,
                        line=call.lineno,
                        target=origin.ref,
                        method="<target>",
                        recv_kind=value.kind,
                    )
                )

    def classify_call(
        self, call: ast.Call, scope: FunctionScope
    ) -> CallSite:
        """Resolve one call expression into a :class:`CallSite`."""
        site = CallSite(node=call, line=call.lineno)
        func = call.func
        if isinstance(func, ast.Attribute):
            site.method = func.attr
            base = self.resolve_expr(func.value, scope)
            if base is None:
                return site
            if base.kind == "dotted":
                site.dotted = f"{base.ref}.{func.attr}"
            elif base.kind in ("instance", "project_class"):
                info = self.classes.get(base.ref)
                if info is not None and func.attr in info.methods:
                    site.target = info.methods[func.attr]
                elif info is not None and func.attr in info.attrs:
                    attr_origin = info.attrs[func.attr]
                    if attr_origin.kind == "project_func":
                        site.target = attr_origin.ref
                    else:
                        site.recv_kind = attr_origin.kind
            else:
                site.recv_kind = base.kind
            return site
        origin = self.resolve_expr(func, scope)
        if origin is None:
            return site
        if origin.kind == "dotted":
            site.dotted = origin.ref
        elif origin.kind == "project_func":
            site.target = origin.ref
        elif origin.kind == "project_class":
            site.target = origin.ref
        return site

    # ------------------------------------------------------------------
    # Convenience queries for the passes
    # ------------------------------------------------------------------

    def function_for_origin(self, origin: Origin | None) -> FunctionScope | None:
        if origin is None or origin.kind != "project_func":
            return None
        return self.functions.get(origin.ref)

    def callee_scope(self, site: CallSite) -> FunctionScope | None:
        if site.target is None:
            return None
        return self.functions.get(site.target)

    def scopes_in_package(self, prefix: str) -> list[FunctionScope]:
        """All function scopes whose module is ``prefix`` or under it."""
        return [
            scope
            for scope in self.functions.values()
            if scope.module == prefix
            or scope.module.startswith(prefix + ".")
        ]
