"""The project model: per-file interprocedural summaries.

The per-file repro-lint rules are syntactic; exception-atomicity,
snapshot coverage and optional truthiness need the *whole program*: who
calls whom, which calls can raise, which attributes a class persists.
Each file reduces to a :class:`FileSummary` built in one pass over its
AST, and the cross-file indexes (:class:`ProjectModel`,
:class:`~repro.analysis.callgraph.CallGraph`) are derived from the
summaries.

What a summary records, per method (:class:`MethodSummary`):

* an ordered event stream (``self`` attribute writes, calls, ``raise``)
  in evaluation order, each tagged with whether a ``try``/``except``
  guards it -- what the exception-atomicity rule replays, and what the
  call graph resolves calls from;
* whether a ``raise`` is reachable outside any ``try``/``except``;
* the dict keys a ``metrics()`` / ``stats()`` method emits.

Scope limits, shared with the syntactic rules and documented here once:
lambda bodies and nested functions are **not** traversed (they execute
later, in a context static analysis cannot see), and attribute tracking
is rooted at the method's ``self`` name only.
"""

from __future__ import annotations

import ast
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a core<->model cycle)
    from .core import SourceFile

__all__ = [
    "ClassSummary",
    "FileSummary",
    "FunctionSummary",
    "MethodSummary",
    "ProjectModel",
    "build_file_summary",
    "captured_keys",
    "covers_key",
    "init_attributes",
    "module_name_of",
    "optional_inner_names",
    "paths_compatible",
    "restored_keys",
]

#: Loader method names the snapshot rules accept (kept in one place).
LOADER_NAMES = ("from_state", "load_state")


# ----------------------------------------------------------------------
# annotation / key helpers (shared with the per-file snapshot rules)
# ----------------------------------------------------------------------
def optional_inner_names(annotation: ast.AST) -> Set[str]:
    """Class names ``C`` for which ``annotation`` spells Optional-of-``C``.

    Recognises ``Optional[C]``, ``Union[C, None]`` and ``C | None`` (any
    order, any quoting of the inner name).  Returns the empty set for
    non-Optional annotations.
    """
    names: Set[str] = set()
    has_none = False

    def leaf_name(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value.split(".")[-1].strip()
        return None

    def collect(node: ast.AST) -> None:
        nonlocal has_none
        if isinstance(node, ast.Constant) and node.value is None:
            has_none = True
            return
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            collect(node.left)
            collect(node.right)
            return
        if isinstance(node, ast.Subscript):
            head = leaf_name(node.value)
            if head == "Optional":
                has_none = True
                collect(node.slice)
                return
            if head == "Union":
                elements = (
                    node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
                )
                for element in elements:
                    collect(element)
                return
        name = leaf_name(node)
        if name is not None:
            names.add(name)

    collect(annotation)
    return names if has_none else set()


def captured_keys(method: ast.FunctionDef) -> Set[str]:
    """String keys a ``state_dict``-style method writes into its payload.

    Collected from dict literals, ``payload["key"] = ...`` subscript
    stores, ``dict(key=...)`` keyword constructors and ``.update({...})``
    literals anywhere in the method.
    """
    keys: Set[str] = set()
    for node in ast.walk(method):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    keys.add(key.value)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Subscript)
                    and isinstance(target.slice, ast.Constant)
                    and isinstance(target.slice.value, str)
                ):
                    keys.add(target.slice.value)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "dict":
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        keys.add(keyword.arg)
    return keys


def restored_keys(method: ast.FunctionDef) -> Set[str]:
    """Every string constant in a loader method.

    Loaders are small codecs; any string they mention is (in this
    codebase, by construction) a payload key.  Casting the net this wide
    only ever *weakens* the restore check, never produces a false
    positive.
    """
    keys: Set[str] = set()
    body = method.body
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        body = body[1:]  # the docstring is prose, not keys
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                keys.add(node.value)
    return keys


def init_attributes(node: ast.ClassDef) -> List[Tuple[str, int]]:
    """``(attribute name, line)`` for every *stateful* ``self.x`` in ``__init__``.

    Assignments whose right-hand side references a constructor parameter
    are construction input, not snapshot state: the rebuild-then-load
    pattern re-supplies them through ``__init__`` before the loader runs,
    so they are excluded here.
    """
    init: Optional[ast.FunctionDef] = None
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            init = item
            break
    if init is None:
        return []
    args = init.args
    self_name = args.args[0].arg if args.args else "self"
    params = {
        arg.arg
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        if arg.arg != self_name
    }
    seen: Set[str] = set()
    attrs: List[Tuple[str, int]] = []
    for stmt in ast.walk(init):
        targets: List[ast.AST] = []
        value: Optional[ast.AST] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets, value = [stmt.target], getattr(stmt, "value", None)
        from_params = value is not None and any(
            isinstance(inner, ast.Name) and inner.id in params
            for inner in ast.walk(value)
        )
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == self_name
                and target.attr not in seen
            ):
                seen.add(target.attr)
                if not from_params:
                    attrs.append((target.attr, target.lineno))
    return attrs


def paths_compatible(
    first: Sequence[Tuple[int, str]], second: Sequence[Tuple[int, str]]
) -> bool:
    """Can two events (by their ``if``-branch trails) occur in one pass?

    Trails diverge fatally only when, at the first differing position,
    both name the **same** ``if`` statement but different arms -- then the
    events are mutually exclusive.  Different ``if`` statements at the
    same depth are sequential (both arms can run in one pass), and a
    shared prefix with one trail extending deeper is plain nesting.
    """
    for left, right in zip(first, second):
        if left == right:
            continue
        return left[0] != right[0]
    return True


def covers_key(attr: str, keys: Sequence[str]) -> bool:
    """True when some payload key plausibly persists attribute ``attr``.

    Key matching strips the attribute's leading underscores and accepts an
    underscore-boundary prefix either way, so ``self._pending`` is covered
    by ``"pending"`` and ``self._rng`` by ``"rng_state"``.
    """
    name = attr.lstrip("_")
    return any(
        key == name or key.startswith(name + "_") or name.startswith(key + "_")
        for key in keys
    )


def module_name_of(path_parts: Sequence[str]) -> str:
    """Dotted module name of a file path, rooted at the ``repro`` package.

    Fixture trees mirror the package layout (``repro/streaming/x.py``), so
    anchoring at the last ``repro`` path component names both the real
    tree and the fixtures consistently; paths outside any ``repro`` tree
    fall back to their stem.
    """
    parts = list(path_parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro") :]
    if not parts:
        return "<unknown>"
    if parts[-1] == "__init__":
        parts = parts[:-1] or ["<unknown>"]
    return ".".join(parts)


# ----------------------------------------------------------------------
# summary containers
# ----------------------------------------------------------------------
class MethodSummary:
    """Everything the interprocedural rules need to know about one method."""

    __slots__ = ("name", "raises_directly", "events", "emitted_keys", "line")

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line
        #: ``raise`` reachable in this body outside a try/except guard.
        self.raises_directly = False
        #: Ordered ``(kind, payload, line, in_try, path)`` events in
        #: evaluation order; kinds: ``write`` (payload = attr), ``call``
        #: (payload = spelled callee: ``"name"``, ``"self.m"``, ``"mod.f"``
        #: or ``"?.m"`` when the receiver is not resolvable statically),
        #: ``raise`` (payload = "").  ``path`` is the enclosing
        #: ``if``-branch trail as ``((lineno, arm), ...)`` with arm
        #: ``"t"``/``"e"`` -- two events whose paths diverge at the same
        #: ``if`` into different arms are mutually exclusive and never
        #: execute in one pass through the method.
        self.events: List[Tuple[str, str, int, bool, Tuple[Tuple[int, str], ...]]] = []
        #: ``(key, line)`` dict keys emitted by metrics()/stats() methods.
        self.emitted_keys: List[Tuple[str, int]] = []

class FunctionSummary(MethodSummary):
    """A module-level function: a method summary without a ``self``."""


class ClassSummary:
    """Class-level facts: bases, persistence surface, ``__init__`` state, methods."""

    __slots__ = (
        "name",
        "line",
        "bases",
        "defines_len",
        "has_state_dict",
        "has_loader",
        "captured_keys",
        "restored_keys",
        "init_attrs",
        "methods",
    )

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line
        self.bases: List[str] = []
        self.defines_len = False
        self.has_state_dict = False
        self.has_loader = False
        self.captured_keys: List[str] = []
        self.restored_keys: List[str] = []
        #: Stateful ``(attr, line)`` pairs from ``__init__`` (snapshot rule).
        self.init_attrs: List[Tuple[str, int]] = []
        self.methods: Dict[str, MethodSummary] = {}

class FileSummary:
    """One file's contribution to the project model."""

    __slots__ = (
        "display_path",
        "module",
        "imports",
        "classes",
        "functions",
        "optional_attrs",
        "truthiness_sites",
    )

    def __init__(self, display_path: str, module: str):
        self.display_path = display_path
        self.module = module
        #: ``{local name: (module, original name)}`` for project imports.
        self.imports: Dict[str, Tuple[str, str]] = {}
        self.classes: Dict[str, ClassSummary] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        #: ``(attr, [Optional inner class names])`` from every annotated
        #: attribute assignment in the file (feeds ``optional_len_attrs``).
        self.optional_attrs: List[Tuple[str, List[str]]] = []
        #: Truthiness-test sites for the optional-truthiness rule:
        #: ``(kind, name, [param annotation inner names], spelled, line)``
        #: with kind ``attr`` (attribute operand, inner names empty) or
        #: ``param`` (bare parameter operand).
        self.truthiness_sites: List[Tuple[str, str, List[str], str, int]] = []

# ----------------------------------------------------------------------
# the summary builder
# ----------------------------------------------------------------------
def _spell_call(func: ast.AST, self_name: Optional[str]) -> str:
    """Spell a call target for later resolution.

    ``self.m`` for methods, a bare name for local/imported functions,
    ``mod.f`` for one-level qualified calls (the call-graph layer checks
    whether ``mod`` is a project import) and ``?.f`` when the receiver is
    an arbitrary expression no static resolution will name.
    """
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name):
            if self_name is not None and func.value.id == self_name:
                return f"self.{func.attr}"
            return f"{func.value.id}.{func.attr}"
        return f"?.{func.attr}"
    return "?"


def _self_attr(node: ast.AST, self_name: Optional[str]) -> Optional[str]:
    if (
        self_name is not None
        and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


class _FunctionScanner:
    """One pass over a function/method body, carrying the (try, path) context."""

    def __init__(self, summary: MethodSummary, self_name: Optional[str]):
        self.summary = summary
        self.self_name = self_name

    # -- entry -----------------------------------------------------------
    def scan(self, func: ast.AST) -> None:
        for stmt in func.body:
            self._visit(stmt, False, ())

    # -- the recursive walk ---------------------------------------------
    def _visit(self, node: ast.AST, in_try: bool, path: Tuple[Tuple[int, str], ...]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return  # nested scopes execute later; out of the model's scope
        if isinstance(node, ast.If):
            # branch arms are mutually exclusive: tag their events so the
            # atomicity scan never fabricates a cross-arm ordering
            self._visit(node.test, in_try, path)
            for stmt in node.body:
                self._visit(stmt, in_try, path + ((node.lineno, "t"),))
            for stmt in node.orelse:
                self._visit(stmt, in_try, path + ((node.lineno, "e"),))
            return
        if isinstance(node, ast.Try):
            guarded = in_try or bool(node.handlers)
            for stmt in node.body:
                self._visit(stmt, guarded, path)
            for handler in node.handlers:
                for stmt in handler.body:
                    self._visit(stmt, in_try, path)
            for stmt in list(node.orelse) + list(node.finalbody):
                self._visit(stmt, in_try, path)
            return
        if isinstance(node, ast.Raise):
            for child in ast.iter_child_nodes(node):
                self._visit(child, in_try, path)
            if not in_try:
                self.summary.raises_directly = True
            self.summary.events.append(("raise", "", node.lineno, in_try, path))
            return
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            # evaluation order: the RHS (and its calls) run before the store
            value = getattr(node, "value", None)
            if value is not None:
                self._visit(value, in_try, path)
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                self._visit(target, in_try, path)
            return
        if isinstance(node, ast.For):
            self._visit(node.iter, in_try, path)
            self._visit(node.target, in_try, path)
            for stmt in list(node.body) + list(node.orelse):
                self._visit(stmt, in_try, path)
            return
        if isinstance(node, ast.Call):
            spelled = _spell_call(node.func, self.self_name)
            self.summary.events.append(("call", spelled, node.lineno, in_try, path))
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node, self.self_name)
            if attr is not None and isinstance(node.ctx, (ast.Store, ast.Del)):
                self.summary.events.append(("write", attr, node.lineno, in_try, path))
        for child in ast.iter_child_nodes(node):
            self._visit(child, in_try, path)


def _scan_function(func: ast.AST, summary: MethodSummary, self_name: Optional[str]) -> None:
    _FunctionScanner(summary, self_name).scan(func)
    if summary.name in ("metrics", "stats"):
        for node in ast.walk(func):
            if isinstance(node, ast.Dict):
                for key in node.keys:
                    if isinstance(key, ast.Constant) and isinstance(key.value, str):
                        summary.emitted_keys.append((key.value, key.lineno))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.slice, ast.Constant)
                        and isinstance(target.slice.value, str)
                    ):
                        summary.emitted_keys.append((target.slice.value, target.lineno))


def _summarize_class(node: ast.ClassDef) -> ClassSummary:
    summary = ClassSummary(node.name, node.lineno)
    for base in node.bases:
        if isinstance(base, ast.Name):
            summary.bases.append(base.id)
        elif isinstance(base, ast.Attribute):
            summary.bases.append(base.attr)
    captured: Set[str] = set()
    restored: Set[str] = set()
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if item.name == "__len__":
            summary.defines_len = True
        if item.name == "state_dict" and isinstance(item, ast.FunctionDef):
            summary.has_state_dict = True
            captured |= captured_keys(item)
        if item.name in LOADER_NAMES and isinstance(item, ast.FunctionDef):
            summary.has_loader = True
            restored |= restored_keys(item)
        self_name = item.args.args[0].arg if item.args.args else None
        method = MethodSummary(item.name, item.lineno)
        _scan_function(item, method, self_name)
        summary.methods[item.name] = method
    summary.captured_keys = sorted(captured)
    summary.restored_keys = sorted(restored)
    summary.init_attrs = init_attributes(node)
    return summary


def build_file_summary(source: "SourceFile") -> FileSummary:
    """Reduce one parsed file to its :class:`FileSummary`."""
    summary = FileSummary(source.display_path, module_name_of(source.path.parts))
    for node in source.tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    summary.imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    summary.imports[alias.asname or alias.name] = (alias.name, "*")
        elif isinstance(node, ast.ClassDef):
            summary.classes[node.name] = _summarize_class(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = FunctionSummary(node.name, node.lineno)
            _scan_function(node, function, None)
            summary.functions[node.name] = function
    for node in ast.walk(source.tree):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Attribute):
            inner = optional_inner_names(node.annotation)
            if inner:
                summary.optional_attrs.append((node.target.attr, sorted(inner)))
    summary.truthiness_sites = _truthiness_sites(source.tree)
    return summary


def _truthiness_operands(node: ast.AST) -> Iterator[ast.AST]:
    """Expressions evaluated *for their truth value* by ``node``."""
    if isinstance(node, (ast.If, ast.While)):
        yield node.test
    elif isinstance(node, ast.IfExp):
        yield node.test
    elif isinstance(node, ast.BoolOp):
        # every operand of and/or is truth-tested (the last of `or` is
        # returned, but its selection still hinged on the others)
        for value in node.values[:-1] if isinstance(node.op, ast.And) else node.values:
            yield value
    elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
        yield node.operand
    elif isinstance(node, ast.Assert):
        yield node.test
    elif isinstance(node, ast.comprehension):
        for condition in node.ifs:
            yield condition


def _truthiness_sites(tree: ast.Module) -> List[Tuple[str, str, List[str], str, int]]:
    """Candidate sites for the optional-truthiness rule, one pass per file.

    The rule itself is cross-file (it needs the project-wide
    ``optional_len_attrs`` / ``len_classes`` indexes), so the summary only
    records *where* truthiness tests happen and on what; the rule filters
    against the indexes at check time.
    """
    sites: List[Tuple[str, str, List[str], str, int]] = []
    seen: Set[Tuple[str, str, int]] = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = func.args
        params: Dict[str, List[str]] = {}
        for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if arg.annotation is not None:
                inner = optional_inner_names(arg.annotation)
                if inner:
                    params[arg.arg] = sorted(inner)
        for node in ast.walk(func):
            for operand in _truthiness_operands(node):
                if isinstance(operand, ast.Name) and operand.id in params:
                    site = ("param", operand.id, operand.lineno)
                    if site not in seen:
                        seen.add(site)
                        sites.append(
                            ("param", operand.id, params[operand.id], operand.id, operand.lineno)
                        )
                elif isinstance(operand, ast.Attribute):
                    spelled = ast.unparse(operand)
                    site = ("attr", spelled, operand.lineno)
                    if site not in seen:
                        seen.add(site)
                        sites.append(
                            ("attr", operand.attr, [], spelled, operand.lineno)
                        )
    sites.sort(key=lambda item: (item[4], item[3]))
    return sites


# ----------------------------------------------------------------------
# the assembled model
# ----------------------------------------------------------------------
class ProjectModel:
    """Every file's summary plus the derived cross-file indexes."""

    def __init__(self, summaries: Sequence[FileSummary]):
        self.summaries = list(summaries)
        self.by_path: Dict[str, FileSummary] = {
            summary.display_path: summary for summary in self.summaries
        }
        #: ``{module name: FileSummary}`` (last definition wins, like imports).
        self.modules: Dict[str, FileSummary] = {}
        #: ``{class name: (FileSummary, ClassSummary)}``.
        self.classes: Dict[str, Tuple[FileSummary, ClassSummary]] = {}
        for summary in self.summaries:
            self.modules[summary.module] = summary
            for name, class_summary in summary.classes.items():
                self.classes[name] = (summary, class_summary)
        #: Classes defining ``__len__`` -- empty instances are falsy.
        self.len_classes: Set[str] = {
            name for name, (_, cls) in self.classes.items() if cls.defines_len
        }
        #: Attribute names annotated Optional-of-``__len__``-class anywhere.
        self.optional_len_attrs: Set[str] = set()
        for summary in self.summaries:
            for attr, inner in summary.optional_attrs:
                if set(inner) & self.len_classes:
                    self.optional_len_attrs.add(attr)

    def class_chain(self, name: str) -> List[Tuple[FileSummary, ClassSummary]]:
        """``name``'s summary plus its project-resolvable bases (MRO-ish)."""
        chain: List[Tuple[FileSummary, ClassSummary]] = []
        seen: Set[str] = set()
        queue = [name]
        while queue:
            current = queue.pop(0)
            if current in seen or current not in self.classes:
                continue
            seen.add(current)
            file_summary, class_summary = self.classes[current]
            chain.append((file_summary, class_summary))
            queue.extend(class_summary.bases)
        return chain

    def chain_keys(self, name: str) -> Tuple[Set[str], Set[str]]:
        """Captured and restored snapshot keys across ``name``'s class chain."""
        captured: Set[str] = set()
        restored: Set[str] = set()
        for _, class_summary in self.class_chain(name):
            captured.update(class_summary.captured_keys)
            restored.update(class_summary.restored_keys)
        return captured, restored
