"""Call-graph queries over the project model.

This layer turns the flat per-file summaries of :mod:`repro.analysis.model`
into the interprocedural facts the whole-program rules consume:

* **resolution** -- a spelled call (``self.m``, ``helper``, ``mod.f``)
  plus the context it was made from (file, enclosing class) resolves to a
  concrete method or function node, following class chains, local
  definitions and project imports;
* **raise reachability** -- whether a node can propagate an exception to
  its caller (a ``raise`` outside any ``try``/``except`` in the node
  itself, or transitively through an unguarded call).

Everything here is derived data, rebuilt from the summaries on each run.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .model import ClassSummary, FileSummary, MethodSummary, ProjectModel

__all__ = ["CallGraph", "NodeKey"]

#: ``("m", path, class, method)`` or ``("f", path, function)``.
NodeKey = Tuple[str, ...]


class CallGraph:
    """Derived interprocedural queries; construct once per analysis run."""

    def __init__(self, model: ProjectModel):
        self.model = model
        self._nodes: Dict[NodeKey, MethodSummary] = {}
        self._node_class: Dict[NodeKey, Tuple[FileSummary, Optional[ClassSummary]]] = {}
        for file_summary in model.summaries:
            for function in file_summary.functions.values():
                key = ("f", file_summary.display_path, function.name)
                self._nodes[key] = function
                self._node_class[key] = (file_summary, None)
            for class_summary in file_summary.classes.values():
                for method in class_summary.methods.values():
                    key = (
                        "m",
                        file_summary.display_path,
                        class_summary.name,
                        method.name,
                    )
                    self._nodes[key] = method
                    self._node_class[key] = (file_summary, class_summary)
        self._raises_memo: Dict[NodeKey, bool] = {}

    # ------------------------------------------------------------------
    # resolution
    # ------------------------------------------------------------------
    def resolve(
        self,
        file_summary: FileSummary,
        class_summary: Optional[ClassSummary],
        spelled: str,
    ) -> Optional[NodeKey]:
        """Resolve a spelled call to a node key, or ``None`` if unknown."""
        if spelled.startswith("self."):
            if class_summary is None:
                return None
            method = spelled[5:]
            for chain_file, chain_class in self.model.class_chain(class_summary.name):
                if method in chain_class.methods:
                    return ("m", chain_file.display_path, chain_class.name, method)
            return None
        if "." in spelled:
            receiver, _, name = spelled.partition(".")
            if receiver == "?":
                return None
            target = file_summary.imports.get(receiver)
            if target is None:
                return None
            module, original = target
            module_name = module if original == "*" else f"{module}.{original}"
            target_file = self.model.modules.get(module_name)
            if target_file is None:
                return None
            return self._resolve_in_file(target_file, name)
        # a bare name: local definition first, then project imports
        local = self._resolve_in_file(file_summary, spelled)
        if local is not None:
            return local
        target = file_summary.imports.get(spelled)
        if target is not None:
            module, original = target
            target_file = self.model.modules.get(module)
            if target_file is not None and original != "*":
                return self._resolve_in_file(target_file, original)
        return None

    def _resolve_in_file(self, file_summary: FileSummary, name: str) -> Optional[NodeKey]:
        if name in file_summary.functions:
            return ("f", file_summary.display_path, name)
        if name in file_summary.classes:
            # calling a class constructs it: the node is its __init__
            class_summary = file_summary.classes[name]
            if "__init__" in class_summary.methods:
                return ("m", file_summary.display_path, name, "__init__")
        return None

    # ------------------------------------------------------------------
    # raise reachability
    # ------------------------------------------------------------------
    def raises(self, key: NodeKey) -> bool:
        """Can this node propagate an exception to its caller?

        ``raise`` statements and calls that sit inside a ``try`` with a
        handler are treated as contained; unresolved callees (builtins,
        dynamic dispatch) are assumed non-raising, which keeps the rule
        quiet rather than noisy -- the documented trade-off.
        """
        memo = self._raises_memo
        if key in memo:
            return memo[key]
        on_stack: Set[NodeKey] = set()

        def walk(current: NodeKey) -> bool:
            if current in memo:
                return memo[current]
            if current in on_stack:
                return False  # recursion: the cycle alone proves nothing
            on_stack.add(current)
            summary = self._nodes[current]
            result = summary.raises_directly
            if not result:
                file_summary, class_summary = self._node_class[current]
                for kind, spelled, _line, in_try, _path in summary.events:
                    if kind != "call" or in_try:
                        continue
                    callee = self.resolve(file_summary, class_summary, spelled)
                    if callee is not None and walk(callee):
                        result = True
                        break
            on_stack.discard(current)
            memo[current] = result
            return result

        return walk(key)

    def call_raises(
        self,
        file_summary: FileSummary,
        class_summary: Optional[ClassSummary],
        spelled: str,
    ) -> bool:
        """Does a spelled call site (outside ``try``) risk an exception?"""
        key = self.resolve(file_summary, class_summary, spelled)
        return key is not None and self.raises(key)
