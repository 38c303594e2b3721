"""Shared analysis context handed to every checker.

Holds the parsed modules under analysis, an optional read-only scan set
(tests/scripts — scanned for stat-key *reads* but never linted), the repo
root, and lazily built cross-module indexes:

``key_constants``
    Module-level ALL-CAPS assignments whose value is a tuple/list/dict of
    string literals (e.g. ``LOAD_DECISION_COUNTERS``, ``STALL_REASONS``).
    Checkers use them to resolve non-literal stat keys and event kinds.

``self_attr_strings``
    Per (module, class): every ``self.<attr> = "literal"`` assignment, so a
    key expression like ``self._cycle_fetch_stall`` resolves to the set of
    literals ever assigned to that attribute.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from repro.lint.source import SourceFile

def _is_const_name(name: str) -> bool:
    stripped = name.lstrip("_")
    return bool(stripped) and stripped == stripped.upper() and stripped[0].isalpha()


def _literal_strings(node: ast.expr) -> set[str] | None:
    """Strings an expression can evaluate to, if statically known.

    Handles plain string constants and conditional expressions whose arms
    are themselves statically known (``"a" if flag else "b"``).
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    if isinstance(node, ast.IfExp):
        body = _literal_strings(node.body)
        orelse = _literal_strings(node.orelse)
        if body is not None and orelse is not None:
            return body | orelse
    return None


def _string_values(node: ast.expr) -> tuple[str, ...] | None:
    """Literal string payload of a tuple/list/set/dict display, else None."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        values = node.elts
    elif isinstance(node, ast.Dict):
        values = [v for v in node.values if v is not None]
    elif isinstance(node, ast.Call):
        # frozenset({...}) / tuple([...]) wrappers around a display.
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("frozenset", "tuple", "set", "list")
            and len(node.args) == 1
        ):
            return _string_values(node.args[0])
        return None
    else:
        return None
    out = []
    for value in values:
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            out.append(value.value)
        else:
            return None
    return tuple(out)


class LintContext:
    """Everything a checker may need: files, root, cross-module indexes."""

    def __init__(
        self,
        root: Path,
        files: Iterable[SourceFile],
        read_scan_files: Iterable[SourceFile] = (),
    ) -> None:
        self.root = Path(root)
        self.files: list[SourceFile] = list(files)
        self.read_scan_files: list[SourceFile] = list(read_scan_files)
        self._by_rel = {f.rel: f for f in self.files}
        self._key_constants: dict[str, tuple[str, ...]] | None = None
        self._self_attr_strings: dict[tuple[str, str], dict[str, set[str]]] | None = None

    def file(self, rel: str) -> SourceFile | None:
        return self._by_rel.get(rel)

    @property
    def key_constants(self) -> dict[str, tuple[str, ...]]:
        """Name -> literal string values, for every ALL-CAPS module constant
        holding only string literals (dict values / tuple / list / set)."""
        if self._key_constants is None:
            constants: dict[str, tuple[str, ...]] = {}
            for source in self.files:
                for node in source.tree.body:
                    if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                        continue
                    target = node.targets[0]
                    if not isinstance(target, ast.Name) or not _is_const_name(target.id):
                        continue
                    values = _string_values(node.value)
                    if values is not None:
                        constants[target.id] = values
            self._key_constants = constants
        return self._key_constants

    @property
    def self_attr_strings(self) -> dict[tuple[str, str], dict[str, set[str]]]:
        """(module rel, class name) -> attr -> string literals assigned to
        ``self.<attr>`` anywhere in that class (``None`` assignments are
        ignored; any other non-literal assignment poisons the attr)."""
        if self._self_attr_strings is None:
            index: dict[tuple[str, str], dict[str, set[str]]] = {}
            for source in self.files:
                for node in ast.walk(source.tree):
                    if not isinstance(node, ast.ClassDef):
                        continue
                    attrs: dict[str, set[str]] = {}
                    poisoned: set[str] = set()
                    for sub in ast.walk(node):
                        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
                            continue
                        targets = sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                        value = sub.value
                        for target in targets:
                            if not (
                                isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"
                            ):
                                continue
                            literals = _literal_strings(value)
                            if literals is not None:
                                attrs.setdefault(target.attr, set()).update(literals)
                            elif isinstance(value, ast.Constant):
                                pass  # None/ints never used as stat keys
                            else:
                                poisoned.add(target.attr)
                    for attr in poisoned:
                        attrs.pop(attr, None)
                    index[(source.rel, node.name)] = attrs
            self._self_attr_strings = index
        return self._self_attr_strings
