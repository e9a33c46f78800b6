"""Every public name is used by the program, not only by its tests.

A name in a package's export table must be referenced from ``src/``
(outside its own definition and outside package ``__init__`` files),
``benchmarks/`` or ``examples/``. A helper that only its tests reach is
code the tests keep alive: it goes, or it earns an entry in ``ALLOWED``
with the reason it stays.
"""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
ROOTS = (ROOT / "src" / "repro", ROOT / "benchmarks", ROOT / "examples")

_PARSER = "ingest parser: registers itself under its --format name, reached through get_parser"
_OBS_READER = "obs reader: the documented consumer of a --trace-events dump"

#: Exported names that no root references, each with why it stays.
ALLOWED = {
    "transfer_time": "oracle that test_media_path_properties checks the drive's "
    "inlined transfer against",
    "AlibabaParser": _PARSER,
    "BlktraceParser": _PARSER,
    "MsrParser": _PARSER,
    "NativeParser": _PARSER,
    "SpcParser": _PARSER,
    "load_events_jsonl": _OBS_READER,
    "request_trace_from_events": _OBS_READER,
    "timeline_from_events": _OBS_READER,
    "characterize_events": _OBS_READER,
}


def _packages():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            yield importlib.import_module(info.name)


def _exports():
    """Each exported name with the source files of its defining modules."""
    homes = {}
    for package in _packages():
        for module, names in package._EXPORTS.items():
            spec = importlib.util.find_spec(importlib.util.resolve_name(module, package.__name__))
            for name in names:
                homes.setdefault(name, set()).add(Path(spec.origin).resolve())
    return homes


def _identifiers(tree, skip=None):
    """Names, attributes, imported names and string call arguments
    (``getattr(module, "name")``) in ``tree``, outside the node ``skip``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(node.name.split("."))
        elif isinstance(node, ast.Call):
            found.update(
                arg.value for arg in [*node.args, *(kw.value for kw in node.keywords)]
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
        stack.extend(ast.iter_child_nodes(node))
    return found


def _definition(tree, name):
    """The top-level statement of ``tree`` that defines ``name``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            return node
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        if any(isinstance(t, ast.Name) and t.id == name for t in targets):
            return node
    return None


@pytest.fixture(scope="module")
def exports():
    """The export table's names and a test of whether a root reaches one."""
    homes = _exports()
    used = {}
    for root in ROOTS:
        for path in sorted(root.rglob("*.py")):
            if path.name != "__init__.py":
                tree = ast.parse(path.read_text(), str(path))
                used[path.resolve()] = (tree, _identifiers(tree))

    def reached(name):
        # A use inside the name's own definition (recursion, a default
        # argument) does not reach it.
        return any(
            path not in homes[name] or name in _identifiers(tree, _definition(tree, name))
            for path, (tree, names) in used.items() if name in names
        )

    return homes, reached


def test_every_export_is_reached_outside_tests(exports):
    homes, reached = exports
    assert [name for name in sorted(set(homes) - set(ALLOWED)) if not reached(name)] == []


def test_allow_list_names_only_unreached_exports(exports):
    # A stale entry would let a later helper of the same name slip by.
    homes, reached = exports
    assert set(ALLOWED) <= set(homes)
    assert [name for name in sorted(ALLOWED) if reached(name)] == []
