"""PEP 562 lazy re-exports for package ``__init__`` modules.

A package ``__init__`` that re-exports its submodules' names imports all
of them as soon as anything under the package is imported, so a short
CLI run pays for every analysis module it never calls. A package that
lists its exports in a table instead imports each submodule on the first
access of one of its names.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], table: Mapping[str, Iterable[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return the ``(__getattr__, __dir__, __all__)`` of a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps a
    module path, relative to the package (``".summary"``), to the names
    the package re-exports from it, so the table is the package's one
    list of public names. The first access of a name imports its module
    and caches the value in ``namespace``, so later accesses are plain
    attribute lookups.
    """
    package = namespace["__name__"]
    owner = {name: module for module, names in table.items() for name in names}

    def __getattr__(name: str) -> Any:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owner))

    return __getattr__, __dir__, list(owner)
