"""Command-line interface (``repro-workloads``).

Subcommands cover the library's workflow end to end: list profiles,
synthesize traces at each granularity, analyze trace files, and run the
one-shot millisecond study. See ``repro-workloads --help``.

``main`` is resolved on first access (PEP 562), so ``python -m
repro.cli.main`` runs ``main.py`` once, as ``__main__``, instead of
also importing it as ``repro.cli.main`` with the package.
"""

from repro._lazy import lazy_exports

_EXPORTS = {".main": ("main",)}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
