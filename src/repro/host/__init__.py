"""Host-side substrate: what stands between applications and the disk.

The paper's traces are *disk-level*: they show the traffic left over
after the host's caches have absorbed what they can. That filtering is
why disk-level mixes lean to writes (reads hit the page cache) and why
writes arrive in periodic bursts (dirty-page flushing). This subpackage
models that layer, so application-level workloads can be pushed through
a host cache and compared against the disk-level profiles — closing the
explanatory loop.
"""

from repro._lazy import lazy_exports

#: Public names by defining module, imported on first access (PEP 562).
_EXPORTS = {".pagecache": ("PageCache", "PageCacheStats")}

__getattr__, __dir__, __all__ = lazy_exports(globals(), _EXPORTS)
