"""Universe lifetime and the cyclic garbage collector.

A universe (simulator, fabric, per-pair VC and TCP meshes, per-pid
schedulers, transports and receive loops) is built once and lives until
its run ends; rescanning it on every collection frees nothing.
:func:`building_universe` wraps the two seams that build one,
:func:`repro.net.blueprint.materialize` (``new=True``) and
``NcsRuntime.__init__`` (``new=False``):

* the collector is paused inside; the caller's ``gc.isenabled()`` is
  restored on exit, also when the body raises;
* a normal exit calls ``gc.freeze()``, moving the finished universe
  into the permanent generation that collections and interpreter exit
  skip;
* a new universe first calls ``gc.unfreeze()`` to hand the previous one
  back to the collector (a runtime does too when the last freeze was a
  runtime's).  No collection is forced;
* after a hand-back nothing is frozen again until a full collection has
  run (the gen-2 count of ``gc.get_stats()``); otherwise a dropped
  universe would go straight back to the permanent generation and
  repeated builds would leak.

No simulated behaviour can see when the collector runs: no model object
has a finalizer and no ordering depends on object addresses.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["building_universe"]


class _Collector:
    """This module's view of the process's one cyclic collector.

    The collector is process-global, so this state is too.  A lock
    guards it because sharded thread workers build concurrently; only
    the outermost open body pauses, restores and freezes.
    """

    def __init__(self):
        self.lock = threading.Lock()
        self.depth = 0
        self.was_enabled = True
        self.new = False
        #: gen-2 collection count when frozen objects were last handed
        #: back; ``None`` once a full collection has run since
        self.released_at: Optional[int] = None
        #: whether our freezes hold objects (tracked here because
        #: ``gc.get_freeze_count()`` walks the whole permanent generation)
        self.frozen = False
        #: the last freeze was a runtime's
        self.runtime_frozen = False

    def enter(self, new: bool) -> None:
        with self.lock:
            if self.depth == 0:
                self.was_enabled = gc.isenabled()
                gc.disable()
                self.new = new
                if self.frozen and (new or self.runtime_frozen):
                    gc.unfreeze()
                    self.frozen = self.runtime_frozen = False
                    self.released_at = _full_collections()
            self.depth += 1

    def exit(self, ok: bool) -> None:
        with self.lock:
            self.depth -= 1
            if self.depth:
                return
            if ok and (self.released_at is None
                       or _full_collections() != self.released_at):
                self.released_at = None
                gc.freeze()
                self.frozen = True
                self.runtime_frozen = not self.new
            if self.was_enabled:
                gc.enable()


def _full_collections() -> int:
    return gc.get_stats()[2]["collections"]


_COLLECTOR = _Collector()


@contextmanager
def building_universe(new: bool) -> Iterator[None]:
    """Pause the cyclic collector while a universe is built, then freeze
    it; ``new`` first hands the previous universe back (module doc)."""
    _COLLECTOR.enter(new)
    ok = False
    try:
        yield
        ok = True
    finally:
        _COLLECTOR.exit(ok)
