"""The process-wide cache of generated block functions, for both machines.

The RISC I engine (:mod:`repro.core.engine`) and the VAX-like engine
(:mod:`repro.baselines.vax.engine`) translate hot straight-line code into
Python functions.  Each translation is kept here under a key that starts
with the machine's name and holds the bytes it translated, so a patched
program is a different key and never runs a stale translation.  One LRU
of :data:`CACHE_SIZE` entries serves both machines; engines in several
threads share it under one lock, and translate outside it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

#: Generated functions kept process-wide; the least recently used is
#: dropped first.
CACHE_SIZE = 1024
_CACHE: OrderedDict = OrderedDict()
_CACHE_LOCK = threading.Lock()


def define(source: str, name: str, globals_: dict):
    """Compile generated ``source`` and return the function ``name`` it
    defines, in a namespace of its own (translation may run in threads)."""
    namespace: dict = {}
    exec(compile(source, f"<{name}>", "exec"), globals_, namespace)
    return namespace[name]


def lookup(key):
    """The entry cached under ``key``, or ``None``."""
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
        if entry is not None:
            _CACHE.move_to_end(key)
    return entry


def store(key, entry) -> None:
    """Cache ``entry`` under ``key``, dropping the least recently used."""
    with _CACHE_LOCK:
        _CACHE[key] = entry
        while len(_CACHE) > CACHE_SIZE:
            _CACHE.popitem(last=False)
