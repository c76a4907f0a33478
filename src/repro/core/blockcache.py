"""The block tier both fast engines share.

The RISC I engine (:mod:`repro.core.engine`) and the VAX-like engine
(:mod:`repro.baselines.vax.engine`) run hot straight-line code as Python
functions they generate; which instructions form a block, how they are
translated and where a block exits stay in each engine.  One promotion
rule (:data:`PROMOTE`, :data:`MAX_BLOCK`, :func:`promote`), one
:class:`Block` record and its fold, and one process-wide LRU of
translations serve both.  Each translation is cached under a key that
starts with the machine's name and holds the bytes it translated, so a
patched program never runs a stale one; engines in several threads share
the cache under one lock, and translate outside it.  See
``docs/ENGINE.md`` ("The block tier").
"""

from __future__ import annotations

import struct
import threading
from collections import OrderedDict

#: A head is translated on this visit (on its second, if its translation
#: is cached).  Translating costs about 52 us per instruction on RISC I
#: and saves about 0.45 us per instruction run, so a block repays its
#: translation after about 100 visits whatever its length.
PROMOTE = 100
#: Longest block, in instructions (a RISC I transfer's delay slot may add one).
MAX_BLOCK = 64
#: Generated functions kept process-wide.
CACHE_SIZE = 1024
_CACHE: OrderedDict = OrderedDict()
_CACHE_LOCK = threading.Lock()

_U32, _U16 = struct.Struct(">I"), struct.Struct(">H")
#: the big-endian load and store helpers every generated function gets
STRUCTS = {"U32": _U32.unpack_from, "U16": _U16.unpack_from,
           "P32": _U32.pack_into, "P16": _U16.pack_into}


class Block:
    """A block installed in one engine: its generated function ``run``, its
    ``shape`` (what its accounting needs, fixed by its bytes), the cycles
    of each instruction, and its counts.  ``length``, and on RISC I the
    ``last`` instruction's address and the ``pend``-ing window change, are
    slots of their own: the run loops read them on every block run."""

    __slots__ = ("run", "shape", "costs", "length", "last", "pend", "runs", "cuts")

    def __init__(self, run, shape, costs: tuple, last=None, pend=None):
        self.run, self.shape, self.costs = run, shape, costs
        self.length, self.last, self.pend = len(costs), last, pend
        #: full runs, and ``cuts[k]``: exits after the first ``k`` instructions
        self.runs = 0
        self.cuts = [0] * self.length

    def ran(self) -> list:
        """``(i, n)`` for each instruction ``i`` that ran, ``n`` times,
        since the last call; the counts start again from zero."""
        # instruction i ran in every full run and every exit after it
        executed, cuts = self.runs, self.cuts
        self.runs, self.cuts = 0, [0] * self.length
        counts = []
        for i in reversed(range(self.length)):
            if executed:
                counts.append((i, executed))
            executed += cuts[i]
        return counts


def promote(key, visits: int, translate):
    """The ``(function, shape)`` of a block: cached under ``key``, or
    ``translate()``-d and cached at the :data:`PROMOTE`-th visit; before
    that ``None``.  The least recently used entry is dropped first."""
    with _CACHE_LOCK:
        entry = _CACHE.get(key)
        if entry is not None:
            _CACHE.move_to_end(key)
    if entry is None and visits >= PROMOTE:
        entry = translate()
        with _CACHE_LOCK:
            _CACHE[key] = entry
            while len(_CACHE) > CACHE_SIZE:
                _CACHE.popitem(last=False)
    return entry


def define(source: str, name: str, globals_: dict):
    """Compile generated ``source`` and return the function ``name`` it
    defines, in a namespace of its own (translation may run in threads)."""
    namespace: dict = {}
    exec(compile(source, f"<{name}>", "exec"), globals_, namespace)
    return namespace[name]
