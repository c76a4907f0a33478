"""Byte-addressable main memory.

RISC I is a big-endian, byte-addressable machine with 32-bit words.  Loads
and stores of shorts and longs must be naturally aligned; a misaligned
access raises an alignment trap, as on the real chip.

The memory keeps separate counters for instruction fetches and data
references because the paper's evaluation leans on *memory traffic* as a
first-class metric (it is how register windows beat conventional calling
conventions).
"""

from __future__ import annotations

import dataclasses

from repro.machine.traps import Trap, TrapKind


class MemoryError_(Trap):
    """A memory trap (alignment or bus error)."""


@dataclasses.dataclass
class MemoryStats:
    """Traffic counters, in units of accesses (not bytes)."""

    inst_fetches: int = 0
    data_reads: int = 0
    data_writes: int = 0

    @property
    def data_references(self) -> int:
        return self.data_reads + self.data_writes

    @property
    def total(self) -> int:
        return self.inst_fetches + self.data_references

    def reset(self) -> None:
        self.inst_fetches = 0
        self.data_reads = 0
        self.data_writes = 0


class Memory:
    """Big-endian byte-addressable memory of a fixed size.

    ``check_alignment`` is on for RISC I (misaligned access traps, as on
    the chip) and off for the VAX-like baseline (VAX hardware allowed
    unaligned operands).
    """

    def __init__(self, size: int = 1 << 20, check_alignment: bool = True):
        if size <= 0 or size % 4:
            raise ValueError(f"memory size must be a positive multiple of 4: {size}")
        self.size = size
        self.check_alignment = check_alignment
        self._bytes = bytearray(size)
        self.stats = MemoryStats()
        #: Optional ``fn(address, width)`` called after every accounted
        #: write and every :meth:`load_image`.  A machine's fast engine is
        #: installed here while it lives, so writes into code (self-modifying
        #: programs, window spills over code, images loaded between runs,
        #: ...) drop stale translations.
        self.write_watch = None

    # -- raw access (no traffic accounting; used by loaders/tests) -----

    def load_image(self, address: int, data: bytes) -> None:
        """Copy ``data`` into memory at ``address`` without accounting."""
        self._bounds(address, len(data))
        self._bytes[address : address + len(data)] = data
        if self.write_watch is not None:
            self.write_watch(address, len(data))

    def dump(self, address: int, length: int) -> bytes:
        """Read raw bytes without accounting."""
        self._bounds(address, length)
        return bytes(self._bytes[address : address + length])

    # -- accounted accesses --------------------------------------------

    def fetch_word(self, address: int) -> int:
        """Fetch an instruction word (counted as an instruction fetch)."""
        value = self._read(address, 4)
        self.stats.inst_fetches += 1
        return value

    def read(self, address: int, width: int, signed: bool = False) -> int:
        """Data read of 1, 2 or 4 bytes, optionally sign-extended."""
        value = self._read(address, width)
        self.stats.data_reads += 1
        if signed:
            sign = 1 << (width * 8 - 1)
            value = (value & (sign - 1)) - (value & sign)
        return value

    def write(self, address: int, value: int, width: int) -> None:
        """Data write of 1, 2 or 4 bytes (value taken modulo the width)."""
        self._check(address, width)
        value &= (1 << (width * 8)) - 1
        self._bytes[address : address + width] = value.to_bytes(width, "big")
        self.stats.data_writes += 1
        if self.write_watch is not None:
            self.write_watch(address, width)

    # -- helpers ---------------------------------------------------------

    def _read(self, address: int, width: int) -> int:
        self._check(address, width)
        return int.from_bytes(self._bytes[address : address + width], "big")

    def _check(self, address: int, width: int) -> None:
        if width not in (1, 2, 4):
            raise ValueError(f"unsupported access width: {width}")
        if self.check_alignment and address % width:
            raise MemoryError_(
                TrapKind.ALIGNMENT, f"{width}-byte access at {address:#x}"
            )
        self._bounds(address, width)

    def _bounds(self, address: int, length: int) -> None:
        if address < 0 or address + length > self.size:
            raise MemoryError_(
                TrapKind.BUS_ERROR,
                f"access of {length} byte(s) at {address:#x} exceeds {self.size:#x}",
            )
