"""The unified machine execution API.

Both simulated processors — the RISC I :class:`~repro.core.cpu.CPU` and
the VAX-like :class:`~repro.baselines.vax.cpu.VaxCPU` — implement one
:class:`Machine` protocol and produce one :class:`RunResult`, so every
consumer (the experiment harnesses, the simulation farm, the CLIs) is
written once against this module instead of special-casing each target.

The contract:

* ``load(program)`` installs a program image and resets execution state;
* ``run(*, max_steps=..., tracer=...)`` executes until the program halts,
  returning a :class:`RunResult`; exceeding the step budget raises
  :class:`StepLimitExceeded` (a loud outcome, never a silent truncation);
* ``step()`` executes one instruction, raising :class:`MachineHalted`
  on the halting instruction — after which ``halted`` is ``True``;
* ``to_dict()``/``from_dict()`` on :class:`RunResult` is the one result
  schema, machine-tagged so the right stats class round-trips.

:class:`MachineShell` is the part of that contract both processors share
word for word — ``run()`` orchestration, ``halted``/``exit_code``, the
tracer flags and the snapshot envelope — so each machine supplies only
its execute step and its own register and flag state.
"""

from __future__ import annotations

import base64
import dataclasses
import os
import time
import zlib
from typing import Any, Protocol, runtime_checkable

from repro.machine.traps import Trap, TrapKind

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_STEPS",
    "Machine",
    "MachineHalted",
    "MachineShell",
    "RESULT_SCHEMA_VERSION",
    "RunResult",
    "SNAPSHOT_SCHEMA_VERSION",
    "StepLimitExceeded",
    "VALID_ENGINES",
    "pack_bytes",
    "register_stats_type",
    "resolve_engine",
    "stats_type",
    "unpack_bytes",
]

#: The one step budget every machine defaults to.  (Historically the two
#: simulators disagreed — 100M vs 200M — which made "the same run" mean
#: different things per target.)
DEFAULT_MAX_STEPS = 200_000_000

#: Bump on any backwards-incompatible :meth:`RunResult.to_dict` change.
RESULT_SCHEMA_VERSION = 2

#: Execution engines a machine's ``run()`` accepts.  ``"fast"`` is the
#: predecoded path (:mod:`repro.core.engine` for RISC I, the translating
#: :mod:`repro.baselines.vax.engine` for the VAX); ``"reference"`` is the
#: plain ``step()`` loop the fast path is differentially tested
#: against.  Both produce bit-identical results, stats and event streams
#: by contract.
VALID_ENGINES = ("fast", "reference")

#: Engine used when neither the call site nor ``$REPRO_ENGINE`` says.
DEFAULT_ENGINE = "fast"

#: Bump on any backwards-incompatible :meth:`Machine.snapshot` change.
SNAPSHOT_SCHEMA_VERSION = 1

#: Memory-mapped I/O, a stand-in for the paper's (unspecified) system
#: environment, identical on both machines: a store to ``MMIO_PUTCHAR``
#: emits one character, to ``MMIO_PUTINT`` a signed decimal number, and
#: to ``MMIO_HALT`` ends the run with the stored value as exit code.
MMIO_BASE = 0x7F000000
MMIO_PUTCHAR = MMIO_BASE + 0x0
MMIO_PUTINT = MMIO_BASE + 0x4
MMIO_HALT = MMIO_BASE + 0xC


def to_signed(value: int) -> int:
    """Interpret a 32-bit pattern as a signed integer."""
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value & 0x80000000 else value


def pack_bytes(data: bytes | bytearray) -> str:
    """Encode a byte image as compressed base64 (JSON-safe).

    Snapshots carry the whole simulated memory; images are overwhelmingly
    zero bytes, so a fast zlib pass makes a 1 MiB memory a few-KB string.
    """
    return base64.b64encode(zlib.compress(bytes(data), 1)).decode("ascii")


def unpack_bytes(text: str) -> bytearray:
    """Invert :func:`pack_bytes`."""
    return bytearray(zlib.decompress(base64.b64decode(text.encode("ascii"))))


def resolve_engine(engine: str | None = None) -> str:
    """Resolve an execution-engine selection.

    Precedence: explicit argument, then the ``REPRO_ENGINE`` environment
    variable (which reaches farm worker processes too), then
    :data:`DEFAULT_ENGINE`.
    """
    resolved = engine or os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
    if resolved not in VALID_ENGINES:
        raise ValueError(
            f"unknown engine {resolved!r}; expected one of {', '.join(VALID_ENGINES)}"
        )
    return resolved


class MachineHalted(Exception):
    """The program executed its halt; ``code`` is the exit status.

    Raised by ``step()`` on the halting instruction.  ``run()`` catches it
    and returns the :class:`RunResult` instead.
    """

    def __init__(self, code: int):
        self.code = code
        super().__init__(f"halted with exit code {code}")


class StepLimitExceeded(Trap):
    """The step budget ran out before the program halted.

    A :class:`~repro.machine.traps.Trap` subclass, so existing handlers
    that catch ``Trap`` keep working, but the cause is now a distinct,
    catchable type carrying the exhausted ``limit`` and — for post-mortem
    analysis — the machine's (synced) partial ``stats`` and, for a run
    with a uarch probe, the cut run's ``pipeline`` stats (else ``None``).
    """

    def __init__(
        self, limit: int, pc: int | None = None, stats: Any = None, pipeline: Any = None
    ):
        super().__init__(TrapKind.HALT, f"instruction limit of {limit} reached", pc=pc)
        self.limit = limit
        self.stats = stats
        self.pipeline = pipeline

    def __reduce__(self):
        return type(self), (self.limit, self.pc, self.stats, self.pipeline)


# -- the stats-type registry -------------------------------------------------

_STATS_TYPES: dict[str, type] = {}


def register_stats_type(machine: str, cls: type) -> None:
    """Register a machine name -> per-run stats class for deserialization."""
    _STATS_TYPES[machine] = cls


def stats_type(machine: str) -> type:
    """The stats class for a machine name (imports lazily as needed)."""
    if machine not in _STATS_TYPES:
        # machine modules register themselves on import; pull in the ones
        # that are not already loaded
        if machine == "cisc":
            import repro.baselines.vax.cpu  # noqa: F401
        elif machine == "risc1":
            import repro.core.stats  # noqa: F401
    try:
        return _STATS_TYPES[machine]
    except KeyError:
        raise KeyError(f"no stats type registered for machine {machine!r}") from None


# -- the unified result ------------------------------------------------------


@dataclasses.dataclass
class RunResult:
    """Outcome of one simulated run, identical in shape for every machine.

    ``stats`` is the machine's own stats object (``ExecutionStats`` for
    RISC I, ``VaxStats`` for the VAX-like baseline); the common fields
    every consumer needs — ``cycles``, ``instructions``, memory traffic —
    are uniform properties here.
    """

    machine: str
    exit_code: int
    output: str
    stats: Any
    #: optional :class:`~repro.uarch.pipeline.PipelineStats` — attached
    #: when the run was measured under the pipeline timing model
    #: (``run(uarch=...)``); purely additive, so the schema is unchanged
    pipeline: Any = None

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def data_references(self) -> int:
        return self.stats.data_references

    def to_dict(self) -> dict:
        payload = {
            "schema": RESULT_SCHEMA_VERSION,
            "machine": self.machine,
            "exit_code": self.exit_code,
            "output": self.output,
            "stats": self.stats.to_dict(),
        }
        if self.pipeline is not None:
            payload["pipeline"] = self.pipeline.to_dict()
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "RunResult":
        """Rebuild from :meth:`to_dict` output."""
        machine = payload["machine"]
        stats = stats_type(machine).from_dict(payload["stats"])
        pipeline = None
        if payload.get("pipeline") is not None:
            from repro.uarch.pipeline import PipelineStats

            pipeline = PipelineStats.from_dict(payload["pipeline"])
        return RunResult(
            machine=machine,
            exit_code=payload["exit_code"],
            output=payload["output"],
            stats=stats,
            pipeline=pipeline,
        )


# -- the machine protocol ----------------------------------------------------


@runtime_checkable
class Machine(Protocol):
    """What every simulated processor looks like from the outside."""

    #: stable machine tag ("risc1", "cisc") used in result payloads
    name: str

    @property
    def halted(self) -> bool:
        """True once the loaded program has executed its halt."""
        ...

    def load(self, program) -> None:
        """Install a program image and reset execution state."""
        ...

    def run(
        self,
        *,
        max_steps: int | None = None,
        tracer=None,
        engine: str | None = None,
        record=None,
        uarch=None,
    ) -> RunResult:
        """Run to halt, or raise :class:`StepLimitExceeded` carrying the
        synced partial stats once ``max_steps`` run out.

        ``engine`` picks the execution path (see :data:`VALID_ENGINES`);
        ``None`` defers to ``$REPRO_ENGINE`` / :data:`DEFAULT_ENGINE`.
        ``record`` opts the finished run into the persistent run ledger
        (see :mod:`repro.obs.ledger`); ``None`` defers to
        ``$REPRO_LEDGER``.  ``uarch`` (a config spec, ``True`` for the
        default, or a :class:`~repro.uarch.config.UarchConfig`) measures
        the run under the pipeline timing model and attaches
        ``result.pipeline``.
        """
        ...

    def step(self) -> None:
        """Execute one instruction; raises :class:`MachineHalted` at halt."""
        ...

    def snapshot(self) -> dict:
        """The complete architectural state as a JSON-safe dict.

        The contract is *bit-exact resumability*: ``restore(snapshot())``
        on any machine of the same shape (same memory size, same window
        count) must leave it indistinguishable from the original — the
        same future execution, stats, traffic counters and output,
        whichever engine runs it.  Byte images are packed with
        :func:`pack_bytes`; the dict round-trips through ``json``.
        """
        ...

    def restore(self, state: dict) -> None:
        """Install a :meth:`snapshot`; raises ``ValueError`` on mismatch."""
        ...


# -- the shared machine shell ------------------------------------------------


class MachineShell:
    """The :class:`Machine` behaviour both processors share.

    It owns the state every machine has — memory, stats, ``pc``, console
    output, the halt flag and exit code, tracer and metrics.  A subclass
    supplies:

    * ``step()`` — its reference interpreter, one instruction;
    * :meth:`_make_engine` — its fast engine;
    * :meth:`_snapshot_state` / :meth:`_restore_state` — its own
      register and flag state inside the common snapshot envelope;
    * :meth:`_sync_memory_stats` — when it folds counters lazily.

    The shell owns the fast engine's lifetime, the same on both machines.
    The engine is built by the first fast ``run()`` after :meth:`load` or
    :meth:`restore` and kept across ``run()`` calls, attached to
    ``memory.write_watch`` so that any write drops the translations it
    covers.  It is dropped at :meth:`load` and :meth:`restore`, when a run
    ends in a halt or a trap, and when a measured run starts (so that its
    sink is told about every word the run executes).
    """

    name: str

    def __init__(self, memory, stats, tracer=None, metrics=None):
        self.memory = memory
        self.stats = stats
        self.metrics = metrics
        self._install_tracer(tracer)
        self._halted = False
        self._exit_code: int | None = None
        self.pc = 0
        self._console: list[str] = []
        #: the last-loaded program (the RISC I fast engine predecodes it)
        self._program = None
        #: the :mod:`repro.uarch.sink` retire sink of a measured run
        self._sink = None
        #: the fast engine, while it lives (see the class docstring)
        self._engine = None

    def _install_tracer(self, tracer) -> None:
        """Resolve the tracer once; the step loops only test booleans."""
        from repro.obs.events import EventKind
        from repro.obs.tracer import NULL_TRACER

        self.tracer = tracer if tracer is not None else NULL_TRACER
        wants = self.tracer.wants
        self._trace_retire = wants(EventKind.RETIRE)
        self._trace_mem = wants(EventKind.MEM_REF)
        self._trace_flow = wants(EventKind.CALL) or wants(EventKind.RET)
        self._trace_window = wants(EventKind.WINDOW_OVERFLOW) or wants(
            EventKind.WINDOW_UNDERFLOW
        )
        self._trace_trap = wants(EventKind.TRAP)

    def load(self, program) -> None:
        """Load a program image and reset execution state."""
        self._drop_engine()
        for segment in program.segments:
            self.memory.load_image(segment.base, segment.data)
        self.pc = program.entry
        self._halted = False
        self._exit_code = None
        self._program = program

    @property
    def halted(self) -> bool:
        """True once the loaded program has executed its halt."""
        return self._halted

    @property
    def exit_code(self) -> int | None:
        return self._exit_code

    def run(
        self,
        *,
        max_steps: int | None = None,
        tracer=None,
        engine: str | None = None,
        record=None,
        uarch=None,
    ) -> RunResult:
        """:meth:`Machine.run`: the step budget defaults to
        :data:`DEFAULT_MAX_STEPS`, and a ``tracer`` passed here stays
        installed after the run."""
        limit = DEFAULT_MAX_STEPS if max_steps is None else max_steps
        if tracer is not None:
            self._install_tracer(tracer)
        engine_name = resolve_engine(engine)
        sink = None
        if uarch is not None and uarch is not False:
            from repro.uarch import PipelineModel, resolve_uarch
            from repro.uarch.sink import open_sink

            sink = open_sink(self, [PipelineModel(resolve_uarch(uarch), self.name, self.tracer)])
        started = time.perf_counter()
        try:
            self._run_steps(limit, engine_name)
            self._sync_memory_stats()
            pipeline = sink.finish()[0] if sink is not None else None
            raise StepLimitExceeded(limit, pc=self.pc, stats=self.stats, pipeline=pipeline)
        except MachineHalted as halt:
            wall_s = time.perf_counter() - started
            self._sync_memory_stats()
            result = RunResult(self.name, halt.code, "".join(self._console), self.stats)
            if sink is not None:
                result.pipeline = sink.finish()[0]
            if self.metrics is not None:
                from repro.obs.metrics import record_machine_run

                record_machine_run(self.metrics, result)
            from repro.obs.ledger import maybe_record_run

            maybe_record_run(
                result,
                engine=engine_name,
                wall_s=wall_s,
                record=record,
                metrics=self.metrics,
            )
            return result
        finally:
            if sink is not None:
                sink.close()

    def _run_steps(self, limit: int, engine: str) -> None:
        """Execute up to ``limit`` instructions, on the fast engine or by the
        reference ``step()`` loop; :class:`MachineHalted` ends early."""
        if engine != "fast" or self._program is None:
            for _ in range(limit):
                self.step()
            return
        if self._sink is not None:
            # a measured run: its sink must be told about every word it runs
            self._drop_engine()
        if self._engine is None:
            self._engine = self._make_engine()
            self.memory.write_watch = self._engine._note_write
        # observers read the stats mid-run: an observed run keeps them per step
        observed = bool(
            self._trace_retire or self._trace_mem or self._trace_flow
            or self._trace_window or self._trace_trap
        ) or self.on_execute is not None
        try:
            self._engine.run(limit, observed)
        except BaseException:
            self._drop_engine()  # the run ended in a halt or a trap
            raise

    def _make_engine(self):
        """This machine's fast engine, bound to it."""
        raise NotImplementedError

    def _drop_engine(self) -> None:
        """Detach the fast engine from the memory and drop it.  Each of its
        runs folded its counts as it ended.  Its closures point back at it
        and at this machine, so its tables are emptied too: reference
        counting alone then frees a dropped machine."""
        engine, self._engine = self._engine, None
        if engine is not None:
            self.memory.write_watch = None
            vars(engine).clear()

    def _halt(self, code: int) -> None:
        self._halted = True
        self._exit_code = code
        raise MachineHalted(code)

    def _mmio_store(self, address: int, value: int, width: int, pc: int) -> None:
        """A store at or above :data:`MMIO_BASE`, made by the instruction at ``pc``."""
        self.memory.stats.data_writes += 1  # charged like any other store
        # the event is emitted before the store takes effect so the halting
        # store (and a trapping one) still appears in the trace — keeping
        # the MEM_REF stream in lockstep with the data_writes counter
        if self._trace_mem:
            self.tracer.mem_ref(self.stats.cycles, pc, address, "w", width)
        if address == MMIO_PUTCHAR:
            self._console.append(chr(value & 0xFF))
        elif address == MMIO_PUTINT:
            self._console.append(str(to_signed(value)))
        elif address == MMIO_HALT:
            self._halt(to_signed(value))
        else:
            raise Trap(TrapKind.BUS_ERROR, f"unknown MMIO address {address:#x}", pc=pc)

    def _sync_memory_stats(self) -> None:
        """Fold lazily kept counters into ``stats`` (nothing to fold by default)."""

    # -- snapshot / restore ------------------------------------------------

    def snapshot(self) -> dict:
        """Complete architectural state, JSON-safe and bit-exact.

        Stats counters are synced first (idempotent), so a snapshot taken
        after manual ``step()``-ing and one taken after a ``run()`` chunk
        covering the same steps are identical.
        """
        self._sync_memory_stats()
        return {
            "schema": SNAPSHOT_SCHEMA_VERSION,
            "machine": self.name,
            "pc": self.pc,
            "halted": self._halted,
            "exit_code": self._exit_code,
            "console": "".join(self._console),
            **self._snapshot_state(),
            "stats": self.stats.to_dict(),
            "memory": {
                "size": self.memory.size,
                "data": pack_bytes(self.memory._bytes),
                "inst_fetches": self.memory.stats.inst_fetches,
                "data_reads": self.memory.stats.data_reads,
                "data_writes": self.memory.stats.data_writes,
            },
        }

    def restore(self, state: dict) -> None:
        """Install a :meth:`snapshot` taken from a machine of the same shape.

        Shared mutable structures (register storage, the memory
        bytearray) are updated in place, never replaced — cached engine
        closures and operand evaluators hold references to them.  Every
        check runs before anything is written, so a rejected snapshot
        leaves the machine untouched.
        """
        if state.get("machine") != self.name:
            raise ValueError(
                f"snapshot is for machine {state.get('machine')!r}, not {self.name!r}"
            )
        if state.get("schema") != SNAPSHOT_SCHEMA_VERSION:
            raise ValueError(f"unsupported snapshot schema {state.get('schema')!r}")
        memory = state["memory"]
        if memory["size"] != self.memory.size:
            raise ValueError(
                f"snapshot memory is {memory['size']} bytes, "
                f"this CPU has {self.memory.size}"
            )
        image = unpack_bytes(memory["data"])
        if len(image) != self.memory.size:
            raise ValueError("snapshot memory image does not match its declared size")
        self._restore_state(state)
        self._drop_engine()
        self.pc = state["pc"]
        self._halted = state["halted"]
        self._exit_code = state["exit_code"]
        self._console = [state["console"]] if state["console"] else []
        self.stats = type(self.stats).from_dict(state["stats"])
        self.memory._bytes[:] = image
        self.memory.stats.inst_fetches = memory["inst_fetches"]
        self.memory.stats.data_reads = memory["data_reads"]
        self.memory.stats.data_writes = memory["data_writes"]

    def _snapshot_state(self) -> dict:
        """This machine's own registers and flags, JSON-safe."""
        raise NotImplementedError

    def _restore_state(self, state: dict) -> None:
        """Check, then install, what :meth:`_snapshot_state` captured."""
        raise NotImplementedError
