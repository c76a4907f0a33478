"""The 5-stage pipeline cycle-accounting model.

This is a *timing* model layered over the architectural simulator's
retired-instruction stream — it never executes anything, so the
bit-identical differential harness (``tests/test_engine_diff.py``)
remains the correctness gate while this module answers the paper's
microarchitectural question: does one instruction really leave the
pipeline every cycle?

The model is the classic in-order single-issue IF/ID/EX/MEM/WB pipe
(the modern RV32 blueprint of RVCoreP / basic_RV32s, which is also the
paper's own three-stage machine grown to the textbook five stages):

* instruction ``i`` enters EX at cycle ``e_i = max(next_free, ready)``
  where ``next_free`` covers the previous instruction's EX/MEM occupancy
  (a load or store holds the single memory port for
  ``mem_port_cycles``), plus any control-flush or window-drain cycles;
* ``ready`` is the RAW-hazard constraint: a consumer may enter EX no
  earlier than ``producer_ex + latency``, with latency set by the
  forwarding matrix (see :class:`~repro.uarch.config.UarchConfig`):

  ============  =========  ==========
  forwarding    ALU lat    load lat
  ============  =========  ==========
  ``none``      3 (WB)     3 (WB)
  ``ex``        1 (EX→EX)  3 (WB)
  ``full``      1 (EX→EX)  2 (MEM→EX)
  ============  =========  ==========

  so under ``full`` the only data stall is the one-bubble load-use
  interlock, and the no-bypass pipe pays up to two bubbles per
  dependent pair;
* delayed control transfers always execute their slot (RISC I
  semantics); the model scores each dynamic slot as *filled* (useful
  work) or a *nop* (the bubble the optimizer failed to hide);
* conditional branches are predicted at fetch and resolved from the
  retired PC stream: a RISC I jump at ``P`` was taken iff the second
  retire after it (slot, then resolved path) is not at ``P + 8``; a VAX
  branch resolves one retire later.  A misprediction squashes
  ``mispredict_penalty`` wrong-path fetch cycles.  Unconditional
  transfers need no prediction: the address adder computes their
  targets during decode and the delay slot hides the fetch bubble —
  exactly the paper's delayed-jump argument;
* register-window overflow/underflow handlers drain the pipe for the
  handler cycles the architectural model already charges, reported in
  the ``window`` stall bucket; a VAX instruction occupies EX/MEM for its
  exact cycle cost, the microcode serializing the pipe.

RISC I register ids are *physical* indices through the window map of
the instruction's CWP, so the CALL/RETURN overlap aliases; a CALL's
return address lands in the *next* window (rotation happens under its
delay slot).  VAX hazards come from register-mode operands and their
access codes (plus SP for push, CALLS and RET).  Condition codes are
always forwarded.  The stream is replayed after the fact, in chunks
(:mod:`repro.uarch.sink`); a VAX instruction's cost is known only when
the next one starts, so the VAX is accounted *lag-one*.
"""

from __future__ import annotations

import collections
import dataclasses

from repro.obs.events import EventKind
from repro.uarch.config import UarchConfig
from repro.uarch.predictors import make_predictor

__all__ = ["PipelineModel", "PipelineStats", "Retire", "STALL_KINDS"]

#: RAW latencies (ALU, load) per forwarding mode, in EX-to-EX cycles.
_LATENCIES = {
    "none": (3, 3),
    "ex": (1, 3),
    "full": (1, 2),
}

#: The stall buckets, in reporting order.
STALL_KINDS = ("raw", "load_use", "control", "window", "structural")


@dataclasses.dataclass
class PipelineStats:
    """Cycle accounting for one run through the pipeline model."""

    machine: str = "risc1"
    config: dict = dataclasses.field(default_factory=dict)
    instructions: int = 0
    #: total pipeline cycles (fill + issue + every stall below)
    cycles: int = 0
    #: pipeline fill (depth - 1 cycles to first retire)
    fill_cycles: int = 0
    #: RAW-hazard bubbles whose binding producer was an ALU result
    raw_stalls: int = 0
    #: RAW-hazard bubbles whose binding producer was a load
    load_use_stalls: int = 0
    #: wrong-path fetch cycles squashed on branch mispredictions
    control_stalls: int = 0
    #: pipeline-drain cycles for window overflow/underflow handlers
    window_stalls: int = 0
    #: extra EX/MEM occupancy of multi-cycle instructions (the memory
    #: port for RISC I loads/stores; microcode iteration for the VAX)
    structural_stalls: int = 0
    #: conditional branches resolved / predicted correctly / taken
    branches: int = 0
    branch_hits: int = 0
    branches_taken: int = 0
    #: conditional branches still unresolved when the run halted
    branches_unresolved: int = 0
    #: dynamic delayed-branch slots: total, carrying useful work, nops
    delay_slots: int = 0
    delay_slots_filled: int = 0
    delay_slot_nops: int = 0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def mispredicts(self) -> int:
        return self.branches - self.branch_hits

    @property
    def predictor_accuracy(self) -> float:
        return self.branch_hits / self.branches if self.branches else 1.0

    @property
    def stall_cycles(self) -> int:
        return sum(self.stall_breakdown().values())

    @property
    def slot_fill_rate(self) -> float:
        return self.delay_slots_filled / self.delay_slots if self.delay_slots else 0.0

    def stall_breakdown(self) -> dict[str, int]:
        """Stall cycles per bucket, in :data:`STALL_KINDS` order."""
        return {kind: getattr(self, f"{kind}_stalls") for kind in STALL_KINDS}

    def to_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        # derived values are serialized too so ledger records and
        # BENCH_*.json files are self-describing without this class
        payload["cpi"] = round(self.cpi, 4)
        payload["mispredicts"] = self.mispredicts
        payload["predictor_accuracy"] = round(self.predictor_accuracy, 4)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineStats":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in payload.items() if k in fields})

    def summary(self) -> str:
        """A human-readable block, in the style of ``ExecutionStats.summary``."""
        config = UarchConfig.from_dict(self.config) if self.config else UarchConfig()
        lines = [
            f"pipeline model        : {config.depth}-stage, {config.label}",
            f"pipeline cycles       : {self.cycles}",
            f"pipeline CPI          : {self.cpi:.3f}",
            "stalls                : "
            f"raw {self.raw_stalls}, load-use {self.load_use_stalls}, "
            f"control {self.control_stalls}, window {self.window_stalls}, "
            f"structural {self.structural_stalls}",
            f"cond branches         : {self.branches} "
            f"({self.branches_taken} taken, {self.mispredicts} mispredicted, "
            f"{100.0 * self.predictor_accuracy:.1f}% accuracy)",
            f"delay slots           : {self.delay_slots} "
            f"({self.delay_slots_filled} filled, {self.delay_slot_nops} nops)",
        ]
        return "\n".join(lines)


#: One retired instruction as :meth:`PipelineModel.replay` reads it:
#: abstract register ids, the class flags, the branch's static target
#: and fall-through, and the EX/MEM occupancy (``is_mem`` uses the
#: configuration's ``mem_port_cycles`` instead).
Retire = collections.namedtuple(
    "Retire",
    "pc reads writes is_load is_mem delayed conditional target fallthrough "
    "is_nop occupancy",
)

#: Retires from a conditional branch to the PC that shows its outcome.
_RESOLVE_AFTER = {"risc1": 2, "cisc": 1}


class PipelineModel:
    """Cycle accounting for one run, replayed from its retired stream.

    :mod:`repro.uarch.sink` turns a machine's buffered retire records
    into chunks of :data:`Retire` entries and plain ``int`` window-drain
    cycle counts, and hands each chunk to :meth:`replay`.  The model
    never touches machine state.
    """

    def __init__(self, config: UarchConfig | None = None, machine: str = "risc1",
                 tracer=None):
        self.config = config or UarchConfig()
        self.machine = machine
        self.predictor = make_predictor(self.config)
        self.stats = PipelineStats(machine=machine, config=self.config.to_dict())
        self._alu_lat, self._load_lat = _LATENCIES[self.config.forwarding]
        self._resolve_after = _RESOLVE_AFTER[machine]
        #: EX/MEM occupancy frontier; the first instruction's EX is 2
        self._next_free = 2
        #: reg id -> (cycle its value reaches a consumer's EX, from a load)
        self._avail: dict[int, tuple[int, bool]] = {}
        #: unresolved conditional branches, oldest first: (instruction
        #: number that resolves it, pc, predicted taken, fall-through pc)
        self._pending: list[tuple] = []
        self._in_delay_slot = False
        self._tracer = tracer
        self._trace_stall = tracer is not None and tracer.wants(EventKind.PIPE_STALL)

    # -- feeding -----------------------------------------------------------

    def replay(self, chunk) -> None:
        """Account a chunk of the retired stream, in order.

        An ``int`` entry charges a window overflow/underflow handler's
        (positive) drain cycles before the next instruction; every other entry is a
        :data:`Retire`.  Each instruction resolves the conditional
        branch whose outcome its PC reveals, is scored if it fills a
        delay slot, waits for its operands under the forwarding matrix,
        and occupies EX/MEM for its cycles.
        """
        stats = self.stats
        predict, update = self.predictor.predict, self.predictor.update
        avail = self._avail
        get = avail.get
        pending = self._pending
        alu_lat, load_lat = self._alu_lat, self._load_lat
        mem_port, penalty = self.config.mem_port_cycles, self.config.mispredict_penalty
        resolve_after = self._resolve_after
        stall = self._tracer.pipe_stall if self._trace_stall else None
        next_free = self._next_free
        in_slot = self._in_delay_slot
        count = stats.instructions
        raw = load_use = structural = 0
        for entry in chunk:
            if entry.__class__ is int:
                next_free += entry
                stats.window_stalls += entry
                if stall is not None:
                    stall(next_free, 0, "window", entry)
                continue
            (pc, reads, writes, is_load, is_mem, delayed, conditional, target,
             fallthrough, is_nop, occupancy) = entry
            count += 1

            # resolve the conditional branch whose outcome this pc reveals
            if pending and pending[0][0] == count:
                _, branch_pc, predicted, branch_fall = pending.pop(0)
                taken = pc != branch_fall
                update(branch_pc, taken)
                stats.branches += 1
                if taken:
                    stats.branches_taken += 1
                if predicted == taken:
                    stats.branch_hits += 1
                elif penalty:
                    next_free += penalty
                    stats.control_stalls += penalty
                    if stall is not None:
                        stall(next_free, branch_pc, "control", penalty)

            # delayed-branch slot accounting
            if in_slot:
                in_slot = False
                stats.delay_slots += 1
                if is_nop:
                    stats.delay_slot_nops += 1
                else:
                    stats.delay_slots_filled += 1

            # RAW hazards against the forwarding matrix
            ex = next_free
            if reads:
                binding_load = False
                for reg in reads:
                    producer = get(reg)
                    if producer is not None and producer[0] > ex:
                        ex, binding_load = producer
                if ex != next_free:
                    if binding_load:
                        load_use += ex - next_free
                    else:
                        raw += ex - next_free
                    if stall is not None:
                        stall(ex, pc, "load_use" if binding_load else "raw", ex - next_free)

            # issue: occupy EX/MEM for this instruction's cycles
            if is_mem:
                occupancy = mem_port
            next_free = ex + occupancy
            if occupancy > 1:
                structural += occupancy - 1
            if writes:
                ready = (ex + (load_lat if is_load else alu_lat), is_load)
                for reg in writes:
                    avail[reg] = ready

            if delayed:
                in_slot = True
            if conditional:
                pending.append((count + resolve_after, pc, predict(pc, target), fallthrough))

        self._next_free = next_free
        self._in_delay_slot = in_slot
        stats.instructions = count
        stats.raw_stalls += raw
        stats.load_use_stalls += load_use
        stats.structural_stalls += structural

    # -- finishing ---------------------------------------------------------

    def finalize(self) -> PipelineStats:
        """Close the run and return the finished :class:`PipelineStats`.

        Branches whose outcome the halt cut off are counted as
        unresolved, not guessed.
        """
        stats = self.stats
        stats.branches_unresolved = len(self._pending)
        self._pending = []
        if stats.instructions:
            depth = self.config.depth
            stats.fill_cycles = depth - 1
            # last EX cycle was _next_free - occupancy; the last
            # instruction leaves the pipe (depth - 2) cycles after its
            # EX-completion cycle, and cycle indices start at 0
            stats.cycles = self._next_free + depth - 3
        return stats
