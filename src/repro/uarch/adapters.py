"""Machine adapters: retired-instruction streams → pipeline model feed.

The pipeline model (:mod:`repro.uarch.pipeline`) is machine-agnostic; the
adapters here translate each machine's per-instruction hook into
:meth:`~repro.uarch.pipeline.PipelineModel.observe` calls.  One adapter
can feed any number of models at once, so comparing N configurations
costs one architectural run, not N.

**RISC I** (:class:`RiscPipelineAdapter`) hangs off ``CPU.on_execute``,
which fires identically in the reference ``step()`` loop and the fast
engine's loop (a hooked run keeps ``instructions``/``cycles`` per step) —
pipeline stats are therefore engine-independent by the same mechanism
that makes the engines bit-identical.  Register
operands are resolved to *physical* indices through the same window maps
the fast engine uses, so the CALL/RETURN overlap (caller LOW = callee
HIGH) aliases correctly and cross-call hazards through shared registers
are seen.  A CALL's return-address write lands in the *next* window
(rotation happens under its delay slot).  Window overflow/underflow
drain cycles are picked up as deltas of the architectural
``stats.overflow_cycles`` counter.  Branch outcomes are read from the
retired PC stream: a conditional jump at ``P`` was taken iff the second
retire after it (branch, slot, then resolved path) is not at ``P + 8``.

**VAX** (:class:`VaxPipelineAdapter`) hangs off ``VaxCPU.on_execute``
and feeds the model *lag-one*: instruction ``i`` is observed when
``i + 1``'s hook fires, because only then is ``i``'s exact cycle cost
(base + specifier + memory-traffic cycles) known — that cost becomes the
EX/MEM occupancy, modelling the microcode serializing the pipe.
Conditional branches resolve one retire later against the recorded
fall-through PC.  Register reads/writes come from pairing operand access
codes (``r``/``w``/``m``) with register-mode operands; memory operands'
address registers were consumed by the specifier evaluators and are not
re-derived (address-generation hazards are out of scope for a baseline
whose pipe is already serialized by microcode occupancy).

Approximations shared by both adapters (documented in
``docs/PIPELINE.md``): condition codes are always forwarded, and an
interrupt arriving exactly in a branch's resolution shadow perturbs that
one branch's taken/not-taken reading — both engines perturb it
identically, so differential parity holds.
"""

from __future__ import annotations

from repro.isa.conditions import Cond
from repro.isa.opcodes import Opcode

__all__ = [
    "RiscPipelineAdapter",
    "VaxPipelineAdapter",
    "attach_pipeline",
    "detach_pipeline",
]

_ARITH_OPS = frozenset(
    {
        Opcode.ADD, Opcode.ADDC, Opcode.SUB, Opcode.SUBC, Opcode.SUBR,
        Opcode.SUBCR, Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SLL,
        Opcode.SRL, Opcode.SRA,
    }
)
_LOAD_OPS = frozenset(
    {Opcode.LDL, Opcode.LDSU, Opcode.LDSS, Opcode.LDBU, Opcode.LDBS}
)
_STORE_OPS = frozenset({Opcode.STL, Opcode.STS, Opcode.STB})
#: conditions that make a jump genuinely conditional: ALW always takes,
#: NOP never does — neither needs a predictor
_UNCONDITIONAL = frozenset({Cond.ALW, Cond.NOP})


class RiscPipelineAdapter:
    """Feeds one RISC I run's retired stream to one or more models.

    Installed as (or chained into) ``cpu.on_execute``; per-PC operand
    classification is cached, keyed on the decoded instruction's
    identity, so self-modifying code reclassifies automatically (the
    decode cache interns instruction objects per word).
    """

    def __init__(self, cpu, models):
        from repro.core.engine import _window_maps

        self.cpu = cpu
        self.models = list(models)
        self.prev = None
        self._maps = _window_maps(cpu.regs.num_windows)
        self._nwindows = cpu.regs.num_windows
        self._overflow_seen = cpu.stats.overflow_cycles
        #: pc -> (inst, visible reads, visible writes, call-dest or None,
        #:        is_load, is_mem, delayed, conditional, target, is_nop)
        self._cache: dict = {}

    def _classify(self, pc: int, inst) -> tuple:
        op = inst.opcode
        reads: tuple = ()
        writes: tuple = ()
        call_dest = None
        is_load = is_mem = delayed = conditional = is_nop = False
        target = None
        if op in _ARITH_OPS:
            reads = self._operand_reads(inst)
            if inst.dest:
                writes = (inst.dest,)
            elif op is Opcode.ADD and not inst.scc:
                is_nop = True  # add r0, ... — the canonical slot filler
        elif op in _LOAD_OPS:
            reads = self._operand_reads(inst)
            if inst.dest:
                writes = (inst.dest,)
            is_load = is_mem = True
        elif op in _STORE_OPS:
            reads = self._operand_reads(inst, extra=inst.dest)
            is_mem = True
        elif op is Opcode.JMP:
            reads = self._operand_reads(inst)
            delayed = True
            conditional = inst.cond not in _UNCONDITIONAL
        elif op is Opcode.JMPR:
            delayed = True
            conditional = inst.cond not in _UNCONDITIONAL
            target = (pc + inst.y) & 0xFFFFFFFF
        elif op is Opcode.CALL:
            reads = self._operand_reads(inst)
            call_dest = inst.dest or None
            delayed = True
        elif op is Opcode.CALLR:
            call_dest = inst.dest or None
            delayed = True
        elif op in (Opcode.RET, Opcode.RETINT):
            reads = self._operand_reads(inst)
            delayed = True
        elif op is Opcode.CALLINT:
            call_dest = inst.dest or None
        elif op in (Opcode.LDHI, Opcode.GTLPC, Opcode.GETPSW):
            if inst.dest:
                writes = (inst.dest,)
        elif op is Opcode.PUTPSW:
            if inst.dest:
                reads = (inst.dest,)
        return (
            inst, reads, writes, call_dest, is_load, is_mem, delayed,
            conditional, target, is_nop,
        )

    @staticmethod
    def _operand_reads(inst, extra: int = 0) -> tuple:
        reads = []
        if inst.rs1:
            reads.append(inst.rs1)
        if not inst.imm and inst.s2:
            reads.append(inst.s2)
        if extra:
            reads.append(extra)
        return tuple(reads)

    def __call__(self, pc: int, inst) -> None:
        if self.prev is not None:
            self.prev(pc, inst)
        stats = self.cpu.stats
        drained = stats.overflow_cycles - self._overflow_seen
        if drained:
            self._overflow_seen = stats.overflow_cycles
            for model in self.models:
                model.note_window_cycles(drained)
        entry = self._cache.get(pc)
        if entry is None or entry[0] is not inst:
            entry = self._classify(pc, inst)
            self._cache[pc] = entry
        (_, vreads, vwrites, call_dest, is_load, is_mem, delayed,
         conditional, target, is_nop) = entry
        maps = self._maps
        cwp = self.cpu.regs.cwp
        reads = tuple(maps[reg][cwp] for reg in vreads)
        if call_dest is not None:
            # CALL writes the return address in the window it rotates into
            writes = (maps[call_dest][(cwp + 1) % self._nwindows],)
        else:
            writes = tuple(maps[reg][cwp] for reg in vwrites)
        fallthrough = (pc + 8) & 0xFFFFFFFF if conditional else None
        for model in self.models:
            model.observe(
                pc,
                reads,
                writes,
                is_load=is_load,
                occupancy=model.config.mem_port_cycles if is_mem else 1,
                delayed=delayed,
                conditional=conditional,
                static_target=target,
                fallthrough=fallthrough,
                resolve_after=2,
                is_nop=is_nop,
            )

    def finalize(self):
        return [model.finalize() for model in self.models]


class VaxPipelineAdapter:
    """Feeds one VAX run's retired stream to one or more models, lag-one."""

    def __init__(self, cpu, models):
        from repro.baselines.vax.isa import BRANCH_CONDITIONS

        self.cpu = cpu
        self.models = list(models)
        self.prev = None
        self._conditional = frozenset(BRANCH_CONDITIONS) - {"brb", "brw"}
        self._cycles_seen = cpu.stats.cycles
        #: the not-yet-observed previous instruction:
        #: (pc, reads, writes, conditional, target, fallthrough)
        self._held: tuple | None = None

    def __call__(self, pc: int, info, operands, branch_disp) -> None:
        if self.prev is not None:
            self.prev(pc, info, operands, branch_disp)
        cpu = self.cpu
        held = self._held
        if held is not None:
            # the previous instruction's exact cycles are now booked
            occupancy = max(cpu.stats.cycles - self._cycles_seen, 1)
            self._cycles_seen = cpu.stats.cycles
            self._feed(held, occupancy)

        reads: list = []
        writes: list = []
        specs = [spec for spec in info.operands if spec.access != "b"]
        for spec, operand in zip(specs, operands):
            if operand.kind != "reg":
                continue
            if spec.access in ("r", "m"):
                reads.append(operand.value)
            if spec.access in ("w", "m"):
                writes.append(operand.value)
        if info.kind in ("push", "calls", "ret"):
            from repro.baselines.vax.isa import SP

            reads.append(SP)
            writes.append(SP)
        conditional = info.mnemonic in self._conditional
        # cpu.pc already points past this instruction (the fall-through)
        fallthrough = cpu.pc
        target = (cpu.pc + branch_disp) & 0xFFFFFFFF if branch_disp is not None else None
        self._held = (pc, tuple(reads), tuple(writes), conditional, target, fallthrough)

    def _feed(self, held: tuple, occupancy: int) -> None:
        pc, reads, writes, conditional, target, fallthrough = held
        for model in self.models:
            model.observe(
                pc,
                reads,
                writes,
                is_load=False,
                occupancy=occupancy,
                delayed=False,
                conditional=conditional,
                static_target=target,
                fallthrough=fallthrough,
                resolve_after=1,
            )

    def finalize(self):
        held = self._held
        if held is not None:
            self._held = None
            occupancy = max(self.cpu.stats.cycles - self._cycles_seen, 1)
            self._cycles_seen = self.cpu.stats.cycles
            self._feed(held, occupancy)
        return [model.finalize() for model in self.models]


def attach_pipeline(cpu, models):
    """Chain the right adapter for ``cpu`` into its ``on_execute`` hook.

    ``models`` is one :class:`~repro.uarch.pipeline.PipelineModel` or a
    list of them.  Returns the adapter; call ``finalize()`` for the
    finished stats and ``detach(cpu, adapter)`` to restore the hook.
    """
    from repro.uarch.pipeline import PipelineModel

    if isinstance(models, PipelineModel):
        models = [models]
    adapter = (
        RiscPipelineAdapter(cpu, models)
        if cpu.name == "risc1"
        else VaxPipelineAdapter(cpu, models)
    )
    adapter.prev = cpu.on_execute
    cpu.on_execute = adapter
    return adapter


def detach_pipeline(cpu, adapter) -> None:
    """Undo :func:`attach_pipeline`, restoring any chained hook."""
    if cpu.on_execute is adapter:
        cpu.on_execute = adapter.prev
