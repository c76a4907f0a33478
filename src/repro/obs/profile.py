"""Source-level profiler: hotspots, call graphs and flamegraphs.

Folds the tracer's machine events (:data:`~repro.obs.events.PROFILE_KINDS`)
into a :class:`Profile`:

* **flat histograms** — cycles per PC, per C source line and per function
  (self cost), symbolized through :class:`~repro.obs.symbols.Symbolizer`;
* **call stacks** — CALL/RET events replayed into a stack of function
  names, every retired instruction's cycle cost charged to the stack it
  executed under (``stack_cycles``), window overflow/underflow handler
  cycles charged to synthetic ``<window_overflow>`` / ``<window_underflow>``
  leaf frames so the flamegraph conserves the machine's total cycles;
* **a weighted call graph** — (caller, callee) edge counts plus the
  cumulative cycles computed from the stacks.

The builder is *streaming*: :class:`ProfilingTracer` routes each event
straight into :class:`ProfileBuilder` without allocating
:class:`~repro.obs.events.Event` objects or buffering, so profiling a
multi-hundred-million-cycle run costs O(1) memory.  The same builder also
folds stored traces (:meth:`ProfileBuilder.feed`), where it must survive
ring-buffer truncation: returns with no matching call count as
``truncated_rets`` and the stack is reseeded from the next retire's
function.

Exports: collapsed-stack text for flamegraph tooling
(:meth:`Profile.collapsed`), a flat-profile table (:meth:`Profile.report`),
C source annotated with per-line cycle percentages
(:meth:`Profile.annotate`) and a call-graph listing
(:meth:`Profile.callgraph_text`).
"""

from __future__ import annotations

import dataclasses
import html
from collections import Counter

from repro.obs.events import PROFILE_KINDS, EventKind
from repro.obs.symbols import UNKNOWN, Symbolizer
from repro.obs.tracer import Tracer

#: Stacks deeper than this are folded into one ``<deep>`` frame so a
#: runaway recursion cannot make ``stack_cycles`` keys arbitrarily long.
MAX_STACK_FRAMES = 128

#: Synthetic frame names (angle brackets cannot appear in C identifiers).
OVERFLOW_FRAME = "<window_overflow>"
UNDERFLOW_FRAME = "<window_underflow>"
ANON_FRAME = "<anon>"
DEEP_FRAME = "<deep>"


class ProfileBuilder:
    """Streaming fold of machine events into profile histograms.

    Feed it events (via :class:`ProfilingTracer` during a live run, or
    :meth:`feed` from a stored trace) and call :meth:`finish`.
    """

    def __init__(self, symbolizer: Symbolizer):
        self.symbolizer = symbolizer
        self.stack: list[str] = []
        self.pc_cycles: Counter = Counter()
        self.func_self: Counter = Counter()
        self.line_cycles: Counter = Counter()
        self.stack_cycles: Counter = Counter()
        self.edges: Counter = Counter()
        self.retired_cycles = 0
        self.attributed_cycles = 0
        self.window_cycles: Counter = Counter()
        self.calls = 0
        self.rets = 0
        self.traps = 0
        #: returns whose CALL was lost to ring-buffer eviction
        self.truncated_rets = 0
        #: times the stack had to be reseeded from a retire's own function
        self.reseeded = 0
        # a CALL with no target address pushes an anonymous frame that is
        # renamed at the first retire clearly inside the callee
        self._pending = False
        self._pending_caller = ""

    # -- event handlers -----------------------------------------------------

    def on_retire(self, pc: int, cost: int) -> None:
        func, line = self.symbolizer.location_at(pc)
        self.retired_cycles += cost
        self.pc_cycles[pc] += cost
        self.func_self[func] += cost
        if func != UNKNOWN:
            self.attributed_cycles += cost
        if line:
            self.line_cycles[line] += cost
        if self._pending and self.stack:
            # the anonymous callee resolves at the first retire that is
            # not still in the caller (RISC call delay slots retire one
            # caller instruction *after* the window change)
            if func != UNKNOWN and func != self._pending_caller:
                self.stack[-1] = func
                self.edges[(self._pending_caller, func)] += 1
                self._pending = False
        if not self.stack:
            self.stack.append(func)
            self.reseeded += 1
        key = self._key()
        if self._pending and len(key) > 1 and func == self._pending_caller:
            # still in the caller (delay slot): charge the caller's stack,
            # not the unresolved anonymous frame
            key = key[:-1]
        self.stack_cycles[key] += cost

    def on_call(self, pc: int, target: int, depth: int) -> None:
        self.calls += 1
        if not self.stack:
            self.stack.append(self.symbolizer.function_at(pc))
            self.reseeded += 1
        caller = self.stack[-1]
        if target:
            callee = self.symbolizer.name_for_target(target)
            self.edges[(caller, callee)] += 1
        else:
            callee = ANON_FRAME
            self._pending = True
            self._pending_caller = caller
        self.stack.append(callee)

    def on_ret(self, pc: int, depth: int) -> None:
        self.rets += 1
        if self._pending:
            # the anonymous frame returns before any retire resolved it
            self.edges[(self._pending_caller, ANON_FRAME)] += 1
            self._pending = False
        if self.stack:
            self.stack.pop()
        else:
            self.truncated_rets += 1

    def on_window(self, kind: str, cost: int) -> None:
        frame = OVERFLOW_FRAME if kind == "overflow" else UNDERFLOW_FRAME
        self.window_cycles[kind] += cost
        self.func_self[frame] += cost
        self.stack_cycles[self._key() + (frame,)] += cost

    def on_trap(self, pc: int, kind: str) -> None:
        self.traps += 1

    def _key(self) -> tuple[str, ...]:
        if len(self.stack) > MAX_STACK_FRAMES:
            return tuple(self.stack[: MAX_STACK_FRAMES - 1]) + (DEEP_FRAME,)
        return tuple(self.stack)

    # -- stored-trace input -------------------------------------------------

    def feed(self, events) -> None:
        """Fold a stored event sequence (tolerates truncated prefixes)."""
        for event in events:
            data = event.data
            if event.kind is EventKind.RETIRE:
                self.on_retire(event.pc, data.get("cycles", 1))
            elif event.kind is EventKind.CALL:
                self.on_call(event.pc, data.get("target", 0), data.get("depth", 0))
            elif event.kind is EventKind.RET:
                self.on_ret(event.pc, data.get("depth", 0))
            elif event.kind is EventKind.WINDOW_OVERFLOW:
                self.on_window("overflow", data.get("cost", 0))
            elif event.kind is EventKind.WINDOW_UNDERFLOW:
                self.on_window("underflow", data.get("cost", 0))
            elif event.kind is EventKind.TRAP:
                self.on_trap(event.pc, data.get("trap", ""))

    # -- output -------------------------------------------------------------

    def finish(
        self,
        machine: str = "",
        workload: str = "",
        total_cycles: int = 0,
        source_file: str = "",
        source: str = "",
        truncated: int = 0,
    ) -> "Profile":
        func_cum: Counter = Counter()
        for key, cycles in self.stack_cycles.items():
            for func in set(key):
                func_cum[func] += cycles
        return Profile(
            machine=machine,
            workload=workload,
            source_file=source_file,
            source=source,
            total_cycles=total_cycles,
            truncated=truncated,
            retired_cycles=self.retired_cycles,
            attributed_cycles=self.attributed_cycles,
            window_cycles=dict(self.window_cycles),
            pc_cycles=dict(self.pc_cycles),
            func_self=dict(self.func_self),
            func_cum=dict(func_cum),
            line_cycles=dict(self.line_cycles),
            stack_cycles=dict(self.stack_cycles),
            edges=dict(self.edges),
            counters={
                "calls": self.calls,
                "rets": self.rets,
                "traps": self.traps,
                "truncated_rets": self.truncated_rets,
                "reseeded": self.reseeded,
            },
        )


@dataclasses.dataclass
class Profile:
    """A finished profile: histograms, stacks, call graph, and reports."""

    machine: str
    workload: str
    source_file: str
    #: the mini-C source text (empty when profiling bare assembly)
    source: str
    #: the run's reported total cycles (``RunResult.cycles``)
    total_cycles: int
    retired_cycles: int
    attributed_cycles: int
    window_cycles: dict
    pc_cycles: dict
    func_self: dict
    func_cum: dict
    line_cycles: dict
    stack_cycles: dict
    edges: dict
    counters: dict
    #: events the source tracer's ring dropped before this profile was
    #: built (0 for streaming live profiles, which never buffer)
    truncated: int = 0

    @property
    def sampled_cycles(self) -> int:
        """Total cycles charged to stacks — the flamegraph's root total."""
        return sum(self.stack_cycles.values())

    @property
    def attributed_fraction(self) -> float:
        """Fraction of retired cycles resolved to a named function."""
        return self.attributed_cycles / self.retired_cycles if self.retired_cycles else 0.0

    # -- exports ------------------------------------------------------------

    def collapsed(self) -> str:
        """Collapsed-stack text: ``root;child;leaf cycles`` per line.

        The format flamegraph.pl / speedscope / inferno consume; lines are
        sorted so equal profiles serialize identically.
        """
        lines = [
            ";".join(key) + f" {cycles}"
            for key, cycles in sorted(self.stack_cycles.items())
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def report(self, top: int = 20) -> str:
        """Flat profile: per-function self/cumulative cycles, gprof-style."""
        denominator = self.sampled_cycles or 1
        calls_into: Counter = Counter()
        for (_caller, callee), count in self.edges.items():
            calls_into[callee] += count
        header = (
            f"{self.machine} profile"
            + (f" of {self.workload}" if self.workload else "")
            + f": {self.total_cycles} cycles, "
            f"{self.attributed_fraction:.1%} attributed"
            + (
                f"\nTRUNCATED: {self.truncated} event(s) dropped — "
                "figures understate the run"
                if self.truncated
                else ""
            )
            + "\n"
        )
        lines = [
            header,
            f"{'function':<24} {'self':>12} {'self%':>7} {'cum':>12} {'cum%':>7} {'calls':>8}",
        ]
        ranked = sorted(self.func_self.items(), key=lambda kv: (-kv[1], kv[0]))
        for func, self_cycles in ranked[:top]:
            cum = self.func_cum.get(func, self_cycles)
            lines.append(
                f"{func:<24} {self_cycles:>12} {self_cycles / denominator:>6.1%} "
                f"{cum:>12} {cum / denominator:>6.1%} {calls_into.get(func, 0):>8}"
            )
        if len(ranked) > top:
            lines.append(f"... ({len(ranked) - top} more functions)")
        return "\n".join(lines) + "\n"

    def annotate(self, threshold: float = 0.0005) -> str:
        """The C source with per-line cycle counts and percentages.

        Lines carrying less than ``threshold`` of the retired cycles show
        blanks instead of noise.  Cycles with no line (hand-written
        runtime assembly, window handlers) are summarized at the end.
        """
        if not self.source:
            return "no source text recorded for this program\n"
        denominator = self.retired_cycles or 1
        out = [
            f"{self.source_file or '<source>'} — {self.machine}"
            + (f" {self.workload}" if self.workload else "")
            + f", {self.total_cycles} cycles\n",
            f"{'cycles':>12} {'%':>6}  line  source",
        ]
        for number, text in enumerate(self.source.splitlines(), start=1):
            cycles = self.line_cycles.get(number, 0)
            if cycles and cycles / denominator >= threshold:
                prefix = f"{cycles:>12} {cycles / denominator:>6.1%}"
            elif cycles:
                prefix = f"{cycles:>12} {'':>6}"
            else:
                prefix = f"{'':>12} {'':>6}"
            out.append(f"{prefix}  {number:>4}  {text}")
        unattributed = self.retired_cycles - sum(self.line_cycles.values())
        if unattributed:
            out.append(
                f"\n{unattributed:>12} {unattributed / denominator:>6.1%}  "
                "(no C line: runtime/startup assembly)"
            )
        window = sum(self.window_cycles.values())
        if window:
            out.append(f"{window:>12} {'':>6}  (register-window overflow/underflow handlers)")
        return "\n".join(out) + "\n"

    def callgraph_text(self, top: int = 30) -> str:
        """Call-graph edges ranked by call count, with callee cycle weight."""
        denominator = self.sampled_cycles or 1
        lines = [f"{'calls':>10}  {'callee cum%':>11}  edge"]
        ranked = sorted(self.edges.items(), key=lambda kv: (-kv[1], kv[0]))
        for (caller, callee), count in ranked[:top]:
            cum = self.func_cum.get(callee, 0)
            lines.append(f"{count:>10}  {cum / denominator:>10.1%}  {caller} -> {callee}")
        if len(ranked) > top:
            lines.append(f"... ({len(ranked) - top} more edges)")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        """JSON-friendly form (stack/edge keys joined with ``;``)."""
        return {
            "machine": self.machine,
            "workload": self.workload,
            "source_file": self.source_file,
            "total_cycles": self.total_cycles,
            "retired_cycles": self.retired_cycles,
            "attributed_cycles": self.attributed_cycles,
            "attributed_fraction": round(self.attributed_fraction, 6),
            "window_cycles": dict(self.window_cycles),
            "func_self": dict(sorted(self.func_self.items())),
            "func_cum": dict(sorted(self.func_cum.items())),
            "line_cycles": {str(k): v for k, v in sorted(self.line_cycles.items())},
            "stacks": {";".join(k): v for k, v in sorted(self.stack_cycles.items())},
            "edges": {f"{a};{b}": n for (a, b), n in sorted(self.edges.items())},
            "counters": dict(self.counters),
            "truncated": self.truncated,
        }


class ProfilingTracer(Tracer):
    """A tracer that folds events into a :class:`ProfileBuilder` directly.

    No :class:`Event` objects are built and nothing is buffered — the
    machines' emit helpers call straight into the builder, so profiling
    costs a method call per event instead of an allocation per event.
    """

    def __init__(self, builder: ProfileBuilder, cycle_ns: float = 400.0):
        super().__init__(capacity=1, kinds=PROFILE_KINDS, cycle_ns=cycle_ns)
        self.builder = builder

    def retire(self, cycles: int, pc: int, op: str, cost: int) -> None:
        self.builder.on_retire(pc, cost)

    def call(self, cycles: int, pc: int, depth: int, target: int = 0) -> None:
        self.builder.on_call(pc, target, depth)

    def ret(self, cycles: int, pc: int, depth: int) -> None:
        self.builder.on_ret(pc, depth)

    def window_overflow(self, cycles: int, windows: int, depth: int, cost: int = 0) -> None:
        self.builder.on_window("overflow", cost)

    def window_underflow(self, cycles: int, depth: int, cost: int = 0) -> None:
        self.builder.on_window("underflow", cost)

    def trap(self, cycles: int, pc: int, kind: str, detail: str) -> None:
        self.builder.on_trap(pc, kind)


def profile_run(compiled, *, max_steps: int | None = None, workload: str = ""):
    """Run a :class:`~repro.cc.driver.CompiledProgram` under the profiler.

    Returns ``(profile, run_result)``.  Works for either target; the
    driver import is deferred to keep ``repro.obs`` import-light.
    """
    from repro.cc.driver import run_compiled

    symbolizer = Symbolizer(compiled.program)
    builder = ProfileBuilder(symbolizer)
    cycle_ns = 400.0 if compiled.target == "risc1" else 200.0
    tracer = ProfilingTracer(builder, cycle_ns=cycle_ns)
    result = run_compiled(compiled, max_steps=max_steps, tracer=tracer)
    profile = builder.finish(
        machine=result.machine,
        workload=workload,
        total_cycles=result.cycles,
        source_file=compiled.program.source_file,
        source=compiled.source,
    )
    return profile, result


def profile_events(
    events, program, machine: str = "", workload: str = "", dropped: int = 0
) -> Profile:
    """Build a profile from a stored event list against its program image.

    ``dropped`` is the source trace's ring-eviction count (the ``meta``
    of :func:`~repro.obs.exporters.scan_jsonl`); it flows into
    :attr:`Profile.truncated` so reports disclose the skew.
    """
    builder = ProfileBuilder(Symbolizer(program))
    builder.feed(events)
    return builder.finish(
        machine=machine,
        workload=workload,
        source_file=program.source_file,
        truncated=dropped,
    )


# -- inline SVG flamegraphs ---------------------------------------------------

#: Frame fills by depth: the sequential blue ramp's ordinal band (every
#: step clears 2:1 on both chart surfaces), cycled.  Each fill is emitted
#: as ``var(--flame-dN, #hex)`` so an embedding page (the dashboard) can
#: restep the ramp for dark mode; the hex fallback keeps a bare SVG
#: self-contained.
_FLAME_FILLS = (
    "#86b6ef", "#6da7ec", "#5598e7", "#3987e5",
    "#2a78d6", "#256abf", "#1c5cab", "#184f95",
)
#: In-fill label ink per depth, picked by the fill's luminance (light
#: steps take near-black ink, dark steps take white).
_FLAME_INKS = (
    "#0b0b0b", "#0b0b0b", "#0b0b0b", "#ffffff",
    "#ffffff", "#ffffff", "#ffffff", "#ffffff",
)
#: Approximate glyph advance at font-size 11 for label truncation.
_FLAME_CHAR_PX = 6.3


def render_flame_svg(
    stack_cycles: dict,
    *,
    title: str = "",
    width: int = 1100,
    row_height: int = 18,
    min_px: float = 1.0,
) -> str:
    """Render collapsed stacks as a deterministic, self-contained SVG.

    ``stack_cycles`` maps stack tuples (root-first frame names) to cycle
    counts — exactly :attr:`Profile.stack_cycles`, or a dict rebuilt from
    the ``"a;b;c"`` keys of :meth:`Profile.to_dict`.  The layout is an
    icicle (root on top); every frame carries a ``<title>`` hover with
    its exact cycles and share, so the SVG needs no script.  Children are
    laid out in sorted order, making equal profiles serialize
    byte-identically (the CI determinism gate).
    """
    stacks = {
        tuple(key.split(";")) if isinstance(key, str) else tuple(key): cycles
        for key, cycles in stack_cycles.items()
        if key and cycles > 0
    }
    total = sum(stacks.values())
    root_label = html.escape(title or "all", quote=True)
    if not total:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {row_height}" '
            f'width="{width}" height="{row_height}" role="img" aria-label="empty flamegraph">'
            f'<text x="4" y="{row_height - 5}" font-size="11" fill="#898781" '
            f'font-family="system-ui, sans-serif">no stack samples recorded</text></svg>'
        )

    # fold the stacks into a tree: name -> [cycles, children]
    tree: dict = {}
    for frames, cycles in sorted(stacks.items()):
        node = tree
        for frame in frames:
            entry = node.setdefault(frame, [0, {}])
            entry[0] += cycles
            node = entry[1]

    px_per_cycle = width / total
    body: list[str] = []
    max_depth = 0

    def emit(children: dict, x: float, depth: int) -> None:
        nonlocal max_depth
        for name, (cycles, grandchildren) in sorted(children.items()):
            w = cycles * px_per_cycle
            if w < min_px:
                x += w
                continue
            max_depth = max(max_depth, depth)
            y = depth * row_height
            fill = _FLAME_FILLS[(depth - 1) % len(_FLAME_FILLS)]
            ink = _FLAME_INKS[(depth - 1) % len(_FLAME_INKS)]
            safe = html.escape(name, quote=True)
            body.append(
                f'<g><title>{safe} — {cycles:,} cycles '
                f'({cycles / total:.1%} of {total:,})</title>'
                f'<rect x="{x:.2f}" y="{y}" width="{max(w - 0.8, 0.4):.2f}" '
                f'height="{row_height - 2}" rx="2" '
                f'fill="var(--flame-d{(depth - 1) % len(_FLAME_FILLS)}, {fill})"/>'
            )
            chars = int((w - 8) / _FLAME_CHAR_PX)
            if chars >= 2:
                shown = name if len(name) <= chars else name[: max(chars - 1, 1)] + "…"
                body.append(
                    f'<text x="{x + 4:.2f}" y="{y + row_height - 6}" font-size="11" '
                    f'fill="{ink}">{html.escape(shown, quote=True)}</text>'
                )
            body.append("</g>")
            emit(grandchildren, x, depth + 1)
            x += w

    emit(tree, 0.0, 1)
    height = (max_depth + 1) * row_height
    header = (
        f'<g><title>{root_label} — {total:,} cycles (100.0%)</title>'
        f'<rect x="0" y="0" width="{width}" height="{row_height - 2}" rx="2" '
        f'fill="var(--flame-root, #e1e0d9)"/>'
        f'<text x="4" y="{row_height - 6}" font-size="11" '
        f'fill="var(--flame-root-ink, #0b0b0b)">{root_label} — {total:,} cycles</text></g>'
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}" '
        f'width="{width}" height="{height}" role="img" '
        f'aria-label="flamegraph: {root_label}" '
        f'font-family="system-ui, -apple-system, \'Segoe UI\', sans-serif">'
        + header
        + "".join(body)
        + "</svg>"
    )
