"""Command-line runner: ``risc1-run program.s``."""

from __future__ import annotations

import argparse
import sys

from repro.asm.assembler import AssemblerError, assemble
from repro.core.api import DEFAULT_MAX_STEPS
from repro.core.cpu import CPU


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Assemble and run a RISC I program")
    parser.add_argument("source", help="assembly source file")
    parser.add_argument("--windows", type=int, default=8, help="register windows (default 8)")
    parser.add_argument(
        "--max-instructions",
        type=int,
        default=DEFAULT_MAX_STEPS,
        help="safety execution limit",
    )
    parser.add_argument("--stats", action="store_true", help="print execution statistics")
    parser.add_argument(
        "--trace",
        type=int,
        metavar="N",
        default=None,
        help="trace execution, printing the first N instructions",
    )
    parser.add_argument(
        "--engine",
        choices=("fast", "reference"),
        help="execution engine (default: fast; reference is the plain "
        "step() loop the fast path is differentially tested against)",
    )
    parser.add_argument(
        "--ledger",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="append this run to the persistent run ledger "
        "(default root .repro-ledger, or PATH; $REPRO_LEDGER also enables)",
    )
    parser.add_argument(
        "--uarch",
        nargs="?",
        const="base",
        default=None,
        metavar="CONFIG",
        help="time the run with the 5-stage pipeline model and print its "
        "summary; CONFIG is key=value pairs like pred=bht2,fwd=full "
        "(bare gives the base configuration)",
    )
    parser.add_argument(
        "--dbg",
        action="store_true",
        help="record the run and drop into the time-travel debugger at "
        "entry (also stops at a recorded trap or step limit)",
    )
    parser.add_argument(
        "--break",
        dest="breakpoints",
        action="append",
        metavar="SPEC",
        help="with --dbg: set a breakpoint (PC, symbol, or :LINE); repeatable",
    )
    parser.add_argument(
        "--dbg-script",
        metavar="FILE",
        help="with --dbg: run debugger commands from FILE non-interactively",
    )
    args = parser.parse_args(argv)

    if (args.breakpoints or args.dbg_script) and not args.dbg:
        parser.error("--break/--dbg-script require --dbg")

    if args.uarch is not None:
        from repro.uarch import parse_uarch_config

        try:
            parse_uarch_config(args.uarch)
        except ValueError as error:
            parser.error(str(error))
        if args.trace is not None:
            parser.error("--uarch does not combine with --trace")

    with open(args.source) as handle:
        text = handle.read()
    try:
        program = assemble(text)
    except AssemblerError as error:
        print(f"{args.source}: {error}", file=sys.stderr)
        return 1

    if args.dbg:
        from pathlib import Path

        from repro.dbg.cli import _enter_debugger, apply_breakpoints
        from repro.dbg.session import DebugSession, SpecError
        from repro.obs.record import record_run

        recording = record_run(
            CPU(num_windows=args.windows),
            program,
            max_steps=args.max_instructions,
            engine=args.engine,
            workload=Path(args.source).name,
        )
        session = DebugSession(recording, engine=args.engine)
        try:
            apply_breakpoints(session, args.breakpoints)
        except SpecError as error:
            parser.error(f"bad breakpoint spec: {error}")
        if recording.outcome["outcome"] != "halt":
            # position at the recorded end so the trap/step-limit site is
            # on screen; reverse commands walk back from there
            session.seek(recording.steps)
            print(
                f"run ended in {recording.outcome['outcome']} at step "
                f"{recording.steps}; debugger positioned there",
                file=sys.stderr,
            )
        return _enter_debugger(session, args.dbg_script)

    cpu = CPU(num_windows=args.windows)
    cpu.load(program)
    if args.trace is not None:
        from repro.core.trace import trace_run

        trace = trace_run(cpu, max_steps=args.max_instructions)
        print(trace.render(limit=args.trace), file=sys.stderr)
        if trace.result is None:
            print("(instruction limit reached)", file=sys.stderr)
            return 1
        result = trace.result
    else:
        from pathlib import Path

        from repro.obs.ledger import ledger_context

        with ledger_context(workload=Path(args.source).name, source="cli"):
            result = cpu.run(
                max_steps=args.max_instructions,
                engine=args.engine,
                record=args.ledger,
                uarch=args.uarch,
            )
    sys.stdout.write(result.output)
    if args.stats:
        print(file=sys.stderr)
        print(result.stats.summary(), file=sys.stderr)
    if getattr(result, "pipeline", None) is not None:
        print(file=sys.stderr)
        print(result.pipeline.summary(), file=sys.stderr)
    return result.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
