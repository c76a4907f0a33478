"""One benchmark for the RISC I reproduction: compile, simulate and serve.

    python3 perfbench/run.py --workload compile|simulate|serve \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every round of every workload runs the
whole system on the workload's programs (see ``corpus.py``): compile each
program for both targets, run it on both machines (untraced and with the
pipeline model), then serve it through ``python -m repro.farm serve``.
Rounds repeat until ``--seconds`` have passed; only whole rounds run.

Host-time figures are corrected for host speed (``calib.py``).  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer metrics of the traced rounds).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import corpus
from calib import REFERENCE_RATE, Calibrator
from spans import Tracer

# ``layers`` and ``farmload`` import the program under test; they are
# imported where used, after ``main`` has put ``src/`` on the path.

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB",
    "compile_ms_p50": "ms", "compile_ms_p90": "ms",
    "risc_code_bytes": "bytes", "vax_code_bytes": "bytes",
    "risc_mips": "MIPS", "vax_mips": "MIPS", "observed_mips": "MIPS",
    "risc_cycles": "cycles", "vax_cycles": "cycles", "pipeline_cycles": "cycles",
    "serve_jobs_per_s": "1/s", "serve_cold_ms_p50": "ms",
    "serve_warm_ms_p50": "ms", "serve_warm_ms_p90": "ms",
}

#: Per-layer span names: (metric, span, what the mean is taken over)
LAYER_TIMES = [
    ("cc.parse_ms", "cc.parse", "program"), ("cc.sema_ms", "cc.sema", "program"),
    ("cc.irgen_ms", "cc.irgen", "program"), ("cc.riscgen_ms", "cc.riscgen", "program"),
    ("cc.delay_ms", "cc.delay", "program"), ("asm.assemble_ms", "asm.assemble", "program"),
    ("cc.ciscgen_ms", "cc.ciscgen", "program"), ("vax.assemble_ms", "vax.assemble", "program"),
    ("risc.load_ms", "risc.load", "span"), ("risc.execute_ms", "risc.execute", "span"),
    ("vax.load_ms", "vax.load", "span"), ("vax.execute_ms", "vax.execute", "span"),
    ("risc.observed_ms", "risc.observed", "span"),
    ("vax.observed_ms", "vax.observed", "span"),
    ("risc.reference_ms", "risc.reference", "span"),
    ("bench.check_ms", "bench.check", "span"),
    ("serve.boot_ms", "serve.boot", "round"), ("http.healthz_ms", "http.healthz", "round"),
    ("serve.post_named_ms", "serve.post_named", "span"),
    ("serve.post_inline_ms", "serve.post_inline", "span"),
    ("serve.wait_ms", "serve.wait", "span"), ("serve.drain_ms", "serve.drain", "round"),
]


def _pct(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) of ``values``."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.calibrator = Calibrator()
        self.tracer = Tracer(False)
        self.op_ids = itertools.count(1)
        self.op_factor: dict[int, float] = {}
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # failures other than the known fault
        self.known: list[str] = []
        self.internal: list[str] = []  # faults of the benchmark itself
        self.assembly: dict[str, tuple[str, str]] = {}  # first round's compiler output
        self.workers = max(1, min(2, os.cpu_count() or 1))

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> float:
        """Set up seven times; returns the median corrected set-up time.

        One set-up imports the toolchain in a fresh interpreter and builds
        the workload's programs with their reference outputs.
        """
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        times, raw = [], []
        for _ in range(7):
            self.calibrator.restart()
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c",
                 "import repro.cc, repro.core.cpu, repro.baselines.vax.cpu, "
                 "repro.uarch, repro.cc.irvm, repro.farm.api"],
                cwd=ROOT, env=env, check=True,
            )
            self.programs = corpus.build(self.workload, self.seed)
            elapsed = time.perf_counter() - started
            raw.append(elapsed)
            times.append(elapsed * self.calibrator.bracket())
        self.setup_raw_s = statistics.median(raw)
        return statistics.median(times)

    # -- operations ------------------------------------------------------------

    def _count(self, name: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            (self.known if name == "drain" else self.errors).extend(errors)

    def _compile_phase(self, rnd: dict) -> dict:
        """Compile every program; returns label -> (risc, cisc) images.

        In the first round each compile is also checked: generated programs
        by back-end agreement, suite programs (where the plan asks) on the
        IR interpreter.  Later rounds check that the compiler emitted the
        same assembly again, so the first round's checks still hold.
        """
        import layers

        tracer, cal = self.tracer, self.calibrator
        ir_check = corpus.PLANS[self.workload]["ir_check"]
        images = {}
        cal.restart()
        for program in self.programs:
            op = next(self.op_ids)
            started = time.perf_counter()
            try:
                with tracer.span("compile", op=op):
                    risc, cisc = layers.compile_op(program.source, program.label, tracer)
            except Exception as exc:  # a compile fault fails this operation only
                risc = cisc = None
                errors = [f"{program.label}: compile raised {type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - started
            self.op_factor[op] = cal.bracket()
            rnd["compile_s"].append((program.label, elapsed, self.op_factor[op]))
            if risc is not None:
                errors = self._check_compile(program, risc, cisc, ir_check)
                images[program.label] = (risc, cisc)
                rnd["risc_bytes"] += risc.program.code_size
                rnd["vax_bytes"] += cisc.program.code_size
                rnd["cc.source_lines"] += program.source.count("\n")
                rnd["cc.delay.slots"] += risc.delay_stats.total_slots
                rnd["cc.delay.slots_filled"] += risc.delay_stats.total_filled
                cal.restart()  # the checks ran since the last sample
            self._count("compile", errors)
        return images

    def _check_compile(self, program, risc, cisc, ir_check: bool) -> list[str]:
        import layers

        assembly = (risc.assembly, cisc.assembly)
        first = self.assembly.setdefault(program.label, assembly)
        if self.rounds:
            return [] if first == assembly else [f"{program.label}: compiler output changed"]
        if program.expected is None:
            return layers.check_agreement(program.label, risc, cisc)
        return layers.check_ir(program.label, risc, program.expected) if ir_check else []

    def _simulate_phase(self, rnd: dict, images: dict) -> None:
        """Run every suite program; generated ones were checked at compile."""
        import layers

        tracer, cal = self.tracer, self.calibrator
        cal.restart()
        for program in self.programs:
            if program.expected is None:
                continue
            op = next(self.op_ids)
            sim = None
            started = time.perf_counter()
            try:
                risc, cisc = images[program.label]
                with tracer.span("simulate", op=op):
                    sim = layers.simulate_op(risc, cisc, tracer, cal)
                    with tracer.span("bench.check"):
                        errors = layers.check_simulation(program.label, sim, program.expected)
            except Exception as exc:  # includes a program that did not compile
                errors = [f"{program.label}: simulate raised {type(exc).__name__}: {exc}"]
            elapsed = time.perf_counter() - started
            self.op_factor[op] = cal.bracket()
            rnd["simulate_s"].append((elapsed, self.op_factor[op]))
            self._count("simulate", errors)
            if sim is None:
                continue
            rnd["risc_exec"].append((program.label, *sim.risc_exec, sim.risc.stats.instructions))
            rnd["vax_exec"].append((program.label, *sim.vax_exec, sim.vax.stats.instructions))
            rnd["observed"].append((program.label + ":risc", *sim.risc_obs,
                                    sim.risc_observed.stats.instructions))
            rnd["observed"].append((program.label + ":vax", *sim.vax_obs,
                                    sim.vax_observed.stats.instructions))
            pipe = sim.risc_observed.pipeline
            for key, value in (
                ("risc_cycles", sim.risc.stats.cycles), ("vax_cycles", sim.vax.stats.cycles),
                ("pipeline_cycles", pipe.cycles),
                ("risc.instructions", sim.risc.stats.instructions),
                ("vax.instructions", sim.vax.stats.instructions),
                ("risc.data_refs", sim.risc.stats.data_references),
                ("vax.data_refs", sim.vax.stats.data_references),
                ("risc.window_overflows", sim.risc.stats.window_overflows),
                ("risc.window_underflows", sim.risc.stats.window_underflows),
                ("uarch.stall_cycles", pipe.stall_cycles),
                ("uarch.control_stalls", pipe.control_stalls),
                ("uarch.branch_hits", pipe.branch_hits),
            ):
                rnd[key] = rnd.get(key, 0) + value
            if not self.rounds and "selftest" not in rnd:
                rnd["selftest"] = self._selftest(program, sim)
            if tracer.enabled:
                ref_op = next(self.op_ids)
                with tracer.span("reference", op=ref_op):
                    result = layers.reference_run(risc, tracer)
                self.op_factor[ref_op] = cal.bracket()
                if result.stats.to_dict() != sim.risc.stats.to_dict():
                    self.internal.append(f"{program.label}: reference loop stats differ")

    def _selftest(self, program, sim) -> list[str]:
        """Feed the checks one wrong expected output and one altered cycle
        count; each must be caught.  Returns the failures not caught."""
        import copy

        import layers

        missed = []
        if not layers.check_simulation(program.label, sim, program.expected + "x"):
            missed.append("a wrong expected output passed the output check")
        stats = copy.deepcopy(sim.risc.stats)
        stats.cycles += 1
        if not layers.check_cycles(program.label, stats):
            missed.append("an altered cycle count passed the cycle check")
        return missed or ["ok"]

    def _serve_phase(self, rnd: dict) -> None:
        import farmload

        stages = corpus.traffic(self.workload, self.programs)
        WORK_DIR.mkdir(exist_ok=True)
        result = farmload.serve_round(
            ROOT, WORK_DIR, self.workers, stages, self.tracer, self.op_ids
        )
        for name, errors in result.ops:
            self._count(name, errors)
        for sample in result.samples:
            self.op_factor[sample.op] = sample.factor
        rnd["serve"] = result

    def run_round(self, traced: bool) -> None:
        self.tracer.enabled = traced
        rnd = {"traced": traced, "compile_s": [], "simulate_s": [], "risc_exec": [],
               "vax_exec": [], "observed": [], "risc_bytes": 0, "vax_bytes": 0,
               "cc.source_lines": 0, "cc.delay.slots": 0, "cc.delay.slots_filled": 0}
        clock = time.perf_counter
        started = clock()
        images = self._compile_phase(rnd)
        compiled_at = clock()
        self._simulate_phase(rnd, images)
        simulated_at = clock()
        self._serve_phase(rnd)
        rnd["phase_s"] = (compiled_at - started, simulated_at - compiled_at,
                          clock() - simulated_at)
        self.tracer.enabled = False
        if not self.rounds:
            # peak RSS after one whole round: later rounds repeat the same work
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.rounds.append(rnd)

    def run(self) -> dict:
        self.setup_s = self.setup()
        started = time.perf_counter()
        while (not self.rounds or time.perf_counter() - started < self.seconds
               or (self.trace and len(self.rounds) < 2)):
            self.run_round(traced=self.trace and len(self.rounds) % 2 == 1)
        selftest = self.rounds[0].get("selftest", ["no suite program ran"])
        if selftest != ["ok"]:
            self.internal.extend(selftest)
        return self.report()

    # -- metrics ---------------------------------------------------------------

    def end_to_end(self, corrected: bool) -> dict[str, float]:
        rounds = [r for r in self.rounds if not r["traced"]]
        return _end_to_end(rounds, corrected, self.setup_s, self.peak_rss_mb)

    def per_layer(self) -> dict[str, float]:
        traced = [r for r in self.rounds if r["traced"]]
        spans = self.tracer.spans
        programs = sum(len(r["compile_s"]) for r in traced)
        metrics: dict[str, float] = {}
        total: dict[str, float] = {}
        count: dict[str, int] = {}
        for _id, name, start, end, _parent, op in spans:
            total[name] = total.get(name, 0.0) + (end - start) * self.op_factor.get(op, 1.0)
            count[name] = count.get(name, 0) + 1
        per = {"program": programs, "round": len(traced)}
        for metric, name, over in LAYER_TIMES:
            n = per.get(over) or count.get(name, 0)
            metrics[metric] = 1e3 * total.get(name, 0.0) / n if n else 0.0
        for key in ("cc.source_lines", "cc.delay.slots", "cc.delay.slots_filled",
                    "risc.instructions", "vax.instructions", "risc.data_refs",
                    "vax.data_refs", "risc.window_overflows", "risc.window_underflows",
                    "uarch.stall_cycles", "uarch.control_stalls", "uarch.branch_hits"):
            metrics[key] = traced[-1].get(key, 0)
        serve = [r["serve"] for r in traced]
        walls = [s.status["wall_s"] for r in serve for s in r.samples
                 if s.stage == "cold" and s.status and s.status.get("wall_s") is not None]
        metrics["farm.job_ms"] = 1e3 * statistics.mean(walls) if walls else 0.0
        counters = serve[-1].counters
        metrics["serve.specs_dispatched"] = counters.get("specs_dispatched", 0)
        metrics["serve.deduped"] = (counters.get("deduped_inflight", 0)
                                    + counters.get("deduped_registry", 0))
        metrics["serve.cache_probe_hits"] = counters.get("cache_probe_hits", 0)
        metrics.update(self._trace_checks(traced))
        return metrics

    def _trace_checks(self, traced: list[dict]) -> dict[str, float]:
        """Span coverage of compile and simulate operations, and the
        tracing overhead (traced minus untraced operation time)."""
        self_time = self.tracer.self_times()
        out = {}
        by_name: dict[str, list] = {}
        for span in self.tracer.spans:
            by_name.setdefault(span[1], []).append(span)
        for phase in ("compile", "simulate"):
            ops = by_name.get(phase, [])
            op_time = sum(s[3] - s[2] for s in ops)
            uncovered = sum(self_time[s[0]] for s in ops)
            coverage = 1.0 - uncovered / op_time if op_time else 0.0
            out[f"trace.coverage_{phase}"] = coverage
            if coverage < 0.9:
                self.internal.append(
                    f"{phase}: layer spans cover only {coverage:.1%} of operation time")
        untraced = [r for r in self.rounds if not r["traced"]]
        for phase, key in (("compile", "compile_s"), ("simulate", "simulate_s")):
            plain = _mean_corrected([x[-2:] for r in untraced for x in r[key]])
            with_trace = _mean_corrected([x[-2:] for r in traced for x in r[key]])
            out[f"trace.overhead_{phase}_pct"] = 100 * (with_trace - plain) / plain
        plain = _mean_corrected([(s.latency_s, s.factor) for r in untraced
                                 for s in r["serve"].samples])
        with_trace = _mean_corrected([(s.latency_s, s.factor) for r in traced
                                      for s in r["serve"].samples])
        out["trace.overhead_serve_pct"] = 100 * (with_trace - plain) / plain
        return out

    def report(self) -> dict:
        e2e = self.end_to_end(corrected=True)
        raw = self.end_to_end(corrected=False)
        raw["setup_s"] = self.setup_raw_s
        layers = self.per_layer() if self.trace else {}
        print(f"# workload={self.workload} seed={self.seed} rounds={len(self.rounds)} "
              f"workers={self.workers} calibration rate median "
              f"{statistics.median(self.calibrator.rates):.0f}/s "
              f"(reference {REFERENCE_RATE:.0f}/s)")
        phases = [statistics.mean(r["phase_s"][i] for r in self.rounds) for i in range(3)]
        print("# mean round: compile {:.2f} s, simulate {:.2f} s, serve {:.2f} s".format(*phases))
        for name, unit in END_TO_END.items():
            print(f"  {name:20s} {e2e[name]:14.4f} {unit:7s} raw {raw[name]:14.4f}")
        if self.rounds[0].get("selftest") == ["ok"]:
            print("# self-test: wrong output and altered cycle count both failed their checks")
        for line in self.known[:1] + self.errors[:10] + self.internal[:10]:
            print(f"# {line}")
        if self.trace:
            metrics = {k: (v, _layer_unit(k)) for k, v in layers.items()}
            for name, (value, unit) in metrics.items():
                print(f"  {name:26s} {value:14.4f} {unit}")
            path = WORK_DIR / f"trace-{self.workload}-{self.seed}-{os.getpid()}.jsonl"
            WORK_DIR.mkdir(exist_ok=True)
            self.tracer.write(path)
            print(f"# spans written to {path.relative_to(ROOT)}")
        else:
            metrics = {k: (e2e[k], u) for k, u in END_TO_END.items()}
        return {
            "correct": not self.errors and not self.internal,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def _mean_corrected(samples: list[tuple]) -> float:
    return statistics.mean(s[0] * s[1] for s in samples) if samples else float("nan")


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.startswith("trace.coverage"):
        return "ratio"
    return "count"


def _medians(samples, corrected: bool) -> dict:
    """Per-key median of (key, seconds, factor, ...) samples across rounds.

    Each program (or serve spec) runs once or more per round; its median
    time over the run drops the rounds the host was briefly slow in.
    """
    by_key: dict = {}
    for key, seconds, factor, *_ in samples:
        by_key.setdefault(key, []).append(seconds * (factor if corrected else 1.0))
    return {key: statistics.median(times) for key, times in by_key.items()}


def _end_to_end(rounds: list[dict], corrected: bool, setup_s: float,
                peak_rss_mb: float) -> dict[str, float]:
    def mips(key: str) -> float:
        samples = [x for r in rounds for x in r[key]]
        times = _medians(samples, corrected)
        instructions = {label: n for label, _t, _f, n in samples}
        return sum(instructions.values()) / sum(times.values()) / 1e6

    def serve_ms(stage: str) -> list[float]:
        samples = [(s.spec.body["workload"], s.latency_s, s.factor)
                   for r in rounds for s in r["serve"].samples if s.stage == stage]
        return [1e3 * t for t in _medians(samples, corrected).values()]

    compile_ms = [1e3 * t for t in _medians(
        [x for r in rounds for x in r["compile_s"]], corrected).values()]
    cold, warm = serve_ms("cold"), serve_ms("warm")
    jobs_per_s = statistics.median(
        len(r["serve"].samples) / r["serve"].traffic_s
        * (1 / statistics.mean(s.factor for s in r["serve"].samples) if corrected else 1.0)
        for r in rounds
    )
    last = rounds[-1]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "compile_ms_p50": statistics.median(compile_ms),
        "compile_ms_p90": _pct(compile_ms, 90),
        "risc_code_bytes": last["risc_bytes"],
        "vax_code_bytes": last["vax_bytes"],
        "risc_mips": mips("risc_exec"),
        "vax_mips": mips("vax_exec"),
        "observed_mips": mips("observed"),
        "risc_cycles": last["risc_cycles"],
        "vax_cycles": last["vax_cycles"],
        "pipeline_cycles": last["pipeline_cycles"],
        "serve_jobs_per_s": jobs_per_s,
        "serve_cold_ms_p50": statistics.median(cold),
        "serve_warm_ms_p50": statistics.median(warm),
        "serve_warm_ms_p90": _pct(warm, 90),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("compile", "simulate", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    result = bench.run()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
