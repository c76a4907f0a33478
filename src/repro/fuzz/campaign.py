"""Fuzz campaigns: fan seeds out through the farm, triage what comes back.

A campaign is a seed range turned into ``kind="fuzz"`` farm jobs and
submitted through the shared :class:`~repro.farm.api.FarmClient` pool —
so cross-check results are content-addressed artifacts like any other
farm work (re-running a campaign on an unchanged toolchain is all cache
hits), and campaign throughput scales with the worker pool.

For every divergent seed the campaign, in the parent process:

* shrinks the program with the statement-level minimizer
  (:mod:`repro.fuzz.minimize`), pinned to the original divergence
  signature;
* writes the minimized repro into the corpus directory
  (``tests/fuzz_corpus/`` in the repo) so it becomes a permanent
  regression test;
* files the divergence in the run ledger: one pseudo-record per
  disagreeing oracle run, their :func:`~repro.obs.ledger.diff_records`
  artifact, and the full + minimized program text.

The triage report is deterministic — seeds, signatures and sources only,
no timestamps — so a fixed-seed campaign is byte-identical across runs.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable

from repro.fuzz.crosscheck import CrossCheckReport, crosscheck_seed
from repro.fuzz.gen import DEFAULT_PROFILE, generate_source
from repro.fuzz.minimize import MinimizeError, minimize_seed

#: machine / engine tags for ledger pseudo-records, per oracle name
_ORACLE_MACHINE = {
    "risc-ref": ("risc1", "reference"),
    "risc-fast": ("risc1", "fast"),
    "risc-fast-uarch": ("risc1", "fast"),
    "vax-ref": ("cisc", "reference"),
    "vax-fast": ("cisc", "fast"),
    "vax-fast-uarch": ("cisc", "fast"),
    "ir": ("ir", "ir"),
}


@dataclasses.dataclass
class DivergenceCase:
    """One divergent seed, fully triaged."""

    seed: int
    profile: str
    signature: str
    report: CrossCheckReport
    source: str
    minimized: str | None = None
    minimize_error: str | None = None
    corpus_path: str | None = None
    ledger_runs: list[str] = dataclasses.field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "profile": self.profile,
            "signature": self.signature,
            "report": self.report.to_dict(),
            "source": self.source,
            "minimized": self.minimized,
            "minimize_error": self.minimize_error,
            "corpus_path": self.corpus_path,
            "ledger_runs": self.ledger_runs,
        }


@dataclasses.dataclass
class CampaignReport:
    """Deterministic summary of one campaign (byte-stable per seed set)."""

    profile: str
    max_steps: int
    seeds: int
    checked: int = 0
    ok: int = 0
    cache_hits: int = 0
    statuses: Counter = dataclasses.field(default_factory=Counter)
    compile_errors: list = dataclasses.field(default_factory=list)  # (seed, message)
    cases: list[DivergenceCase] = dataclasses.field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.cases and not self.compile_errors

    def to_dict(self) -> dict:
        return {
            "profile": self.profile,
            "max_steps": self.max_steps,
            "seeds": self.seeds,
            "checked": self.checked,
            "ok": self.ok,
            "statuses": dict(sorted(self.statuses.items())),
            "compile_errors": [list(pair) for pair in self.compile_errors],
            "divergences": [case.to_dict() for case in self.cases],
        }

    def render(self) -> str:
        lines = [
            f"fuzz campaign: profile={self.profile} seeds={self.seeds} "
            f"checked={self.checked} ok={self.ok} divergent={len(self.cases)} "
            f"compile-errors={len(self.compile_errors)}"
        ]
        by_signature: dict[str, list[int]] = {}
        for case in self.cases:
            by_signature.setdefault(case.signature, []).append(case.seed)
        for signature in sorted(by_signature):
            seeds = by_signature[signature]
            lines.append(f"  [{len(seeds)} seed(s)] {signature or '(no signature)'}")
            lines.append(f"    seeds: {', '.join(str(s) for s in sorted(seeds)[:10])}"
                         + (" ..." if len(seeds) > 10 else ""))
        for seed, message in self.compile_errors:
            lines.append(f"  compile-error seed {seed}: {message}")
        return "\n".join(lines)


def _file_divergence(ledger, case: DivergenceCase) -> None:
    """Append the divergence to the run ledger as a diff artifact."""
    from repro.obs.ledger import diff_records

    workload = f"fuzz:{case.profile}:{case.seed}"
    run_ids: dict[str, str] = {}
    oracle_records: dict[str, dict] = {}
    for div in case.report.divergences:
        for name in (div.left, div.right):
            if name in run_ids:
                continue
            run = case.report.oracles.get(name)
            if run is None:
                continue
            machine, engine = _ORACLE_MACHINE[name]
            record = {
                "schema": 1,
                "source": "fuzz",
                "workload": workload,
                "scale": case.profile,
                "machine": machine,
                "engine": engine,
                "oracle": name,
                "outcome": run["outcome"],
                "exit_code": run["exit_code"],
                "output_sha": run["output_sha"],
                "stats": run["stats"] or {},
                "program_sha": case.report.source_sha,
            }
            run_ids[name] = ledger.append(record)
            oracle_records[name] = record
    for div in case.report.divergences:
        left = oracle_records.get(div.left)
        right = oracle_records.get(div.right)
        diff_text = None
        if left is not None and right is not None:
            diff_text = diff_records(left, right).render()
        artifact = {
            "schema": 1,
            "source": "fuzz",
            "kind": "fuzz-divergence",
            "workload": workload,
            "seed": case.seed,
            "profile": case.profile,
            "check": div.check,
            "signature": case.signature,
            "fields": {k: list(v) for k, v in div.fields.items()},
            "diff": diff_text,
            "left_run": run_ids.get(div.left),
            "right_run": run_ids.get(div.right),
            "program_sha": case.report.source_sha,
            "program": case.source,
            "minimized": case.minimized,
        }
        case.ledger_runs.append(ledger.append(artifact))


def corpus_filename(seed: int, profile: str) -> str:
    return f"seed{seed:08d}_{profile}.c"


def _write_corpus(corpus_dir: Path, case: DivergenceCase) -> None:
    corpus_dir.mkdir(parents=True, exist_ok=True)
    body = case.minimized if case.minimized is not None else case.source
    header = (
        f"/* fuzz divergence: seed={case.seed} profile={case.profile}\n"
        f" * signature: {case.signature}\n"
        f" * minimized: {'yes' if case.minimized is not None else 'no'}\n"
        f" */\n"
    )
    path = corpus_dir / corpus_filename(case.seed, case.profile)
    path.write_text(header + body + "\n", encoding="utf-8")
    case.corpus_path = str(path)


def run_campaign(
    seeds: Iterable[int],
    profile: str = DEFAULT_PROFILE,
    *,
    max_steps: int | None = None,
    client=None,
    serial: bool = False,
    minimize: bool = True,
    corpus_dir: str | Path | None = None,
    ledger=None,
    progress: Callable[[int, int, int], None] | None = None,
) -> CampaignReport:
    """Cross-check every seed; triage, minimize and file what diverges.

    ``client`` is a :class:`~repro.farm.api.FarmClient` (defaults to the
    process-shared pool unless ``serial=True``, which runs in-process —
    no farm, no cache).  ``ledger`` is a
    :class:`~repro.obs.ledger.Ledger`, ``None`` for the default root, or
    ``False`` to disable filing.  ``progress(done, total, divergent)``
    is called after every seed.
    """
    from repro.fuzz.crosscheck import DEFAULT_MAX_STEPS

    if max_steps is None:
        max_steps = DEFAULT_MAX_STEPS
    seed_list = list(seeds)
    report = CampaignReport(profile=profile, max_steps=max_steps, seeds=len(seed_list))

    if ledger is None:
        from repro.obs.ledger import Ledger

        ledger = Ledger()

    def finish_one(seed: int, check: CrossCheckReport, hit: bool) -> None:
        report.checked += 1
        report.cache_hits += int(hit)
        report.statuses[check.status] += 1
        if check.status == "ok":
            report.ok += 1
        elif check.status == "compile-error":
            report.compile_errors.append((seed, check.compile_error))
        else:
            case = DivergenceCase(
                seed=seed,
                profile=profile,
                signature=check.signature(),
                report=check,
                source=generate_source(seed, profile),
            )
            if minimize:
                try:
                    minimized, _final_report, _tests = minimize_seed(
                        seed, profile, signature=case.signature, max_steps=max_steps
                    )
                    case.minimized = minimized
                except MinimizeError as exc:
                    case.minimize_error = str(exc)
            if corpus_dir is not None:
                _write_corpus(Path(corpus_dir), case)
            if ledger is not False:
                _file_divergence(ledger, case)
            report.cases.append(case)
        if progress is not None:
            progress(report.checked, report.seeds, len(report.cases))

    if serial:
        for seed in seed_list:
            finish_one(seed, crosscheck_seed(seed, profile, max_steps=max_steps), False)
        report.cases.sort(key=lambda c: c.seed)
        return report

    from repro.farm.api import shared_client
    from repro.farm.jobs import fuzz_job

    if client is None:
        client = shared_client()

    # submit in waves so the in-flight queue stays bounded on big campaigns
    wave = 256
    for base in range(0, len(seed_list), wave):
        futures = [
            (seed, client.submit(fuzz_job(seed, profile, max_steps=max_steps)))
            for seed in seed_list[base : base + wave]
        ]
        for seed, future in futures:
            value = future.result()
            status = future.status()
            finish_one(seed, value, status.status == "hit")
    report.cases.sort(key=lambda c: c.seed)
    return report


def save_report(report: CampaignReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def triage_text(payload: dict) -> str:
    """Human triage view of a saved campaign report (grouped by signature)."""
    lines = [
        f"profile={payload.get('profile')} seeds={payload.get('seeds')} "
        f"checked={payload.get('checked')} ok={payload.get('ok')}"
    ]
    statuses = payload.get("statuses", {})
    if statuses:
        lines.append("statuses: " + ", ".join(f"{k}={v}" for k, v in sorted(statuses.items())))
    groups: dict[str, list[dict]] = {}
    for case in payload.get("divergences", []):
        groups.setdefault(case.get("signature", ""), []).append(case)
    if not groups and not payload.get("compile_errors"):
        lines.append("no divergences.")
    for signature in sorted(groups):
        cases = groups[signature]
        lines.append("")
        lines.append(f"== {len(cases)} seed(s): {signature or '(no signature)'}")
        for case in cases[:5]:
            lines.append(f"   seed {case['seed']}  corpus={case.get('corpus_path') or '-'}")
        sample = cases[0]
        body = sample.get("minimized") or sample.get("source") or ""
        lines.append("   --- minimized repro (first case) ---")
        lines.extend("   | " + line for line in body.split("\n"))
    for seed, message in payload.get("compile_errors", []):
        lines.append(f"compile-error seed {seed}: {message}")
    return "\n".join(lines)
