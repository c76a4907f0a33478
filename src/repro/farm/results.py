"""Structured result store: an append-only JSONL run manifest.

Every farm sweep appends exactly one record to ``runs.jsonl`` under the
cache root.  Records are self-describing (``schema`` version) so later
tooling can evolve the format without breaking old manifests, and the
query helpers are what the experiment CLI and tests use to check cache
behaviour (e.g. "the second warm run performed zero recomputes").
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.farm.cache import default_cache_root

#: Bump on any backwards-incompatible manifest record change.
MANIFEST_SCHEMA_VERSION = 1


class ResultStore:
    """Reader/writer for the farm's append-only run manifest."""

    def __init__(self, path: Path | str | None = None):
        self.path = Path(path) if path is not None else default_cache_root() / "runs.jsonl"

    # -- writing ----------------------------------------------------------------

    def append_run(self, report) -> dict:
        """Record one completed sweep (a :class:`~repro.farm.api.FarmReport`)."""
        record = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "timestamp": time.time(),
            "mode": report.mode,
            "workers": report.workers,
            "wall_s": round(report.wall_s, 6),
            "cache": report.cache_stats.to_dict(),
            "jobs": [
                {
                    "key": outcome.key,
                    "job": outcome.job.describe(),
                    "status": outcome.status,
                    "wall_s": round(outcome.wall_s, 6),
                    "worker": outcome.worker,
                    **({"error": outcome.error} if outcome.error else {}),
                    **({"metrics": outcome.metrics} if outcome.metrics else {}),
                }
                for outcome in report.outcomes
            ],
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    # -- querying ---------------------------------------------------------------

    def records(self) -> list[dict]:
        """All parseable manifest records, oldest first (bad lines skipped)."""
        if not self.path.is_file():
            return []
        records = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                records.append(record)
        return records

    def last_run(self) -> dict | None:
        records = self.records()
        return records[-1] if records else None

    @staticmethod
    def computed_jobs(record: dict) -> list[dict]:
        """Jobs in a record that actually recomputed (cache misses)."""
        return [j for j in record.get("jobs", []) if j.get("status") == "computed"]

    @staticmethod
    def hit_rate(record: dict) -> float:
        jobs = record.get("jobs", [])
        if not jobs:
            return 0.0
        hits = sum(1 for j in jobs if j.get("status") == "hit")
        return hits / len(jobs)
