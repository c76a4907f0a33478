"""Content-addressed on-disk artifact cache.

Layout (default root ``.repro-cache/``, override with ``REPRO_CACHE_DIR``)::

    .repro-cache/
      objects/ab/abcdef....json   execution / IR results (JSON)
      objects/ab/abcdef....pkl    compiled programs (pickle)
      runs.jsonl                  the result store's run manifest

Writes are atomic (temp file + ``os.replace``) so a crashed or concurrent
worker can never leave a half-written artifact under its final name, and
loads are corruption-safe: any unreadable blob is counted, deleted, and
treated as a miss so the scheduler simply recomputes.
"""

from __future__ import annotations

import dataclasses
import json
import os
import tempfile
from pathlib import Path


def default_cache_root() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``.repro-cache`` under the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


@dataclasses.dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corrupt: int = 0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def merge(self, other: "CacheStats") -> None:
        self.hits += other.hits
        self.misses += other.misses
        self.stores += other.stores
        self.evictions += other.evictions
        self.corrupt += other.corrupt


class ArtifactCache:
    """A content-addressed blob store keyed by :func:`repro.farm.jobs.job_key`."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_root()
        self.stats = CacheStats()

    # -- paths ------------------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    def path_for(self, key: str, ext: str) -> Path:
        return self.objects_dir / key[:2] / f"{key}.{ext}"

    def contains(self, key: str, ext: str) -> bool:
        """Pure existence probe — touches no hit/miss accounting.

        Used by the serve front door to answer duplicate submissions
        straight from the content-addressed store without dispatching.
        """
        return self.path_for(key, ext).is_file()

    # -- raw blobs --------------------------------------------------------------

    def load_blob(self, key: str, ext: str) -> bytes | None:
        path = self.path_for(key, ext)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.stats.misses += 1
            return None
        except OSError:
            self.discard_corrupt(path)
            return None
        self.stats.hits += 1
        return data

    def store_blob(self, key: str, ext: str, data: bytes) -> Path:
        path = self.path_for(key, ext)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=f".{ext}")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        return path

    def discard_corrupt(self, path: Path) -> None:
        """A blob exists but cannot be used: delete it and count a miss."""
        self.stats.corrupt += 1
        self.stats.misses += 1
        try:
            path.unlink()
        except OSError:
            pass

    # -- typed artifacts --------------------------------------------------------

    def load_json(self, key: str):
        """A stored JSON artifact, or None on miss/corruption."""
        data = self.load_blob(key, "json")
        if data is None:
            return None
        try:
            return json.loads(data.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self.stats.hits -= 1  # it was not a usable hit after all
            self.discard_corrupt(self.path_for(key, "json"))
            return None

    def store_json(self, key: str, payload) -> Path:
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return self.store_blob(key, "json", blob.encode("utf-8"))

    # -- inventory / eviction ---------------------------------------------------

    def entries(self) -> list[Path]:
        if not self.objects_dir.is_dir():
            return []
        return sorted(p for p in self.objects_dir.rglob("*.*") if p.is_file())

    def total_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.entries())

    def gc(self, max_bytes: int = 0) -> list[Path]:
        """Evict least-recently-used artifacts until at most ``max_bytes`` remain.

        ``max_bytes=0`` clears the cache.  Returns the evicted paths.
        """
        entries = [(p, p.stat()) for p in self.entries()]
        entries.sort(key=lambda item: item[1].st_mtime)  # oldest first
        total = sum(stat.st_size for _, stat in entries)
        evicted: list[Path] = []
        for path, stat in entries:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= stat.st_size
            evicted.append(path)
            self.stats.evictions += 1
        return evicted
