"""``python -m repro.obs dash`` — the operator console's web dashboard.

A zero-dependency asyncio HTTP server (on :mod:`repro.httpd`, the
protocol layer ``repro.farm serve`` uses too) that renders one
self-contained HTML page over a :class:`~repro.obs.console.ConsoleSnapshot`:

* steps/s trajectories per (workload, machine, engine), drawn as inline
  SVG line charts with the rolling-median regression detector's flags;
* cross-run regression details (run, baseline, drop);
* the farm front door's queue depth, worker liveness and dedupe hit
  rate, polled from its ``GET /status``;
* inline SVG flamegraphs from :mod:`repro.obs.profile`.

Routes: ``GET /`` (the page), ``GET /data`` (the snapshot JSON),
``GET /poll?v=N`` (long-poll; answers when the snapshot version moves
past ``N``, so the page reloads within one refresh interval of a
change), ``GET /healthz``.  Connections are keep-alive; SIGTERM/SIGINT
releases long-pollers, closes idle connections and exits 0.

``--once PATH`` skips the server entirely and writes the static page —
the CI artifact mode.  The page is self-contained: inline CSS and SVG,
no external assets, dark mode via ``prefers-color-scheme``.
"""

from __future__ import annotations

import argparse
import asyncio
import html
import json
import math
import sys
import time
from pathlib import Path

from repro import httpd
from repro.obs.console import ConsoleProvider, ConsoleSnapshot
from repro.obs.profile import render_flame_svg

__all__ = ["DashServer", "main", "render_dashboard"]

#: Ceiling on one ``/poll`` long poll; the page re-polls on expiry.
_MAX_POLL_S = 25.0

# The dashboard's palette (validated light/dark tokens): one categorical
# blue for the single-series charts, reserved status red for regression
# flags, ink tokens for all text — marks wear color, text never does.
_CSS = """
:root {
  --surface: #fcfcfb; --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --line: #e1e0d9; --accent: #2a78d6; --bad: #d03b3b; --bad-ink: #a32222;
  --card: #ffffff;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --ink: #f1f0ee; --ink-2: #b0aea8; --ink-3: #898781;
    --line: #34332f; --accent: #3987e5; --bad: #e05d4d; --bad-ink: #f0867a;
    --card: #232321;
    --flame-root: #34332f;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
main { max-width: 1180px; margin: 0 auto; padding: 20px 24px 48px; }
header { display: flex; align-items: baseline; gap: 14px; flex-wrap: wrap; }
header h1 { font-size: 19px; font-weight: 650; margin: 8px 0; }
header .meta { color: var(--ink-3); font-size: 12.5px; }
h2 { font-size: 15px; font-weight: 650; margin: 28px 0 10px; }
.tiles { display: flex; gap: 12px; flex-wrap: wrap; margin-top: 14px; }
.tile {
  background: var(--card); border: 1px solid var(--line); border-radius: 8px;
  padding: 10px 14px 12px; min-width: 128px;
}
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 23px; font-weight: 600; margin-top: 2px; }
.tile .value.alert { color: var(--bad-ink); }
.tile .sub { color: var(--ink-3); font-size: 11.5px; margin-top: 2px; }
.cards { display: grid; grid-template-columns: repeat(auto-fill, minmax(480px, 1fr));
         gap: 14px; }
.card {
  background: var(--card); border: 1px solid var(--line); border-radius: 8px;
  padding: 12px 14px;
}
.card h3 { font-size: 13.5px; font-weight: 650; margin: 0 0 2px;
           display: flex; gap: 8px; align-items: baseline; flex-wrap: wrap; }
.card .sub { color: var(--ink-3); font-size: 12px; margin-bottom: 6px; }
.flag {
  color: var(--bad-ink); border: 1px solid var(--bad); border-radius: 999px;
  font-size: 11px; font-weight: 600; padding: 1px 8px;
}
svg text { font: 11px system-ui, sans-serif; fill: var(--ink-3); }
svg .chart-line { stroke: var(--accent); stroke-width: 2;
                  stroke-linejoin: round; stroke-linecap: round; fill: none; }
svg .chart-dot { fill: var(--accent); stroke: var(--card); stroke-width: 2; }
svg .chart-dot.bad { fill: var(--bad); }
svg .grid { stroke: var(--line); stroke-width: 1; }
details { margin-top: 8px; }
details summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; margin-top: 6px; width: 100%; font-size: 12px; }
th, td { text-align: right; padding: 3px 8px; border-bottom: 1px solid var(--line);
         font-variant-numeric: tabular-nums; }
th:first-child, td:first-child { text-align: left; }
th { color: var(--ink-2); font-weight: 600; }
.reglist { list-style: none; margin: 8px 0 0; padding: 0; }
.reglist li { padding: 7px 10px; border-left: 3px solid var(--bad);
              background: var(--card); border-radius: 0 6px 6px 0;
              margin-bottom: 6px; }
.ok-note { color: var(--ink-2); }
.offline { color: var(--bad-ink); font-weight: 600; }
.flame { background: var(--card); border: 1px solid var(--line);
         border-radius: 8px; padding: 10px; margin-bottom: 14px;
         overflow-x: auto; }
footer { margin-top: 36px; color: var(--ink-3); font-size: 12px; }
"""


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value) -> str:
    """Compact human figure: 1,284 / 12.9K / 4.2M; ``—`` for missing."""
    if value is None:
        return "—"
    number = float(value)
    for unit, div in (("B", 1e9), ("M", 1e6), ("K", 1e3)):
        if abs(number) >= div * 10:
            return f"{number / div:,.1f}{unit}"
    if abs(number) < 100 and number != int(number):
        return f"{number:,.2f}"
    return f"{number:,.0f}"


def _when(timestamp) -> str:
    if not timestamp:
        return "—"
    return time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(timestamp))


def _nice_ticks(low: float, high: float, count: int = 3) -> list[float]:
    """A few clean y-axis values inside [low, high]."""
    span = (high - low) or abs(high) or 1.0
    step = 10.0 ** math.floor(math.log10(span / count))
    for mult in (1, 2, 2.5, 5, 10, 20):
        if span / (step * mult) <= count:
            step *= mult
            break
    first = math.ceil(low / step) * step
    ticks = []
    tick = first
    while tick <= high + step * 1e-9:
        ticks.append(round(tick, 10))
        tick += step
    return ticks


def _trajectory_svg(
    trajectory: dict, regressed_runs: set, width: int = 520, height: int = 140
) -> str:
    """One single-series steps/s line chart (inline SVG, tooltips via
    ``<title>``).  Untimed runs keep their x slot but draw no mark, so
    gaps in a trajectory stay visible."""
    points = trajectory.get("points") or []
    timed = [(i, p) for i, p in enumerate(points) if p.get("steps_per_s") is not None]
    if not timed:
        return (
            f'<svg viewBox="0 0 {width} {height}" role="img" '
            f'aria-label="no timed runs">'
            f'<text x="{width / 2}" y="{height / 2}" text-anchor="middle">'
            f"no timed runs yet</text></svg>"
        )
    pad_l, pad_r, pad_t, pad_b = 58, 14, 10, 22
    values = [p["steps_per_s"] for _i, p in timed]
    low, high = min(values), max(values)
    if low == high:
        margin = abs(low) * 0.1 or 1.0
        low, high = low - margin, high + margin
    else:
        margin = (high - low) * 0.08
        low, high = low - margin, high + margin
    low = max(0.0, low)

    def x_at(index: int) -> float:
        if len(points) == 1:
            return (pad_l + width - pad_r) / 2
        return pad_l + index * (width - pad_l - pad_r) / (len(points) - 1)

    def y_at(value: float) -> float:
        return pad_t + (high - value) * (height - pad_t - pad_b) / (high - low)

    parts = [
        f'<svg viewBox="0 0 {width} {height}" role="img" '
        f'aria-label="steps per second per run">'
    ]
    for tick in _nice_ticks(low, high):
        y = y_at(tick)
        parts.append(
            f'<line class="grid" x1="{pad_l}" y1="{y:.1f}" '
            f'x2="{width - pad_r}" y2="{y:.1f}"/>'
            f'<text x="{pad_l - 6}" y="{y + 3.5:.1f}" '
            f'text-anchor="end">{_fmt(tick)}</text>'
        )
    if len(timed) > 1:
        coords = " ".join(
            f"{x_at(i):.1f},{y_at(p['steps_per_s']):.1f}" for i, p in timed
        )
        parts.append(f'<polyline class="chart-line" points="{coords}"/>')
    for i, point in timed:
        bad = " bad" if point.get("run_id") in regressed_runs else ""
        tip = (
            f"run {point.get('run_id')} — {_fmt(point['steps_per_s'])} steps/s"
            f" ({point.get('source') or '?'}, {_when(point.get('timestamp'))})"
        )
        parts.append(
            f'<circle class="chart-dot{bad}" cx="{x_at(i):.1f}" '
            f'cy="{y_at(point["steps_per_s"]):.1f}" r="4">'
            f"<title>{_esc(tip)}</title></circle>"
        )
    parts.append(
        f'<text x="{width - pad_r}" y="{height - 6}" text-anchor="end">'
        f"run → (oldest to newest)</text></svg>"
    )
    return "".join(parts)


def _trajectory_table(points: list) -> str:
    rows = []
    for point in points:
        rows.append(
            "<tr>"
            f"<td>{_esc(point.get('run_id') or '?')}</td>"
            f"<td>{_esc(_when(point.get('timestamp')))}</td>"
            f"<td>{_fmt(point.get('steps_per_s'))}</td>"
            f"<td>{_fmt(point.get('instructions'))}</td>"
            f"<td>{_fmt(point.get('wall_s'))}</td>"
            f"<td>{_esc(point.get('source') or '—')}</td>"
            "</tr>"
        )
    return (
        "<details><summary>runs as a table</summary><table>"
        "<tr><th>run</th><th>when</th><th>steps/s</th>"
        "<th>instructions</th><th>wall s</th><th>source</th></tr>"
        + "".join(rows)
        + "</table></details>"
    )


def _tile(label: str, value: str, sub: str = "", alert: bool = False) -> str:
    alert_class = " alert" if alert else ""
    sub_html = f'<div class="sub">{_esc(sub)}</div>' if sub else ""
    return (
        f'<div class="tile"><div class="label">{_esc(label)}</div>'
        f'<div class="value{alert_class}">{value}</div>{sub_html}</div>'
    )


def _farm_panel(farm: dict | None) -> str:
    if not farm:
        return (
            '<p class="ok-note">No farm attached — start one with '
            "<code>python -m repro.farm serve</code> and pass its URL "
            "via <code>--farm</code>.</p>"
        )
    if not farm.get("ok"):
        return (
            f'<p><span class="offline">⚠ farm unreachable</span> at '
            f"<code>{_esc(farm.get('url'))}</code> — "
            f"{_esc(farm.get('error') or 'poll failed')}</p>"
        )
    status = farm.get("status") or {}
    server = status.get("server") or {}
    client = status.get("client") or {}
    pool = client.get("pool") or {}
    alive = pool.get("alive_workers")
    workers = client.get("workers")
    respawned = pool.get("workers_respawned", 0)
    tiles = [
        _tile(
            "Workers alive",
            f"{_fmt(alive)} / {_fmt(workers)}" if alive is not None else _fmt(workers),
            sub=f"{respawned} respawned" if respawned else "",
            alert=alive is not None and workers is not None and alive < workers,
        ),
        _tile("Jobs in flight", _fmt(server.get("jobs_in_flight", client.get("in_flight")))),
        _tile("Queue depth", _fmt(pool.get("in_flight", client.get("in_flight")))),
        _tile(
            "Dedupe hit rate",
            f"{(server.get('dedupe_hit_rate') or 0.0) * 100:,.1f}%",
            sub=f"{_fmt(server.get('specs_submitted'))} submitted",
        ),
        _tile("Requests served", _fmt(server.get("requests"))),
        _tile("Uptime", f"{_fmt(server.get('uptime_s'))}s"),
    ]
    note = (
        f'<p class="sub ok-note">polled <code>{_esc(farm.get("url"))}</code> · '
        f"mode {_esc(client.get('mode') or '?')}"
        + (" · draining" if server.get("draining") else "")
        + "</p>"
    )
    return f'<div class="tiles">{"".join(tiles)}</div>{note}'


def render_dashboard(snapshot: ConsoleSnapshot | dict, *, live_version: int | None = None) -> str:
    """The whole console as one self-contained HTML page.

    Rendering is a pure function of the snapshot (plus ``live_version``,
    which embeds the long-poll reload script when set) — the dash tests
    rely on byte-identical output for identical snapshots.
    """
    if isinstance(snapshot, ConsoleSnapshot):
        snapshot = snapshot.to_dict()
    trajectories = snapshot.get("trajectories") or []
    regressions = snapshot.get("regressions") or []
    profiles = snapshot.get("profiles") or []
    regressed_runs = {r.get("run_id") for r in regressions}

    cards = []
    for trajectory in trajectories:
        flag = (
            '<span class="flag">▼ regression</span>'
            if trajectory.get("regressed")
            else ""
        )
        latest = trajectory.get("latest_steps_per_s")
        cards.append(
            '<div class="card">'
            f"<h3>{_esc(trajectory.get('label'))}{flag}</h3>"
            f'<div class="sub">{trajectory.get("runs", 0)} run(s) · latest '
            f"{_fmt(latest)}{' steps/s' if latest is not None else ''}</div>"
            + _trajectory_svg(trajectory, regressed_runs)
            + _trajectory_table(trajectory.get("points") or [])
            + "</div>"
        )
    if not cards:
        cards.append(
            '<p class="ok-note">The ledger has no records yet — record one with '
            "<code>python -m repro.obs ledger record --workload towers:10</code>.</p>"
        )

    if regressions:
        items = []
        for regression in regressions:
            label = (
                f"{regression.get('workload') or '?'}"
                f"[{regression.get('scale') or 'default'}] "
                f"{regression.get('machine') or '?'}/{regression.get('engine') or '?'}"
            )
            items.append(
                "<li><strong>⚠ "
                + _esc(label)
                + "</strong> — "
                + _esc(
                    f"{_fmt(regression.get('steps_per_s'))} steps/s vs baseline "
                    f"{_fmt(regression.get('baseline'))} "
                    f"({regression.get('drop_pct', 0):+.1f}%, "
                    f"n={regression.get('samples')}) in run {regression.get('run_id')}"
                )
                + "</li>"
            )
        regression_html = f'<ul class="reglist">{"".join(items)}</ul>'
    else:
        threshold = snapshot.get("threshold_pct", 20.0)
        regression_html = (
            f'<p class="ok-note">✓ no trajectory is more than {threshold:g}% '
            "below its rolling-median baseline.</p>"
        )

    flames = []
    for profile in profiles:
        stacks = profile.get("stacks") or {}
        label = profile.get("workload") or profile.get("source_file") or "profile"
        title = f"{profile.get('machine') or '?'} · {label}"
        flames.append(
            f'<div class="flame">{render_flame_svg(stacks, title=title)}</div>'
        )
    flame_html = "".join(flames) or (
        '<p class="ok-note">No profiles requested (<code>--no-profile</code>).</p>'
    )

    farm = snapshot.get("farm")
    total_runs = sum(t.get("runs", 0) for t in trajectories)
    overview = [
        _tile("Trajectories", _fmt(len(trajectories))),
        _tile("Recorded runs", _fmt(total_runs)),
        _tile(
            "Regressions",
            _fmt(len(regressions)),
            sub=f"threshold {snapshot.get('threshold_pct', 20.0):g}%",
            alert=bool(regressions),
        ),
        _tile(
            "Farm",
            "live" if farm and farm.get("ok") else ("offline" if farm else "—"),
            alert=bool(farm) and not farm.get("ok"),
        ),
    ]

    poll_script = ""
    mode_note = "static snapshot"
    if live_version is not None:
        mode_note = "live · auto-refresh"
        poll_script = (
            "<script>(async () => {\n"
            f"  const since = {int(live_version)};\n"
            "  for (;;) {\n"
            "    try {\n"
            "      const r = await fetch('/poll?v=' + since, {cache: 'no-store'});\n"
            "      if (r.ok) {\n"
            "        const d = await r.json();\n"
            "        if (d.version !== since) { location.reload(); return; }\n"
            "      } else { await new Promise(s => setTimeout(s, 2000)); }\n"
            "    } catch (e) { await new Promise(s => setTimeout(s, 2000)); }\n"
            "  }\n"
            "})();</script>"
        )

    return (
        "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "<title>repro operator console</title>"
        f"<style>{_CSS}</style></head><body><main>"
        "<header><h1>repro operator console</h1>"
        f'<span class="meta">ledger <code>{_esc(snapshot.get("ledger_root"))}</code>'
        f" · generated {_esc(_when(snapshot.get('generated_at')))}"
        f" · {_esc(mode_note)}</span></header>"
        f'<div class="tiles" id="overview">{"".join(overview)}</div>'
        f"<h2>Throughput trajectories</h2>"
        f'<section id="trajectories" class="cards" '
        f'data-trajectories="{len(trajectories)}">{"".join(cards)}</section>'
        f"<h2>Regressions</h2>"
        f'<section id="regressions" data-regressions="{len(regressions)}">'
        f"{regression_html}</section>"
        f"<h2>Farm</h2>"
        f'<section id="farm">{_farm_panel(farm)}</section>'
        f"<h2>Flamegraphs</h2>"
        f'<section id="flamegraphs" data-flamegraphs="{len(profiles)}">'
        f"{flame_html}</section>"
        "<footer>self-contained page · stdlib only · "
        "<code>GET /data</code> for the snapshot JSON</footer>"
        f"</main>{poll_script}</body></html>\n"
    )


class DashServer(httpd.HTTPServer):
    """The live dashboard server: keep-alive HTTP over one provider.

    A background refresher rebuilds the snapshot every ``interval``
    seconds (off-loop — the provider does file and socket I/O) and bumps
    the page version only when the comparable body actually changed, so
    long-pollers aren't woken by wall-clock stamps.
    """

    extra_headers = "Cache-Control: no-store\r\n"

    def __init__(
        self,
        provider: ConsoleProvider,
        host: str = "127.0.0.1",
        port: int = 8422,
        interval: float = 2.0,
        idle_timeout: float = httpd.IDLE_TIMEOUT_S,
    ):
        super().__init__(host, port, idle_timeout)
        self.provider = provider
        self.interval = interval
        self._snapshot: ConsoleSnapshot | None = None
        self._comparable: dict | None = None
        self._version = 1
        self._changed = asyncio.Event()
        self._refresher: asyncio.Task | None = None

    # -- snapshot state ----------------------------------------------------------

    def _install(self, snapshot: ConsoleSnapshot) -> None:
        comparable = snapshot.comparable()
        if comparable != self._comparable:
            self._snapshot = snapshot
            self._comparable = comparable
            self._version += 1
            changed, self._changed = self._changed, asyncio.Event()
            changed.set()
        else:
            self._snapshot = snapshot  # fresher stamps, same body

    async def refresh(self) -> None:
        snapshot = await asyncio.get_running_loop().run_in_executor(
            None, self.provider.snapshot
        )
        self._install(snapshot)

    async def _refresh_loop(self) -> None:
        while not self._shutdown.is_set():
            try:
                await asyncio.wait_for(self._shutdown.wait(), self.interval)
            except asyncio.TimeoutError:
                pass
            if self._shutdown.is_set():
                break
            try:
                await self.refresh()
            except Exception as exc:  # a flaky poll must not kill the console
                print(f"dash: refresh failed: {exc}", file=sys.stderr)

    async def _wait_version(self, since: int, timeout: float) -> int:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while self._version == since and not self.draining:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            event = self._changed
            try:
                await asyncio.wait_for(event.wait(), min(remaining, 1.0))
            except asyncio.TimeoutError:
                pass
        return self._version

    # -- routes ------------------------------------------------------------------

    async def handle(self, request: httpd.Request, writer) -> httpd.Response:
        if request.method != "GET":
            return httpd.Response(405, b'{"error": "GET only"}', keep_alive=False)
        path, query = request.path, request.query
        if path in ("/", "/index.html"):
            page = render_dashboard(self._snapshot, live_version=self._version)
            return httpd.Response(200, page.encode("utf-8"), "text/html; charset=utf-8")
        if path == "/data":
            return httpd.json_response(200, self._snapshot.to_dict())
        if path == "/poll":
            try:
                since = int(query.get("v", "0") or "0")
            except ValueError:
                return httpd.Response(400, b'{"error": "v must be an integer"}')
            timeout = min(float(query.get("wait", _MAX_POLL_S) or _MAX_POLL_S), _MAX_POLL_S)
            version = await self._wait_version(since, timeout)
            body = json.dumps({"version": version, "changed": version != since})
            return httpd.Response(200, body.encode("utf-8"))
        if path == "/healthz":
            body = json.dumps({"ok": True, "version": self._version})
            return httpd.Response(200, body.encode("utf-8"))
        body = json.dumps({"error": f"no route for {path}"})
        return httpd.Response(404, body.encode("utf-8"))

    # -- lifecycle ---------------------------------------------------------------

    def banner(self) -> dict:
        return {"dash": {"host": self.host, "port": self.port, "interval": self.interval}}

    async def start(self) -> tuple[str, int]:
        await self.refresh()  # GET / must have a snapshot from request one
        address = await super().start()
        self._refresher = asyncio.get_running_loop().create_task(self._refresh_loop())
        return address

    def request_shutdown(self) -> None:
        super().request_shutdown()
        changed, self._changed = self._changed, asyncio.Event()
        changed.set()  # release long-pollers promptly

    async def drain(self) -> None:
        if self._refresher is not None:
            await self._refresher


def resolve_ledger(explicit: str | None):
    """The ledger root the console should read.

    An explicit ``--ledger`` wins.  Otherwise the default root — unless
    it has no records and the checked-in ``benchmarks/ledger_seed/``
    does, in which case the seed is used, so the dashboard renders real
    panels on a fresh checkout.
    """
    if explicit:
        return explicit
    from repro.obs.ledger import Ledger

    default = Ledger()
    if not default.records_path.is_file():
        seed = Path("benchmarks/ledger_seed")
        if (seed / "records.jsonl").is_file():
            return seed
    return default


def build_provider(args) -> ConsoleProvider:
    specs = [] if args.no_profile else (args.profile or ["towers:10"])
    return ConsoleProvider(
        ledger=resolve_ledger(args.ledger),
        farm_url=args.farm,
        profile_specs=specs,
        threshold_pct=args.threshold,
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--once",
        metavar="PATH",
        help="render one static HTML page to PATH (or - for stdout) and exit",
    )
    parser.add_argument(
        "--ledger",
        metavar="DIR",
        help="ledger root (default: $REPRO_LEDGER / .repro-ledger, falling "
        "back to benchmarks/ledger_seed when empty)",
    )
    parser.add_argument(
        "--farm",
        metavar="URL",
        help="a repro.farm serve base URL to poll for the farm panel",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8422)
    parser.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between snapshot refreshes in live mode (default 2)",
    )
    parser.add_argument(
        "--profile",
        action="append",
        metavar="NAME[:ARG]",
        help="workload spec to flamegraph (repeatable; default towers:10)",
    )
    parser.add_argument(
        "--no-profile", action="store_true", help="skip the flamegraph panel"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=20.0,
        metavar="PCT",
        help="regression threshold in percent (default 20)",
    )


def main(args) -> int:
    """``python -m repro.obs dash`` (argparse namespace)."""
    try:
        provider = build_provider(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.once:
        page = render_dashboard(provider.snapshot())
        if args.once == "-":
            sys.stdout.write(page)
        else:
            path = Path(args.once)
            if path.parent != Path(""):
                path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(page, encoding="utf-8")
            print(f"wrote dashboard to {path}", file=sys.stderr)
        return 0
    server = DashServer(provider, host=args.host, port=args.port, interval=args.interval)
    asyncio.run(httpd.serve(server))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the CLI
    parser = argparse.ArgumentParser(description="operator console web dashboard")
    add_arguments(parser)
    raise SystemExit(main(parser.parse_args()))
