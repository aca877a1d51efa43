"""Self-contained HTML dashboard over the run ledger.

``deuce-sim dashboard`` renders the ledger's history — per-scheme flip-rate
trajectories, pad-cache hit rates, wall times — as one static HTML file with
inline SVG sparklines.  Zero dependencies, no JavaScript, no external
assets: the file can be opened from disk, attached to a CI artifact, or
emailed.

Layout
------
* **Gate panel** — one status tile per gate check (PASS/FAIL with icon and
  label, never color alone), or a neutral tile when the gate cannot be
  evaluated (no baselines / no runs).
* **Service SLO panel** — tiles from the newest ``kind="loadtest"``
  manifest (``deuce-sim loadtest``): p99 latency and error rate judged
  against the soak's SLO targets when it set any, queue saturation, and a
  queue-depth sparkline over the soak.
* **Write-path profile** — phase breakdown bars from the newest run that
  carried a ``profile.json`` artifact (the run's per-phase time
  attribution), linking wall time to the kernel responsible; nested
  phases (``pad.fetch``) are shown but not added to the total.
* **Scheme cards** — one card per scheme seen in the ledger, each with one
  sparkline per metric in :data:`TRACKED_METRICS` plotted across that
  scheme's run history (oldest left, newest right).
* **Runs table** — the newest runs as a plain table, the accessible
  non-graphical view of the same data.

Colors come from a colorblind-validated categorical palette assigned to
schemes in the fixed :data:`~repro.schemes.SCHEME_NAMES` order (never
cycled; schemes beyond the palette fold to neutral gray), with light/dark
variants selected by ``prefers-color-scheme``.  All text wears ink tokens,
never series colors.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.obs.profile import NESTED_PHASES
from repro.schemes import SCHEME_NAMES

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.ledger import RunLedger, RunManifest

#: Metrics charted per scheme card: manifest field -> axis label.
#: One sparkline per entry, in this order.
TRACKED_METRICS: dict[str, str] = {
    "flips_pct": "bit flips per write (% of 512 data bits)",
    "pad_hit_rate": "pad-cache hit rate (0..1)",
    "wall_time_s": "run wall time (s)",
}

#: Categorical palette (validated light/dark pairs), assigned to schemes in
#: fixed SCHEME_NAMES order.  Schemes beyond the palette fold to gray.
_PALETTE_LIGHT = (
    "#2a78d6", "#eb6834", "#1baf7a", "#eda100",
    "#e87ba4", "#008300", "#4a3aa7", "#e34948",
)
_PALETTE_DARK = (
    "#3987e5", "#d95926", "#199e70", "#c98500",
    "#d55181", "#008300", "#9085e9", "#e66767",
)
_FALLBACK_COLOR = ("#6e6e6a", "#9a9a95")  # beyond-palette fold: neutral gray

_CSS = """
:root {
  --surface: #fcfcfb; --card: #ffffff; --border: #e4e4e0;
  --ink: #1f1f1e; --ink-2: #52524e; --ink-3: #807f7a;
  --good: #0ca30c; --critical: #d03b3b; --neutral: #807f7a;
  --good-bg: #e9f6e9; --critical-bg: #fbeaea; --neutral-bg: #f0f0ee;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --card: #222221; --border: #3a3a38;
    --ink: #ececea; --ink-2: #b4b4af; --ink-3: #8a8a85;
    --good: #4ec04e; --critical: #e57373; --neutral: #8a8a85;
    --good-bg: #1e2e1e; --critical-bg: #342222; --neutral-bg: #2a2a28;
  }
  .light-only { display: none; }
}
@media not (prefers-color-scheme: dark) { .dark-only { display: none; } }
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--ink); }
.sub { color: var(--ink-2); margin: 0 0 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; }
.tile {
  border: 1px solid var(--border); border-radius: 8px; background: var(--card);
  padding: 10px 14px; min-width: 200px;
}
.tile .verdict { font-weight: 600; }
.tile.pass .verdict { color: var(--good); }
.tile.fail .verdict { color: var(--critical); }
.tile.none .verdict { color: var(--neutral); }
.tile .name { color: var(--ink-2); font-size: 12px; }
.tile .band { color: var(--ink-3); font-size: 12px; font-variant-numeric: tabular-nums; }
.cards { display: flex; flex-wrap: wrap; gap: 14px; }
.card {
  border: 1px solid var(--border); border-radius: 8px; background: var(--card);
  padding: 12px 14px; width: 300px;
}
.card h3 { font-size: 14px; margin: 0 0 2px; display: flex; align-items: center; gap: 7px; }
.swatch { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
.card .meta { color: var(--ink-3); font-size: 12px; margin-bottom: 8px; }
.metric { margin: 10px 0 0; }
.metric .label { color: var(--ink-2); font-size: 12px; }
.metric .vals {
  color: var(--ink); font-size: 12px; font-variant-numeric: tabular-nums;
}
svg.spark { display: block; margin-top: 2px; }
.bars { margin-top: 6px; }
.bar-row { display: flex; align-items: center; gap: 8px; margin: 3px 0; }
.bar-row .bar-label {
  color: var(--ink-2); font-size: 12px; width: 110px; text-align: right;
}
.bar-row .bar-track {
  flex: 1; background: var(--neutral-bg); border-radius: 3px; height: 12px;
}
.bar-row .bar-fill { height: 12px; border-radius: 3px; }
.bar-row .bar-val {
  color: var(--ink-3); font-size: 12px; width: 120px;
  font-variant-numeric: tabular-nums;
}
table { border-collapse: collapse; background: var(--card); font-size: 13px; }
th, td {
  border: 1px solid var(--border); padding: 5px 9px; text-align: left;
  font-variant-numeric: tabular-nums;
}
th { color: var(--ink-2); font-weight: 600; }
.empty { color: var(--ink-3); }
footer { margin-top: 28px; color: var(--ink-3); font-size: 12px; }
"""


def scheme_color(scheme: str) -> tuple[str, str]:
    """The (light, dark) series color for a scheme — fixed assignment.

    Colors follow the entity: each scheme's slot comes from its position in
    the canonical ``SCHEME_NAMES`` order, so a dashboard over a filtered
    ledger never repaints the survivors.  Schemes past the 8-color palette
    (or unknown ones) fold to neutral gray rather than cycling hues.
    """
    try:
        idx = SCHEME_NAMES.index(scheme)
    except ValueError:
        return _FALLBACK_COLOR
    if idx >= len(_PALETTE_LIGHT):
        return _FALLBACK_COLOR
    return _PALETTE_LIGHT[idx], _PALETTE_DARK[idx]


def sparkline_svg(
    values: Sequence[float],
    color: str,
    *,
    width: int = 270,
    height: int = 44,
    title: str = "",
    css_class: str = "spark",
) -> str:
    """One inline-SVG sparkline: a 2px line, newest value dotted.

    Degenerate inputs still render: a single value (or an all-equal series)
    draws a flat midline.  The ``<title>`` child is the native tooltip and
    the screen-reader label.
    """
    pad = 4.0
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    n = len(values)

    def xy(i: int, v: float) -> tuple[float, float]:
        x = pad + (width - 2 * pad) * (i / (n - 1) if n > 1 else 0.5)
        y = pad + (height - 2 * pad) * (1.0 - (v - lo) / span)
        return round(x, 2), round(y, 2)

    points = " ".join(f"{x},{y}" for x, y in (xy(i, v) for i, v in enumerate(values)))
    lx, ly = xy(n - 1, values[-1])
    label = html.escape(title) if title else "sparkline"
    return (
        f'<svg class="{css_class}" role="img" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        f"<title>{label}</title>"
        f'<polyline fill="none" stroke="{color}" stroke-width="2" '
        f'stroke-linejoin="round" stroke-linecap="round" points="{points}"/>'
        f'<circle cx="{lx}" cy="{ly}" r="3" fill="{color}"/>'
        "</svg>"
    )


def _fmt(value: object, digits: int = 3) -> str:
    if isinstance(value, float):
        return f"{value:.{digits}f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def _metric_values(manifests: list["RunManifest"], metric: str) -> list[float]:
    values = []
    for m in manifests:
        v = m.wall_time_s if metric == "wall_time_s" else m.summary.get(metric)
        if isinstance(v, (int, float)):
            values.append(float(v))
    return values


def _gate_tiles(ledger: "RunLedger", baselines_dir: str | Path) -> str:
    from repro.obs.gate import GateError, evaluate_gate

    try:
        report = evaluate_gate(ledger, baselines_dir=baselines_dir)
    except GateError as exc:
        return (
            '<div class="tiles"><div class="tile none">'
            '<div class="verdict">&#9675; not evaluated</div>'
            f'<div class="name">{html.escape(str(exc))}</div></div></div>'
        )
    tiles = []
    for check in report.checks:
        cls, icon, word = (
            ("pass", "&#10003;", "PASS")
            if check.passed
            else ("fail", "&#10007;", "FAIL")
        )
        hi = "&#8734;" if check.hi == float("inf") else _fmt(check.hi)
        tiles.append(
            f'<div class="tile {cls}">'
            f'<div class="verdict">{icon} {word}</div>'
            f'<div class="name">{html.escape(check.name)}</div>'
            f'<div class="band">{_fmt(check.value)} '
            f"(band {_fmt(check.lo)}..{hi})</div>"
            "</div>"
        )
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def _latest_loadtest(
    ledger: "RunLedger",
) -> tuple["RunManifest | None", dict | None]:
    """Newest loadtest manifest and its report artifact.

    The report is ``None`` when the artifact is missing or corrupt — the
    tiles then fall back to the manifest's summary numbers alone.
    """
    import json

    manifests = ledger.list(kind="loadtest", limit=1)
    if not manifests:
        return None, None
    manifest = manifests[-1]
    filename = manifest.artifacts.get("loadtest")
    report = None
    if filename:
        try:
            raw = (ledger.run_dir(manifest.run_id) / filename).read_text()
            loaded = json.loads(raw)
            if isinstance(loaded, dict):
                report = loaded
        except (OSError, ValueError):
            report = None
    return manifest, report


def _fleet_panel(ledger: "RunLedger") -> str:
    """Per-worker tiles from the newest ``kind="fleet-sweep"`` manifest.

    A fleet sweep records one summary manifest (cells, steals, requeues,
    duplicate completions) with a ``fleet.json`` artifact carrying the
    per-worker breakdown; each worker becomes a tile showing its share
    of the grid and whether it survived the sweep.
    """
    import json

    manifests = ledger.list(kind="fleet-sweep", limit=1)
    if not manifests:
        return (
            '<div class="tiles"><div class="tile none">'
            '<div class="verdict">&#9675; no fleet sweeps</div>'
            '<div class="name">shard one with deuce-sim sweep '
            "--workers-url ...</div>"
            "</div></div>"
        )
    manifest = manifests[-1]
    summary = manifest.summary
    workers = []
    filename = manifest.artifacts.get("fleet")
    if filename:
        try:
            raw = (ledger.run_dir(manifest.run_id) / filename).read_text()
            loaded = json.loads(raw)
            if isinstance(loaded, dict):
                workers = [
                    w for w in loaded.get("workers", [])
                    if isinstance(w, dict)
                ]
        except (OSError, ValueError):
            workers = []

    tiles = []
    cells = int(summary.get("cells", 0) or 0)
    for worker in workers:
        healthy = bool(worker.get("healthy", True))
        completed = int(worker.get("completed", 0) or 0)
        share = f" ({completed / cells:.0%} of grid)" if cells else ""
        cls = "pass" if healthy else "fail"
        verdict = (
            ("&#10003; up " if healthy else "&#10007; dead ")
            + f"{completed} cell(s)"
        )
        tiles.append(
            _slo_tile(
                cls,
                verdict,
                str(worker.get("name", "worker")),
                f"dispatched {int(worker.get('dispatched', 0) or 0)}"
                + share,
            )
        )
    steals = int(summary.get("steals", 0) or 0)
    requeues = int(summary.get("requeues", 0) or 0)
    duplicates = int(summary.get("duplicates", 0) or 0)
    tiles.append(
        _slo_tile(
            "none",
            f"&#9675; {cells} cells / "
            f"{int(summary.get('workers', len(workers)) or 0)} workers",
            "fabric totals",
            f"{steals} steal(s) &middot; {requeues} requeue(s) &middot; "
            f"{duplicates} duplicate(s) &middot; "
            f"{_fmt(float(manifest.wall_time_s))} s wall",
        )
    )
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def _slo_tile(cls: str, verdict: str, name: str, band: str) -> str:
    return (
        f'<div class="tile {cls}">'
        f'<div class="verdict">{verdict}</div>'
        f'<div class="name">{html.escape(name)}</div>'
        f'<div class="band">{band}</div>'
        "</div>"
    )


def _slo_tiles(ledger: "RunLedger") -> str:
    """Service SLO tiles from the newest loadtest manifest."""
    manifest, report = _latest_loadtest(ledger)
    if manifest is None:
        return (
            '<div class="tiles"><div class="tile none">'
            '<div class="verdict">&#9675; no load tests</div>'
            '<div class="name">run deuce-sim loadtest to record one</div>'
            "</div></div>"
        )
    summary = manifest.summary
    slo = (report or {}).get("slo", {})
    tiles = []

    p99 = float(summary.get("p99_ms", 0.0))
    p99_target = float(slo.get("p99_slo_ms", 0.0) or 0.0)
    if p99_target > 0:
        ok = p99 <= p99_target
        cls = "pass" if ok else "fail"
        verdict = (
            ("&#10003; PASS " if ok else "&#10007; FAIL ")
            + f"{_fmt(p99)} ms"
        )
        band = f"target &le; {_fmt(p99_target)} ms"
    else:
        cls, verdict, band = "none", f"&#9675; {_fmt(p99)} ms", "no SLO target"
    tiles.append(_slo_tile(cls, verdict, "p99 request latency", band))
    error_rate = float(summary.get("error_rate", 0.0))
    max_error = float(slo.get("max_error_rate", -1.0))
    if max_error >= 0:
        ok = error_rate <= max_error
        cls = "pass" if ok else "fail"
        verdict = (
            ("&#10003; PASS " if ok else "&#10007; FAIL ")
            + f"{error_rate:.2%}"
        )
        band = f"target &le; {max_error:.2%}"
    else:
        cls, verdict, band = "none", f"&#9675; {error_rate:.2%}", "no SLO target"
    tiles.append(_slo_tile(cls, verdict, "error rate (4xx + 5xx + transport)", band))

    saturation = float(summary.get("saturation", 0.0))
    depth_peak = summary.get("queue_depth_peak", 0.0)
    capacity = (report or {}).get("queue", {}).get("capacity", 0)
    tiles.append(
        _slo_tile(
            "none",
            f"&#9675; {saturation:.0%}",
            "queue saturation (peak/capacity)",
            f"peak depth {_fmt(float(depth_peak), 0)}"
            + (f" of {capacity}" if capacity else ""),
        )
    )

    samples = (report or {}).get("queue", {}).get("samples") or []
    depths = [
        float(s[1]) for s in samples
        if isinstance(s, (list, tuple)) and len(s) >= 2
        and isinstance(s[1], (int, float))
    ]
    if depths:
        title = (
            f"queue depth over the soak: peak {_fmt(max(depths), 0)}"
        )
        light, dark = _PALETTE_LIGHT[0], _PALETTE_DARK[0]
        spark = (
            f'<span class="light-only">'
            f"{sparkline_svg(depths, light, width=180, height=36, title=title)}"
            "</span>"
            f'<span class="dark-only">'
            f"{sparkline_svg(depths, dark, width=180, height=36, title=title)}"
            "</span>"
        )
        tiles.append(
            '<div class="tile none">'
            f"{spark}"
            '<div class="name">queue depth during soak</div>'
            f'<div class="band">{len(depths)} samples</div>'
            "</div>"
        )

    totals = (report or {}).get("totals", {})
    requests = totals.get("requests", summary.get("requests", 0))
    rps = totals.get("rps", summary.get("rps", 0.0))
    meta = (
        f'<p class="sub">{html.escape(manifest.run_id)} &middot; '
        f"{html.escape(manifest.created_utc)} &middot; "
        f"{_fmt(float(requests), 0)} requests at {_fmt(float(rps), 1)} rps"
        + (f" &middot; {html.escape(manifest.label)}" if manifest.label else "")
        + "</p>"
    )
    return '<div class="tiles">' + "".join(tiles) + "</div>" + meta


def _latest_profile(ledger: "RunLedger") -> tuple["RunManifest | None", dict]:
    """Newest run/sweep-cell manifest carrying a ``profile.json`` artifact."""
    import json

    for m in reversed(ledger.list(limit=None)):
        if m.kind not in ("run", "sweep-cell"):
            continue
        filename = m.artifacts.get("profile")
        if not filename:
            continue
        try:
            loaded = json.loads(
                (ledger.run_dir(m.run_id) / filename).read_text()
            )
        except (OSError, ValueError):
            continue
        if isinstance(loaded, dict) and loaded:
            return m, loaded
    return None, {}


def _profile_panel(ledger: "RunLedger") -> str:
    """Phase-breakdown bars from the newest profiled run."""
    manifest, profile = _latest_profile(ledger)
    if manifest is None:
        return (
            '<p class="empty">no profiled runs yet — any recorded run '
            "captures a write-path profile automatically</p>"
        )
    rows = sorted(
        (
            (name, float(entry.get("seconds", 0.0)), int(entry.get("count", 0)))
            for name, entry in profile.items()
            if isinstance(entry, dict)
        ),
        key=lambda row: -row[1],
    )
    # Nested phases (pad.fetch inside scheme.write) are already in their
    # parent's seconds, so the denominator is the top-level sum, the same
    # one PhaseProfile.total_s and the stored shares use.
    total = sum(
        seconds for name, seconds, _ in rows if name not in NESTED_PHASES
    ) or 1.0
    light, dark = _PALETTE_LIGHT[0], _PALETTE_DARK[0]
    bars = []
    for name, seconds, count in rows:
        share = seconds / total
        width = max(round(share * 100, 1), 0.5)
        label = name
        if name in NESTED_PHASES:
            label += f" (in {NESTED_PHASES[name]})"
        bars.append(
            '<div class="bar-row">'
            f'<span class="bar-label">{html.escape(label)}</span>'
            '<span class="bar-track">'
            f'<span class="bar-fill light-only" style="width:{width}%;'
            f'background:{light}"></span>'
            f'<span class="bar-fill dark-only" style="width:{width}%;'
            f'background:{dark}"></span></span>'
            f'<span class="bar-val">{_fmt(seconds, 4)} s &middot; '
            f"{share:.0%}"
            + (f" &middot; {count}&times;" if count else "")
            + "</span></div>"
        )
    meta = (
        f"{html.escape(manifest.run_id)} &middot; "
        f"{html.escape(manifest.workload)}/{html.escape(manifest.scheme)} "
        f"&middot; {_fmt(total, 4)} s attributed"
    )
    return (
        '<div class="tiles"><div class="tile none" style="min-width:460px">'
        f'<div class="bars">{"".join(bars)}</div>'
        f'<div class="name">{meta}</div>'
        "</div></div>"
    )


def _scheme_cards(by_scheme: dict[str, list["RunManifest"]]) -> str:
    cards = []
    for scheme, manifests in by_scheme.items():
        light, dark = scheme_color(scheme)
        metrics_html = []
        for metric, label in TRACKED_METRICS.items():
            values = _metric_values(manifests, metric)
            if not values:
                continue
            title = f"{scheme} {label}: latest {_fmt(values[-1])}"
            sparks = (
                f'<span class="light-only">'
                f"{sparkline_svg(values, light, title=title, css_class=f'spark m-{metric}')}"
                "</span>"
                f'<span class="dark-only">'
                f"{sparkline_svg(values, dark, title=title, css_class=f'spark m-{metric}')}"
                "</span>"
            )
            vals = (
                f"latest {_fmt(values[-1])} &middot; "
                f"min {_fmt(min(values))} &middot; max {_fmt(max(values))}"
            )
            metrics_html.append(
                f'<div class="metric"><span class="label">'
                f"{html.escape(label)}</span>{sparks}"
                f'<div class="vals">{vals}</div></div>'
            )
        workloads = sorted({m.workload for m in manifests if m.workload})
        cards.append(
            '<div class="card">'
            f'<h3><span class="swatch light-only" style="background:{light}">'
            '</span><span class="swatch dark-only" '
            f'style="background:{dark}"></span>{html.escape(scheme)}</h3>'
            f'<div class="meta">{len(manifests)} runs &middot; '
            f'{html.escape(", ".join(workloads) or "—")}</div>'
            + "".join(metrics_html)
            + "</div>"
        )
    return '<div class="cards">' + "".join(cards) + "</div>"


def _kv_phase_panel(ledger: "RunLedger", newest: int = 12) -> str:
    """Per-phase flip/write rates for the newest phased (KV) runs.

    A run is phased when its summary carries ``phase_<name>_flips_pct``
    keys (written by ``RunResult.summary_row`` for traces with phase
    structure); Table 2 runs never appear here.  Write rate is the
    phase's share of the trace's writebacks — how much of the PCM write
    budget each service phase consumed.
    """
    manifests = [
        m
        for m in ledger.list()
        if m.kind in ("run", "sweep-cell")
        and any(k.startswith("phase_") for k in m.summary)
    ][-newest:][::-1]
    if not manifests:
        return (
            '<p class="empty">no KV-profile runs in the ledger yet — '
            "run <code>deuce-sim run --workload kv-udb</code> first</p>"
        )
    phase_names: list[str] = []
    for m in manifests:
        for key in m.summary:
            if key.startswith("phase_") and key.endswith("_flips_pct"):
                name = key[len("phase_"):-len("_flips_pct")]
                if name not in phase_names:
                    phase_names.append(name)
    head = "<th>run_id</th><th>workload</th><th>scheme</th>" + "".join(
        f"<th>{html.escape(p)} writes</th><th>{html.escape(p)} write %</th>"
        f"<th>{html.escape(p)} flips %</th>"
        for p in phase_names
    ) + "<th>overall flips %</th>"
    body = []
    for m in manifests:
        total_writes = m.n_writes or sum(
            int(m.summary.get(f"phase_{p}_writes", 0)) for p in phase_names
        )
        cells = [m.run_id, m.workload, m.scheme]
        for p in phase_names:
            writes = m.summary.get(f"phase_{p}_writes")
            flips = m.summary.get(f"phase_{p}_flips_pct")
            share = (
                f"{100.0 * int(writes) / total_writes:.1f}"
                if writes is not None and total_writes
                else ""
            )
            cells += [
                "" if writes is None else str(writes),
                share,
                _fmt(flips if flips is not None else ""),
            ]
        cells.append(_fmt(m.summary.get("flips_pct", "")))
        body.append(
            "<tr>"
            + "".join(f"<td>{html.escape(str(c))}</td>" for c in cells)
            + "</tr>"
        )
    return (
        "<table><thead><tr>" + head + "</tr></thead>"
        "<tbody>" + "".join(body) + "</tbody></table>"
    )


def _runs_table(manifests: list["RunManifest"], newest: int = 20) -> str:
    rows = manifests[-newest:][::-1]
    if not rows:
        return '<p class="empty">no runs recorded yet</p>'
    cols = (
        "run_id", "created_utc", "kind", "label", "workload", "scheme",
        "n_writes", "flips_pct", "pad_hit_rate", "wall_time_s", "git_rev",
    )
    head = "".join(f"<th>{c}</th>" for c in cols)
    body = []
    for m in rows:
        cells = {
            "run_id": m.run_id,
            "created_utc": m.created_utc,
            "kind": m.kind,
            "label": m.label,
            "workload": m.workload,
            "scheme": m.scheme,
            "n_writes": m.n_writes or "",
            "flips_pct": _fmt(m.summary.get("flips_pct", "")),
            "pad_hit_rate": _fmt(m.summary.get("pad_hit_rate", "")),
            "wall_time_s": _fmt(m.wall_time_s),
            "git_rev": m.git_rev,
        }
        body.append(
            "<tr>"
            + "".join(f"<td>{html.escape(str(cells[c]))}</td>" for c in cols)
            + "</tr>"
        )
    return (
        "<table><thead><tr>" + head + "</tr></thead>"
        "<tbody>" + "".join(body) + "</tbody></table>"
    )


def render_dashboard(
    ledger: "RunLedger",
    *,
    baselines_dir: str | Path = "baselines",
    limit: int | None = 200,
) -> str:
    """The full dashboard HTML document as a string."""
    manifests = ledger.list(limit=limit)
    runs = [m for m in manifests if m.kind in ("run", "sweep-cell")]
    by_scheme: dict[str, list] = {}
    order = {name: i for i, name in enumerate(SCHEME_NAMES)}
    for m in runs:
        if m.scheme:
            by_scheme.setdefault(m.scheme, []).append(m)
    by_scheme = dict(
        sorted(by_scheme.items(), key=lambda kv: order.get(kv[0], 99))
    )
    schemes_html = (
        _scheme_cards(by_scheme)
        if by_scheme
        else '<p class="empty">no simulation runs in the ledger yet — '
        "run <code>deuce-sim run</code> first</p>"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        "<title>DEUCE run ledger dashboard</title>"
        f"<style>{_CSS}</style></head><body>"
        "<h1>DEUCE run ledger</h1>"
        f'<p class="sub">{len(manifests)} manifests in '
        f"<code>{html.escape(str(ledger.root))}</code> &middot; "
        f"{len(by_scheme)} schemes charted</p>"
        "<h2>Regression gate</h2>"
        + _gate_tiles(ledger, baselines_dir)
        + "<h2>Service SLO (latest load test)</h2>"
        + _slo_tiles(ledger)
        + "<h2>Sweep fleet (latest fleet sweep)</h2>"
        + _fleet_panel(ledger)
        + "<h2>KV service phases (newest phased runs)</h2>"
        + _kv_phase_panel(ledger)
        + "<h2>Write-path profile (newest profiled run)</h2>"
        + _profile_panel(ledger)
        + "<h2>Scheme trajectories (oldest &rarr; newest run)</h2>"
        + schemes_html
        + "<h2>Recent runs</h2>"
        + _runs_table(manifests)
        + "<footer>Self-contained dashboard generated by "
        "<code>deuce-sim dashboard</code>; sparklines chart the ledger's "
        "run history per scheme.</footer>"
        "</body></html>\n"
    )


def write_dashboard(
    path: str | Path,
    ledger: "RunLedger",
    *,
    baselines_dir: str | Path = "baselines",
    limit: int | None = 200,
) -> Path:
    """Render the dashboard and write it to ``path``; returns the path."""
    path = Path(path)
    path.write_text(
        render_dashboard(ledger, baselines_dir=baselines_dir, limit=limit)
    )
    return path
