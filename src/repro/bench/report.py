"""Markdown rendering of a comparison plus the trajectory history.

The report is what a human reads after CI flags a bench run: the
verdict table (exceptions first), the fidelity, phase and contention
snapshots, and sparklines of the deterministic headlines over the
archived trajectory, so a slow drift — each commit nudging the mean
Base/GLSC ratio, never leaving a band — is visible at a glance.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.bench.baseline import stamp
from repro.bench.compare import VERDICTS, Comparison

__all__ = ["render_markdown", "sparkline"]

#: Eight-level block ramp for sparklines.
_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline of ``values`` (empty string for no data)."""
    values = [float(v) for v in values]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _BLOCKS[0] * len(values)
    span = hi - lo
    return "".join(
        _BLOCKS[min(int((v - lo) / span * len(_BLOCKS)), len(_BLOCKS) - 1)]
        for v in values
    )


def _headline_series(
    trajectory: List[Dict[str, Any]], suite: str, key: str, limit: int
) -> List[float]:
    series = [
        e["headline"].get(key, 0.0)
        for e in trajectory
        if e.get("suite") == suite and "headline" in e
    ]
    return series[-limit:]


def render_markdown(
    comparison: Comparison,
    trajectory: Optional[List[Dict[str, Any]]] = None,
    doc: Optional[Mapping[str, Any]] = None,
    history: int = 16,
) -> str:
    """The full markdown report for one comparison."""
    lines = [
        f"# Bench report — `{comparison.sha}` "
        f"(suite `{comparison.suite}`)",
        "",
        f"Generated {stamp()}; baseline "
        f"`{comparison.baseline_sha or 'none'}`.",
        "",
        "**Gate: " + ("REGRESSED ❌" if comparison.failed else "ok ✅")
        + "**",
        "",
    ]

    counts = comparison.counts()
    lines.append(
        "| verdict | count |\n|---|---|\n"
        + "\n".join(
            f"| {name} | {counts[name]} |"
            for name in VERDICTS
            if counts[name]
        )
    )
    lines.append("")

    exceptions = [v for v in comparison.verdicts if v.verdict != "ok"]
    if exceptions:
        lines.append("## Exceptions")
        lines.append("")
        lines.append("| metric | old | new | delta | verdict | note |")
        lines.append("|---|---|---|---|---|---|")
        order = {name: i for i, name in enumerate(VERDICTS)}
        for v in sorted(
            exceptions, key=lambda v: (order[v.verdict], v.metric)
        ):
            old = f"{v.old:.6g}" if v.old is not None else "—"
            new = f"{v.new:.6g}" if v.new is not None else "—"
            delta = (
                f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "—"
            )
            lines.append(
                f"| `{v.metric}` | {old} | {new} | {delta} "
                f"| **{v.verdict}** | {v.note or ''} |"
            )
        lines.append("")
    else:
        lines.append("Every metric within bounds.")
        lines.append("")

    if doc is not None:
        fidelity = doc.get("fidelity", {})
        speedups = fidelity.get("speedup", {})
        if speedups:
            lines.append("## Fidelity snapshot (GLSC speedups)")
            lines.append("")
            lines.append("| point | Base/GLSC ratio |")
            lines.append("|---|---|")
            for key in sorted(speedups):
                lines.append(f"| `{key}` | {speedups[key]:.3f} |")
            lines.append("")

        phased = [
            p for p in doc.get("points", ())
            if isinstance(p, dict) and p.get("phases")
        ]
        if phased:
            lines.append("## Phase attribution")
            lines.append("")
            lines.append(
                "Thread-cycle capacity split per point "
                "(gather = first-attempt vector-atomic occupancy, "
                "retry = re-issue after a failed element)."
            )
            lines.append("")
            lines.append(
                "| point | gather | compute | retry | stall |"
            )
            lines.append("|---|---|---|---|---|")
            for point in phased:
                fractions = point["phases"].get("fractions", {})
                cells = " | ".join(
                    f"{fractions.get(name, 0.0) * 100:.1f}%"
                    for name in ("gather", "compute", "retry", "stall")
                )
                lines.append(f"| `{point.get('id', '?')}` | {cells} |")
            lines.append("")

        contended = [
            p for p in doc.get("points", ())
            if isinstance(p, dict) and isinstance(p.get("contention"), dict)
        ]
        if contended:
            lines.append("## Contention")
            lines.append("")
            lines.append(
                "Reservation kills, failed GLSC element lanes, and the "
                "hottest line per point (from the contention "
                "observatory's observed pass)."
            )
            lines.append("")
            lines.append(
                "| point | kills | failed lanes | storms | "
                "hottest line | depth |"
            )
            lines.append("|---|---|---|---|---|---|")
            for point in contended:
                block = point["contention"]
                hot = block.get("hot_line") or "—"
                lines.append(
                    f"| `{point.get('id', '?')}` "
                    f"| {block.get('kills', 0)} "
                    f"| {block.get('failed_lanes', 0)} "
                    f"| {block.get('storms', 0)} "
                    f"| `{hot}` ({block.get('hot_line_total', 0)}) "
                    f"| {block.get('max_retry_depth', 0)} |"
                )
            lines.append("")

    if trajectory:
        lines.append(f"## Trajectory (last {history} runs)")
        lines.append("")
        entries = [
            e for e in trajectory if e.get("suite") == comparison.suite
        ][-history:]
        shas = " → ".join(e.get("git_sha", "?") for e in entries)
        lines.append(f"Runs: {shas}")
        lines.append("")
        lines.append("| headline | trend | latest |")
        lines.append("|---|---|---|")
        for key, label, fmt in (
            ("mean_speedup", "mean Base/GLSC ratio", "{:.3f}"),
            ("total_cycles", "total simulated cycles", "{:.0f}"),
        ):
            series = _headline_series(
                trajectory, comparison.suite, key, history
            )
            if not series:
                continue
            lines.append(
                f"| {label} | `{sparkline(series)}` "
                f"| {fmt.format(series[-1])} |"
            )
        lines.append("")

    return "\n".join(lines)
