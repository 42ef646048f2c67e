"""Comparator: classify every bench metric as ok / changed / regressed.

Two gates, both deterministic and so machine-independent:

* **cycles** (per point) — the simulator is deterministic, so any
  cycle-count change against the baseline is *drift*: reported as
  ``changed`` (not failing by default — legitimate model work changes
  cycles, and the fidelity bands below are the semantic gate).  A
  point the baseline lacks is ``new``; one it has but this run lacks
  is ``missing``.
* **fidelity bands** (per ratio / per GLSC point) — GLSC/Base speedup
  outside the committed reference band, a failure rate outside its
  band, or a flipped dominant failure cause is a hard ``regressed``:
  the reproduction no longer shows the paper's shape.

Nothing here is timed: the simulator's speed is judged by same-host
``perfbench`` A/Bs, not by this comparator.

The CLI exits non-zero iff :attr:`Comparison.failed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

__all__ = ["Comparator", "Comparison", "Verdict"]

#: Verdict labels, in report order.
VERDICTS = ("regressed", "changed", "missing", "new", "ok", "skipped")


@dataclass
class Verdict:
    """One metric's classification."""

    metric: str           # e.g. "cycles:tms/A:4x4:w4:glsc"
    kind: str             # "cycles" | "fidelity"
    verdict: str          # one of VERDICTS
    old: Optional[float] = None
    new: Optional[float] = None
    note: str = ""

    @property
    def delta_pct(self) -> Optional[float]:
        if self.old in (None, 0) or self.new is None:
            return None
        return 100.0 * (self.new - self.old) / self.old


@dataclass
class Comparison:
    """Every verdict of one comparator pass, plus the overall gate."""

    sha: str = ""
    baseline_sha: str = ""
    suite: str = ""
    verdicts: List[Verdict] = field(default_factory=list)

    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for verdict in self.verdicts:
            out[verdict.verdict] += 1
        return out

    @property
    def failed(self) -> bool:
        """Whether the gate fails (any ``regressed`` verdict)."""
        return any(v.verdict == "regressed" for v in self.verdicts)

    def by_verdict(self, name: str) -> List[Verdict]:
        return [v for v in self.verdicts if v.verdict == name]

    def render(self) -> str:
        """Plain-text verdict table (the CLI's compare output)."""
        lines = [
            f"bench compare: {self.sha} vs baseline "
            f"{self.baseline_sha or '(none)'} [suite {self.suite}]",
            f"{'metric':46s} {'old':>12s} {'new':>12s} "
            f"{'delta':>8s}  verdict",
        ]
        order = {name: i for i, name in enumerate(VERDICTS)}
        for v in sorted(
            self.verdicts, key=lambda v: (order[v.verdict], v.metric)
        ):
            if v.verdict == "ok":
                continue  # only exceptions make the table; counts below
            old = f"{v.old:.6g}" if v.old is not None else "-"
            new = f"{v.new:.6g}" if v.new is not None else "-"
            delta = (
                f"{v.delta_pct:+.1f}%" if v.delta_pct is not None else "-"
            )
            note = f"  ({v.note})" if v.note else ""
            lines.append(
                f"{v.metric[:46]:46s} {old:>12s} {new:>12s} "
                f"{delta:>8s}  {v.verdict}{note}"
            )
        counts = self.counts()
        summary = ", ".join(
            f"{counts[name]} {name}" for name in VERDICTS if counts[name]
        )
        lines.append(f"verdicts: {summary or 'none'}")
        lines.append(
            "GATE: " + ("REGRESSED" if self.failed else "ok")
        )
        return "\n".join(lines)


class Comparator:
    """Diffs a bench document against a baseline and reference bands."""

    def __init__(self, check_cycles: bool = True) -> None:
        self.check_cycles = check_cycles

    # -- gates ------------------------------------------------------------

    def _cycle_verdicts(
        self,
        current: Mapping[str, Any],
        baseline: Mapping[str, Any],
    ) -> List[Verdict]:
        out: List[Verdict] = []
        old_cycles: Dict[str, int] = baseline.get("cycles", {})
        for point in current["points"]:
            pid = point["id"]
            if pid not in old_cycles:
                out.append(
                    Verdict(f"cycles:{pid}", "cycles", "new", None,
                            float(point["cycles"]))
                )
                continue
            old, new = old_cycles[pid], point["cycles"]
            out.append(
                Verdict(
                    f"cycles:{pid}",
                    "cycles",
                    "ok" if new == old else "changed",
                    float(old),
                    float(new),
                    note="" if new == old else
                    "deterministic model output drifted; refresh the "
                    "baseline if intentional",
                )
            )
        seen = {point["id"] for point in current["points"]}
        for pid, old in old_cycles.items():
            if pid not in seen:
                out.append(
                    Verdict(
                        f"cycles:{pid}", "cycles", "missing", float(old),
                        None, note="point present in baseline, absent now",
                    )
                )
        return out

    def _fidelity_verdicts(
        self,
        current: Mapping[str, Any],
        reference: Mapping[str, Any],
    ) -> List[Verdict]:
        out: List[Verdict] = []
        fidelity = current.get("fidelity", {})
        bands: Mapping[str, Any] = reference.get("speedup_bands", {})
        for key, value in fidelity.get("speedup", {}).items():
            metric = f"speedup:{key}"
            band = bands.get(key)
            if band is None:
                out.append(
                    Verdict(metric, "fidelity", "skipped", None, value,
                            note="no reference band")
                )
                continue
            lo, hi = band
            if lo <= value <= hi:
                out.append(Verdict(metric, "fidelity", "ok", None, value))
            else:
                out.append(
                    Verdict(
                        metric, "fidelity", "regressed", None, value,
                        note=f"outside reference band [{lo}, {hi}]",
                    )
                )
        mix_bands: Mapping[str, Any] = reference.get("failure_mix", {})
        for pid, entry in fidelity.get("failure_mix", {}).items():
            band = mix_bands.get(pid)
            metric = f"failure_rate:{pid}"
            if band is None:
                out.append(
                    Verdict(metric, "fidelity", "skipped", None,
                            entry["rate"], note="no reference band")
                )
                continue
            lo, hi = band.get("rate_band", (0.0, 1.0))
            rate = entry["rate"]
            if not (lo <= rate <= hi):
                out.append(
                    Verdict(
                        metric, "fidelity", "regressed", None, rate,
                        note=f"failure rate outside band [{lo}, {hi}]",
                    )
                )
            else:
                out.append(Verdict(metric, "fidelity", "ok", None, rate))
            want = band.get("dominant")
            got = entry.get("dominant")
            if want is not None and got is not None and want != got:
                out.append(
                    Verdict(
                        f"failure_dominant:{pid}", "fidelity", "regressed",
                        note=(
                            f"dominant failure cause flipped: reference "
                            f"{want!r}, observed {got!r}"
                        ),
                    )
                )
        return out

    # -- entry point ------------------------------------------------------

    def compare(
        self,
        current: Mapping[str, Any],
        baseline: Optional[Mapping[str, Any]] = None,
        reference: Optional[Mapping[str, Any]] = None,
    ) -> Comparison:
        """Run every enabled gate; missing inputs skip their gate."""
        comparison = Comparison(
            sha=current.get("git_sha", "?"),
            baseline_sha=(baseline or {}).get("git_sha", ""),
            suite=current.get("suite", "?"),
        )
        if baseline is not None and self.check_cycles:
            comparison.verdicts.extend(
                self._cycle_verdicts(current, baseline)
            )
        if reference is not None:
            comparison.verdicts.extend(
                self._fidelity_verdicts(current, reference)
            )
        return comparison
