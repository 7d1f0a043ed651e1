"""Report emission: canonical json, csv, and a text table.

Emission is deterministic for a fixed report: keys are sorted, floats were
already fixed at 12 significant digits when the report was assembled, and
row orders are stable.  Wall-clock timings are kept out of the canonical
document (they go to a sidecar on request) so two runs of the same config
emit identical bytes.
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import Dict, Iterable, List, Tuple

FORMATS = ("json", "csv", "table")


def report_to_json(report: Dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def _iter_rows(report: Dict) -> Iterable[Tuple]:
    """Flatten a report into (experiment, record, key, value, tolerance, passed)."""
    for i, exp in enumerate(report.get("experiments", [])):
        kind = exp.get("kind", "?")
        tag = f"{i}:{kind}"
        yield (tag, "status", "", exp.get("status", ""), "", "")
        for e in exp.get("entries", []) or []:
            yield (
                tag,
                "entry",
                e["name"],
                e["value"],
                e["tolerance"],
                e["passed"],
            )
        tables = exp.get("tables") or {}
        if "rows" in tables:
            for row in tables["rows"]:
                key = f"t={row['t']}/level={row['level']}"
                yield (tag, "scan_row", key + "/dimension", row["dimension"], "", "")
                yield (
                    tag,
                    "scan_row",
                    key + "/injectivity_rank",
                    row["injectivity_rank"],
                    "",
                    "",
                )
        if "kernel_dimensions" in tables:
            for kind_name in sorted(tables["kernel_dimensions"]):
                dims = tables["kernel_dimensions"][kind_name]
                for level in sorted(dims, key=lambda s: int(s)):
                    yield (
                        tag,
                        "kernel_dimension",
                        f"{kind_name}/level={level}",
                        dims[level],
                        "",
                        "",
                    )
        if "class_checks" in tables:
            for level in sorted(tables["class_checks"], key=lambda s: int(s)):
                for check, ok in sorted(tables["class_checks"][level].items()):
                    yield (tag, "class_check", f"{check}/level={level}", ok, "", "")
        if "majorant" in tables:
            for key in sorted(tables["majorant"]):
                yield (tag, "majorant", key, tables["majorant"][key], "", "")
        if "assembled_residuals" in tables:
            for key in sorted(tables["assembled_residuals"], key=float):
                yield (
                    tag,
                    "assembled_residual",
                    f"t={key}",
                    tables["assembled_residuals"][key],
                    "",
                    "",
                )
        for finding in exp.get("findings", []) or []:
            yield (tag, "finding", "", finding, "", "")
        if "error" in exp:
            yield (tag, "error", "", exp["error"], "", "")
        yield (tag, "dropped_mass", "", exp.get("dropped_mass", 0.0), "", "")


def report_to_csv(report: Dict) -> str:
    out = io.StringIO()
    out.write("experiment,record,key,value,tolerance,passed\n")
    for row in _iter_rows(report):
        cells = []
        for cell in row:
            text = "" if cell == "" else str(cell)
            if "," in text or '"' in text:
                text = '"' + text.replace('"', '""') + '"'
            cells.append(text)
        out.write(",".join(cells) + "\n")
    summary = report.get("summary", {})
    for key in sorted(summary):
        out.write(f"summary,{key},,{summary[key]},,\n")
    return out.getvalue()


def report_to_table(report: Dict) -> str:
    out = io.StringIO()
    tool = report.get("tool", {})
    out.write(f"{tool.get('name', 'report')} {tool.get('version', '')}\n")
    name = report.get("config", {}).get("name")
    if name:
        out.write(f"scenario: {name}\n")
    for i, exp in enumerate(report.get("experiments", [])):
        out.write(f"\n[{i}] {exp.get('kind')}  --  {exp.get('status')}\n")
        for e in exp.get("entries", []) or []:
            mark = "ok " if e["passed"] else "FAIL"
            out.write(
                f"  {mark} {e['name']:<48} {e['value']:>14.6e}  tol {e['tolerance']:g}\n"
            )
        tables = exp.get("tables") or {}
        if "kernel_dimensions" in tables:
            out.write("  kernel dimensions:\n")
            for kind_name in sorted(tables["kernel_dimensions"]):
                dims = tables["kernel_dimensions"][kind_name]
                row = ", ".join(
                    f"{level}: {dims[level]}"
                    for level in sorted(dims, key=lambda s: int(s))
                )
                out.write(f"    {kind_name:<8} {row}\n")
        if "class_checks" in tables:
            for level in sorted(tables["class_checks"], key=lambda s: int(s)):
                verdicts = tables["class_checks"][level]
                row = ", ".join(f"{k}={v}" for k, v in sorted(verdicts.items()))
                out.write(f"    level {level}: {row}\n")
        if "rows" in tables:
            out.write("  t        level  dim  rank\n")
            for row in tables["rows"]:
                out.write(
                    f"  {row['t']!s:<8} {row['level']:>5}  {row['dimension']:>3}"
                    f"  {row['injectivity_rank']:>4}\n"
                )
        if "majorant" in tables:
            mj = tables["majorant"]
            out.write(
                "  majorant: "
                + ", ".join(f"{k}={mj[k]}" for k in sorted(mj))
                + "\n"
            )
        if "assembled_residuals" in tables:
            for key in sorted(tables["assembled_residuals"], key=float):
                out.write(
                    f"  assembled residual t={key}: {tables['assembled_residuals'][key]}\n"
                )
            if "fitted_exponent" in tables:
                out.write(f"  fitted exponent: {tables['fitted_exponent']}\n")
        for finding in exp.get("findings", []) or []:
            out.write(f"  FINDING: {finding}\n")
        if "error" in exp:
            out.write(f"  ERROR: {exp['error']}\n")
    summary = report.get("summary", {})
    out.write(
        f"\nsummary: {summary.get('status')} "
        f"(pass {summary.get('pass', 0)}, fail {summary.get('fail', 0)}, "
        f"findings {summary.get('finding', 0)}, errors {summary.get('error', 0)})\n"
    )
    return out.getvalue()


def emit_report(
    report: Dict,
    out_dir: Path,
    formats: Iterable[str] = ("json",),
    stem: str = "report",
    timings: List[Dict] | None = None,
) -> List[Path]:
    """Write the report files; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    renderers = {
        "json": report_to_json,
        "csv": report_to_csv,
        "table": report_to_table,
    }
    suffixes = {"json": ".json", "csv": ".csv", "table": ".txt"}
    for fmt in formats:
        if fmt not in renderers:
            raise ValueError(f"unknown report format {fmt!r}; expected one of {FORMATS}")
        path = out_dir / (stem + suffixes[fmt])
        path.write_bytes(renderers[fmt](report).encode("utf-8"))
        written.append(path)
    if timings is not None:
        path = out_dir / (stem + ".timings.json")
        path.write_bytes(
            (json.dumps(timings, sort_keys=True, indent=2) + "\n").encode("utf-8")
        )
        written.append(path)
    return written
