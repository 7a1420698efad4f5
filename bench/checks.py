"""Checks on estimator reports: counts, intervals, scaled rows and slopes.

Every check reads the report as printed (its CSV) and recomputes what the
printed numbers must satisfy; none compares against stored output.
"""
from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

CUT_SCALED = re.compile(r"^cycle-cut-scaled\[(.+)\]$")


class Problems(list):
    """Collected check failures; a run is correct when this stays empty."""

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def close(a: float, b: float, rel: float = 1e-9) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def printed_rows(csv_text: str) -> tuple[list[dict], dict[str, tuple[float, float]]]:
    """(size rows, {quantity: (slope, slope stderr)}) parsed from a CSV report."""
    body = "\n".join(line for line in csv_text.splitlines() if not line.startswith("#"))
    rows, slopes = [], {}
    for rec in csv.DictReader(io.StringIO(body)):
        if rec["quantity"].endswith(":slope"):
            slopes[rec["quantity"][:-len(":slope")]] = (float(rec["slope"]),
                                                       float(rec["slope_stderr"]))
            continue
        row = {"quantity": rec["quantity"], "d": int(rec["d"]), "r": int(rec["r"])}
        for key in ("replicas", "discarded"):
            row[key] = int(rec[key])
        for key in ("mean", "stderr", "ci95_lo", "ci95_hi"):
            row[key] = float(rec[key])
        rows.append(row)
    return rows, slopes


def check_report(report, requested: int, problems: Problems, label: str) -> list[dict]:
    """Checks every report must pass; returns its printed rows.

    Scaled rows and slopes use the torus volume r^d of their row.
    """
    rows, slopes = printed_rows(report.to_csv())
    problems.expect(len(rows) == len(report.rows), f"{label}: CSV row count")
    by_key = {(row["quantity"], row["r"]): row for row in rows}
    for row in rows:
        where = f"{label} {row['quantity']} r={row['r']}"
        problems.expect(row["replicas"] + row["discarded"] == requested,
                        f"{where}: replicas {row['replicas']} + discarded "
                        f"{row['discarded']} != {requested}")
        for bound, sign in (("ci95_lo", -1), ("ci95_hi", 1)):
            problems.expect(close(row[bound], row["mean"] + sign * 1.96 * row["stderr"]),
                            f"{where}: {bound} is not mean {'+' if sign > 0 else '-'} 1.96 stderr")
        V = row["r"] ** row["d"]
        q = row["quantity"]
        if q == "vertex-long-cycle-prob":
            base = by_key[("vertex-long-cycle-count", row["r"])]
            problems.expect(close(row["mean"], base["mean"] / V, 1e-8),
                            f"{where}: probability is not count / V")
        elif q == "cluster-size-scaled":
            base = by_key[("cluster-size-mean", row["r"])]
            problems.expect(close(row["mean"], base["mean"] * V ** (-1 / 3), 1e-8),
                            f"{where}: scaled mean is not V^(-1/3) * mean")
        elif CUT_SCALED.match(q):
            arg = CUT_SCALED.match(q).group(1)
            delta = float(arg.split("=")[1])
            base = by_key[(f"cycle-cut-mean[{arg}]", row["r"])]["mean"]
            problems.expect(close(row["mean"], delta * base, 1e-8),
                            f"{where}: scaled row is not delta times the mean")
    for quantity, (slope, stderr) in slopes.items():
        pts = [(row["r"] ** row["d"], row["mean"]) for row in rows
               if row["quantity"] == quantity and row["replicas"] > 0 and row["mean"] > 0]
        x, y = np.log([v for v, _ in pts]), np.log([m for _, m in pts])
        fit = np.polyfit(x, y, 1)
        resid = y - np.polyval(fit, x)
        want_err = (math.sqrt((resid ** 2).sum() / (len(x) - 2) / ((x - x.mean()) ** 2).sum())
                    if len(x) > 2 else 0.0)
        problems.expect(len(pts) >= 2 and close(slope, fit[0], 1e-7),
                        f"{label} {quantity}: slope {slope} != least squares {fit[0]}")
        problems.expect(close(stderr, want_err, 1e-6),
                        f"{label} {quantity}: slope stderr {stderr} != {want_err}")
    return rows


def failed_replicas(pairs) -> int:
    """Discarded replicas of a report from its (r, discarded) rows, once per size."""
    seen = {}
    for r, discarded in pairs:
        seen.setdefault(r, discarded)
    return sum(seen.values())
