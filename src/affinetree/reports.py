"""Report artifacts: canonical JSON, CSV tables, run manifest.

report.json and the CSV tables are deterministic for a fixed config and
seed (canonical key order, no timestamps); wall-clock timings live only
in manifest.json so reruns stay byte-identical where it matters.
"""

from __future__ import annotations

import csv
import io
import json
import os

import numpy as np

from . import __version__


def _plain(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {obj!r}")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, default=_plain) + "\n"


def build_report(cfg, suite_names, claims) -> dict:
    verdicts = [c["verdict"] for c in claims]
    return {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "drift": str(cfg.law.drift()),
        "suites": list(suite_names),
        "claims": claims,
        "summary": {
            "passed": verdicts.count("pass"),
            "failed": verdicts.count("fail"),
            "skipped": verdicts.count("skip"),
        },
        "verdict": "fail" if "fail" in verdicts else "pass",
    }


def kernel_rows(claims) -> list:
    """(n, estimate, stderr, tail_bound) rows from any kernel-table claims."""
    rows = []
    for c in claims:
        details = c.get("details") or {}
        ns = details.get("n_list")
        ests = details.get("estimates")
        if not ns or not ests:
            continue
        for n, e in zip(ns, ests):
            rows.append((n, e["value"], e["stderr"], e["tail_bound"]))
    return rows


def _csv(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def build_manifest(cfg, claims, timings: dict) -> dict:
    return {
        "version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "verdicts": {c["claim"]: c["verdict"] for c in claims},
        "timings_seconds": {k: round(v, 3) for k, v in timings.items()},
    }


def write_outputs(out_dir, report, manifest=None, kernel=None,
                  trajectories=None) -> dict:
    """Write the artifact files; returns {name: path} for what was written."""
    os.makedirs(out_dir, exist_ok=True)
    written = {}

    def emit(name, text):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written[name] = path

    emit("report.json", canonical_json(report))
    if manifest is not None:
        emit("manifest.json", canonical_json(manifest))
    if kernel:
        emit("kernel_values.csv",
             _csv(("n", "estimate", "stderr", "tail_bound"), kernel))
    if trajectories is not None:
        emit("trajectories.csv", _csv(
            ("trajectory", "step", "height", "norm", "vertex"), trajectories))
    return written
