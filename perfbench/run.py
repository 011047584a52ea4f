"""Benchmark of affinetree: one workload per process, measured from outside.

    python3 perfbench/run.py --workload kernel-oracle --seed 1 --seconds 20 --trace 0

Set-up (import, config parsing, law validation, event construction) is
timed in SETUP_PROBES fresh processes, one at a time, each scaled to a
reference speed by a fixed import pass (see ``import_calibration_s``);
``setup_s`` is the median.  The workload then repeats rounds of
fixed size for ``--seconds`` (and at least MIN_OPS estimator calls).  Every
operation's latency is scaled to a reference machine speed by the
calibration passes run before and after it (see ``calibration_s``);
``wall_s`` is the mean scaled round time and ``op_p50_ms``/``op_p90_ms``
are percentiles of scaled estimator-call latencies.  The mean, not the
median, of round times: the machine's speed changes in phases, and the
median of a few round times jumps between them.  After the rounds, the
pooled results are checked against exact or independently computed
values.

With ``--trace 1`` each round runs twice, untraced and then traced with
the same seeds; the records of the two must be identical, and the
per-layer metrics come from the traced rounds.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
per-layer metrics traced).
"""

from __future__ import annotations

import os

# One thread per BLAS/OpenMP pool, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_OPS = 100
SETUP_PROBES = 7
RUN_CAP_S = 120.0    # stop adding rounds past this, whatever --seconds says


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest sizes, one round, one set-up probe")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def load(workload_name, tiny):
    """Import the package from this checkout and build the workload inputs.

    Returns (workload, inputs, seconds spent), or raises SystemExit when
    the package or the workload is missing.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import affinetree
    except ImportError as exc:
        raise SystemExit(f"affinetree not importable from {ROOT / 'src'}: {exc}")
    if not Path(affinetree.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"affinetree imported from {affinetree.__file__}, "
                         f"not from this checkout")
    import workloads
    if workload_name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {workload_name!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[workload_name]
    inputs = wl.setup(ROOT, tiny)
    return wl, inputs, time.perf_counter() - t0


# Standard-library modules the package and the harness do not import.
# Importing them, right after set-up in a probe, is the yardstick of the
# machine's speed at import work; IMPORT_REF_S is what it takes at the
# reference speed.
IMPORT_CALIBRATION = ("asyncio", "logging", "unittest", "email.mime.multipart",
                      "xml.dom.minidom", "http.cookiejar", "pydoc", "tarfile",
                      "difflib", "concurrent.futures", "sqlite3", "smtplib")
IMPORT_REF_S = 0.07


def import_calibration_s():
    """Seconds to import IMPORT_CALIBRATION in this process, once."""
    t0 = time.perf_counter()
    for name in IMPORT_CALIBRATION:
        importlib.import_module(name)
    return time.perf_counter() - t0


def probe_setup(workload_name):
    """Set-up seconds in a fresh process, raw and scaled to the reference
    speed.  Import work (file reads, unmarshalling, loading extension
    modules) speeds up and slows down with the machine less than pure
    Python does, so it is scaled by an import pass, not by
    ``calibration_s``."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload_name,
         "--seed", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    secs, cal = (float(x) for x in out.stdout.split()[-2:])
    return secs, secs * IMPORT_REF_S / cal


def machine():
    import numpy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model,
            "python": platform.python_version(), "numpy": numpy.__version__}


# Seconds one calibration pass of either kind takes at the reference
# speed, about that of the machine the benchmark was defined on.
CAL_REF_S = 0.005


def calibration_s(kind):
    """Seconds of one fixed pass of pure-Python or numpy work.

    The pass shares no code with the package.  Timings are scaled by
    CAL_REF_S over the calibration seconds measured next to them, which
    removes most of the machine's speed drift (see README.md).
    """
    t0 = time.perf_counter()
    if kind == "python":
        acc, seen = Fraction(0), {}
        for i in range(1, 1200):
            acc += Fraction(i % 7 + 1, i % 11 + 1)
            seen[(i, i & 7)] = acc.numerator % 1000003
    else:
        import numpy as np
        gen = np.random.Generator(np.random.Philox(key=1))
        idx = np.searchsorted([0.375, 0.75, 1.0], gen.random(100_000),
                              side="right")
        np.cumsum(np.array([1, -1, 0])[idx]).max()
    return time.perf_counter() - t0


class Runner:
    """Runs rounds of a workload and keeps what the metrics need."""

    def __init__(self, wl, inputs, seed):
        self.wl, self.inputs, self.seed = wl, inputs, seed
        self.timed = []                       # (round, op, wall seconds)
        self.cals = []                        # calibration seconds, between ops
        self.records = defaultdict(list)
        self.attempted = defaultdict(int)     # by kind
        self.failed_own = defaultdict(int)    # by kind
        self.errors = []

    def round(self, rnd, tracer=None):
        """One round, untraced (timed) or traced; returns (wall seconds of
        the operations, their records in order, units)."""
        from affinetree.errors import AffineTreeError
        out, units, raw = [], 0, 0.0
        if tracer is None and not self.cals:
            self.cals.append(calibration_s(self.wl.calibration))
        for op in self.wl.ops(self.inputs, self.seed, rnd):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rec, ok = op.call()
                else:
                    rec, ok = tracer.span(f"op.{op.kind}", op.call)
                    tracer.collect_draws()
            except AffineTreeError as exc:
                rec, ok = None, False
                out.append(f"{type(exc).__name__}: {exc}")
                self.errors.append(f"{op.kind}: {out[-1]}")
            else:
                out.append(repr(rec))
            secs = time.perf_counter() - t0
            raw += secs
            units += op.units
            if tracer is None:
                self.cals.append(calibration_s(self.wl.calibration))
                self.timed.append((rnd, op, secs))
                self.attempted[op.kind] += 1
                self.failed_own[op.kind] += not ok
                if rec is not None:
                    self.records[op.kind].append(rec)
        return raw, out, units

    def scaled(self):
        """Speed factor per timed operation and its latency at reference
        speed.  The factor is CAL_REF_S over the mean of the calibrations
        just before and just after the operation; smoothing over more of
        them read the percentiles worse, as the machine changes speed
        abruptly."""
        speeds = [2 * CAL_REF_S / (self.cals[i] + self.cals[i + 1])
                  for i in range(len(self.timed))]
        return speeds, [s * t[2] for s, t in zip(speeds, self.timed)]

    def failed(self, checks):
        """Operations that raised or failed their own check, plus every
        operation of a kind whose pooled check failed."""
        bad = {k for c in checks if not c.ok for k in c.kinds}
        return sum(n if k in bad else self.failed_own[k]
                   for k, n in self.attempted.items())


def main(argv=None):
    args = parse_args(argv)
    try:
        wl, inputs, setup_s = load(args.workload, args.tiny)
    except SystemExit as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(f"{setup_s:.9f} {import_calibration_s():.9f}")
        return 0

    info = machine()
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace} unit {wl.unit}")
    print("machine " + json.dumps(info, sort_keys=True))

    runner = Runner(wl, inputs, args.seed)
    tracer = None
    raw_s, traced_s, identical, units = [], [], True, 0
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        targets = tracing.package_targets(tracer)
    start = time.perf_counter()
    rnd = 0
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= args.seconds and sum(
            op.estimator for _, op, _ in runner.timed) >= MIN_OPS
        if rnd and (args.tiny or enough or elapsed >= RUN_CAP_S):
            break
        secs, plain, _ = runner.round(rnd)
        raw_s.append(secs)
        if tracer is not None:
            tracer.install(targets)
            try:
                secs, traced, n_units = runner.round(rnd, tracer)
            finally:
                tracer.uninstall()
            traced_s.append(secs)
            units += n_units
            if traced != plain:
                identical = False
                print(f"round {rnd}: traced records differ from untraced")
        rnd += 1

    checks = wl.check(inputs, runner.records)
    failed = runner.failed(checks)
    attempted = sum(runner.attempted.values())
    for c in checks:
        print(f"check {c.name}: {'ok' if c.ok else 'FAIL'} ({c.detail})")
    by_kind = defaultdict(list)
    for _, op, secs in runner.timed:
        by_kind[op.kind].append(secs)
    for kind, secs in by_kind.items():
        print(f"latency {kind} median {1e3 * statistics.median(secs):.3f} ms "
              f"unscaled, over {len(secs)}")
    for e in runner.errors:
        print(f"error {e}")
    print(f"operations attempted {attempted} failed {failed} "
          f"fail_frac {failed / attempted:.6g} rounds {rnd}")

    if tracer is None:
        raw_setups, setups = zip(*(probe_setup(wl.name) for _ in
                                   range(1 if args.tiny else SETUP_PROBES)))
        print(f"set-up probes {len(setups)}, unscaled median "
              f"{statistics.median(raw_setups):.6g} s")
        speeds, scaled = runner.scaled()
        per_round = defaultdict(float)
        for (r, _, _), secs in zip(runner.timed, scaled):
            per_round[r] += secs
        print(f"speed factor median {statistics.median(speeds):.4f} "
              f"(reference over measured calibration); unscaled wall_s "
              f"{statistics.fmean(raw_s):.6g}")
        lat_ms = sorted(1e3 * x for (_, op, _), x in zip(runner.timed, scaled)
                        if op.estimator)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.fmean(per_round.values()), "s"),
            "op_p50_ms": (statistics.median(lat_ms), "ms"),
            "op_p90_ms": (statistics.quantiles(lat_ms, n=10)[8]
                          if len(lat_ms) > 1 else lat_ms[0], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        overhead = statistics.fmean(traced_s) - statistics.fmean(raw_s)
        metrics = tracing.layer_metrics(tracer, len(traced_s), units, overhead)
        spans = ROOT / ".perfbench_out" / f"spans-{wl.name}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        with open(spans, "w", encoding="utf-8") as fh:
            for name, t0, t1, parent in tracer.spans:
                fh.write(json.dumps([name, t0 - start, t1 - start, parent]) + "\n")
        print(f"traced rounds {len(traced_s)}, records identical: {identical}, "
              f"{len(tracer.spans)} spans (name, start, end, parent) in {spans}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    correct = failed == 0 and identical and all(c.ok for c in checks)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
