"""Command line: validate configs, simulate walks, run verification suites.

Exit codes are a stable contract: 0 success, 1 failed validation or any
failed claim, 2 unreadable or malformed config, 3 a kernel estimate's
truncation bound is too coarse for the requested tolerance.
"""

from __future__ import annotations

import dataclasses
import sys
import time

import click

from .config import load_config, sigmas
from .errors import ConfigError, MalformedSyntax, NonExceptionalityFailed
from .group import act_vertex, norm, phi
from .rng import stream
from .suites import SUITE_NAMES, run_suite
from .walk import regime_summary, run_product
from . import reports, __version__

TAIL_CEILING = 0.05   # kernel tail bounds above this invalidate the run
# run sizes from the command line, held to the config's bounds
RUN_SIZE = click.IntRange(min=1)


def _load(path, **kw):
    try:
        return load_config(path, **kw)
    except NonExceptionalityFailed as exc:    # a failed validation
        click.echo(exc, err=True)
        sys.exit(1)
    except OSError as exc:
        click.echo(f"cannot read config: {exc}", err=True)
        sys.exit(2)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)


def _tolerance(ctx, param, value):
    try:
        return None if value is None else sigmas(value)
    except MalformedSyntax as exc:
        raise click.BadParameter(str(exc)) from exc


def _override(cfg, **kw):
    fields = {k: v for k, v in kw.items() if v is not None}
    return dataclasses.replace(cfg, **fields) if fields else cfg


@click.group()
@click.version_option(__version__)
def main():
    """Random walks on the affine group of a homogeneous tree."""


@main.command()
@click.option("--config", "path", required=True,
              type=click.Path(), help="Experiment config file.")
def validate(path):
    """Parse a config and check the step law is non-exceptional."""
    cfg = _load(path, allow_exceptional=True)
    report = cfg.law.validate()
    atom = cfg.law.atoms[0]
    click.echo(f"realization: {cfg.kind} ({atom.degree_name}={atom.degree})")
    click.echo(f"drift: {cfg.law.drift()}")
    for key, val in cfg.law.moment_report().items():
        if key not in ("atoms", "weights", "drift", "drift_float"):
            click.echo(f"{key}: {val}")
    click.echo(report.summary())
    sys.exit(0 if report.passed else 1)


@main.command()
@click.option("--config", "path", required=True, type=click.Path())
@click.option("--seed", type=int, default=None)
@click.option("--trajectories", type=RUN_SIZE, default=None)
@click.option("--horizon", type=RUN_SIZE, default=None)
@click.option("--out", "out_dir", type=click.Path(), default=None)
@click.option("--dump", is_flag=True,
              help="Also write full trajectories to trajectories.csv.")
def simulate(path, seed, trajectories, horizon, out_dir, dump):
    """Run height trajectories and print the regime summary."""
    cfg = _override(_load(path), seed=seed, trajectories=trajectories,
                    horizon=horizon, out_dir=out_dir)
    summary = regime_summary(cfg.law, stream(cfg.seed, "simulate"),
                             cfg.trajectories, cfg.horizon)
    summary["seed"] = cfg.seed
    click.echo(reports.canonical_json(summary), nl=False)
    rows = None
    if dump:
        rows = []
        o = cfg.law.atoms[0].origin()
        n_dump = min(cfg.trajectories, 20)
        n_steps = min(cfg.horizon, 2000)
        for i in range(n_dump):
            run_product(cfg.law, stream(cfg.seed, "dump", i), n_steps,
                        visitor=lambda step, g, i=i: rows.append(
                            (i, step, phi(g), norm(g),
                             act_vertex(g, o).render())))
    reports.write_outputs(cfg.out_dir, summary, trajectories=rows)
    click.echo(f"wrote {cfg.out_dir}/report.json"
               + (f" and {cfg.out_dir}/trajectories.csv" if dump else ""))


@main.command()
@click.option("--config", "path", required=True, type=click.Path())
@click.option("--suite", "suite_name", default="all",
              type=click.Choice(SUITE_NAMES + ("all",)))
@click.option("--seed", type=int, default=None)
@click.option("--trajectories", type=RUN_SIZE, default=None)
@click.option("--horizon", type=RUN_SIZE, default=None)
@click.option("--tol", "tol", type=float, default=None, callback=_tolerance,
              help="Tolerance in combined standard errors, above 0.")
@click.option("--out", "out_dir", type=click.Path(), default=None)
def verify(path, suite_name, seed, trajectories, horizon, tol, out_dir):
    """Run verification suites and write report.json / manifest.json."""
    cfg = _override(_load(path), seed=seed, trajectories=trajectories,
                    horizon=horizon, tolerance_sigmas=tol, out_dir=out_dir)
    names = list(SUITE_NAMES) if suite_name == "all" else [suite_name]
    claims = []
    timings = {}
    for name in names:
        t0 = time.perf_counter()
        claims.extend(run_suite(cfg, name))
        timings[name] = time.perf_counter() - t0
    for c in claims:
        line = f"[{c['verdict'].upper():4s}] {c['claim']}: {c['statement']}"
        if c["estimate"] is not None:
            line += f" (estimate {c['estimate']:.6g}"
            if c["stderr"]:
                line += f" +- {c['stderr']:.2g}"
            line += ")"
        click.echo(line)
    report = reports.build_report(cfg, names, claims)
    manifest = reports.build_manifest(cfg, claims, timings)
    kernel = reports.kernel_rows(claims)
    written = reports.write_outputs(cfg.out_dir, report, manifest=manifest,
                                    kernel=kernel)
    click.echo("wrote " + ", ".join(sorted(written.values())))
    # skipped claims (centered trend reports) carry their caveat already;
    # only a pass/fail claim built on coarse truncation invalidates the run
    judged = reports.kernel_rows(c for c in claims if c["verdict"] != "skip")
    too_coarse = [row for row in judged if row[3] > TAIL_CEILING]
    if too_coarse:
        click.echo(f"truncation too coarse: {len(too_coarse)} kernel "
                   f"estimates carry tail bounds above {TAIL_CEILING}",
                   err=True)
        sys.exit(3)
    sys.exit(0 if report["verdict"] == "pass" else 1)


if __name__ == "__main__":
    main()
