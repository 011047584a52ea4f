"""Command line contract: exit codes, artifacts, determinism."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from affinetree.cli import main

POS = """
[realization]
kind = padic
prime = 2

[law]
atom1 = affine(t = 0, a = 2) weight 3/4
atom2 = affine(t = 1, a = 1/2) weight 1/4

[experiment]
seed = 9
trajectories = 100
horizon = 400
out = {out}
"""

HOR = """
[realization]
kind = padic
prime = 2

[law]
atom1 = affine(t = 1, a = 1) weight 1
"""


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_validate_ok(runner, tmp_path):
    cfg = write(tmp_path, POS.format(out=tmp_path / "r"))
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 0
    assert "drift: 1/2" in res.output


def test_validate_horocyclic_fails(runner, tmp_path):
    cfg = write(tmp_path, HOR)
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 1
    assert "Hor(T)" in res.output


def test_missing_file_exit_2(runner, tmp_path):
    res = runner.invoke(main, ["validate", "--config",
                               str(tmp_path / "nope.ini")])
    assert res.exit_code == 2


def test_malformed_config_exit_2(runner, tmp_path):
    cfg = write(tmp_path, "[law]\natom1 = what\n")
    res = runner.invoke(main, ["validate", "--config", cfg])
    assert res.exit_code == 2


def _config_error(res):
    """Exit 2 with the error's location, without a traceback."""
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert "config error: " in res.stderr


def test_invalid_prime_exit_2(runner, tmp_path):
    cfg = write(tmp_path, POS.format(out=tmp_path / "r")
                .replace("prime = 2", "prime = 4"))
    res = runner.invoke(main, ["validate", "--config", cfg])
    _config_error(res)
    assert "realization.prime" in res.stderr


@pytest.mark.parametrize("line,location", [
    ("working_precision = abc", "realization.working_precision"),
    ("working_precision = 0", "realization.working_precision"),
    ("min_precision = 60", "realization.min_precision"),
    ("seed = x", "experiment.seed"),
    ("trajectories = 0", "experiment.trajectories"),
])
def test_malformed_integer_exit_2(runner, tmp_path, line, location):
    """An integer value that does not parse, or lies out of its range,
    is a config error at its key, not a traceback."""
    key = line.split(" =")[0]
    text = POS.format(out=tmp_path / "r")
    if location.startswith("experiment"):
        text = "\n".join(ln for ln in text.splitlines()
                         if not ln.startswith(key + " "))
        text = text.replace("[experiment]", f"[experiment]\n{line}")
    else:
        text = text.replace("prime = 2", f"prime = 2\n{line}")
    res = runner.invoke(main, ["validate", "--config", write(tmp_path, text)])
    _config_error(res)
    assert f"config error: {location}: " in res.stderr


LAMP = """
[realization]
kind = lamplighter
q = 2

[law]
atom1 = lamp(shift = 1, lamps = []) weight 3/4
atom2 = lamp(shift = -1, lamps = [0:1]) weight 1/4

[experiment]
seed = 9
out = {out}
"""


@pytest.mark.parametrize("edit,location", [
    (("lamps = []", "lamps = [0:1, 0:1]"), "law.atom1"),
    (("seed = 9", "seed = 9\n\n[cylinders]\nhome = lamp:0:[] -> "
      "lamp:1:[1=1,1=1]"), "cylinders.home"),
], ids=["atom", "cylinder"])
def test_duplicate_lamp_positions_exit_2(runner, tmp_path, edit, location):
    """A lamp position given twice is a config error at its key."""
    out = tmp_path / "r"
    cfg = write(tmp_path, LAMP.format(out=out).replace(*edit))
    res = runner.invoke(main, ["verify", "--config", cfg, "--suite",
                               "algebra"])
    _config_error(res)
    assert f"config error: {location}: " in res.stderr
    assert "duplicate lamp position" in res.stderr
    assert not out.exists()


def test_weights_not_normalized_exit_2(runner, tmp_path):
    out = tmp_path / "r"
    cfg = write(tmp_path, POS.format(out=out).replace("weight 1/4",
                                                      "weight 1/3"))
    res = runner.invoke(main, ["verify", "--config", cfg, "--suite",
                               "algebra"])
    _config_error(res)
    assert "law: weights sum to 13/12" in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_exceptional_law_is_a_failed_validation(runner, tmp_path, command):
    """A law that fails the non-exceptionality check stops ``simulate``
    and ``verify`` as ``validate`` fails it: exit 1, with the check's
    summary and no traceback."""
    out = tmp_path / "r"
    cfg = write(tmp_path, HOR + f"\n[experiment]\nout = {out}\n")
    res = runner.invoke(main, [command, "--config", cfg])
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert "Hor(T)" in res.stderr and "config error" not in res.stderr
    assert not out.exists()


def test_simulate_writes_report(runner, tmp_path):
    out = tmp_path / "sim"
    cfg = write(tmp_path, POS.format(out=out))
    res = runner.invoke(main, ["simulate", "--config", cfg, "--dump"])
    assert res.exit_code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["drift"] == "1/2"
    lines = (out / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "trajectory,step,height,norm,vertex"
    assert len(lines) > 100


def test_verify_wald_suite(runner, tmp_path):
    out = tmp_path / "ver"
    cfg = write(tmp_path, POS.format(out=out))
    res = runner.invoke(main, ["verify", "--config", cfg, "--suite", "wald"])
    assert res.exit_code == 0, res.output
    assert "[PASS] wald.mass" in res.output
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "pass"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == report["config_hash"]
    assert "wald" in manifest["timings_seconds"]


def test_verify_skips_incompatible_suite(runner, tmp_path):
    neg = POS.format(out=tmp_path / "skip").replace(
        "atom1 = affine(t = 0, a = 2) weight 3/4",
        "atom1 = affine(t = 0, a = 1/2) weight 3/4").replace(
        "atom2 = affine(t = 1, a = 1/2) weight 1/4",
        "atom2 = affine(t = 1, a = 2) weight 1/4")
    cfg = write(tmp_path, neg)
    res = runner.invoke(main, ["verify", "--config", cfg, "--suite", "wald"])
    assert res.exit_code == 0, res.output
    assert "[SKIP" in res.output
    report = json.loads((tmp_path / "skip" / "report.json").read_text())
    assert report["summary"]["skipped"] == 2
    assert report["verdict"] == "pass"


def test_verify_reports_are_deterministic(runner, tmp_path):
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        cfg = write(tmp_path, POS.format(out=out), name=f"{name}.ini")
        res = runner.invoke(main, ["verify", "--config", cfg,
                                   "--suite", "wald"])
        assert res.exit_code == 0
        outs.append((out / "report.json").read_text())
    assert outs[0] == outs[1]


def test_verify_seed_override_changes_hash(runner, tmp_path):
    out = tmp_path / "s"
    cfg = write(tmp_path, POS.format(out=out))
    runner.invoke(main, ["verify", "--config", cfg, "--suite", "wald"])
    h1 = json.loads((out / "report.json").read_text())["config_hash"]
    runner.invoke(main, ["verify", "--config", cfg, "--suite", "wald",
                         "--seed", "77"])
    h2 = json.loads((out / "report.json").read_text())["config_hash"]
    assert h1 != h2


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("option", ["--trajectories", "--horizon"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_run_sizes_below_one_are_usage_errors(runner, tmp_path, command,
                                              option, value):
    """Command-line run sizes are held to the bounds the config parser
    enforces: nothing runs and nothing is written."""
    out = tmp_path / "r"
    cfg = write(tmp_path, POS.format(out=out))
    res = runner.invoke(main, [command, "--config", cfg, option, value])
    assert res.exit_code == 2
    assert "x>=1" in res.output
    assert not out.exists()


SHIPPED = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_tolerance_must_be_finite_and_positive(runner, tmp_path, tol):
    """A tolerance at or below 0, or not finite, would judge every claim
    on nothing: it is a usage error and nothing runs."""
    out = tmp_path / "r"
    res = runner.invoke(main, ["verify", "--config",
                               str(SHIPPED / "drift_pos.ini"), "--suite",
                               "wald", "--tol", tol, "--out", str(out)])
    assert res.exit_code == 2
    assert "--tol" in res.output
    assert not out.exists()


def test_verify_regimes_passes_on_drift_pos(runner, tmp_path):
    """The invariance claim holds its discs together to the stated rate,
    so correct code passes at the shipped seed."""
    out = tmp_path / "r"
    res = runner.invoke(main, ["verify", "--config",
                               str(SHIPPED / "drift_pos.ini"), "--suite",
                               "regimes", "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert json.loads((out / "report.json").read_text())["verdict"] == "pass"


def test_verify_renewal_skips_the_centered_oracle(runner, tmp_path):
    out = tmp_path / "r"
    res = runner.invoke(main, ["verify", "--config",
                               str(SHIPPED / "centered.ini"), "--suite",
                               "renewal", "--out", str(out)])
    assert res.exit_code == 0, res.output
    claims = json.loads((out / "report.json").read_text())["claims"]
    [oracle] = [c for c in claims if c["claim"] == "renewal.oracle"]
    assert oracle["verdict"] == "skip"
    assert "recurrent" in oracle["details"]["reason"]
