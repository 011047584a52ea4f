"""The four benchmark workloads.

Each workload has a set-up (configs, law validation, events), a round of
operations at a fixed size, and checks on the pooled results of every
round in a run.  An operation is one estimator call on a fixed batch; it
returns a record of plain numbers and strings (compared bit for bit
between traced and untraced rounds) and whether it passed its own check.

Operations call the package through module attributes (``renewal.f``,
not a name imported here), so the tracer's rebinding reaches them.  Each
operation draws from its own seed, derived from the workload seed, the
round and the operation's place in the round.

Checks are calibrated so that a correct program fails any of them with
probability below 1e-4 at any seed: statistical checks compare a pooled
estimate with an exact or independently computed value at Z standard
errors, where Z = 5 gives a two-sided normal tail of 5.7e-7 per check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from affinetree import config, group, renewal, rng, suites, tree, walk

Z = 5.0

# From `python3 perfbench/reference.py` (4e6 samples each; DP is exact).
LIMIT_IN_Z2_POS = (0.907366, 0.000145)       # lim R_n(0) in Z_2, drift_pos
LIMIT_IN_Z2_NEG_INV = (0.721943, 0.000224)   # same, inverse drift_neg law
CENTERED_MISS = 0.037003                     # regime.centered miss rate
# A certified boundary disc is wrong with probability about 2**-15
# (``height_guard``); allow that much bias in the boundary checks.
CERT_BIAS = 2.0 ** -15

P3_CONFIG = """
[realization]
kind = padic
prime = 3

[law]
atom1 = affine(t = 0, a = 3) weight 3/4
atom2 = affine(t = 1, a = 1/3) weight 1/4
"""


def op_seed(seed: int, rnd: int, k: int) -> int:
    """64-bit seed of operation ``k`` of round ``rnd``."""
    return int(np.random.SeedSequence([seed, rnd, k]).generate_state(
        1, np.uint64)[0])


@dataclass
class Op:
    kind: str                        # operations of one kind pool together
    call: Callable[[], tuple]        # -> (record, passed its own check)
    units: int = 1                   # the workload's units in this operation
    estimator: bool = True           # an estimator call, whose latency counts


@dataclass
class Check:
    name: str
    ok: bool
    detail: str
    kinds: tuple = ()                # operation kinds a failure is charged to


@dataclass
class Workload:
    name: str
    unit: str
    setup: Callable                  # (root, tiny) -> inputs
    ops: Callable                    # (inputs, seed, rnd) -> [Op]
    check: Callable                  # (inputs, {kind: [record]}) -> [Check]
    calibration: str = "python"      # the kind of work its time scales with


def _load(root: Path, name: str):
    return config.load_config(root / "configs" / f"{name}.ini")


def _z_check(name, est, want, se, slack=0.0, kinds=()):
    ok = abs(est - want) <= Z * se + slack
    return Check(name, ok, f"{est:.6g} vs {want:.6g}, se {se:.3g}, "
                 f"slack {slack:.3g}", kinds)


def _pool_means(records, n_at, mean_at, se_at):
    """Pooled mean and standard error of equal-weight batch means."""
    n = sum(r[n_at] for r in records)
    mean = sum(r[n_at] * r[mean_at] for r in records) / n
    ss = sum((r[n_at] - 1) * (r[se_at] ** 2 * r[n_at])
             + r[n_at] * (r[mean_at] - mean) ** 2 for r in records)
    return mean, math.sqrt(ss / (n - 1) / n) if n > 1 else 0.0


def _binomial_tails(k: int, n: int, q: float):
    """P[X <= k] and P[X >= k] for X ~ Binomial(n, q)."""
    if q <= 0.0:
        return 1.0, float(k == 0)
    logs = [math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * math.log(q) + (n - i) * math.log1p(-q) for i in range(n + 1)]
    pmf = [math.exp(v) for v in logs]
    return sum(pmf[:k + 1]), sum(pmf[k:])


# -- kernel-oracle ---------------------------------------------------------


def oracle_cylinders(prime: int, max_depth: int = 2):
    """Every V(origin -> y) with |height(y)| <= max_depth and y's center a
    multiple of prime**-max_depth: the shallow cylinders of the oracle."""
    o = tree.origin_padic(prime)
    out = []
    for h in range(-max_depth, max_depth + 1):
        for k in range(prime ** (h + max_depth) if h > -max_depth else 1):
            c = Fraction(k, prime ** max_depth)
            y = tree.PadicVertex(prime, h, c)
            if y.center == c:
                out.append(renewal.CylinderEvent((o,), (y,), name=f"V(o->{y!r})"))
    return out


def kernel_setup(root, tiny):
    cfg = _load(root, "drift_pos")
    return {"law": cfg.law, "cylinders": oracle_cylinders(cfg.prime),
            "start": group.identity_like(cfg.law.atoms[0]),
            "batch": 20 if tiny else 500}


def kernel_ops(inp, seed, rnd):
    law = inp["law"]

    def solve():
        out = renewal.kernel_oracle(law, inp["cylinders"])
        return (out["bias"], tuple(out["visits"].values())), out["bias"] < 1e-3

    def kernel(cyl, s):
        est = renewal.potential_kernel(inp["start"], cyl, law, s, inp["batch"])
        rec = (est.value, est.stderr, est.tail_bound, est.trajectories,
               est.aborted)
        return rec, est.aborted == 0

    # the exact solve is timed in the round but is not an estimator call,
    # so its latency stays out of op_p50_ms and op_p90_ms
    ops = [Op("oracle", solve, 0, estimator=False)]
    for i, cyl in enumerate(inp["cylinders"]):
        ops.append(Op(f"kernel{i}",
                      lambda c=cyl, s=op_seed(seed, rnd, i): kernel(c, s),
                      inp["batch"]))
    return ops


def kernel_check(inp, recs):
    solves = recs["oracle"]
    checks = [Check("oracle.deterministic", all(r == solves[0] for r in solves),
                    f"{len(solves)} solves", ("oracle",))]
    bias, visits = solves[0]
    for i, cyl in enumerate(inp["cylinders"]):
        rows = recs[f"kernel{i}"]
        mean, se = _pool_means(rows, 3, 0, 1)
        # a visit count is a whole number, so its variance is at least
        # f(1 - f) for f the fractional part of its mean: the floor keeps
        # a batch that saw no visit from reading as exact
        f = visits[i] % 1.0
        n = sum(r[3] for r in rows)
        se = max(se, math.sqrt(f * (1 - f) / n))
        tail = sum(r[2] for r in rows) / len(rows)
        checks.append(_z_check(f"kernel.{cyl.name}", mean, visits[i], se,
                               tail + bias, (f"kernel{i}",)))
    return checks


# -- boundary-walk -----------------------------------------------------------


def _product_events(kind, d):
    if kind == "padic":
        discs = [tree.PadicVertex(d, 1, 0), tree.PadicVertex(d, 1, 1)]
    else:
        discs = [tree.LampVertex(d, 1, ()), tree.LampVertex(d, 1, ((1, 1),))]
    return [renewal.ProductCylinder(discs[0], frozenset({0, 1})),
            renewal.ProductCylinder(discs[1], frozenset({0}))]


def boundary_setup(root, tiny):
    neg, pos, lamp = (_load(root, n) for n in ("drift_neg", "drift_pos",
                                               "lamplighter"))
    home = dict(neg.cylinders)["home"]
    return {"neg": neg.law, "pos": pos.law, "lamp": lamp.law, "home": home,
            "events": {"pos": _product_events("padic", pos.degree),
                       "lamp": _product_events("lamplighter", lamp.degree)},
            "samples": 4 if tiny else 40, "clusters": 5 if tiny else 10}


def boundary_ops(inp, seed, rnd):
    n = inp["samples"]

    def limit(s):
        est = renewal.limit_measure_value(inp["home"], inp["neg"], s, n)
        return (est.value, est.stderr, est.trajectories), True

    def limits(s):
        steps = in_z2 = 0
        for j in range(n):
            bl = walk.sample_boundary_limit(inp["pos"], rng.stream(s, j),
                                            depth=4)
            steps += bl.steps
            in_z2 += bl.key.denominator == 1
        return (steps, in_z2, n), True

    def renewal_identity(which, s):
        rep = renewal.verify_renewal_identity(
            inp[which], inp["events"][which], s, n_upsilon=inp["clusters"],
            exc_per_upsilon=50)
        rec = tuple((c["lhs"], c["lhs_stderr"], c["rhs"], c["rhs_stderr"])
                    for c in rep["checks"])
        return rec, True

    # Per round: 4 limit, 3 boundary, 2 renewal.pos and 1 renewal.lamp
    # operations.  Sorted by latency (boundary < limit < lamp < pos) they
    # fill 0-30 %, 30-70 %, 70-80 % and 80-100 % of the operations, so
    # the median and p90 fall inside a kind, not between two.
    kinds = ["limit"] * 4 + ["boundary"] * 3 + ["renewal.pos"] * 2 \
        + ["renewal.lamp"]
    ops = []
    for k, kind in enumerate(kinds):
        s = op_seed(seed, rnd, k)
        if kind == "limit":
            ops.append(Op(kind, lambda s=s: limit(s), n))
        elif kind == "boundary":
            ops.append(Op(kind, lambda s=s: limits(s), n))
        else:
            which = kind.split(".")[1]
            ops.append(Op(kind, lambda w=which, s=s: renewal_identity(w, s),
                          inp["clusters"]))
    return ops


def boundary_check(inp, recs):
    mass = float(-1 / inp["neg"].drift())
    n = sum(r[2] for r in recs["limit"])
    hits = sum(round(r[0] / mass * r[2]) for r in recs["limit"])
    p, se_ref = LIMIT_IN_Z2_NEG_INV
    checks = [_z_check("limit.home", hits / n, p,
                       math.hypot(math.sqrt(p * (1 - p) / n), se_ref),
                       CERT_BIAS, ("limit",))]
    n = sum(r[2] for r in recs["boundary"])
    inside = sum(r[1] for r in recs["boundary"])
    p, se_ref = LIMIT_IN_Z2_POS
    checks.append(_z_check("boundary.in_z2", inside / n, p,
                           math.hypot(math.sqrt(p * (1 - p) / n), se_ref),
                           CERT_BIAS, ("boundary",)))
    for which in ("pos", "lamp"):
        rows = recs[f"renewal.{which}"]
        for e in range(len(rows[0])):
            k = len(rows)
            lhs = sum(r[e][0] for r in rows) / k
            rhs = sum(r[e][2] for r in rows) / k
            se = math.sqrt(sum(r[e][1] ** 2 + r[e][3] ** 2 for r in rows)) / k
            checks.append(_z_check(f"renewal.{which}.{e}", lhs, rhs, se,
                                   kinds=(f"renewal.{which}",)))
    return checks


# -- exact-algebra ---------------------------------------------------------


def algebra_setup(root, tiny):
    return {"cfgs": {"p2": _load(root, "drift_pos"),
                     "p3": config.parse_config(P3_CONFIG),
                     "lamp": _load(root, "lamplighter")},
            "cases": {"p2": 20, "p3": 20, "lamp": 60, "pairs": 300}
            if not tiny else {"p2": 2, "p3": 2, "lamp": 5, "pairs": 20}}


def algebra_ops(inp, seed, rnd):
    cfgs, cases = inp["cfgs"], inp["cases"]

    def exact(claims):
        c = claims[0]
        rec = (c["verdict"], c["estimate"],
               c["details"].get("theta_pairs_beyond_window", 0))
        return rec, c["verdict"] == "pass" and c["estimate"] == 0

    ops = [Op(f"algebra.{name}",
              lambda cfg=cfgs[name], n=cases[name], s=op_seed(seed, rnd, k):
              exact(suites.algebra_claims(cfg, cases=n, seed=s)), cases[name])
           for k, name in enumerate(("p2", "p3", "lamp"))]
    ops.append(Op("isometry",
                  lambda s=op_seed(seed, rnd, 3): exact(
                      suites.padic_isometry_claims(cfgs["p2"],
                                                   pairs=cases["pairs"],
                                                   seed=s)),
                  cases["pairs"]))
    return ops


def algebra_check(inp, recs):
    return []   # every operation is checked exactly on its own


# -- height-paths ------------------------------------------------------------


def heights_setup(root, tiny):
    pos, neg, cen = (_load(root, n) for n in ("drift_pos", "drift_neg",
                                              "centered"))
    return {"pos": pos, "neg": neg, "cen": cen,
            "excursions": 500 if tiny else 8000,
            "descend": 20 if tiny else 200, "centered": 2 if tiny else 10}


def heights_ops(inp, seed, rnd):
    def wald(s):
        rep = renewal.wald_mass_check(inp["pos"].law, s, inp["excursions"])
        rec = tuple(rep[k] for k in ("excursions", "ratio", "ratio_stderr",
                                     "wald_residual", "wald_residual_stderr"))
        return rec, True

    def regime(cfg, n, s, own_verdict):
        c = suites.regime_claims(cfg, trajectories=n, horizon=10000, seed=s)[0]
        rec = (c["claim"], c["verdict"], c["estimate"], n)
        return rec, c["verdict"] == "pass" or not own_verdict

    return [Op("wald", lambda s=op_seed(seed, rnd, 0): wald(s),
               inp["excursions"]),
            Op("descend", lambda s=op_seed(seed, rnd, 1):
               regime(inp["neg"], inp["descend"], s, True), inp["descend"]),
            Op("centered", lambda s=op_seed(seed, rnd, 2):
               regime(inp["cen"], inp["centered"], s, False), inp["centered"])]


def heights_check(inp, recs):
    rows = recs["wald"]
    k = len(rows)
    ratio = sum(r[1] for r in rows) / k
    ratio_se = math.sqrt(sum(r[2] ** 2 for r in rows)) / k
    resid = sum(r[3] for r in rows) / k
    resid_se = math.sqrt(sum(r[4] ** 2 for r in rows)) / k
    target = float(1 / inp["pos"].law.drift())
    checks = [_z_check("wald.ratio", ratio, target, ratio_se, kinds=("wald",)),
              _z_check("wald.residual", resid, 0.0, resid_se,
                       kinds=("wald",))]
    n = sum(r[3] for r in recs["centered"])
    misses = sum(round((1 - r[2]) * r[3]) for r in recs["centered"])
    lo, hi = _binomial_tails(misses, n, CENTERED_MISS)
    checks.append(Check("regime.centered", min(lo, hi) > 1e-6,
                        f"{misses}/{n} misses, expected rate "
                        f"{CENTERED_MISS:.4f}, tails {lo:.2g} {hi:.2g}",
                        ("centered",)))
    return checks


WORKLOADS = {
    "kernel-oracle": Workload(
        "kernel-oracle", "trajectory", kernel_setup, kernel_ops, kernel_check),
    "boundary-walk": Workload(
        "boundary-walk", "sample", boundary_setup, boundary_ops,
        boundary_check),
    "exact-algebra": Workload(
        "exact-algebra", "case", algebra_setup, algebra_ops, algebra_check),
    "height-paths": Workload(
        "height-paths", "path", heights_setup, heights_ops, heights_check,
        "numpy"),
}
