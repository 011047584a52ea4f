"""Experiment configuration: INI-style files driving laws and experiments.

Sections: [realization] (which tree and at what precision), [law] (atoms
and weights), [experiment] (seed, sizes, output), [cylinders] (named
vertex-pair events); any other section or key is refused at
``section.key``.  Element literals::

    affine(t = <rational or digit literal>, a = <rational or digit literal>)
    lamp(shift = <int>, lamps = [pos:val, ...])

Atom lines append an exact weight: ``atom1 = affine(t = 0, a = 2) weight 3/4``.
Law atoms must be exact (``group.require_exact``), so no digit literal.
Vertex literals follow the tree module: ``p:<height>:<center>`` and
``lamp:<height>:[pos=val,...]``.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    InvalidPrime,
    MalformedSyntax,
    NonExceptionalityFailed,
    WeightsNotNormalized,
)
from .group import LampAffine, PadicAffine, require_exact
from .law import StepLaw
from .padic import PrecisionBudget, is_prime, parse_padic
from .renewal import CylinderEvent
from .tree import parse_lamps, parse_vertex

_AFFINE_RE = re.compile(
    r"^affine\(\s*t\s*=\s*(?P<t>[^,]+?)\s*,\s*a\s*=\s*(?P<a>[^)]+?)\s*\)$")
_LAMP_RE = re.compile(
    r"^lamp\(\s*shift\s*=\s*(?P<shift>[+-]?\d+)\s*,\s*"
    r"lamps\s*=\s*\[(?P<lamps>[^\]]*)\]\s*\)$")
_WEIGHT_RE = re.compile(r"^(?P<elem>.*\))\s+weight\s+(?P<w>\S+)$")
# the keys of each section; [law] also takes atom keys, [cylinders] any
_KEYS = {"realization": {"kind", "working_precision", "min_precision"},
         "law": {"allow_non_surjective"},
         "experiment": {"seed", "trajectories", "horizon",
                        "tolerance_sigmas", "out"},
         "cylinders": None}


def _refuse_unknown(cp, kind):
    """Refuse a section or key the format does not name, at
    ``section.key``; [realization] takes ``prime`` or ``q`` by kind."""
    known = dict(_KEYS, DEFAULT=set(), realization=_KEYS["realization"]
                 | {"prime" if kind == "padic" else "q"})
    for name in ["DEFAULT", *cp.sections()]:
        if name not in known:
            raise MalformedSyntax(f"unknown section [{name}]", name)
        for key in cp.defaults() if name == "DEFAULT" else cp[name]:
            if known[name] is not None and key not in known[name] \
                    and not (name == "law" and key.startswith("atom")):
                raise MalformedSyntax(f"unknown key {key!r}",
                                      f"{name}.{key}")


def parse_element(text, *, prime=None, q=None, budget=None, location=None):
    """One element literal, in the realization given by prime or q."""
    text = text.strip()
    m = _AFFINE_RE.match(text)
    if m:
        if prime is None:
            raise MalformedSyntax("affine(...) literal in a lamplighter config",
                                  location)
        budget = budget or PrecisionBudget()
        try:
            t = parse_padic(m.group("t"), prime, budget)
            a = parse_padic(m.group("a"), prime, budget)
        except MalformedSyntax as exc:
            raise MalformedSyntax(str(exc), location) from exc
        return PadicAffine(t, a)
    m = _LAMP_RE.match(text)
    if m:
        if q is None:
            raise MalformedSyntax("lamp(...) literal in a p-adic config",
                                  location)
        return LampAffine(q, parse_lamps(m.group("lamps"), ":", location),
                          int(m.group("shift")))
    raise MalformedSyntax(f"cannot parse element literal {text!r}", location)


def sigmas(text, location=None) -> float:
    """A tolerance in standard errors: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise MalformedSyntax(f"tolerance {text!r} is not a finite number "
                              "above 0", location)
    return value


def _int(section, key, default, low=-math.inf, high=math.inf):
    """The integer ``section.key`` in [low, high], ``default`` if absent."""
    loc = f"{section.name}.{key}"
    try:
        value = section.getint(key, default)
    except ValueError as exc:
        raise MalformedSyntax(f"{section[key]!r} is not an integer",
                              loc) from exc
    if not low <= value <= high:
        raise MalformedSyntax(f"{value} is not in [{low}, {high}]", loc)
    return value


def _parse_fraction(text, location):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedSyntax(f"bad rational {text!r}", location) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str                    # "padic" | "lamplighter"
    prime: "int | None"
    q: "int | None"
    budget: PrecisionBudget
    law: StepLaw
    seed: int
    trajectories: int
    horizon: int
    tolerance_sigmas: float
    out_dir: str
    cylinders: tuple             # ((name, CylinderEvent), ...)

    @property
    def degree(self) -> int:
        return self.law.degree

    def config_hash(self) -> str:
        """Hash of the semantic fields (not the raw text)."""
        law_part = ";".join(f"{a.render()}@{w}" for a, w in
                            zip(self.law.atoms, self.law.weights))
        cyl_part = ";".join(f"{n}={ev.render()}" for n, ev in self.cylinders)
        blob = "|".join([
            self.kind, str(self.prime), str(self.q),
            f"{self.budget.working}/{self.budget.min_acceptable}",
            law_part, str(self.seed),
            str(self.trajectories), str(self.horizon),
            str(self.tolerance_sigmas), cyl_part,
        ])
        return hashlib.sha256(blob.encode()).hexdigest()


def parse_config(text: str, *, allow_exceptional=False) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise MalformedSyntax(f"INI syntax: {exc}") from exc

    if not cp.has_section("realization"):
        raise MalformedSyntax("missing [realization] section")
    real = cp["realization"]
    kind = real.get("kind", "padic").strip()
    if kind not in ("padic", "lamplighter"):
        raise MalformedSyntax(f"unknown realization kind {kind!r}",
                              "realization.kind")
    _refuse_unknown(cp, kind)
    working = _int(real, "working_precision", 48, 1)
    budget = PrecisionBudget(working,
                             _int(real, "min_precision", 6, 1, working))
    prime = q = None
    if kind == "padic":
        prime = _int(real, "prime", 2)
        if prime >= 2 ** 64 or not is_prime(prime):
            raise InvalidPrime(f"{prime} is not a prime below 2**64",
                               "realization.prime")
    else:
        q = _int(real, "q", 2, 2)

    if not cp.has_section("law"):
        raise MalformedSyntax("missing [law] section")
    atoms, weights = [], []
    allow_flag = cp["law"].getboolean("allow_non_surjective", fallback=False)
    for key, value in cp["law"].items():
        if not key.startswith("atom"):
            continue
        loc = f"law.{key}"
        m = _WEIGHT_RE.match(value.strip())
        if not m:
            raise MalformedSyntax(
                f"expected '<element> weight <rational>', got {value!r}", loc)
        atoms.append(parse_element(m.group("elem"), prime=prime, q=q,
                                   budget=budget, location=loc))
        require_exact(atoms[-1], loc)
        weights.append(_parse_fraction(m.group("w"), loc))
    if not atoms:
        raise MalformedSyntax("no atoms in [law]", "law")
    try:
        law = StepLaw(tuple(atoms), tuple(weights))
    except WeightsNotNormalized as exc:
        raise WeightsNotNormalized(str(exc), "law") from exc
    report = law.validate(allow_non_surjective=allow_flag)
    if not report.passed and not allow_exceptional:
        raise NonExceptionalityFailed(report.summary(), "law")

    if not cp.has_section("experiment"):
        cp.add_section("experiment")
    exp = cp["experiment"]
    seed = _int(exp, "seed", 0)
    trajectories = _int(exp, "trajectories", 1000, 1)
    horizon = _int(exp, "horizon", 4000, 1)
    tol = sigmas(exp.get("tolerance_sigmas", "3"), "experiment.tolerance_sigmas")
    out_dir = exp.get("out", "results")

    cylinders = []
    if cp.has_section("cylinders"):
        for name, value in cp["cylinders"].items():
            loc = f"cylinders.{name}"
            sources, targets = [], []
            for pair in value.split(";"):
                if "->" not in pair:
                    raise MalformedSyntax(
                        f"expected '<vertex> -> <vertex>', got {pair!r}", loc)
                src, tgt = pair.split("->", 1)
                try:
                    sources.append(parse_vertex(src, prime=prime, q=q))
                    targets.append(parse_vertex(tgt, prime=prime, q=q))
                except MalformedSyntax as exc:
                    raise MalformedSyntax(str(exc), loc) from exc
            ev = CylinderEvent(tuple(sources), tuple(targets), name=name)
            if ev.is_empty:
                raise MalformedSyntax(
                    "pairs disagree on height displacement (empty event)", loc)
            cylinders.append((name, ev))

    return ExperimentConfig(kind, prime, q, budget, law, seed, trajectories,
                            horizon, tol, out_dir, tuple(cylinders))


def load_config(path, **kw) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read(), **kw)
