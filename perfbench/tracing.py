"""Per-layer tracing of ``affinetree``, installed from outside the package.

``Tracer.install`` replaces public functions and methods of the package
by wrappers that record a span (name, start, end, parent) and a call
count per layer function.  Modules bind names such as ``from .group
import compose`` in their own namespace, so every module attribute of
the package that holds a wrapped object is rebound; ``uninstall`` puts
the originals back.  Self time is a span's duration minus the time of
the spans it encloses.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPAN_CAP = 50_000    # spans kept per run; counts and times cover every call


def philox_draws(gen) -> int:
    """64-bit words a Philox generator has handed out so far.

    Philox fills a buffer of four words per counter increment, and the
    buffer position says how many of the latest four were used.
    """
    st = gen.bit_generator.state
    counter = int(st["state"]["counter"][0])
    return 4 * counter - 4 + st["buffer_pos"] if counter else 0


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.counts = defaultdict(float)  # steps, draws, trajectories, ...
        self.spans = []                   # (name, start, end, parent name)
        self.generators = []              # handed out by rng.stream
        self._stack = []                  # [name, start, child seconds]
        self._walk_depth = 0
        self._walk_start = 0.0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1][0] if self._stack else None
        frame = [name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            self.calls[name] += 1
            self.self_s[name] += dur - frame[2]
            self.incl_s[name] += dur
            if self._stack:
                self._stack[-1][2] += dur
            if len(self.spans) < SPAN_CAP:
                self.spans.append((name, frame[1], end, parent))

    def wrap(self, name, fn, *, namer=None, before=None, after=None):
        """Wrapper of ``fn`` recording a span per call.

        ``namer(args)`` picks the span name per call (for example by
        realization); ``before(args, kwargs)`` returns a token handed to
        ``after(args, kwargs, result, token)`` once the call returns.
        """
        def wrapper(*args, **kwargs):
            token = before(args, kwargs) if before else None
            key = namer(args) if namer else name
            out = self.span(key, fn, *args, **kwargs)
            if after:
                after(args, kwargs, out, token)
            return out
        return wrapper

    def walk_span(self, fn):
        """``fn`` timed into ``walk.time_s`` unless another walk call is in
        progress (walks nest: a boundary sampler can step with ladder
        excursions)."""
        def timed(*args, **kwargs):
            if self._walk_depth == 0:
                self._walk_start = time.perf_counter()
            self._walk_depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._walk_depth -= 1
                if self._walk_depth == 0:
                    self.counts["walk.time_s"] += \
                        time.perf_counter() - self._walk_start
        return timed

    # -- installation ------------------------------------------------------

    def install(self, targets):
        """Wrap every target; each is (owner, attribute, wrapper factory).

        ``owner`` is a module (the function is rebound in every module of
        the package that holds it) or a class (the attribute is replaced
        on the class, keeping classmethods classmethods).
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "affinetree"
                                         or n.startswith("affinetree."))]
        for owner, attr, factory in targets:
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(factory(raw.__func__))
                else:
                    new = factory(raw)
                setattr(owner, attr, new)
                self._restore.append((owner, attr, raw))
                continue
            orig = getattr(owner, attr)
            new = factory(orig)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, new)
                        self._restore.append((mod, name, orig))

    def uninstall(self):
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- counters ----------------------------------------------------------

    def collect_draws(self):
        """Add the words drawn by generators handed out since the last call."""
        self.counts["rng.draws"] += sum(philox_draws(g) for g in self.generators)
        self.generators.clear()


def package_targets(tracer):
    """The layer functions traced in every workload, as install targets."""
    from affinetree import group, law, padic, renewal, rng, suites, tree, walk
    from affinetree.group import PadicAffine

    def plain(name, **kw):
        return lambda fn: tracer.wrap(name, fn, **kw)

    def by_realization(name):
        return plain(name, namer=lambda a: name + (
            ".padic" if isinstance(a[0], PadicAffine) else ".lamp"))

    def add(key, value):
        tracer.counts[key] += value

    def keep_generator(a, kw, gen, token):
        tracer.generators.append(gen)

    def kernel_done(a, kw, est, token):
        add("renewal.potential_kernel.trajectories", est.trajectories)
        add("renewal.potential_kernel.aborted", est.aborted)

    def heights_before(a, kw):
        return philox_draws(a[1])

    def heights_done(a, kw, out, token):
        add("walk.ladder_heights.used", int(out[0].sum()))
        add("walk.ladder_heights.drawn", philox_draws(a[1]) - token)

    def walk_fn(name, steps_of):
        def factory(fn):
            def done(a, kw, out, token):
                add(name + ".steps", steps_of(out))
            return tracer.walk_span(tracer.wrap(name, fn, after=done))
        return factory

    targets = [(rng, "stream", plain("rng.stream", after=keep_generator)),
               (renewal, "potential_kernel",
                plain("renewal.potential_kernel", after=kernel_done))]
    for fn in ("kernel_oracle", "limit_measure_value", "ladder_cluster_run",
               "wald_mass_check"):
        targets.append((renewal, fn, plain(f"renewal.{fn}")))
    targets += [
        (walk, "sample_boundary_limit",
         walk_fn("walk.sample_boundary_limit", lambda out: out.steps)),
        (walk, "ladder_excursion",
         walk_fn("walk.ladder_excursion", lambda out: out.length)),
        (walk, "ladder_heights",
         plain("walk.ladder_heights", before=heights_before,
               after=heights_done)),
        (law.StepLaw, "sample_step", plain("law.sample_step")),
        (law.StepLaw, "sample_indices", plain("law.sample_indices")),
    ]
    for fn in ("compose", "invert", "act_vertex", "act_end"):
        targets.append((group, fn, by_realization(f"group.{fn}")))
    for attr, name in (("__add__", "add"), ("__mul__", "mul"),
                       ("from_rational", "from_rational"),
                       ("residue", "residue")):
        targets.append((padic.PAdic, attr, plain(f"padic.{name}")))
    for fn in ("meet", "theta"):
        targets.append((tree, fn, plain(f"tree.{fn}")))
    for fn in ("algebra_claims", "padic_isometry_claims", "regime_claims"):
        targets.append((suites, fn, plain(f"suites.{fn}")))
    return targets


# Span names reported as <name>.calls and <name>.self_s, in report order.
TRACED = (
    ["rng.stream", "renewal.potential_kernel", "renewal.kernel_oracle",
     "renewal.limit_measure_value", "renewal.ladder_cluster_run",
     "renewal.wald_mass_check", "walk.sample_boundary_limit",
     "walk.ladder_excursion", "walk.ladder_heights", "law.sample_step",
     "law.sample_indices"]
    + [f"group.{fn}.{kind}" for fn in ("compose", "invert", "act_vertex",
                                       "act_end")
       for kind in ("padic", "lamp")]
    + [f"padic.{fn}" for fn in ("add", "mul", "from_rational", "residue")]
    + ["tree.meet", "tree.theta", "suites.algebra_claims",
       "suites.padic_isometry_claims", "suites.regime_claims"]
)


def layer_metrics(tracer, rounds, units, overhead_s):
    """Per-layer metrics, each a per-round figure over ``rounds`` traced
    rounds; ``units`` is the number of the workload's units in them."""
    c = tracer.counts
    out = {}
    for name in TRACED:
        out[f"{name}.calls"] = (tracer.calls.get(name, 0) / rounds, "count")
        out[f"{name}.self_s"] = (tracer.self_s.get(name, 0.0) / rounds, "s")

    def ratio(a, b):
        return a / b if b else 0.0

    pk_time = tracer.incl_s.get("renewal.potential_kernel", 0.0)
    out["rng.uniforms_per_unit"] = (ratio(c["rng.draws"], units), "draws/unit")
    out["renewal.potential_kernel.us_per_traj"] = (
        ratio(pk_time * 1e6, c["renewal.potential_kernel.trajectories"]), "us")
    out["renewal.potential_kernel.aborted"] = (
        c["renewal.potential_kernel.aborted"] / rounds, "count")
    for name in ("walk.sample_boundary_limit", "walk.ladder_excursion"):
        out[f"{name}.steps"] = (c[f"{name}.steps"] / rounds, "count")
    out["walk.generic_steps_per_s"] = (ratio(
        c["walk.sample_boundary_limit.steps"] + c["walk.ladder_excursion.steps"],
        c["walk.time_s"]), "1/s")
    out["walk.ladder_heights.useful_ratio"] = (ratio(
        c["walk.ladder_heights.used"], c["walk.ladder_heights.drawn"]), "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
