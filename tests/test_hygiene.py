"""Static checks of the package source, by AST scan (no linter needed):
no unused imports, no module-level name that nothing uses, no dataclass
field that nothing reads, every random generator is built in ``rng``
and only ``rng`` reads or sets a generator's state, and no code outside
a realization's own classes tests which realization it holds.  Only
``tree`` knows the packed lamp form, and only ``law`` the height-path
window cap; only ``law`` (height windows) and ``grid`` (engine blocks)
take running sums, only ``grid`` reads a block's term exponents (one
term table), only ``grid`` and ``walk._moves`` (the two step tables)
read a form's coefficients, and only the right walk's certified limit
reads its stop rule.  The estimators of ``walk`` and ``renewal`` have
one body, the engine's: no test of a missing engine form, and no loop
stepping a walk on generic arithmetic but the two that serve
``simulate --dump`` and single excursions, and the engine's reads
(``grid``, ``renewal``) name no generic group arithmetic.  The
benchmark's tracer must still find every package function it wraps."""

import ast
import importlib.util
from pathlib import Path

import affinetree

SRC = Path(affinetree.__file__).parent
MODULES = sorted(SRC.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
# everything that may read a package dataclass's fields
READERS = MODULES + sorted(ROOT.glob("tests/*.py")) \
    + sorted(ROOT.glob("perfbench/*.py"))
# dataclasses whose fields are read as report keys, through ``vars()``
FIELDS_READ_BY_VARS = {"KernelEstimate"}
# numpy.random names that build a generator or a bit generator
BUILDERS = {"Generator", "default_rng", "RandomState", "BitGenerator",
            "Philox", "PCG64", "PCG64DXSM", "MT19937", "SFC64",
            "SeedSequence"}

# classes of the two realizations, whose own bodies may test their types
REALIZATION_CLASSES = {"PadicAffine", "LampAffine", "PadicVertex",
                       "LampVertex", "PadicEnd", "LampEnd", "GridLaw",
                       "LampGrid"}
# functions that may compare a ``kind``: the realization rule, config
# parsing, the algebra suite's random inputs and the p-adic-only claims
KIND_TESTS = {"same_realization", "parse_config", "_random_element",
              "_random_vertex", "_random_end", "padic_isometry_claims",
              "oracle_claims", "kernel_oracle", "period_invariance_claims",
              "omega_limit_claims", "verify_omega_limit"}

# helpers of the packed lamp form, which only ``tree`` defines; outside
# it, lamps are checked and packed by the lamp classes' constructors
LAMP_FORM = {"pack", "unpack", "_xor_sum", "_field_sum"}

# the estimator modules, and the functions in them that may step a walk
# on generic group arithmetic
ESTIMATORS = {"walk.py", "renewal.py"}
GENERIC_WALKS = {"run_product", "ladder_excursion"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _dotted(node):
    """'np.random.Philox' for an attribute chain, None otherwise."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def unused_imports(tree):
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound if name not in used)


def generator_builders(tree):
    """Calls (and imports) of numpy.random builders, as 'line: name'."""
    numpy_names = {"numpy"}
    random_names = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                if alias.name == "numpy.random" and alias.asname:
                    random_names.add(alias.asname)
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "numpy" and any(a.name == "random"
                                              for a in node.names):
                random_names.add("random")
            if node.module.startswith("numpy.random"):
                found += [f"{node.lineno}: {a.name}" for a in node.names
                          if a.name in BUILDERS]
    prefixes = {f"{n}.random." for n in numpy_names} \
        | {f"{n}." for n in random_names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name and any(name.startswith(p) and name[len(p):] in BUILDERS
                            for p in prefixes):
                found.append(f"{node.lineno}: {name}")
    return found


def state_access(tree):
    """'line: what' for each read of a generator's ``bit_generator``, by
    which its state is read or set, and each import from
    numpy.random.bit_generator."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "bit_generator":
            found.append(f"{node.lineno}: bit_generator")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.startswith("numpy.random.bit_generator"):
            found.append(f"{node.lineno}: import {node.module}")
    return found


def module_names(tree):
    """Module-level functions, classes and constants as {name: line};
    decorated functions and ``__all__`` are left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)) and not node.decorator_list:
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out.update({t.id: node.lineno for t in targets
                        if isinstance(t, ast.Name) and t.id != "__all__"})
    return out


def named(tree):
    """Names a module reads: loaded names, attributes and imported
    names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def dead_names(trees):
    """'module: name' for each module-level name of ``trees`` (module
    name -> AST) that no module names."""
    used = set().union(*map(named, trees.values()))
    return sorted(f"{mod}: {name}" for mod, tree in trees.items()
                  for name in module_names(tree) if name not in used)


def dataclass_fields(tree):
    """'Class.field' for each annotated field of each dataclass."""
    return [f"{node.name}.{item.target.id}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any("dataclass" in _names(d) for d in node.decorator_list)
            for item in node.body if isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)]


def attribute_reads(tree):
    """Attribute names ``tree`` reads (not those it only assigns)."""
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}


def unread_fields(trees, readers):
    """'Class.field' for each dataclass field of ``trees`` whose name no
    tree of ``readers`` reads as an attribute."""
    read = set().union(*map(attribute_reads, readers))
    return sorted(f for tree in trees for f in dataclass_fields(tree)
                  if f.split(".")[0] not in FIELDS_READ_BY_VARS
                  and f.split(".")[1] not in read)


def _names(node):
    """Names and attribute names under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def realization_tests(tree):
    """'line: what' for each type test naming a realization class outside
    those classes' bodies, each read of ``is_padic``, and each comparison
    of a ``kind`` outside ``KIND_TESTS``."""
    found = []

    def scan(node, classes, function):
        if isinstance(node, ast.ClassDef):
            classes = classes | {node.name}
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        own = REALIZATION_CLASSES & classes
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id == "isinstance" and len(node.args) == 2 \
                    and not own and _names(node.args[1]) & REALIZATION_CLASSES:
                found.append(f"{node.lineno}: isinstance")
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            typed = any(isinstance(o, ast.Call)
                        and isinstance(o.func, ast.Name)
                        and o.func.id == "type"
                        or isinstance(o, ast.Attribute)
                        and o.attr == "__class__" for o in operands)
            if typed and not own and any(
                    _names(o) & REALIZATION_CLASSES for o in operands):
                found.append(f"{node.lineno}: type test")
            if function not in KIND_TESTS and any(
                    isinstance(n, ast.Attribute) and n.attr == "kind"
                    for o in operands for n in ast.walk(o)):
                found.append(f"{node.lineno}: kind test in {function}")
        if isinstance(node, ast.Attribute) and node.attr == "is_padic" \
                or isinstance(node, ast.Name) and node.id == "is_padic":
            found.append(f"{node.lineno}: is_padic")
        for child in ast.iter_child_nodes(node):
            scan(child, classes, function)
    scan(tree, frozenset(), None)
    return found


def lamp_form_uses(tree):
    """'line: what' for each definition of a packed-form helper and each
    call of ``sorted_lamps``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.name in LAMP_FORM:
            found.append(f"{node.lineno}: def {node.name}")
        elif isinstance(node, ast.Call) \
                and "sorted_lamps" in _names(node.func):
            found.append(f"{node.lineno}: sorted_lamps")
    return sorted(found, key=lambda x: int(x.split(":")[0]))


def test_no_dead_module_names():
    assert not dead_names({p.name: _tree(p) for p in MODULES})


def test_no_unused_imports():
    bad = {p.name: unused_imports(_tree(p)) for p in MODULES
           if p.name != "__init__.py"}
    assert not {k: v for k, v in bad.items() if v}


def test_every_dataclass_field_is_read():
    """A field no code reads is a result no caller needs."""
    assert not unread_fields([_tree(p) for p in MODULES],
                             [_tree(p) for p in READERS])


def test_scan_sees_unread_fields():
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n    x: int\n"
                     "    y: int = 0\n    z = 1\n"
                     "@dataclass\nclass KernelEstimate:\n    w: int\n"
                     "class B:\n    v: int\n"
                     "def f(a):\n    a.y = a.x\n")
    assert dataclass_fields(tree) == ["A.x", "A.y", "KernelEstimate.w"]
    assert unread_fields([tree], [tree]) == ["A.y"]


def test_only_rng_builds_generators():
    found = {p.name: generator_builders(_tree(p)) for p in MODULES}
    assert found.pop("rng.py"), "the scan must see the builders in rng.py"
    assert not {k: v for k, v in found.items() if v}


def test_only_rng_reads_or_sets_stream_state():
    """Stream positions have one owner, ``rng`` (``position``, ``seek``,
    ``streams_at``); other modules draw in sequence or through it."""
    found = {p.name: state_access(_tree(p)) for p in MODULES}
    assert found.pop("rng.py"), "the scan must see the state reads in rng.py"
    assert not {k: v for k, v in found.items() if v}


def test_scan_sees_state_access():
    tree = ast.parse("from numpy.random.bit_generator import ISeedSequence\n"
                     "s = gen.bit_generator.state\n"
                     "gen.bit_generator.state = s\n"
                     "u = gen.random(3)\n")
    assert state_access(tree) == [
        "1: import numpy.random.bit_generator", "2: bit_generator",
        "3: bit_generator"]


def test_scan_sees_unused_and_builders():
    tree = ast.parse("import json\nimport numpy as np\n"
                     "from numpy.random import PCG64\n"
                     "g = np.random.Generator(np.random.Philox(1))\n")
    assert unused_imports(tree) == ["PCG64", "json"]
    dead = ast.parse("A = 1\nB = A\n__all__ = []\n@staticmethod\n"
                     "def f(): pass\ndef g(): return B\nclass C: pass\n")
    assert dead_names({"m.py": dead}) == ["m.py: C", "m.py: g"]
    assert generator_builders(tree) == [
        "3: PCG64", "4: np.random.Generator", "4: np.random.Philox"]


def test_only_realization_classes_test_realizations():
    found = {p.name: realization_tests(_tree(p)) for p in MODULES}
    assert not {k: v for k, v in found.items() if v}


def test_scan_sees_realization_tests():
    tree = ast.parse(
        "class PadicAffine:\n"
        "    def f(self, g):\n"
        "        return isinstance(g, PadicAffine)\n"
        "def g(x, law):\n"
        "    if isinstance(x, (LampEnd, int)) or type(x) is grid.GridLaw:\n"
        "        return law.is_padic\n"
        "    return x.__class__ == PadicVertex or x.kind == 'padic'\n"
        "def parse_config(cfg):\n"
        "    return cfg.kind != 'lamplighter' and isinstance(cfg, dict)\n")
    assert realization_tests(tree) == [
        "5: isinstance", "5: type test", "6: is_padic", "7: type test",
        "7: kind test in g"]


def test_only_tree_knows_the_lamp_format():
    """One lamp format: ``tree`` defines its helpers and alone checks raw
    lamp lists; the group, the engine and the suites read (num, floor)."""
    found = {p.name: lamp_form_uses(_tree(p)) for p in MODULES}
    defined = {x.split("def ")[1] for x in found.pop("tree.py") if "def " in x}
    assert defined == LAMP_FORM, "the scan must see the helpers in tree.py"
    assert not {k: v for k, v in found.items() if v}


def test_only_law_knows_the_window_cap():
    """One window walker: ``StepLaw.phi_sums`` alone schedules the
    windows of a height path, so only ``law`` names ``WINDOW_CAP``."""
    found = {p.name for p in MODULES if "WINDOW_CAP" in named(_tree(p))}
    assert found == {"law.py"}


def exps_reads(tree):
    """'line: exps' for each read of an attribute ``exps``, a block's
    term exponents."""
    return sorted((f"{node.lineno}: exps" for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute)
                   and node.attr == "exps"
                   and isinstance(node.ctx, ast.Load)),
                  key=lambda x: int(x.split(":")[0]))


def test_only_grid_reads_term_exponents():
    """One term table: ``grid.block_terms`` alone reads a block's term
    exponents and applies their coefficient rule; the kernel walk and the
    certified limits read the table it gives."""
    found = {p.name for p in MODULES if exps_reads(_tree(p))}
    assert found == {"grid.py"}


def test_scan_sees_exps_reads():
    tree = ast.parse("x = b.exps[0]\nb.exps = y\nexps = 1\nz = exps\n"
                     "w = (blk.exps < cut).nonzero()\nb.exps += 1\n")
    assert exps_reads(tree) == ["1: exps", "5: exps"]


def coefs_reads(tree):
    """'line: owner' for each read of an attribute ``coefs``, an engine
    form's step coefficients, ``owner`` the module-level function or
    class around it."""
    found = []
    for top in tree.body:
        found += [f"{node.lineno}: {getattr(top, 'name', None)}"
                  for node in ast.walk(top)
                  if isinstance(node, ast.Attribute) and node.attr == "coefs"
                  and isinstance(node.ctx, ast.Load)]
    return sorted(found, key=lambda x: int(x.split(":")[0]))


def test_only_the_step_tables_read_coefficients():
    """Two step tables: ``grid`` (``block_terms``, for the right walks
    and the kernel) and ``walk._moves`` (for both ladder walks) alone
    read an engine form's coefficients; the walks read the tables."""
    found = {f"{p.name}: {x.split(': ')[1]}" for p in MODULES
             for x in coefs_reads(_tree(p))}
    assert found == {"grid.py: GridLaw", "grid.py: block_terms",
                     "walk.py: _moves"}


def test_scan_sees_coefs_reads():
    tree = ast.parse("def f(grid):\n    def g():\n"
                     "        return grid.coefs[0]\n    return g\n"
                     "class A:\n    def h(self):\n        self.coefs = 1\n"
                     "        return self.coefs\n"
                     "x = form.coefs\ncoefs = 2\n")
    assert coefs_reads(tree) == ["3: f", "8: A", "9: None"]


# the right walk's certified stop rule, and the one function that reads it
CERTIFIED_RULE = {"STABLE_EPOCHS", "HEIGHT_GUARD"}


def rule_reads(tree):
    """'line: function' for each read of a ``CERTIFIED_RULE`` name, bare
    or as an attribute, in the function around it."""
    found = []

    def scan(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        name = getattr(node, "id", None) if isinstance(node, ast.Name) \
            else getattr(node, "attr", None)
        if name in CERTIFIED_RULE and isinstance(node.ctx, ast.Load):
            found.append(f"{node.lineno}: {function}")
        for child in ast.iter_child_nodes(node):
            scan(child, function)
    scan(tree, None)
    return found


def test_only_the_right_walk_reads_the_certified_rule():
    """The ladder walk's limit is exact (``walk.ladder_limit_rows``), so
    ``STABLE_EPOCHS`` and ``HEIGHT_GUARD`` are read only by the right
    walk's certified limit, ``walk._limit_chunks``."""
    found = {f"{p.name}: {x.split(': ')[1]}" for p in MODULES
             for x in rule_reads(_tree(p))}
    assert found == {"walk.py: _limit_chunks"}


def test_scan_sees_rule_reads():
    tree = ast.parse("HEIGHT_GUARD = 15\n"
                     "def f():\n    return walk.STABLE_EPOCHS + 1\n"
                     "def g():\n    x = HEIGHT_GUARD\n"
                     "    def h():\n        return HEIGHT_GUARD\n"
                     "    walk.HEIGHT_GUARD = 2\n")
    assert rule_reads(tree) == ["3: f", "5: g", "7: h"]


def running_sums(tree):
    """'line: what' for each call that takes a running sum: ``cumsum`` or
    ``cumulative_sum``, as a function or a method, and ``add.accumulate``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _dotted(node.func) or getattr(node.func, "attr", "")
        if name.split(".")[-1] in {"cumsum", "cumulative_sum"} \
                or name.endswith("add.accumulate"):
            found.append(f"{node.lineno}: {name}")
    return found


def test_only_law_and_grid_take_running_sums():
    """Height windows (``StepLaw.phi_sums``) and engine blocks
    (``grid.blocks``) are where running sums are taken; ``walk``,
    ``suites`` and ``renewal`` read theirs from them."""
    found = {p.name for p in MODULES if running_sums(_tree(p))}
    assert found == {"law.py", "grid.py"}


def test_scan_sees_running_sums():
    tree = ast.parse("a = np.cumsum(x, axis=1)\nb = x.path.cumsum(axis=1)\n"
                     "c = np.add.accumulate(x)\nd = cumulative_sum(x)\n"
                     "e = np.maximum.accumulate(x)\nf = x.sum()\n"
                     "g = (x + 1).cumsum()\n")
    assert running_sums(tree) == ["1: np.cumsum", "2: x.path.cumsum",
                                  "3: np.add.accumulate",
                                  "4: cumulative_sum", "7: cumsum"]


def test_scan_sees_lamp_form_uses():
    tree = ast.parse("def pack(lamps, width):\n    return 0, 0\n"
                     "def f(g):\n    return tree.sorted_lamps(g, 2, None)\n"
                     "class A:\n    def unpack(self):\n        pass\n"
                     "x = sorted(lamps)\n")
    assert lamp_form_uses(tree) == ["1: def pack", "4: sorted_lamps",
                                    "6: def unpack"]


def grid_none_tests(tree):
    """'line: what' for each comparison of a ``grid`` (a name or an
    attribute) with None, and each ``not grid``."""
    def is_grid(node):
        return isinstance(node, ast.Name) and node.id == "grid" \
            or isinstance(node, ast.Attribute) and node.attr == "grid"
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_grid, operands)) and any(
                    isinstance(o, ast.Constant) and o.value is None
                    for o in operands):
                found.append(f"{node.lineno}: grid is None")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) \
                and is_grid(node.operand):
            found.append(f"{node.lineno}: not grid")
    return sorted(found, key=lambda x: (int(x.split(":")[0]), x))


def generic_walks(tree):
    """'line: function' for each loop that steps a walk on generic group
    arithmetic: it calls ``sample_step``, or rebinds a name to a
    ``compose`` that reads that name."""
    found = set()

    def steps(loop):
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) \
                    and isinstance(node.func, (ast.Name, ast.Attribute)) \
                    and (getattr(node.func, "id", None)
                         or node.func.attr) == "sample_step":
                return True
            if isinstance(node, ast.Assign) \
                    and isinstance(node.value, ast.Call) \
                    and "compose" in _names(node.value.func) \
                    and {t.id for t in node.targets
                         if isinstance(t, ast.Name)} & _names(node.value):
                return True
        return False

    def scan(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.For, ast.While)) and steps(node):
            found.add(f"{node.lineno}: {function}")
        for child in ast.iter_child_nodes(node):
            scan(child, function)
    scan(tree, None)
    return sorted(found, key=lambda x: int(x.split(":")[0]))


def test_estimators_have_one_body():
    """No estimator tests for a missing engine form, and only
    ``GENERIC_WALKS`` step on generic arithmetic."""
    trees = {p.name: _tree(p) for p in MODULES if p.name in ESTIMATORS}
    assert set(trees) == ESTIMATORS
    assert not {k: v for k, t in trees.items() if (v := grid_none_tests(t))}
    walkers = {x.split(": ")[1] for t in trees.values()
               for x in generic_walks(t)}
    assert walkers == GENERIC_WALKS, "the scan must see both walks"


def test_scan_sees_generic_walks():
    tree = ast.parse(
        "def f(law, rng, g):\n"
        "    if law.grid is None or not self.grid:\n"
        "        for _ in range(3):\n"
        "            g = compose(g, law.sample_step(rng))\n"
        "    while True:\n"
        "        g = group.compose(x, g)\n"
        "    for x in xs:\n"
        "        h = compose(s, x)\n"
        "    def inner():\n"
        "        while g:\n"
        "            law.sample_step(rng)\n"
        "    return grid is not None\n")
    assert grid_none_tests(tree) == ["2: grid is None", "2: not grid",
                                     "12: grid is None"]
    assert generic_walks(tree) == ["3: f", "5: f", "10: inner"]


# the engine's reads decide on integers: the modules that hold them name
# none of the generic group operations
ENGINE_READS = {"grid.py", "renewal.py"}
GENERIC_OPS = {"compose", "invert", "act_end", "end_in_disc"}


def test_engine_reads_name_no_generic_arithmetic():
    """The limit measure and the prefix reader have no element fallback:
    ``grid`` and ``renewal`` neither import nor call a generic group
    operation."""
    found = {p.name: GENERIC_OPS & named(_tree(p)) for p in MODULES
             if p.name in ENGINE_READS}
    assert set(found) == ENGINE_READS
    assert not {k: v for k, v in found.items() if v}


def test_scan_sees_generic_ops():
    tree = ast.parse("from .group import compose as c, phi\n"
                     "y = group.invert(g)\nz = act_end\nend_in_disc = 1\n")
    assert GENERIC_OPS & named(tree) == {"compose", "invert", "act_end"}


def _perfbench_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_targets_install_and_uninstall():
    """Every target of ``perfbench/tracing.package_targets`` names a
    package function or method (a rename breaks ``run.py --trace 1``);
    installing wraps each one, and uninstalling puts the originals back."""
    tracing = _perfbench_tracing()
    tracer = tracing.Tracer()
    targets = tracing.package_targets(tracer)
    before = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in targets]
    try:
        tracer.install(targets)
        assert all(vars(owner)[attr] is not orig
                   for owner, attr, orig in before)
    finally:
        tracer.uninstall()
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)
