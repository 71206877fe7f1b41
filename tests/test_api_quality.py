"""Release-quality meta-tests on the public API surface.

Every public module, class and function exported from a package
``__init__`` must carry a docstring, and the package must expose a
consistent registry surface.  These tests keep the documentation
guarantee (deliverable (e)) from regressing.
"""

import ast
import importlib
import inspect
import itertools
import re
from pathlib import Path

import pytest

from repro.engine import registry

PUBLIC_PACKAGES = (
    "repro",
    "repro.adversary",
    "repro.cache",
    "repro.cluster",
    "repro.control",
    "repro.cpu",
    "repro.engine",
    "repro.experiments",
    "repro.hardware",
    "repro.hashing",
    "repro.mathutil",
    "repro.memory",
    "repro.obs",
    "repro.reporting",
    "repro.serve",
    "repro.store",
    "repro.trace",
    "repro.vm",
    "repro.workloads",
)

EXPERIMENT_MODULES = (
    "fragmentation", "qualitative", "machine", "summary", "stride_sweep",
    "single_hash", "multi_hash", "miss_reduction", "miss_distribution",
    "uniformity_table", "l1_hashing", "design_space", "sensitivity",
    "page_allocation", "shared_cache", "seeds", "l3_hashing",
)


@pytest.mark.parametrize("package_name", PUBLIC_PACKAGES)
def test_package_has_docstring(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__ and package.__doc__.strip()


@pytest.mark.parametrize("package_name", PUBLIC_PACKAGES)
def test_every_exported_item_is_documented(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    undocumented = []
    for name in exported:
        item = getattr(package, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            if not (item.__doc__ and item.__doc__.strip()):
                undocumented.append(f"{package_name}.{name}")
    assert not undocumented, undocumented


@pytest.mark.parametrize("package_name", PUBLIC_PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    for name in getattr(package, "__all__", []):
        assert hasattr(package, name), f"{package_name}.{name} missing"


@pytest.mark.parametrize("module_name", EXPERIMENT_MODULES)
def test_every_experiment_has_run_render_main(module_name):
    """``run``/``render``, and a registered spec of the module's name:
    the one CLI, ``python -m repro.experiments <name>``, reaches it."""
    module = importlib.import_module(f"repro.experiments.{module_name}")
    assert callable(module.render)
    if module_name != "machine":
        assert callable(module.run)
        assert module.__doc__ and module.__doc__.strip()
    assert registry.get_experiment(module_name).name == module_name


def test_version_exposed():
    import repro
    assert repro.__version__


# -- options only tests set ---------------------------------------------

REPO = Path(__file__).resolve().parents[1]

#: Packages whose component and config classes the options guard scans.
OPTION_PACKAGES = ("serve", "store", "cluster", "control", "obs")

#: Functions scanned beside the classes' initialisers.
OPTION_FUNCTIONS = {"default_slos", "strict_bands", "enable_journal",
                    "enable_observability", "build_dashboard"}

#: Out of scope: result records (telemetry snapshots, statuses, events
#: and the records below), which the reporting code builds rather than
#: a caller configures; instruments, checked at the registry factory;
#: and ``obs/benchguard.py``.
RECORD_SUFFIXES = ("Telemetry", "Status", "Event")
RECORDS = {"Response", "WorkItem", "Stage", "Action", "Observation"}
INSTRUMENTS = {"Counter", "Gauge", "Histogram", "NullInstrument"}

#: Parameters nothing outside ``tests/`` sets, kept on purpose:
#: ``(owner, parameters, reason)``.
KEPT_OPTIONS = (
    ("Cluster", ("registry",),
     "registry injection: tests substitute it"),
    ("KeyRotator", ("registry",),
     "registry injection: tests substitute it"),
    ("ShardedStore", ("registry",),
     "registry injection: tests substitute it"),
    ("Cluster", ("fabric", "injector", "tick_s"),
     "tests/cluster/test_recorded.py pins runs built with them"),
    ("Journal", ("tail_events",),
     "tests/cluster/test_recorded.py pins runs built with it"),
    ("FaultInjector", ("delay_probability", "delay_s",
                       "error_probability", "stalled_shards"),
     "the only way tests reach the frontend's retry and error handling"),
    ("NodeFaultInjector", ("error_probability", "seed", "fail_at",
                           "recover_at"),
     "the only way tests reach the cluster's replica-error handling"),
    ("ReplicationConfig", ("read_quorum",),
     "freshest-wins quorum reads are an invariant tests check"),
    ("RoutingTable", ("quarantined",),
     "set through dataclasses.replace, which the scan cannot follow"),
)


def _defaulted(fn, skip_self):
    """(positional parameter order, {defaulted name: default dump})."""
    args = fn.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = {}
    for arg, default in zip(positional[len(positional)
                                       - len(args.defaults):],
                            args.defaults):
        defaults[arg] = ast.dump(default)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            defaults[arg.arg] = ast.dump(default)
    return positional[1:] if skip_self else positional, defaults


def _is_dataclass(node):
    names = [getattr(d.func if isinstance(d, ast.Call) else d, "id", "")
             for d in node.decorator_list]
    return ("dataclass" in names
            or any(getattr(b, "id", "") == "NamedTuple"
                   for b in node.bases))


def _option_definitions():
    """Callee name -> (owner, positional order, {option: default})."""
    found = {}
    for package in OPTION_PACKAGES:
        for path in sorted((REPO / "src/repro" / package).glob("*.py")):
            if path.name == "benchguard.py":
                continue
            for node in ast.parse(path.read_text()).body:
                if (isinstance(node, ast.FunctionDef)
                        and node.name in OPTION_FUNCTIONS):
                    found[node.name] = (node.name,
                                        *_defaulted(node, False))
                if (not isinstance(node, ast.ClassDef)
                        or node.name.startswith("_")
                        or node.name in RECORDS | INSTRUMENTS
                        or node.name.endswith(RECORD_SUFFIXES)):
                    continue
                methods = {m.name: m for m in node.body
                           if isinstance(m, ast.FunctionDef)}
                if "__init__" in methods:
                    found[node.name] = (
                        node.name, *_defaulted(methods["__init__"], True))
                elif _is_dataclass(node):
                    fields = [f for f in node.body
                              if isinstance(f, ast.AnnAssign)
                              and isinstance(f.target, ast.Name)]
                    found[node.name] = (
                        node.name, [f.target.id for f in fields],
                        {f.target.id: ast.dump(f.value) for f in fields
                         if f.value is not None})
    return found


def _option_bindings(definitions):
    """(owner, option) -> a source per binding outside ``tests/``.

    A call binds an option by keyword, by position or through ``**``.
    Passing on a defaulted parameter of the enclosing function under
    the same default (``Journal(max_bytes=max_bytes)`` inside
    ``enable_journal``) sets the option only where that parameter is
    set: the binding's source names it.  Any other binding's source is
    None."""
    bindings = {}

    def record(call, klass, fn):
        func = call.func
        name = getattr(func, "id", getattr(func, "attr", None))
        if name == "cls" and klass:
            name = klass
        if name not in definitions:
            return
        owner, positional, options = definitions[name]
        args = itertools.takewhile(
            lambda arg: not isinstance(arg, ast.Starred), call.args)
        bound = list(zip(positional, args))
        for keyword in call.keywords:
            if keyword.arg is None:
                bound.extend((param, None) for param in options)
            else:
                bound.append((keyword.arg, keyword.value))
        outer = _defaulted(fn[0], False)[1] if fn else {}
        for param, value in bound:
            if param not in options:
                continue
            source = None
            if (isinstance(value, ast.Name)
                    and outer.get(value.id) == options[param]):
                outer_name = (fn[1] if fn[0].name == "__init__"
                              else fn[0].name)
                source = (outer_name, value.id)
            bindings.setdefault((owner, param), []).append(source)

    def visit(node, klass, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, fn)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, klass, (child, klass))
                continue
            if isinstance(child, ast.Call):
                record(child, klass, fn)
            visit(child, klass, fn)

    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO / top).rglob("*.py")):
            visit(ast.parse(path.read_text()), None, None)
    return bindings


def _options_set_outside_tests(definitions, bindings):
    """The (owner, option) pairs some binding sets, passed-on ones
    resolved to a fixed point."""
    owners = {name: owner for name, (owner, _, _) in definitions.items()}
    settled = set()
    changed = True
    while changed:
        changed = False
        for key, sources in bindings.items():
            if key not in settled and any(
                    source is None or source[0] not in owners
                    or (owners[source[0]], source[1]) in settled
                    for source in sources):
                settled.add(key)
                changed = True
    return settled


def test_stack_options_are_set_outside_tests():
    """Every defaulted parameter of the stack's component and config
    classes is set by some caller in ``src/``, ``benchmarks/`` or
    ``examples/``: a value only tests change is a constant."""
    definitions = _option_definitions()
    settled = _options_set_outside_tests(definitions,
                                         _option_bindings(definitions))
    in_scope = {(owner, option)
                for owner, _, options in definitions.values()
                for option in options}
    kept = {(owner, option) for owner, options, _ in KEPT_OPTIONS
            for option in options}
    assert kept <= in_scope - settled, "stale KEPT_OPTIONS entries"
    assert sorted(in_scope - settled - kept) == []


# -- experiment knobs only tests set ------------------------------------

#: Declared ``--param`` knobs nothing outside ``tests/`` sets, kept on
#: purpose: ``(experiment, knobs, reason)``.
KEPT_KNOBS = (
    ("serving", ("stall_shard",),
     "README and docs/serving.md document it, and it is the CLI's only "
     "way to reach the stalled-shard checks"),
)

#: Where a knob's callers live: the Makefile and these trees.
CALLER_TREES = ("src", "benchmarks", "examples")


def _knobs_set_in(source, knobs, python):
    """The ``(experiment, knob)`` pairs of ``knobs`` that ``source``
    sets: a command line naming the experiment and then
    ``--param <knob>=``, or (in Python) a dict literal with the knob's
    key inside a tuple, list or call that names the experiment, such
    as ``("stride_sweep", {"stride_step": 3})``."""
    found = {(name, knob) for name, knob in knobs
             if re.search(rf"\b{name}\b.*--param\W+{knob}=", source)}
    if not python:
        return found
    for node in ast.walk(ast.parse(source)):
        items = (node.elts if isinstance(node, (ast.Tuple, ast.List))
                 else node.args if isinstance(node, ast.Call) else [])
        names = {item.value for item in items
                 if isinstance(item, ast.Constant)}
        for item in items:
            for inner in ast.walk(item):
                if isinstance(inner, ast.Dict):
                    found |= {(name, key.value) for name in names
                              for key in inner.keys
                              if isinstance(key, ast.Constant)
                              and (name, key.value) in knobs}
    return found


def _knobs_set_outside_tests(knobs):
    found = _knobs_set_in((REPO / "Makefile").read_text(), knobs, False)
    for top in CALLER_TREES:
        for path in sorted((REPO / top).rglob("*.py")):
            found |= _knobs_set_in(path.read_text(), knobs, True)
    return found


def test_knob_scan_reads_both_caller_forms():
    knobs = {("store_sharding", "workers"), ("stride_sweep", "stride_step")}
    make_line = "\tpython -m repro.experiments store_sharding --param workers=4"
    assert _knobs_set_in(make_line, knobs, False) == {
        ("store_sharding", "workers")}
    python = ('PAPER = (("stride_sweep", {"stride_step": 3}),)\n'
              'ARGS = ["store_sharding", "--scale", "0.1"]\n'
              'CTX = run("fragmentation", {"workers": 4})\n')
    assert _knobs_set_in(python, knobs, True) == {
        ("stride_sweep", "stride_step")}


def test_experiment_knobs_are_set_outside_tests():
    """Every ``--param`` knob a registered experiment declares is set
    by a caller in the Makefile, ``src/``, ``benchmarks/`` or
    ``examples/``: a knob only tests turn is a module constant."""
    declared = {(name, knob) for name in registry.all_experiment_names()
                for knob in registry.get_experiment(name).params}
    settled = _knobs_set_outside_tests(declared)
    kept = {(name, knob) for name, knobs, _ in KEPT_KNOBS
            for knob in knobs}
    assert kept <= declared - settled, "stale KEPT_KNOBS entries"
    assert sorted(declared - settled - kept) == []
