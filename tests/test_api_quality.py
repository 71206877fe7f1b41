"""Release-quality meta-tests on the public API surface.

Every public module, class and function exported from a package
``__init__`` must carry a docstring, and the package must expose a
consistent registry surface.  These tests keep the documentation
guarantee (deliverable (e)) from regressing.
"""

import importlib
import inspect
import runpy
import sys

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


# runpy warns that the module already sits in sys.modules; running it
# again as __main__ is the point.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("module_name", EXPERIMENT_MODULES)
def test_every_experiment_has_run_render_main(module_name, monkeypatch,
                                              capsys):
    """``run``/``render``, and ``python -m repro.experiments.<name>``
    reaches the one experiment CLI."""
    module = importlib.import_module(f"repro.experiments.{module_name}")
    assert callable(module.render)
    if module_name != "machine":
        assert callable(module.run)
        assert module.__doc__ and module.__doc__.strip()
    # Executing the module re-registers its spec; keep the registry as
    # found for the tests that follow.
    monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))
    monkeypatch.setattr(sys, "argv", [module.__file__, "--help"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module(f"repro.experiments.{module_name}",
                         run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(
        "usage: python -m repro.experiments ")


def test_version_exposed():
    import repro
    assert repro.__version__
