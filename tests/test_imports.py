"""Import hygiene: every module of the package reads each name it imports
(the package's __init__.py is exempt, because its imports are its exports),
no module imports scipy.stats, whose import alone costs most of a CLI
start-up, the benchmark's tracer still finds every attribute it patches, and
every demo compiles and imports only names the package has."""

import ast
import importlib.util
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "esbmix"
TRACER = PACKAGE.parents[1] / "bench" / "tracer.py"
DEMOS = sorted((PACKAGE.parents[1] / "demos").glob("*.py"))
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import statement and never read, in source order."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_unread_names():
    source = "import os\nimport os.path\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert unused_imports(source) == ["pi"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def stats_imports(source):
    """Line numbers of the imports that load scipy.stats."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == "scipy.stats" or name.startswith("scipy.stats.") for name in names):
            lines.append(node.lineno)
    return lines


def test_stats_imports_finds_every_form():
    source = ("import scipy.stats\nfrom scipy import stats\nfrom scipy.stats import norm\n"
              "import scipy.special\nfrom scipy.special import gammaln\n"
              "import scipy.stats._multivariate as mv\n")
    assert stats_imports(source) == [1, 2, 3, 6]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_does_not_import_scipy_stats(module):
    assert stats_imports((PACKAGE / module).read_text()) == []


def test_cli_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    code = ("import sys, esbmix.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def test_benchmark_tracer_patches_and_restores_the_sweep_layers():
    # the tracer replaces module and class attributes by name: a renamed or
    # removed one is a KeyError in every traced benchmark run, and a layer
    # that stops calling through a patched name loses its span
    from esbmix import analytics, eppf, mcmc, sticks

    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    patched = [(owner, attr) for owner, attr, _ in tracer_module.SPANNED + tracer_module.COUNTED]
    patched.append((analytics, "enumerate_partitions"))
    originals = [owner.__dict__.get(attr) for owner, attr in patched]

    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        data = np.random.default_rng(0).normal(size=20)
        config = mcmc.FitConfig(prior=mcmc.RandomRho(theta=1.0), kernel=mcmc.default_kernel(data),
                                iterations=3, burn_in=0, thin=1, seed=0)
        mcmc.fit(data, config)
        rng = np.random.default_rng(0)
        analytics.kn_paths(sticks.dsb(1.0, 1.0), 5, 20, rng)
        analytics.sample_kn(sticks.dsb(1.0, 1.0), 5, 20, rng)
        analytics.sample_allocations(sticks.IidBeta(1.0, 1.0), 5, 20, rng)
        analytics.allocation_probability([1, 2, 1], eppf.Dirichlet(1.0), 1.0, 1.0)
        analytics.truncated_pair_mass(eppf.Dirichlet(1.0), 1.0, 1.0, 4)
        analytics.ordering_probability_mc(sticks.dsb(1.0, 1.0), 20, rng)
    finally:
        tracer.uninstall()

    assert [owner.__dict__.get(attr) for owner, attr in patched] == originals
    _, _, calls = tracer.layer_times()
    assert calls["mcmc.gibbs_sweep"] == 3
    for layer in ("update_slices", "ensure_truncation", "update_lengths", "update_allocations",
                  "update_atoms", "update_rho", "complete_data_log_score"):
        assert calls[f"mcmc.{layer}"] >= 3, layer
    assert calls["sticks.sb_transform"] >= 3
    for layer in ("analytics.kn_paths", "analytics.sample_kn", "analytics.sample_allocations",
                  "analytics.allocation_probability", "analytics.truncated_pair_mass",
                  "analytics.ordering_probability_mc", "sticks.sample_length_pairs"):
        assert calls[layer] >= 1, layer
    assert tracer.counts["numerics.log_beta_moment"] > 0


def esbmix_imports(source):
    """(module, name) for each name imported from the package or its modules."""
    return [(node.module, alias.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "esbmix"
            for alias in node.names]


def test_esbmix_imports_finds_every_name():
    source = ("import esbmix\nfrom numpy import nan\nfrom esbmix import fit, dsb as d\n"
              "from esbmix.sticks import sb_transform\n")
    assert esbmix_imports(source) == [("esbmix", "fit"), ("esbmix", "dsb"),
                                      ("esbmix.sticks", "sb_transform")]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_compiles_and_its_imports_exist(demo):
    source = demo.read_text()
    compile(source, str(demo), "exec")
    imports = esbmix_imports(source)
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
