"""The exported names: every ``__all__`` entry resolves and is listed once,
the package exports exactly its layer modules' lists, and every package
attribute the benchmark reads exists."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import vfbm
import vfbm.cli
import vfbm.verify

_MODULES = ["vfbm"] + [f"vfbm.{info.name}" for info in pkgutil.iter_modules(vfbm.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_all_resolves_without_repeats(name):
    mod = importlib.import_module(name)
    exported = list(getattr(mod, "__all__", ()))
    assert len(exported) == len(set(exported)), sorted({n for n in exported if exported.count(n) > 1})
    assert [n for n in exported if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


_EXPORTED = {
    "errors",
    "__version__",
    "CovarianceModel",
    "MixingMatrices",
    "TimeGrid",
    "validate_hurst",
    "validate_model",
    "ensure_valid",
    "load_model",
    "sigma_from_mixing",
    "coeffs_from_mixing",
    "tilde_c",
    "causal_factorize",
    "assemble_via_kernels",
    "KernelKind",
    "sign_coeff",
    "kernel_cov",
    "kernel_factor",
    "quadrature_kernel_oracle",
    "cov_pair",
    "cov_matrix",
    "McConfig",
    "cholesky_psd",
    "sample_paths",
    "mc_integral_oracle",
    "empirical_cov",
}

# Public names that are imported from their module, not from the package.
_MODULE_ONLY = {
    "HurstVector",
    "ValidationReport",
    "critical_pairs",
    "parse_model",
    "model_to_dict",
    "mixing_to_dict",
    "AlphaProducts",
    "alpha_products",
    "CovMatrix",
    "cov_same",
    "PathEnsemble",
    "EmpiricalCovariance",
    "McCovarianceTable",
    "beta",
    "phi",
}


def test_module_only_names_resolve():
    submodules = [importlib.import_module(name) for name in _MODULES[1:]]
    assert sorted(n for n in _MODULE_ONLY if not any(hasattr(mod, n) for mod in submodules)) == []


def test_package_exports_exactly_the_documented_names():
    assert set(vfbm.__all__) == _EXPORTED


def test_package_all_is_built_from_the_layer_modules():
    layers = [vfbm.model, vfbm.representation, vfbm.kernels, vfbm.covariance, vfbm.simulate]
    assert vfbm.__all__ == ["errors", "__version__", *(n for mod in layers for n in mod.__all__)]


def test_star_import_of_the_package():
    namespace = {}
    exec("from vfbm import *", namespace)
    assert {"cov_matrix", "sign_coeff", "tilde_c", "cholesky_psd"} <= set(namespace)
    assert not ({"TildeC", "b_coeff"} | _MODULE_ONLY) & set(namespace)


def test_package_attributes_read_by_the_benchmark_resolve():
    # every vfbm.<name> in the benchmark's code, found by parsing (never running) it
    bench = Path(__file__).resolve().parent.parent / "perfbench"
    sources = [*bench.glob("*.py"), *bench.glob("tests/*.py")]
    assert sources, bench
    used = {
        node.attr
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "vfbm"
    }
    assert "sample_paths" in used
    assert sorted(n for n in used if not hasattr(vfbm, n)) == []
