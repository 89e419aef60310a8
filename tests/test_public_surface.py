"""The exported names: every ``__all__`` entry resolves and is listed once."""

import importlib
import pkgutil

import pytest

import vfbm

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


def test_star_import_of_the_package():
    namespace = {}
    exec("from vfbm import *", namespace)
    assert {"cov_matrix", "sign_coeff", "tilde_c", "cholesky_psd"} <= set(namespace)
    assert not {"TildeC", "b_coeff"} & set(namespace)
