import importlib

import pytest

MODULES = ["besselkit"] + [
    f"besselkit.{m}" for m in ("measure", "special", "quadrature", "kernels", "operators")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a name deleted from a module but left in its export list fails the
    # star import with AttributeError
    module = importlib.import_module(name)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
