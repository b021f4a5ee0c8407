import numpy as np
import pytest

from besselkit import operators


@pytest.fixture
def kernel_points(monkeypatch):
    """The number of points of each ``kernel_value`` call the operators make,
    one entry a call, in call order."""
    sizes = []
    real = operators.kernel_value

    def counted(spec, x, y, **kw):
        sizes.append(np.size(y))
        return real(spec, x, y, **kw)

    monkeypatch.setattr(operators, "kernel_value", counted)
    return sizes
