import shutil

import numpy as np
import pytest
from fractions import Fraction

from nilwalk.algebra import abelian, filiform4, free_nilpotent, heisenberg3
from nilwalk.filtration import WeightFiltration
from nilwalk.measures import Dirac1D, Gaussian1D, ProductMeasure


@pytest.fixture(scope="session")
def heis():
    return heisenberg3()


@pytest.fixture(scope="session")
def heis_centered(heis):
    return WeightFiltration(heis, [0, 0, 0])


@pytest.fixture(scope="session")
def heis_drift_e1(heis):
    return WeightFiltration(heis, [1, 0, 0])


@pytest.fixture(scope="session")
def heis_gauss(heis):
    """Centered identity-covariance law in the two generating coordinates."""
    return ProductMeasure(heis, [Gaussian1D(), Gaussian1D(), Dirac1D(0.0)])


def rational_vector(rng, dim, denom=8, span=8):
    return tuple(Fraction(rng.randint(-span, span), denom) for _ in range(dim))


@pytest.fixture(scope="session", autouse=True)
def kernel_cache(tmp_path_factory):
    """Compiled product kernels go to a cache of the session's own, not the
    user's: the first build of each kernel compiles it."""
    mp = pytest.MonkeyPatch()
    mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
    yield
    mp.undo()


@pytest.fixture(params=["no-compiler", "compile-error", "unwritable-cache"])
def numpy_fallback(request, monkeypatch, tmp_path):
    """No compiled kernel can be had, for one of three reasons; the
    in-process cache of kernels is emptied before and after, so nothing
    cached elsewhere hides the fallback or outlives it."""
    from nilwalk import algebra

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if request.param == "no-compiler":
        monkeypatch.setattr(algebra, "c_compiler", lambda: None)
    elif request.param == "compile-error":
        monkeypatch.setattr(algebra, "c_compiler", lambda: shutil.which("false"))
    else:  # a directory cannot be made under a regular file, even by root
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
    algebra.compiled_kernel.cache_clear()
    yield request.param
    algebra.compiled_kernel.cache_clear()
