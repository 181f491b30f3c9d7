import sys

import pytest

from helpers import (
    C4_LABELINGS,
    HEXAGON,
    K33,
    P3,
    PRISM,
    TWO_TRIANGLES,
    UNIQUE_WITH_C4,
    WORKED_EXAMPLE,
)


@pytest.fixture(scope="session")
def worked_example():
    return WORKED_EXAMPLE


@pytest.fixture(scope="session")
def worked_example_support():
    from nbhdrecon import closed_support

    return closed_support(WORKED_EXAMPLE)


@pytest.fixture(scope="session")
def k33():
    return K33


@pytest.fixture(scope="session")
def prism():
    return PRISM


@pytest.fixture(scope="session")
def hexagon():
    return HEXAGON


@pytest.fixture(scope="session")
def two_triangles():
    return TWO_TRIANGLES


@pytest.fixture(scope="session")
def unique_with_c4():
    return UNIQUE_WITH_C4


@pytest.fixture(scope="session")
def c4_labelings():
    return C4_LABELINGS


@pytest.fixture(scope="session")
def p3():
    return P3


@pytest.fixture(params=["pairs", "lattice"])
def lattice_side(request, monkeypatch):
    """Force one side of the pair-sweep / subset-lattice cut-over, so small
    families can be checked against exponential oracles on both paths.
    Universes above the lattice ceiling take the pair sweeps either way.
    Every loaded package module that binds the policy gets the forced one,
    so no reader of it can escape the side."""
    from nbhdrecon import families

    if request.param == "pairs":
        def pays(k, n):
            return False
    else:
        def pays(k, n):
            return n <= families.LATTICE_CEILING
    for name, module in list(sys.modules.items()):
        if ((name == "nbhdrecon" or name.startswith("nbhdrecon."))
                and hasattr(module, "lattice_pays")):
            monkeypatch.setattr(module, "lattice_pays", pays)
    return request.param
