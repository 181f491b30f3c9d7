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
    Universes above the lattice ceiling take the pair sweeps either way."""
    from nbhdrecon import convexity, families, reconstruct

    if request.param == "pairs":
        def pays(k, n):
            return False
    else:
        def pays(k, n):
            return n <= families.LATTICE_CEILING
    monkeypatch.setattr(families, "lattice_pays", pays)
    monkeypatch.setattr(convexity, "lattice_pays", pays)
    monkeypatch.setattr(reconstruct, "lattice_pays", pays)
    return request.param
