"""Shared fixtures.  Heavy objects (fields, R-groups, B sets) are session
scoped: Field.build builds a new field on every call, so a test that
shares one takes it from here."""

import numpy as np
import pytest

from strongblock.field import Field
from strongblock.geometry import PointSet, ProjectiveSpace
from strongblock.partition import build_bset, build_rgroup


@pytest.fixture(scope="session")
def gf8():
    return Field.build(2, 3)


@pytest.fixture(scope="session")
def gf9():
    return Field.build(3, 2)


@pytest.fixture(scope="session")
def gf4096():
    return Field.build(2, 12)


@pytest.fixture(scope="session")
def rg23():
    return build_rgroup(2, 3)


@pytest.fixture(scope="session")
def rg24():
    return build_rgroup(2, 4)


@pytest.fixture(scope="session")
def rg33():
    return build_rgroup(3, 3)


@pytest.fixture(scope="session")
def rg34():
    return build_rgroup(3, 4)


@pytest.fixture(scope="session")
def rg43():
    return build_rgroup(4, 3)


@pytest.fixture(scope="session")
def rg25():
    return build_rgroup(2, 5)


@pytest.fixture(scope="session")
def bset23(rg23):
    return build_bset(rg23)


@pytest.fixture(scope="session")
def bset24(rg24):
    return build_bset(rg24)


@pytest.fixture(scope="session")
def random_pg3_64():
    """A seeded random 255-point set of PG(3,64): the size of the q = 4
    union, and like it decided from section counts and secant lines."""
    space = ProjectiveSpace(Field.build(2, 6), 3)
    idx = np.random.default_rng(7).choice(space.num_points, 255, replace=False)
    return PointSet(space, [space.point_at(int(i)) for i in idx])
