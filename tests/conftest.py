"""Shared fixtures.  Heavy objects (fields, R-groups, B sets) are session
scoped: Field.build builds a new field on every call, so a test that
shares one takes it from here."""

import pytest

from strongblock.field import Field
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
def bset23(rg23):
    return build_bset(rg23)


@pytest.fixture(scope="session")
def bset24(rg24):
    return build_bset(rg24)
