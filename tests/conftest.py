import pytest

from greenroute import build_fat_tree


@pytest.fixture(scope="session")
def tree2():
    return build_fat_tree(2)


@pytest.fixture(scope="session")
def tree4():
    return build_fat_tree(4)


@pytest.fixture(scope="session")
def tree8():
    return build_fat_tree(8)
