import os
import sys

import pytest
from hypothesis import settings

# tests always exercise this checkout, installed or not
sys.path.insert(0, os.path.dirname(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"))

import tridom as td
from tridom.generate import levels

# property tests replay the same 300 examples on every run and write no example database
settings.register_profile("tridom", max_examples=300, derandomize=True, deadline=None,
                          database=None)
settings.load_profile("tridom")


@pytest.fixture(scope="session")
def levels_to_9():
    """Order -> list of canonical forms, in code order."""
    return {n: list(dict(pairs).values()) for n, pairs in levels(9)}


@pytest.fixture(scope="session")
def code_levels_to_11():
    """Order -> level (canonical code -> canonical form), from generate.levels."""
    return {n: dict(pairs) for n, pairs in levels(11)}


@pytest.fixture(scope="session")
def levels_to_11(code_levels_to_11):
    return {n: list(level.values()) for n, level in code_levels_to_11.items()}


@pytest.fixture(scope="session")
def census_default(code_levels_to_11):
    """Rows and records for the default census range 5..11."""
    rows, records = td.census_records(
        5, 11, levels=[(n, level.items()) for n, level in sorted(code_levels_to_11.items())])
    return rows, records
