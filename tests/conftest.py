"""Shared fixtures: families and precision targets used across the suite.

Property tests run hypothesis's random `default` profile.  To repeat a run,
pass `--hypothesis-seed=N`, or `--hypothesis-profile=derandomized` for the
same examples on every run from a seed derived from each test; neither
changes a test's `max_examples`.
"""

from fractions import Fraction

import pytest
from hypothesis import settings

from cubicthue import example_family

settings.register_profile("derandomized", derandomize=True)

P20 = Fraction(1, 10**20)
P25 = Fraction(1, 10**25)
P30 = Fraction(1, 10**30)


@pytest.fixture(scope="session")
def fam1():
    return example_family(1)


@pytest.fixture(scope="session")
def fam2():
    return example_family(2)


@pytest.fixture(scope="session")
def fam3():
    return example_family(3)
