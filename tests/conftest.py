import random
import sys

import pytest
from hypothesis import settings

from gfdelta.field import ext_field, prime_field

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")

GF3 = prime_field(3)
GF5 = prime_field(5)
GF7 = prime_field(7)
GF31 = prime_field(31)
GF4 = ext_field(2, 2)
GF8 = ext_field(2, 3)
GF9 = ext_field(3, 2)
GF27 = ext_field(3, 3)

ALL_SPECS = [GF3, GF5, GF7, GF31, GF4, GF8, GF9, GF27]
SMALL_SPECS = [GF3, GF4, GF9]


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def long_digits():
    """5,000 digits, past Python's limit on converting text to an int, which
    is pinned at its default of 4,300 digits for the test."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        yield "1" * 5000
    finally:
        sys.set_int_max_str_digits(limit)


def evaluate_ints(target, public, secret):
    """One probe of `target` as residues: `public` through the online oracle
    keyed with `secret`."""
    return target.online_oracle(secret).evaluate_grid([tuple(public)])[0]
