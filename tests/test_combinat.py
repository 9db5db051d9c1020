import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from gfdelta.combinat import (
    _nonzero_composition_items,
    degree_after_diff,
    diff_coefficient,
    digit_sum,
)

from oracles import Composition, carry_count, multinomial_mod, nonzero_compositions

# the Mersenne prime 2^61 - 1: far too large for any table indexed by p
BIG_P = 2**61 - 1

# -- big-integer oracles ------------------------------------------------------


def oracle_multinomial(d, parts):
    value = math.factorial(d)
    for k in parts:
        value //= math.factorial(k)
    return value


def oracle_valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def digits_of(x, p):
    """Base-p digits of x, least significant first; [] for 0."""
    out = []
    while x:
        out.append(x % p)
        x //= p
    return out


def all_splits(d, count):
    """Every way to write d as `count` ordered nonnegative parts."""
    if count == 1:
        yield (d,)
        return
    for first in range(d + 1):
        for rest in all_splits(d - first, count - 1):
            yield (first,) + rest


# -- digit sums and carries ---------------------------------------------------


def test_digit_sum_examples():
    assert digit_sum(5, 3) == 3  # 12 in base 3
    assert digit_sum(0, 7) == 0
    assert digit_sum(11, 2) == 3  # 1011 in binary


def test_carry_count_examples():
    assert carry_count((3, 3), 3) == 0  # 10+10 in base 3, no carry
    assert carry_count((1, 1), 2) == 1
    for p in (3, 5, 7):
        for i in range(1, p):
            assert carry_count((i, p - i), p) >= 1
            assert multinomial_mod(p, (i, p - i), p) == 0


def test_carry_count_is_padic_valuation():
    for p in (2, 3, 5):
        for d in range(1, 26):
            for k in range(d + 1):
                parts = (k, d - k)
                assert carry_count(parts, p) == oracle_valuation(
                    oracle_multinomial(d, parts), p
                )
        for d in range(1, 16):
            for parts in all_splits(d, 3):
                assert carry_count(parts, p) == oracle_valuation(
                    oracle_multinomial(d, parts), p
                )


@given(st.integers(0, 10**6), st.sampled_from([2, 3, 5, 31]))
def test_digit_sum_congruence(a, p):
    # a and its digit sum agree modulo p-1
    if p > 2:
        assert (a - digit_sum(a, p)) % (p - 1) == 0


# -- multinomials mod p -------------------------------------------------------


def test_multinomial_examples():
    assert multinomial_mod(5, (1, 1, 1, 1, 1, 0), 31) == 27  # 5! mod 31
    assert multinomial_mod(9, (9,), 13) == 1
    assert multinomial_mod(6, (3, 3), 3) == 2  # 20 mod 3
    assert multinomial_mod(40, (20, 20), BIG_P) == oracle_multinomial(40, (20, 20))


def test_multinomial_rejects_bad_parts():
    with pytest.raises(ValueError):
        multinomial_mod(5, (1, 1), 7)
    with pytest.raises(ValueError):
        multinomial_mod(5, (6, -1), 7)


def test_multinomial_agrees_with_oracle():
    for p in (2, 3, 5, 31):
        for d in range(0, 26):
            for k in range(d + 1):
                assert multinomial_mod(d, (k, d - k), p) == oracle_multinomial(
                    d, (k, d - k)
                ) % p
        for d in range(0, 13):
            for parts in all_splits(d, 3):
                assert multinomial_mod(d, parts, p) == oracle_multinomial(
                    d, parts
                ) % p


def test_zero_iff_carries_exhaustive():
    for p in (2, 3, 5):
        for d in range(0, 61):
            for k in range(d + 1):
                parts = (k, d - k)
                assert (multinomial_mod(d, parts, p) == 0) == (
                    carry_count(parts, p) > 0
                )
        for d in range(0, 31):
            for parts in all_splits(d, 3):
                assert (multinomial_mod(d, parts, p) == 0) == (
                    carry_count(parts, p) > 0
                )


def test_digit_criterion_matches_nonzeroness():
    # nonzero multinomial exactly when every digit of d is the digit sum of
    # the parts in that position
    for p in (2, 3, 5):
        for d in range(0, 61):
            for k in range(d + 1):
                parts = (k, d - k)
                cols = [digits_of(v, p) for v in parts]
                dd = digits_of(d, p)
                width = len(dd)
                digitwise = all(
                    dd[pos] == sum(c[pos] if pos < len(c) else 0 for c in cols)
                    for pos in range(width)
                )
                assert (multinomial_mod(d, parts, p) != 0) == digitwise


@given(
    st.sampled_from([2, 3, 5, 31]),
    st.lists(st.integers(0, 40), min_size=2, max_size=5),
)
def test_multinomial_symmetric(p, parts):
    d = sum(parts)
    reference = multinomial_mod(d, tuple(parts), p)
    assert multinomial_mod(d, tuple(reversed(parts)), p) == reference


# -- difference coefficients --------------------------------------------------


def oracle_diff_coefficient(d, j, m, p):
    """Direct enumeration of ordered compositions, no digit tricks."""
    total = 0
    for parts in itertools.product(range(1, j - m + 2), repeat=m):
        if sum(parts) == j:
            total += oracle_multinomial(d, parts + (d - j,))
    return total % p


def test_diff_coefficient_paper_values():
    assert diff_coefficient(5, 5, 2, 31) == 30  # 5+10+10+5
    assert diff_coefficient(4, 4, 2, 31) == 14  # 4+6+4
    assert oracle_diff_coefficient(5, 5, 2, 31) == 30
    assert oracle_diff_coefficient(4, 4, 2, 31) == 14


def test_diff_coefficient_leading_and_full():
    for p in (5, 7, 31):
        for d in range(1, min(p, 9)):
            for m in range(1, d + 1):
                # leading coefficient of the drop: d!/(d-m)!
                assert diff_coefficient(d, m, m, p) == (
                    math.factorial(d) // math.factorial(d - m)
                ) % p
            assert diff_coefficient(d, d, d, p) == math.factorial(d) % p


def test_diff_coefficient_matches_oracle():
    rng = random.Random(5)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 31, BIG_P])
        d = rng.randint(1, 14)
        j = rng.randint(1, d)
        m = rng.randint(1, j)
        assert diff_coefficient(d, j, m, p) == oracle_diff_coefficient(d, j, m, p)


def test_diff_coefficient_rejects_bad_ranges():
    with pytest.raises(ValueError):
        diff_coefficient(3, 4, 1, 5)
    with pytest.raises(ValueError):
        diff_coefficient(3, 2, 3, 5)


# -- carry-free composition sets ----------------------------------------------


def oracle_composition_items(d, j, k, p):
    """(parts, residue) for every composition with a nonzero residue, in the
    order of the digit-wise enumeration: the parts' digit columns compared
    lexicographically, lowest position first."""
    items = []
    for parts in itertools.product(range(1, j - k + 2), repeat=k):
        if sum(parts) == j:
            residue = oracle_multinomial(d, parts + (d - j,)) % p
            if residue:
                items.append((parts, residue))
    width = len(digits_of(d, p))

    def columns(item):
        return [tuple(a // p**pos % p for a in item[0]) for pos in range(width)]

    return sorted(items, key=columns)


def test_composition_set_examples():
    assert {c.parts for c in nonzero_compositions(3, 3, 2, 2)} == {(1, 2), (2, 1)}
    assert {c.parts for c in nonzero_compositions(3, 3, 1, 3)} == {(3,)}
    # (1, ..., 1) is the only candidate composition of k into k positive
    # parts; it appears exactly when its multinomial survives mod p
    for d, k, p in [(6, 3, 7), (4, 2, 5), (6, 3, 5), (9, 4, 3)]:
        got = {c.parts for c in nonzero_compositions(d, k, k, p)}
        assert got <= {(1,) * k}
        survives = oracle_multinomial(d, (1,) * k + (d - k,)) % p != 0
        assert got == ({(1,) * k} if survives else set())
    assert {c.parts for c in nonzero_compositions(6, 3, 3, 7)} == {(1, 1, 1)}


def test_composition_set_matches_brute_force():
    # p = 31 and 2^61 - 1 keep d below p (one digit); 2, 3 and 5 mostly not
    rng = random.Random(11)
    for _ in range(120):
        p = rng.choice([2, 3, 5, 31, BIG_P])
        d = rng.randint(1, 18)
        j = rng.randint(1, d)
        k = rng.randint(1, min(j, 5))
        expected = oracle_composition_items(d, j, k, p)
        assert list(_nonzero_composition_items(d, j, k, p)) == expected
        mine = [c.parts for c in nonzero_compositions(d, j, k, p)]
        assert mine == [parts for parts, _ in expected]


def test_composition_type_validates():
    with pytest.raises(ValueError):
        Composition((0, 3), 3)
    with pytest.raises(ValueError):
        Composition((1, 3), 3)
    assert Composition((1, 2), 3).parts == (1, 2)


# -- degree bounds after differencing ------------------------------------------


def test_degree_bound_binary_digit_replacement():
    # 1011 with two low ones cleared is 1000
    assert degree_after_diff(11, 2, 2) == 8
    assert degree_after_diff(11, 1, 2) == 10
    assert degree_after_diff(11, 3, 2) == 0
    assert degree_after_diff(11, 4, 2) is None


def test_degree_bound_single_digit():
    assert degree_after_diff(5, 2, 31) == 3
    assert degree_after_diff(6, 6, 7) == 0


def test_degree_bound_at_digit_sum_is_constant_not_zero():
    # S_3(5) = 3: three differences leave a constant (possibly nonzero),
    # so the bound is 0 rather than None
    assert degree_after_diff(5, 3, 3) == 0
    assert degree_after_diff(5, 4, 3) is None


def test_degree_bound_carries_digits_upward():
    # d = 15 in base 2 is 1111
    assert degree_after_diff(15, 2, 2) == 12
    # d = 10 in base 3 is 101: one difference spends the low 1
    assert degree_after_diff(10, 1, 3) == 9
    assert degree_after_diff(10, 2, 3) == 0


def test_degree_bound_rejects_bad_args():
    with pytest.raises(ValueError):
        degree_after_diff(5, 0, 3)
    with pytest.raises(ValueError):
        degree_after_diff(-1, 1, 3)
