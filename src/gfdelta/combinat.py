"""Exact combinatorics modulo p: digit sums, multinomial residues over
ordered compositions, and the coefficients produced by repeated unit-step
differencing.

Multinomial residues are computed digit-wise in base p (generalised Lucas)
by one kernel, `_digit_multinomial`: the multinomial of one digit column is a
product of binomials whose arguments are digits, so each is an exact
`math.comb` below p and no table is sized by p. The carry count of the parts
equals the p-adic valuation of the integer multinomial, so a coefficient
survives mod p exactly when the parts add without carries.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence


def digits(a: int, p: int) -> list[int]:
    """Base-p digits of a, least significant first; [0] for a = 0."""
    if a < 0:
        raise ValueError("negative argument")
    if a == 0:
        return [0]
    out = []
    while a:
        out.append(a % p)
        a //= p
    return out


def digit_sum(a: int, p: int) -> int:
    """S_p(a), the sum of the base-p digits of a."""
    return sum(digits(a, p))


def _digit_multinomial(total: int, parts: Sequence[int], p: int) -> int:
    """(total; parts) mod p for one digit column: total < p, no carries.

    The product of C(remaining, k) over the parts is the exact multinomial,
    and p divides none of its factors because every argument is below p.
    """
    result = 1
    for k in parts:
        result = result * math.comb(total, k) % p
        total -= k
    return result


def _nonneg_splits(total: int, k: int) -> Iterator[tuple[int, ...]]:
    """All ordered ways to write total as k nonnegative integers."""
    if k == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _nonneg_splits(total - first, k - 1):
            yield (first,) + rest


def _positive_compositions(total: int, k: int) -> Iterator[tuple[int, ...]]:
    if total < k:
        return
    for split in _nonneg_splits(total - k, k):
        yield tuple(s + 1 for s in split)


def _nonzero_composition_items(
    d: int, j: int, k: int, p: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Yield (parts, multinomial residue) over ordered compositions of j into
    k positive parts whose multinomial (d; parts..., d-j) is nonzero mod p.

    The digit columns split independently; the top column with nonzero need
    gives 1 to every part the lower columns left at zero, so no split with
    a zero part is ever built."""
    if k < 1 or j < k or j > d:
        return
    d_digits = digits(d, p)
    r_digits = digits(d - j, p)
    r_digits += [0] * (len(d_digits) - len(r_digits))
    need = [dd - rd for dd, rd in zip(d_digits, r_digits)]
    if min(need) < 0:
        return  # the fixed part d-j already forces a carry
    top = max(pos for pos, e in enumerate(need) if e)
    scale = p**top
    per_pos = [list(_nonneg_splits(e, k)) for e in need[:top]]
    for combo in itertools.product(*per_pos):
        parts = [0] * k
        residue = 1
        for pos, split in enumerate(combo):
            for idx, a in enumerate(split):
                parts[idx] += a * p**pos
            column = split + (r_digits[pos],)
            residue = residue * _digit_multinomial(d_digits[pos], column, p) % p
        zeros = [idx for idx, a in enumerate(parts) if not a]
        if len(zeros) > need[top]:
            continue
        for split in _nonneg_splits(need[top] - len(zeros), k):
            split = list(split)
            for idx in zeros:
                split[idx] += 1
            column = tuple(split) + (r_digits[top],)
            w = _digit_multinomial(d_digits[top], column, p)
            yield tuple(a + s * scale for a, s in zip(parts, split)), residue * w % p


def diff_coefficient(d: int, j: int, m: int, p: int) -> int:
    """The residue multiplying x^(d-j) after m unit-step differences of x^d.

    Sum of multinomials (d; i_1, ..., i_m, d-j) over ordered compositions
    of j into m positive parts.
    """
    if not 1 <= m <= j <= d:
        raise ValueError("need 1 <= m <= j <= d")
    total = 0
    for _, residue in _nonzero_composition_items(d, j, m, p):
        total += residue
    return total % p


def degree_after_diff(d: int, k: int, p: int) -> int | None:
    """Degree bound for x^d after k differences over a field of characteristic p.

    Zeroes out the low base-p digits of d until k is spent; returns None
    when k exceeds the digit sum of d, since the result then vanishes
    identically for every choice of nonzero steps.
    """
    if d < 0 or k < 1:
        raise ValueError("need d >= 0 and k >= 1")
    ds = digits(d, p)
    if k > sum(ds):
        return None
    spent = 0
    out = list(ds) + [0]
    for pos, digit in enumerate(ds):
        if spent + digit <= k:
            spent += digit
            out[pos] = 0
            if spent == k:
                break
        else:
            out[pos] = digit - (k - spent)
            break
    value = 0
    for pos, digit in enumerate(out):
        value += digit * p**pos
    return value
