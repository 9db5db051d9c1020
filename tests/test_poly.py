import itertools
import random
import re

import pytest
from hypothesis import given, strategies as st

from gfdelta.diff import DiffPlan, delta_plan
from gfdelta.field import ExtFieldSpec, ext_field, prime_field
from gfdelta.poly import (
    MAX_VARIABLE,
    MultiPoly,
    ParseError,
    PolyError,
    _fold,
    _random_monomial,
    all_points,
    format_poly,
    monomial_text,
    parse_monomial,
    parse_poly,
    random_poly,
)

from conftest import ALL_SPECS, GF3, GF4, GF5, GF8, GF9, GF27, GF31
from oracles import coefficient, interpolate, variable


def small_polys():
    return st.one_of(
        [
            st.builds(
                lambda seed, spec=spec: random_poly(spec, 3, 5, 5, rng=random.Random(seed)),
                st.integers(0, 10**6),
            )
            for spec in ALL_SPECS
        ]
    )


# -- parsing and formatting ---------------------------------------------------


def test_parse_paper_polynomial():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    assert f.n == 4 and len(f) == 3
    assert coefficient(f, (5, 1, 0, 0)) == GF31.one
    assert coefficient(f, (0, 0, 0, 6)) == GF31.one


def test_parse_zero_and_constants():
    assert parse_poly("0", GF31, n=2).is_zero()
    f = parse_poly("7", GF31, n=1)
    assert coefficient(f, (0,)) == GF31.element(7)


def test_parse_extension_coefficients():
    f = parse_poly("(a)*x1", GF9)
    assert coefficient(f, (1,)) == GF9.generator
    g = parse_poly("(2*a+1)*x1^3", GF9)
    assert coefficient(g, (3,)) == GF9.element((1, 2))


def test_parse_signs_and_whitespace():
    f = parse_poly(" - x1 + 2 * x2 - 3 ", GF31, n=2)
    assert coefficient(f, (1, 0)) == GF31.element(30)
    assert coefficient(f, (0, 1)) == GF31.element(2)
    assert coefficient(f, (0, 0)) == GF31.element(28)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError):
        parse_poly("x0 + 1", GF31)
    with pytest.raises(ParseError):
        parse_poly("x1 +", GF31)
    with pytest.raises(ParseError):
        parse_poly("x1^", GF31)
    with pytest.raises(ParseError):
        parse_poly("(a)*x1", GF31)  # basis symbol in a prime field
    with pytest.raises(ParseError):
        parse_poly("x1 x2", GF31)
    err = None
    try:
        parse_poly("x1 + $", GF31)
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 5


# (text, field, declared n, position, message), positions and messages as
# the token-at-a-time parser reported them
MALFORMED = [
    ("$", GF31, None, 0, "unexpected character '$'"),
    ("x1 + $", GF31, None, 5, "unexpected character '$'"),
    ("x0", GF31, None, 0, "variables are numbered from x1"),
    ("x0 + $", GF31, None, 5, "unexpected character '$'"),
    ("x1 +", GF31, None, 3, "dangling sign"),
    ("x1 + + - ", GF31, None, 7, "dangling sign"),
    ("- ", GF31, None, 0, "dangling sign"),
    ("", GF31, None, 0, "empty polynomial"),
    (" \t\n", GF31, None, 0, "empty polynomial"),
    ("x1^", GF31, None, 0, "expected integer exponent after ^"),
    ("x1 ^ ", GF31, None, 0, "expected integer exponent after ^"),
    ("x1 ^ + 2", GF31, None, 5, "expected integer exponent after ^"),
    ("x1^a", GF9, None, 3, "expected integer exponent after ^"),
    ("x1^2^3", GF31, None, 4, "expected '+' or '-' before '^'"),
    ("x1 x2", GF31, None, 3, "expected '+' or '-' before 'x2'"),
    ("x1 2", GF31, None, 3, "expected '+' or '-' before '2'"),
    ("2 (a)", GF9, None, 2, "expected '+' or '-' before '('"),
    ("(2*a+1)(a)", GF9, None, 7, "expected '+' or '-' before '('"),
    ("(a))", GF9, None, 3, "expected '+' or '-' before ')'"),
    ("x1*", GF31, None, 2, "dangling '*'"),
    ("x1 * ", GF31, None, 3, "dangling '*'"),
    ("*x1", GF31, None, 0, "unexpected token '*'"),
    ("x1 * + x2", GF31, None, 5, "unexpected token '+'"),
    (")", GF31, None, 0, "unexpected token ')'"),
    ("(a)*x1", GF31, None, 0, "basis symbol 'a' is not a GF(31) coefficient"),
    ("a", GF9, None, 0, "basis symbol must appear inside parentheses"),
    ("x1*a", GF9, None, 3, "basis symbol must appear inside parentheses"),
    ("((a))", GF9, None, 0, "bad element literal '(a)'"),
    ("(x1)", GF9, None, 0, "bad element literal 'x1'"),
    ("(1 2 ^ 3)", GF9, None, 0, "bad element literal '12^3'"),
    ("(a", GF9, None, 0, "unbalanced parenthesis"),
    ("()", GF9, None, 0, "empty element literal"),
    ("(a$)", GF9, None, 2, "unexpected character '$'"),
    ("(b)", GF9, None, 1, "unexpected character 'b'"),
    ("x1 + y2", GF31, None, 5, "unexpected character 'y'"),
    ("x 1", GF31, None, 0, "unexpected character 'x'"),
    ("x5", GF31, 4, 0, "variable x5 exceeds declared count 4"),
    ("x1 + x5", GF31, 4, 0, "variable x5 exceeds declared count 4"),
]


@pytest.mark.parametrize("text,spec,n,position,message", MALFORMED)
def test_malformed_text_positions(text, spec, n, position, message):
    with pytest.raises(ParseError) as info:
        parse_poly(text, spec, n=n)
    assert info.value.position == position
    assert str(info.value) == f"{message} (at position {position})"


def test_variable_index_is_capped():
    assert parse_poly(f"x{MAX_VARIABLE}", GF31).n == MAX_VARIABLE
    for text, position in [
        (f"x{MAX_VARIABLE + 1} + x1", 0),
        ("x1 + x" + "9" * 30, 5),
    ]:
        with pytest.raises(ParseError) as info:
            parse_poly(text, GF31)
        assert info.value.position == position
        with pytest.raises(ParseError):
            parse_poly(text, GF31, n=MAX_VARIABLE + 1)
    assert len(parse_monomial(f"x{MAX_VARIABLE}")) == MAX_VARIABLE
    for text in (f"x{MAX_VARIABLE + 1}", "x1*x" + "9" * 30):
        with pytest.raises(PolyError):
            parse_monomial(text)


@pytest.mark.parametrize(
    "template,position",
    [
        ("{}*x1", 0),
        ("x1^{}", 3),
        ("x{}", 0),
        ("x1 + 2*x{}", 7),
        ("x1 ^ {} + x2", 5),
        ("({}*a+1)*x1", 1),
        ("3*(a^ {})*x1", 6),
    ],
)
def test_integers_past_the_digit_limit_are_parse_errors(
    long_digits, template, position
):
    # Python refuses to convert more than 4,300 digits with its own
    # ValueError; every integer in polynomial text is a ParseError instead,
    # at its position
    with pytest.raises(ParseError) as info:
        parse_poly(template.format(long_digits), GF9)
    assert info.value.position == position
    assert str(info.value) == (
        f"integer of 5000 digits is too long (at position {position})"
    )


@pytest.mark.parametrize("template,position", [("x{}", 0), ("x1*x2^{}", 6)])
def test_term_integers_past_the_digit_limit_are_parse_errors(
    long_digits, template, position
):
    with pytest.raises(ParseError) as info:
        parse_monomial(template.format(long_digits))
    assert info.value.position == position
    assert str(info.value) == (
        f"integer of 5000 digits is too long (at position {position})"
    )


def test_parse_literal_whitespace():
    f = parse_poly("(2 * a\t+ 1)*x1 + (\na ^ 2\n)", GF9)
    assert f == parse_poly("(2*a+1)*x1 + (a^2)", GF9)
    # tokens inside a literal join, as between any two tokens
    assert parse_poly("(1 2)*x1", GF31) == parse_poly("12*x1", GF31)


_TOKEN = re.compile(r"\d+|x\d+|\S")


@given(small_polys(), st.data())
def test_parse_admits_whitespace_and_sign_runs(f, data):
    gap = st.text(alphabet=" \t\n", max_size=2)
    sign = st.sampled_from([["+"], ["-", "-"], ["+", "-", "-"], ["-", "+", "-"]])
    pieces = data.draw(st.sampled_from([[], ["-", "-"], ["+"]]))
    for index, term in enumerate(format_poly(f).split(" + ")):
        if index:
            pieces += data.draw(sign)
        pieces += _TOKEN.findall(term)
    text = "".join(data.draw(gap) + piece for piece in pieces) + data.draw(gap)
    assert parse_poly(text, f.spec, n=f.n) == f


def test_parse_merges_repeated_monomials():
    assert parse_poly("x1 + x1 - 2*x1", GF31).is_zero()
    assert parse_poly("x1 + 2*x1", GF31) == parse_poly("3*x1", GF31)


def test_term_text_forms():
    # term text reads the factors of polynomial text, without coefficients
    assert parse_monomial("x01*x2") == (1, 1)
    assert parse_monomial("x1^0*x2") == (0, 1)
    assert parse_monomial("\t1 ", 2) == (0, 0)
    for text in ("", "2*x1", "1*x1", "-x1", "+x1", "x0", "x1*x0", "x1*", "x1 x2"):
        with pytest.raises(PolyError):
            parse_monomial(text)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=5), st.data())
def test_term_text_admits_whitespace(exponents, data):
    mono = tuple(exponents)
    gap = st.text(alphabet=" \t\n", max_size=2)
    text = re.sub(
        r"[*^]",
        lambda m: data.draw(gap) + m.group() + data.draw(gap),
        monomial_text(mono),
    )
    assert parse_monomial(data.draw(gap) + text + data.draw(gap), len(mono)) == mono


def test_parsed_coefficients_are_table_rows():
    # every coefficient is the field's interned element, whose log evaluate
    # reads; the table's own tuples are found by identity, without
    # comparing coordinates
    f = parse_poly("(2*a^2+1)*x1 - (a)*x2 - 2 + x1^2 - -(a^2)*x2^2*2", GF27)
    rows = {id(row) for row in GF27._tables}
    assert len(f) == 5 and all(id(c.coeffs) in rows for c in f._terms.values())


def test_widen_pads_every_term():
    f = parse_poly("x1^2 + 3*x2", GF31)
    assert f.widen(4) == parse_poly("x1^2 + 3*x2", GF31, n=4)
    assert f.widen(1) is f


def test_format_examples():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    assert format_poly(f) == "x1^5*x2 + x1^4*x3*x4 + x4^6"
    assert format_poly(MultiPoly.zero(GF31, 2)) == "0"
    assert monomial_text((0, 2, 1)) == "x2^2*x3"
    assert monomial_text((0, 0)) == "1"


@given(small_polys())
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f), f.spec, n=f.n) == f


# -- evaluation ---------------------------------------------------------------


def test_evaluate_paper_point():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    ones = [GF31.one] * 4
    assert f.evaluate(ones) == GF31.element(3)


def test_evaluate_at_zero_gives_free_term():
    f = parse_poly("x1^2 + 3*x2 + 9", GF31, n=2)
    assert f.evaluate([GF31.zero, GF31.zero]) == GF31.element(9)
    assert MultiPoly.zero(GF31, 3).evaluate([GF31.zero] * 3) == GF31.zero


def test_evaluate_rejects_width_mismatch():
    f = parse_poly("x1", GF31, n=1)
    with pytest.raises(PolyError):
        f.evaluate([GF31.one, GF31.one])


# -- packed evaluation --------------------------------------------------------
#
# Over a table field `evaluate` works on the packed form `_packed`: one slot
# per term, the coefficients' logs plus log(x_i) times each variable's
# exponents, and a dead log for a zero coordinate. These tests hold it to a
# term-by-term reference through FieldElement `*`, `**` and `+`.

GF2 = prime_field(2)
GF4093 = prime_field(4093)
PACKED_SPECS = [GF2, GF3, GF4, GF8, GF9, GF27, GF31, GF4093]


def reference_value(f, point):
    spec = f.spec
    total = spec.zero
    for mono, coeff in f.terms():
        for x, e in zip(point, mono):
            coeff = coeff * spec.element(x) ** e
        total = total + coeff
    return total


def last_unit(spec):
    """g^(q-2), the unit of the largest log."""
    return spec._elems[spec.order - 2]


@st.composite
def packed_cases(draw):
    """A polynomial over a table field with exponents up to q-1, and points
    with zeros. The top-degree term takes the coefficient g^(q-2), so at
    the point of all g^(q-2) its sum is (q-2)(top + 1), one below dead."""
    spec = draw(st.sampled_from(PACKED_SPECS))
    q = spec.order
    n = draw(st.integers(0, 4))
    exponent = st.one_of(st.integers(0, 2), st.just(q - 1), st.integers(0, q - 1))
    coefficient = st.integers(1, q - 1).map(spec.from_index)
    terms = draw(
        st.dictionaries(st.tuples(*[exponent] * n), coefficient, max_size=10)
    )
    last = last_unit(spec)
    if terms:
        terms[max(terms, key=sum)] = last
    coordinate = st.one_of(
        st.just(spec.zero),
        st.just(last),
        st.integers(0, q - 1).map(spec.from_index),
        st.integers(-2 * q, 2 * q),
    )
    points = draw(st.lists(st.tuples(*[coordinate] * n), max_size=4))
    points += [(last,) * n, (spec.zero,) * n]
    return MultiPoly(spec, n, terms), points


@given(packed_cases())
def test_packed_evaluate_matches_term_by_term_reference(case):
    f, points = case
    spec, n = f.spec, f.n
    constant = last_unit(spec)
    for g in (f, MultiPoly.zero(spec, n), MultiPoly.constant(spec, n, constant)):
        for point in points:
            assert g.evaluate(point) == reference_value(g, point)
    assert MultiPoly.constant(spec, 0, constant).evaluate(()) == constant
    assert MultiPoly.zero(spec, 0).evaluate(()) == spec.zero


# enough variables with exponents q-1 over GF(4093) that the sum of the
# top term at the zero point passes 2^64
WIDE_VARS = 17_000


@pytest.mark.parametrize(
    "spec,exponents,width",
    [
        (GF27, (26, 3), 2),
        (GF31, (30, 30, 30, 30), 4),
        (GF4093, (4092, 4092), 8),
        (GF4093, (4092,) * WIDE_VARS, 9),
    ],
)
def test_packed_evaluate_at_each_slot_width(spec, exponents, width):
    n = len(exponents)
    last = last_unit(spec)
    lower = tuple(e // 2 for e in exponents)
    # the constant's slot follows the top term's, so a carry out of the top
    # term's slot changes a live term
    f = MultiPoly(spec, n, {exponents: last, (0,) * n: 1, lower: -1})
    rng = random.Random(n)
    points = [
        (spec.zero,) * n,
        (last,) * n,
        (spec.zero,) + (last,) * (n - 1),
        tuple(spec.random_element(rng, nonzero=True) for _ in range(n)),
        tuple(spec.random_element(rng) for _ in range(n)),
    ]
    for point in points:
        assert f.evaluate(point) == reference_value(f, point)
    _, _, _, dead, slots = f._pack
    assert slots.width == width
    # the top term at the zero point fills its slot past the next narrower
    # width, so a slot one size too narrow would carry
    narrower = {2: 1, 4: 2, 8: 4, 9: 8}[width]
    assert sum(exponents) * dead >> 8 * narrower


# each builds a polynomial from f and g, of low degree: delta_plan turns
# x^e into up to e + 1 terms
ROUTES = {
    "parse_poly": lambda f, g, rng: parse_poly(format_poly(f), f.spec, n=f.n),
    "+": lambda f, g, rng: f + g,
    "*": lambda f, g, rng: f * g,
    "substitute": lambda f, g, rng: f.substitute(
        {rng.randrange(f.n): f.spec.random_element(rng)}
    ),
    "widen": lambda f, g, rng: f.widen(f.n + 1),
    "delta_plan": lambda f, g, rng: delta_plan(
        f, DiffPlan.make(f.spec, {rng.randrange(f.n): 1})
    ),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("spec", [GF2, GF4, GF27, GF31, GF4093], ids=str)
def test_packed_evaluate_after_every_constructor(route, spec):
    # each result is evaluated before and after it builds new polynomials,
    # and so are its inputs: no packed form outlives the terms it packs
    rng = random.Random(f"{route}:{spec}")

    def points(n):
        coordinate = [spec.zero, last_unit(spec)]
        return [
            tuple(rng.choice(coordinate + [spec.random_element(rng)]) for _ in range(n))
            for _ in range(4)
        ]

    def check(*polys):
        for h in polys:
            for point in points(h.n):
                assert h.evaluate(point) == reference_value(h, point)

    f = random_poly(spec, 3, 12, 6, rng=rng)
    g = random_poly(spec, 3, 8, 4, rng=rng)
    check(f, g)
    result = ROUTES[route](f, g, rng)
    check(result)
    x1 = variable(spec, result.n, 0)
    check(result * (x1 + 1), result - x1, -result, result, f, g)


# -- arithmetic and canonical reduction ---------------------------------------


def test_cube_reduces_over_gf3():
    x = variable(GF3, 1, 0)
    assert x * x * x == x  # x^3 = x over GF(3)


def test_add_negation_cancels():
    f = parse_poly("x1^2 + 3*x2", GF31, n=2)
    assert (f + f.scale(GF31.element(-1))).is_zero()
    assert (f - f).is_zero()


def test_high_power_folds_over_gf9():
    x5 = parse_poly("x1^5", GF9)
    prod = x5 * x5
    assert prod == parse_poly("x1^2", GF9)  # 10 -> ((10-1) mod 8) + 1 = 2
    for (pt,) in all_points(GF9, 1):
        assert prod.evaluate([pt]) == x5.evaluate([pt]) * x5.evaluate([pt])


def test_reduction_preserves_function_exhaustively():
    rng = random.Random(7)
    for spec in (GF3, GF4, GF9):
        q = spec.order
        for _ in range(20):
            n = rng.randint(1, 2)
            raw = {}
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, 2 * q) for _ in range(n))
                raw[mono] = spec.random_element(rng, nonzero=True)
            f = MultiPoly(spec, n, raw)

            def naive(point):
                total = spec.zero
                for mono, coeff in raw.items():
                    term = coeff
                    for x, e in zip(point, mono):
                        term = term * x**e
                    total = total + term
                return total

            for point in all_points(spec, n):
                assert f.evaluate(point) == naive(point)


# the packed route (order <= LOG_TABLE_LIMIT, m = 1 included) and the loop
# (GF(2^13), above the limit)
EVAL_SPECS = [
    GF4,
    GF8,
    GF9,
    GF27,
    ExtFieldSpec(5, 1, (1, 3)),
    GF31,
    ext_field(2, 13, (1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
]


@st.composite
def evaluation_cases(draw):
    spec = draw(st.sampled_from(EVAL_SPECS))
    q = spec.order
    n = draw(st.integers(0, 3))
    # small exponents, exponents at and past q-1 that fold, and anything
    exponent = st.one_of(
        st.integers(0, 3), st.sampled_from([q - 1, q, 2 * (q - 1)]), st.integers(0, 2 * q)
    )
    terms = draw(
        st.lists(
            st.tuples(st.tuples(*[exponent] * n), st.integers(0, q - 1)), max_size=8
        )
    )
    coordinate = st.one_of(
        st.just(spec.zero),
        st.integers(0, q - 1).map(spec.from_index),
        st.integers(-2 * q, 2 * q),
    )
    point = draw(st.tuples(*[coordinate] * n))
    return spec, n, terms, point


@given(evaluation_cases())
def test_evaluate_matches_boxed_reference(case):
    spec, n, terms, point = case
    f = MultiPoly(spec, n, [(mono, spec.from_index(c)) for mono, c in terms])
    expected = spec.zero
    for mono, c in terms:
        term = spec.from_index(c)
        for x, e in zip(point, mono):
            term = term * spec.element(x) ** e
        expected = expected + term
    assert f.evaluate(point) == expected
    assert MultiPoly.zero(spec, n).evaluate(point) == spec.zero
    constant = spec.from_index(spec.order - 1)
    assert MultiPoly.constant(spec, n, constant).evaluate(point) == constant


@given(st.sampled_from([GF5, GF31, GF9, GF27]), st.integers(0, 2**32 - 1))
def test_results_stay_canonical(spec, seed):
    rng = random.Random(seed)
    f = random_poly(spec, 3, 4, rng.randint(1, 6), rng=rng)
    g = random_poly(spec, 3, 4, rng.randint(1, 6), rng=rng)
    # cancels every other term of f, so sums, products and differences of
    # f + half meet monomials whose coefficients vanish
    half = MultiPoly(spec, 3, [(m, -c) for m, c in f.terms()[::2]])
    fixed = {i: spec.random_element(rng) for i in rng.sample(range(3), 2)}
    plan = DiffPlan.make(spec, {rng.randrange(3): rng.randint(1, 3)})
    results = [
        f + g, f - g, f * g, f - f, f + (-f), f + half, (f + half) * g,
        f.substitute(fixed), (f + half).substitute(fixed),
        delta_plan(f, plan), delta_plan(f + half, plan),
        parse_poly(format_poly(f), spec, n=3),
    ]
    for result in results:
        assert all(c for _, c in result.terms())
        assert result == MultiPoly(spec, 3, result.terms())
    assert (f - f).is_zero() and (f + (-f)).is_zero()
    assert f + half == MultiPoly(spec, 3, f.terms()[1::2])
    assert f + g - g == f


def test_exponents_stay_canonical():
    f = MultiPoly(GF3, 1, {(7,): GF3.one})  # 7 folds to ((7-1) mod 2) + 1 = 1
    assert coefficient(f, (1,)) == GF3.one
    g = MultiPoly(GF3, 1, {(0,): GF3.element(2)})
    assert coefficient(g, (0,)) == GF3.element(2)  # constants never fold


# GF(2^13) is above the log-table limit
CONSTRUCTOR_SPECS = [prime_field(2), GF9, GF31, EVAL_SPECS[-1]]


def _constructor_reference(spec, n, terms):
    # term by term: fold every exponent, add into the map, drop zeros
    out = {}
    for mono, coeff in terms:
        key = tuple(_fold(e, spec.order) for e in mono)
        total = out.get(key, spec.zero) + spec.element(coeff)
        if total:
            out[key] = total
        else:
            out.pop(key, None)
    return out


@st.composite
def _constructor_terms(draw):
    spec = draw(st.sampled_from(CONSTRUCTOR_SPECS))
    q = spec.order
    n = draw(st.integers(0, 3))
    exponent = st.one_of(
        st.sampled_from([0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q]),
        st.integers(0, 5 * q),
    )
    coeff = st.one_of(
        st.sampled_from([0, 1, -1, spec.p]),
        st.integers(-(q**2), q**2),
        st.integers(0, q - 1).map(spec.from_index),
    )
    pool = draw(st.lists(st.tuples(*[exponent] * n), min_size=1, max_size=4))
    terms = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), coeff, st.booleans()).map(
                lambda t: (list(t[0]) if t[2] else t[0], t[1])
            ),
            max_size=10,
        )
    )
    # a term and its negation cancel, wherever they stand
    if terms and draw(st.booleans()):
        mono, c = draw(st.sampled_from(terms))
        terms.insert(draw(st.integers(0, len(terms))), (mono, -spec.element(c)))
    return spec, n, terms


@given(_constructor_terms())
def test_the_constructor_matches_the_term_by_term_reference(case):
    # list and tuple monomials, exponents at and past q fold as _fold does,
    # zero coefficients and cancelling duplicates drop out, and the map keeps
    # the order in which the reference first kept each monomial
    spec, n, terms = case
    f = MultiPoly(spec, n, terms)
    reference = _constructor_reference(spec, n, terms)
    assert list(f._terms.items()) == list(reference.items())
    assert all(type(m) is tuple for m in f._terms)
    for mono in f._terms:
        assert all(0 <= e < spec.order for e in mono)
    # a mapping of canonical terms is the same polynomial
    assert MultiPoly(spec, n, dict(f._terms)) == f


@pytest.mark.parametrize("spec", CONSTRUCTOR_SPECS)
def test_the_constructor_folds_each_exponent_as_fold_does(spec):
    # every exponent at the fold's edges, as the largest of its monomial or
    # beside a larger one, in a tuple and in a list
    q = spec.order
    edges = [0, 1, q - 1, q, q + 1, 2 * q - 1, 2 * q, 5 * q + 3]
    for e in edges:
        for mono in [(e, 1), [1, e], (e, 2 * q), [e, e]]:
            f = MultiPoly(spec, 2, [(mono, 1)])
            assert f._terms == _constructor_reference(spec, 2, [(mono, 1)])
            assert f._terms == {tuple(_fold(x, q) for x in mono): spec.one}


@pytest.mark.parametrize("spec", CONSTRUCTOR_SPECS)
def test_the_constructor_refuses_bad_monomials_with_its_messages(spec):
    q = spec.order
    cases = [
        ((0, -1), "negative exponent in (0, -1)"),
        ([q, -3], f"negative exponent in [{q}, -3]"),
        ((1, 2, 3), "monomial (1, 2, 3) does not have 2 exponents"),
        ([1], "monomial [1] does not have 2 exponents"),
        ((), "monomial () does not have 2 exponents"),
    ]
    for mono, message in cases:
        with pytest.raises(PolyError) as info:
            MultiPoly(spec, 2, [(mono, 1)])
        assert str(info.value) == message
    with pytest.raises(PolyError, match="^variable count must be >= 0$"):
        MultiPoly(spec, -1, [])


# -- factorization ------------------------------------------------------------


def test_factor_term_paper_example():
    f = parse_poly("x1^5*x2 + x1^4*x3*x4 + x4^6", GF31)
    fact = f.factor_term((1, 0, 0, 0))
    assert fact.quotient == parse_poly("x1^4*x2 + x1^3*x3*x4", GF31, n=4)
    assert fact.remainder == parse_poly("x4^6", GF31, n=4)
    fact2 = f.factor_term((2, 0, 0, 0))
    assert fact2.quotient == parse_poly("x1^3*x2 + x1^2*x3*x4", GF31, n=4)


def test_factor_term_non_divisor():
    f = parse_poly("x1*x2 + x3", GF31, n=3)
    fact = f.factor_term((0, 0, 2))
    assert fact.quotient.is_zero()
    assert fact.remainder == f


def test_factor_term_rejects_constant_term():
    f = parse_poly("x1", GF31, n=1)
    with pytest.raises(PolyError):
        f.factor_term((0,))


def test_factor_reconstruction_exhaustive_small_terms():
    rng = random.Random(3)
    spec = prime_field(5)
    n = 3
    for _ in range(10):
        f = random_poly(spec, n, 6, 6, rng=rng)
        t_poly = MultiPoly.zero(spec, n)
        for t in itertools.product(range(4), repeat=n):
            if not any(t) or sum(t) > 3:
                continue
            fact = f.factor_term(t)
            t_mono = MultiPoly(spec, n, {t: spec.one})
            assert t_mono * fact.quotient + fact.remainder == f
            assert not any(
                all(e >= te for e, te in zip(mono, t))
                for mono, _ in fact.remainder.terms()
            )


@given(small_polys(), small_polys().map(lambda g: g), st.integers(0, 2**16))
def test_factorization_is_linear(f, g, seed):
    if f.spec != g.spec:
        return
    rng = random.Random(seed)
    t = tuple(rng.randint(0, 1) for _ in range(f.n))
    if not any(t):
        t = (1,) + (0,) * (f.n - 1)
    lhs = (f + g).factor_term(t).quotient
    rhs = f.factor_term(t).quotient + g.factor_term(t).quotient
    assert lhs == rhs


# -- degrees ------------------------------------------------------------------


def test_degrees_examples():
    f = parse_poly("x1^5*x2 + x4^6", GF31)
    deg = f.degrees()
    assert deg.total == 6
    assert deg.per_variable[0] == 5
    assert deg.digit_sum[0] == 5  # single digit in base 31
    g = parse_poly("x1^5", GF9)
    assert g.degrees().digit_sum[0] == 3  # 5 = 12 in base 3
    const = parse_poly("4", GF31, n=2)
    assert const.degrees() == type(const.degrees())(0, (0, 0), (0, 0))


# -- substitution -------------------------------------------------------------


def test_substitute_matches_evaluation():
    rng = random.Random(13)
    for spec in (GF31, GF9):
        f = random_poly(spec, 3, 5, 6, rng=rng)
        point = [spec.random_element(rng) for _ in range(3)]
        g = f.substitute({0: point[0], 1: point[1], 2: point[2]})
        assert coefficient(g, (0, 0, 0)) == f.evaluate(point)
        partial = f.substitute({1: point[1]})
        assert partial.evaluate(point) == f.evaluate(point)
        assert partial.degrees().per_variable[1] == 0


# -- generators ----------------------------------------------------------------


def test_random_poly_is_deterministic():
    a = random_poly(GF31, 3, 5, 7, rng=random.Random(99))
    b = random_poly(GF31, 3, 5, 7, rng=random.Random(99))
    assert a == b
    assert random_poly(GF31, 3, 5, 0, rng=random.Random(1)).is_zero()


def _random_monomial_per_unit(rng, n, max_total_degree, cap):
    # one rng.choice over the variables still below cap per unit of degree
    mono = [0] * n
    for _ in range(rng.randint(0, max_total_degree)):
        choices = [i for i in range(n) if mono[i] < cap]
        if not choices:
            break
        mono[rng.choice(choices)] += 1
    return tuple(mono)


@given(
    n=st.integers(1, 6),
    degree=st.integers(0, 60),
    cap=st.integers(0, 9),
    seed=st.integers(0, 2**64),
)
def test_random_monomials_are_the_per_unit_stream(n, degree, cap, seed):
    # the batched draw gives the per-unit choice's monomial and leaves the
    # generator where it would, also once variables reach cap
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _random_monomial(ours, n, degree, cap) == _random_monomial_per_unit(
        theirs, n, degree, cap
    )
    assert ours.getstate() == theirs.getstate()


def test_random_poly_respects_degree_bound():
    for seed in range(30):
        f = random_poly(GF9, 3, 4, 6, rng=random.Random(seed))
        assert f.degrees().total <= 4


# -- interpolation -------------------------------------------------------------


def test_interpolation_round_trips_every_table_gf3():
    polys = set()
    for values in itertools.product(range(3), repeat=3):
        table = {
            (pt,): GF3.element(v)
            for pt, v in zip(GF3.elements(), values)
        }
        f = interpolate(GF3, 1, table)
        for (pt,), v in table.items():
            assert f.evaluate([pt]) == v
        polys.add(f)
    assert len(polys) == 27  # distinct tables give distinct canonical polys


def test_interpolation_matches_random_polys():
    rng = random.Random(21)
    for spec, n in [(GF3, 2), (GF4, 1), (GF9, 1), (GF4, 2)]:
        for _ in range(8):
            f = random_poly(spec, n, spec.order - 1, 5, rng=rng)
            g = interpolate(spec, n, lambda pt: f.evaluate(pt))
            assert g == f


def test_interpolation_rejects_oversized_domains():
    with pytest.raises(PolyError):
        interpolate(GF31, 4, lambda pt: GF31.zero)


@pytest.mark.parametrize("p", [1031, 65521])
def test_interpolation_rejects_oversized_vandermonde_tables(monkeypatch, p):
    # q^n fits the domain cap, but the q x q table would not
    def refuse(*args):
        raise AssertionError("the cap must hold before any lookup or table")

    monkeypatch.setattr("oracles._inverse_vandermonde", refuse)
    with pytest.raises(PolyError, match="desk-scale cap"):
        interpolate(prime_field(p), 1, refuse)
