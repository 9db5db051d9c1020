import itertools
import operator
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

import gfdelta.field as field_module
from gfdelta.field import (
    LOG_TABLE_LIMIT,
    ExtFieldSpec,
    FieldError,
    PrimeFieldSpec,
    basis_elements,
    ext_field,
    is_prime,
    parse_element,
    parse_field_spec,
    prime_field,
)
from gfdelta.poly import parse_poly

from conftest import ALL_SPECS, GF4, GF8, GF9, GF27, GF31


def spec_and_elements(count):
    return st.one_of(
        [
            st.tuples(
                st.just(spec),
                *[st.integers(0, spec.order - 1) for _ in range(count)],
            )
            for spec in ALL_SPECS
        ]
    )


# -- construction -----------------------------------------------------------


def test_primality_check():
    assert is_prime(2) and is_prime(31) and is_prime(2**61 - 1)
    assert not is_prime(1) and not is_prime(30) and not is_prime(9)
    with pytest.raises(FieldError):
        prime_field(30)


def test_primality_is_exact_below_the_stated_bound():
    # the least strong pseudoprime to the witnesses 2..37; base 41 finds it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    # the least strong pseudoprime to 2..41, where the docstring's bound ends
    psi13 = 3317044064679887385961981
    assert psi13 == 1287836182261 * 2575672364521
    assert is_prime(psi13)


def test_prime_field_word_size_cap():
    with pytest.raises(FieldError):
        prime_field(2**89 - 1)


@pytest.mark.parametrize(
    "text",
    [
        "3317044064679887385961981^1/1,0",  # composite, passes 2..41
        "618970019642690137449562111^2/1,0,1",  # the prime 2^89 - 1
    ],
)
def test_extension_specs_share_the_prime_check(text):
    with pytest.raises(FieldError, match="machine word"):
        parse_field_spec(text)


@pytest.mark.parametrize(
    "text",
    [
        "3^41/1," + "0," * 39 + "2,1",  # 3^40 < 2^64 < 3^41
        "3^256/1," + "0," * 254 + "2,1",
        "2^65/1," + "0," * 63 + "1,1",
        "4294967311^2/1,0,1",  # the prime 2^32 + 15
    ],
    ids=lambda text: text.split("/")[0],
)
def test_fields_past_2_64_elements_are_refused(text):
    # Rabin's test of a degree-m modulus costs about m^3 log p: the order is
    # checked first, so these are refused before any modulus is tested
    order, modulus = text.split("/")
    with pytest.raises(FieldError) as info:
        parse_field_spec(text)
    assert str(info.value) == f"GF({order}) has more than 2^64 elements"
    # the constructor refuses it too, so every way to a field is bounded
    p, m = map(int, order.split("^"))
    with pytest.raises(FieldError, match=r"more than 2\^64 elements"):
        ext_field(p, m, [int(c) for c in modulus.split(",")])


def test_fields_up_to_2_64_elements_are_accepted():
    # x^64 + x^4 + x^3 + x + 1 over GF(2), and x^2 - 2 over GF(2^32 - 5),
    # where 2 is not a square
    assert parse_field_spec("2^64/1," + "0," * 59 + "1,1,0,1,1").order == 2**64
    spec = parse_field_spec("4294967291^2/1,0,4294967289")
    assert spec.order == 4294967291**2 < 2**64


def test_reducible_modulus_rejected():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(FieldError):
        ExtFieldSpec(2, 2, (1, 0, 1))
    with pytest.raises(FieldError):
        ExtFieldSpec(3, 2, (2, 0, 1))  # not monic
    # x^2 + 1 over GF(3) has no roots and is fine
    ExtFieldSpec(3, 2, (1, 0, 1))


def _monic_product(f, g, p):
    # f, g and the result are coefficient tuples, most significant first
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return tuple(out)


def _monics(p, degree):
    return [(1,) + rest for rest in itertools.product(range(p), repeat=degree)]


def _mobius(n):
    out = 1
    for d in range(2, n + 1):
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
    return out


@pytest.mark.parametrize(
    "p, m",
    [(2, m) for m in range(1, 9)]
    + [(3, m) for m in range(1, 6)]
    + [(5, m) for m in range(1, 4)]
    + [(7, 1), (7, 2)],
)
def test_irreducible_moduli_are_exactly_the_non_products(p, m):
    reducible = {
        _monic_product(f, g, p)
        for d in range(1, m // 2 + 1)
        for f in _monics(p, d)
        for g in _monics(p, m - d)
    }
    accepted = set()
    for modulus in _monics(p, m):
        try:
            ExtFieldSpec(p, m, modulus)
        except FieldError as exc:
            assert "reducible" in str(exc)
        else:
            accepted.add(modulus)
    # over GF(2), x^4 + x = x(x+1)(x^2+x+1) divides x^16 - x, so only
    # the rank check refuses it
    assert accepted == set(_monics(p, m)) - reducible
    # Gauss: (1/m) sum over d | m of mu(d) p^(m/d) monic irreducibles
    gauss = sum(_mobius(d) * p ** (m // d) for d in range(1, m + 1) if m % d == 0)
    assert len(accepted) * m == gauss


def test_spec_text_round_trip():
    for text in ["31", "3^2/1,2,2", "2^3/1,0,1,1", "3^3/1,0,2,1"]:
        spec = parse_field_spec(text)
        assert spec.text == text
        assert parse_field_spec(spec.text) == spec
    with pytest.raises(FieldError):
        parse_field_spec("3^2")
    with pytest.raises(FieldError):
        parse_field_spec("3^2/1,2")


_GF9_PATHS = [
    lambda: ExtFieldSpec(3, 2, (1, 2, 2)),
    lambda: ExtFieldSpec(3, 2, [4, -1, 5]),
    lambda: ext_field(3, 2),
    lambda: ext_field(3, 2, (1, 2, 2)),
    lambda: ext_field(3, 2, [1, 5, 5]),
    lambda: parse_field_spec("3^2/1,2,2"),
    lambda: parse_field_spec("3^2/1,5,5"),
    lambda: parse_field_spec("3^2/4,2,2"),
    lambda: parse_field_spec(" 3^2/1,2,2\n"),
]


def test_every_construction_path_returns_one_spec(monkeypatch):
    # one object per field, the modulus reduced mod p, whichever way it is
    # built; its elements are one object per value through every path
    gf31 = [PrimeFieldSpec, prime_field, lambda p: parse_field_spec(str(p))]
    for specs in (
        [build() for build in _GF9_PATHS],
        [build(31) for build in gf31],
        [build(2**61 - 1) for build in gf31],
    ):
        spec = specs[0]
        assert all(other is spec for other in specs)
        for other in specs:
            assert other.zero is spec.zero and other.one is spec.one
            assert other.element(7) == spec.element(7)
        if spec.order <= LOG_TABLE_LIMIT:
            elements = list(spec.elements())
            for other in specs:
                assert all(map(operator.is_, other.elements(), elements))
    assert _GF9_PATHS[0]() is GF9 and GF9.modulus == (1, 2, 2)
    assert prime_field(31) is GF31
    # a degree-1 extension is not the prime field
    assert ExtFieldSpec(31, 1, (1, 0)) is not GF31
    assert ExtFieldSpec(31, 1, (1, 0)) is ExtFieldSpec(31, 1, (32, 31))
    # whichever path builds the field first, the others find it
    for first in _GF9_PATHS:
        monkeypatch.setattr(field_module, "_SPECS", {})
        spec = first()
        assert spec is not GF9 and spec.modulus == (1, 2, 2)
        assert all(build() is spec for build in _GF9_PATHS)


def test_repeat_constructions_run_no_field_test(monkeypatch):
    # a construction with the arguments of a field that exists is one
    # lookup: no primality test and no irreducibility test
    gf8192 = (2, 13, (1,) + (0,) * 8 + (1, 1, 0, 1, 1))
    builds = [
        lambda: PrimeFieldSpec(31),
        lambda: prime_field(2**61 - 1),
        lambda: PrimeFieldSpec(4099),
        lambda: ExtFieldSpec(3, 3, (1, 0, 2, 1)),
        lambda: ExtFieldSpec(3, 3, [4, 3, 5, 7]),
        lambda: ext_field(2, 3),
        lambda: ExtFieldSpec(*gf8192),
        lambda: parse_field_spec("3^2/1,5,5"),
        lambda: parse_field_spec("2^64/1," + "0," * 59 + "1,1,0,1,1"),
    ]
    first = [build() for build in builds]
    calls = []
    prime, irreducible = field_module.is_prime, ExtFieldSpec._is_irreducible
    monkeypatch.setattr(
        field_module, "is_prime", lambda n: calls.append(n) or prime(n)
    )
    monkeypatch.setattr(
        ExtFieldSpec,
        "_is_irreducible",
        lambda spec: calls.append(spec) or irreducible(spec),
    )
    assert all(build() is spec for build, spec in zip(builds, first))
    assert calls == []
    # with the registry emptied, the same construction tests its field
    monkeypatch.setattr(field_module, "_SPECS", {})
    fresh = ExtFieldSpec(3, 3, (1, 0, 2, 1))
    assert fresh is not first[3] and calls == [3, fresh]


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: PrimeFieldSpec(30), "30 is not prime"),
        # range(2.0) raises TypeError inside Rabin's test
        (lambda: ExtFieldSpec(3, 2.0, (1, 2, 2)), TypeError),
        (lambda: prime_field(1), "1 is not prime"),
        (lambda: PrimeFieldSpec(31.0), "31.0 is not prime"),
        (lambda: prime_field(31.0), "31.0 is not prime"),
        (lambda: PrimeFieldSpec(True), "True is not prime"),
        (lambda: ExtFieldSpec(3.0, 2, (1, 2, 2)), "3.0 is not prime"),
        (lambda: ext_field(3.0, 2, (1, 2, 2)), "3.0 is not prime"),
        (lambda: ExtFieldSpec(9, 2, (1, 2, 2)), "9 is not prime"),
        (lambda: ExtFieldSpec(2**89 - 1, 2, (1, 0, 1)), "machine word"),
        (lambda: ExtFieldSpec(2, 2, (1, 0, 1)), "reducible"),
        (lambda: ExtFieldSpec(3, 2, (2, 2, 2)), "monic"),
        (lambda: ExtFieldSpec(3, 2, (1, 2)), "degree 2"),
        (lambda: ExtFieldSpec(3, 2, (1, 1, 2, 2)), "degree 2"),
        (lambda: ExtFieldSpec(3, 0, (1,)), "extension degree"),
        (lambda: ExtFieldSpec(2, 65, (1,) + (0,) * 63 + (1, 1)), "2\\^64"),
        (lambda: parse_field_spec("3^41/1," + "0," * 39 + "2,1"), "2\\^64"),
    ],
)
def test_refused_constructions_register_nothing(build, error):
    # GF(31) and GF(9) exist (the conftest builds them), and an argument
    # refused without them is refused with them
    registered = dict(field_module._SPECS)
    assert GF31 in registered.values() and GF9 in registered.values()
    kind, match = (FieldError, error) if isinstance(error, str) else (error, None)
    with pytest.raises(kind, match=match):
        build()
    assert field_module._SPECS == registered
    assert all(field_module._SPECS[key] is spec for key, spec in registered.items())


def test_racing_constructions_get_one_spec(monkeypatch):
    # threads that race to build one field each build it, and all of them
    # get the one object registered first; a race is not certain to
    # interleave, so it runs a few rounds, each on an empty registry
    count = 8

    def race():
        monkeypatch.setattr(field_module, "_SPECS", {})
        barrier = threading.Barrier(count)
        got = []

        def build():
            barrier.wait(timeout=10)
            got.append(ExtFieldSpec(3, 3, (1, 0, 2, 1)))

        threads = [threading.Thread(target=build) for _ in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == count and all(spec is got[0] for spec in got)
        assert list(field_module._SPECS.values()) == [got[0]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            race()
    finally:
        sys.setswitchinterval(interval)


# -- arithmetic examples ----------------------------------------------------


def test_gf31_addition_wraps():
    a, b = GF31.element(29), GF31.element(5)
    assert a + b == GF31.element(3)


def test_gf31_inverse_matches_brute_force():
    # oracle: search for the inverse of 5 exhaustively
    brute = next(x for x in range(1, 31) if 5 * x % 31 == 1)
    assert brute == 25
    assert GF31.element(5).inverse() == GF31.element(25)
    assert GF31.element(5) * GF31.element(25) == GF31.one


def test_gf9_examples():
    a = GF9.generator
    assert a + (a + 1) == GF9.element((1, 2))  # 2a+1
    assert a * a == a + 1  # modulus x^2+2x+2 gives a^2 = a+1
    with pytest.raises(FieldError):
        GF9.zero.inverse()


def test_additive_inverse_exhaustive():
    for spec in (GF31, GF9, GF4):
        for el in spec.elements():
            assert el + (-el) == spec.zero


def test_power_identities_exhaustive():
    for spec in (GF4, GF9, GF8):
        q = spec.order
        for el in spec.elements():
            assert el**q == el
            if el:
                assert el ** (q - 1) == spec.one


def test_basis_elements():
    assert basis_elements(GF9) == [GF9.one, GF9.generator]
    assert basis_elements(prime_field(3)) == [prime_field(3).one]
    gens = basis_elements(GF8)
    assert gens == [GF8.one, GF8.generator, GF8.generator**2]


def test_ext_spec_degenerates_to_prime():
    gf3 = ExtFieldSpec(3, 1, (1, 0))  # modulus x
    a, b = gf3.element(2), gf3.element(2)
    assert a * b == gf3.element(1)
    assert a + b == gf3.element(1)
    assert (a ** 2) == gf3.element(1)


def test_mismatched_fields_raise():
    with pytest.raises(FieldError):
        GF31.element(1) + GF9.element(1)


def test_element_literals():
    assert parse_element("2*a+1", GF9) == GF9.element((1, 2))
    assert parse_element("a^3", GF9) == GF9.generator**3
    assert parse_element("7", GF31) == GF31.element(7)
    with pytest.raises(FieldError):
        parse_element("a", GF31)
    with pytest.raises(FieldError):
        parse_element("b+1", GF9)


def test_element_literals_ignore_whitespace():
    assert parse_element("2\t* a\n+ 1", GF9) == GF9.element((1, 2))
    assert parse_element("\ta", GF9) == GF9.generator
    assert parse_element(" 1\n2 ", GF31) == GF31.element(12)
    for text in ("\t", " \n "):
        with pytest.raises(FieldError, match="empty element literal"):
            parse_element(text, GF9)


def test_element_formatting():
    assert str(GF9.element((2, 2))) == "2*a+2"
    assert str(GF9.element((0, 1))) == "a"
    assert str(GF9.zero) == "0"
    assert str(GF31.element(27)) == "27"
    assert str(GF8.element((1, 0, 2 % 2))) == "1"


# -- discrete-log tables against the convolution -----------------------------


def reference_powers(spec, a, count):
    """a^0..a^count by repeated convolution."""
    out = [spec.one.coeffs]
    for _ in range(count):
        out.append(spec._convolve(out[-1], a))
    return out


@pytest.mark.parametrize(
    "spec",
    [
        GF4,
        GF8,
        GF9,
        GF27,
        ExtFieldSpec(3, 2, (1, 0, 1)),  # x^2+1: the basis generator has order 4
        ExtFieldSpec(5, 1, (1, 3)),
    ],
    ids=lambda spec: spec.text,
)
def test_log_tables_match_the_convolution(spec):
    q = spec.order
    elements = [spec.from_index(i) for i in range(q)]
    for a in elements:
        for b in elements:
            assert (a * b).coeffs == spec._convolve(a.coeffs, b.coeffs)
    assert spec._tables is not None
    one = spec.one.coeffs
    for a in elements[1:]:
        [inverse] = [
            b.coeffs
            for b in elements
            if spec._convolve(a.coeffs, b.coeffs) == one
        ]
        assert a.inverse().coeffs == inverse
        positive = reference_powers(spec, a.coeffs, 2 * q)
        negative = reference_powers(spec, inverse, q)
        for e in range(-q, 2 * q + 1):
            assert (a**e).coeffs == (positive[e] if e >= 0 else negative[-e])
    zero = spec.zero
    assert zero**0 == spec.one
    for e in range(1, 2 * q + 1):
        assert zero**e == zero
    for e in range(-q, 0):
        with pytest.raises(FieldError):
            zero**e
    with pytest.raises(FieldError):
        zero.inverse()


def test_log_tables_are_built_at_construction():
    spec = ExtFieldSpec(2, 3, (1, 1, 0, 1))
    assert spec._tables is not None
    a = spec.generator
    assert a.log is not None and a + a is spec.zero
    assert a * a is parse_element("a^2", spec)


def test_fields_above_the_table_limit_keep_the_convolution():
    # x^13+x^4+x^3+x+1 over GF(2): 8192 elements
    spec = ExtFieldSpec(2, 13, (1,) + (0,) * 8 + (1, 1, 0, 1, 1))
    q = spec.order
    assert q > LOG_TABLE_LIMIT
    rng = random.Random(13)
    for _ in range(100):
        a, b = spec.random_element(rng, nonzero=True), spec.random_element(rng)
        assert (a * b).coeffs == spec._convolve(a.coeffs, b.coeffs)
        assert a * a.inverse() == spec.one
        e = rng.randrange(-q, 2 * q)
        assert a**e == a ** (e % (q - 1))
        assert a**e * a ** (-e) == spec.one
    assert [(a**e).coeffs for e in range(21)] == reference_powers(spec, a.coeffs, 20)
    assert spec.zero**0 == spec.one
    with pytest.raises(FieldError):
        spec.zero**-1
    with pytest.raises(FieldError):
        spec.zero.inverse()
    assert spec._tables is None


# x^13+x^4+x^3+x+1 over GF(2), and two prime fields, all above the limit
ABOVE_THE_LIMIT = [
    ExtFieldSpec(2, 13, (1,) + (0,) * 8 + (1, 1, 0, 1, 1)),
    prime_field(4099),
    prime_field(2**61 - 1),
]


@pytest.mark.parametrize("spec", ABOVE_THE_LIMIT, ids=repr)
def test_sums_and_differences_above_the_table_limit(spec):
    # a difference is the sum with the negation; each matches coordinate
    # arithmetic, with element and int operands on either side
    assert spec.order > LOG_TABLE_LIMIT and spec._tables is None
    p = spec.p
    rng = random.Random(spec.order)

    def coords(op, a, b):
        return tuple(op(x, y) % p for x, y in zip(a, b))

    for _ in range(100):
        a, b = spec.random_element(rng), spec.random_element(rng)
        k = rng.randrange(-3 * p, 3 * p)
        kc = spec.element(k).coeffs
        assert (a + b).coeffs == coords(int.__add__, a.coeffs, b.coeffs)
        assert (a - b).coeffs == coords(int.__sub__, a.coeffs, b.coeffs)
        assert (-a).coeffs == coords(int.__sub__, spec.zero.coeffs, a.coeffs)
        assert (a - k).coeffs == coords(int.__sub__, a.coeffs, kc)
        assert (k - a).coeffs == coords(int.__sub__, kc, a.coeffs)
        assert (a + k).coeffs == (k + a).coeffs == coords(int.__add__, a.coeffs, kc)
        assert a - a == spec.zero and (a - b) + b == a
        assert all(v.log is None for v in (a + b, a - b, -a, a - k, k - a))


@pytest.mark.parametrize("spec", ABOVE_THE_LIMIT[1:], ids=repr)
def test_prime_powers_above_the_table_limit(spec):
    # every power, negative ones through the inverse, matches pow mod p
    p = spec.p
    rng = random.Random(p)
    for _ in range(100):
        a = spec.random_element(rng, nonzero=True)
        for e in [0, 1, -1, p - 2, 2 - p, rng.randrange(-4 * p, 4 * p)]:
            assert (a**e).coeffs == (pow(a.coeffs[0], e, p),)
    with pytest.raises(FieldError):
        spec.zero**-1
    assert spec.zero**5 == spec.zero and spec.zero**0 == spec.one


# -- interned table fields against coordinate arithmetic ----------------------


def _first_irreducible(p, m):
    for rest in itertools.product(range(p), repeat=m):
        try:
            return ExtFieldSpec(p, m, (1,) + rest)
        except FieldError:
            pass


def _table_fields():
    """A fresh spec for every field of at most 32 elements, prime fields
    included, plus a degree-1 extension."""
    specs = [PrimeFieldSpec(p) for p in range(2, 33) if is_prime(p)]
    orders = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)]
    specs += [_first_irreducible(p, m) for p, m in orders]
    return specs + [ExtFieldSpec(7, 1, (1, 4))]


def _built_again(spec):
    """The spec that a construction with spec's own arguments returns."""
    if isinstance(spec, PrimeFieldSpec):
        return PrimeFieldSpec(spec.p)
    return ExtFieldSpec(spec.p, spec.m, spec.modulus)


@pytest.mark.parametrize("spec", _table_fields(), ids=lambda spec: spec.text)
def test_table_arithmetic_matches_coordinate_arithmetic(spec):
    q, p = spec.order, spec.p
    coords = [spec.from_index(i).coeffs for i in range(q)]
    assert spec._tables is not None
    one = spec.one.coeffs
    interned = [spec.element(c) for c in coords]

    def same(result, expected):
        assert result.coeffs == expected
        assert result is spec.element(expected) and result.log is not None

    inverse = {
        a: next(b for b in coords if spec._convolve(a, b) == one) for a in coords[1:]
    }
    for a, x in zip(coords, interned):
        same(-x, tuple((-c) % p for c in a))
        for b, y in zip(coords, interned):
            same(x + y, tuple((c + d) % p for c, d in zip(a, b)))
            same(x - y, tuple((c - d) % p for c, d in zip(a, b)))
            same(x * y, spec._convolve(a, b))
            if b in inverse:
                same(x / y, spec._convolve(a, inverse[b]))
            else:
                with pytest.raises(FieldError):
                    x / y
        if a in inverse:
            same(x.inverse(), inverse[a])
            power = spec.one.coeffs
            for e in range(2 * q + 1):
                same(x**e, power)
                if e <= q:
                    same(x**-e, _coords_power(spec, inverse[a], e))
                power = spec._convolve(power, a)
    zero = interned[0]
    same(zero**0, one)
    for e in range(1, 2 * q + 1):
        same(zero**e, zero.coeffs)
    with pytest.raises(FieldError):
        zero.inverse()
    # a construction with equal arguments is this spec, and hands out the
    # same interned elements
    again = _built_again(spec)
    assert again is spec
    assert all(again.element(c) is x for c, x in zip(coords, interned))


def _handed_out(spec):
    """Every kind of element a spec hands out without arithmetic by the
    caller: constants, coercions, enumeration, draws and parse results."""
    yield spec.zero
    yield spec.one
    yield spec.element(spec.p + 3)
    yield spec.element([1 + i for i in range(spec.m)])
    yield spec.from_index(spec.order - 1)
    yield from spec.elements()
    rng = random.Random(spec.order)
    yield spec.random_element(rng)
    yield spec.random_element(rng, nonzero=True)
    if isinstance(spec, ExtFieldSpec):
        yield spec.generator
    literal = "2*a^2+a+1" if spec.m > 1 else "2+3"
    yield parse_element(literal, spec)
    yield from basis_elements(spec)
    text = f"({literal})*x1 - 3*x2^2 + 5 - x1*x2"
    yield from (c for _, c in parse_poly(text, spec).terms())


# x^13+x^4+x^3+x+1 over GF(2): 8192 elements, above the limit
_GF8192 = ExtFieldSpec(2, 13, (1,) + (0,) * 8 + (1, 1, 0, 1, 1))


@pytest.mark.parametrize(
    "spec",
    _table_fields() + [PrimeFieldSpec(4093), PrimeFieldSpec(4099), _GF8192],
    ids=lambda spec: spec.text,
)
def test_fresh_specs_hand_out_interned_elements(spec, monkeypatch):
    # with the registry emptied, the construction builds a new spec object
    # in which nothing has computed yet
    monkeypatch.setattr(field_module, "_SPECS", {})
    fresh = _built_again(spec)
    assert fresh is not spec and list(field_module._SPECS.values()) == [fresh]
    spec = fresh
    tabled = spec.order <= LOG_TABLE_LIMIT
    for el in _handed_out(spec):
        assert el.spec is spec and (el.log is not None) == tabled
        if tabled:
            assert el is spec.element(el.coeffs)
    assert (spec._tables is not None) == tabled


def _coords_power(spec, a, e):
    out = spec.one.coeffs
    for _ in range(e):
        out = spec._convolve(out, a)
    return out


def test_interned_elements_are_shared():
    spec = ExtFieldSpec(3, 2, (1, 2, 2))
    before = spec.element((1, 2))
    assert before.log is not None and spec.element((1, 2)) is before
    a = spec.generator
    assert a is spec.element((0, 1)) and a * spec.one is a
    assert spec.element((1, 2)) is spec.element((1, 2)) is spec.from_index(7)
    assert spec.element(before) is spec.element(1) + spec.element((0, 2))
    assert spec.zero is spec.element(0) and spec.one is spec.element(1)
    for x in spec.elements():
        for result in (x + a, x - a, x * a, -x, x**5, a / (x or a), x + 1, 2 * x):
            assert result is spec.element(result.coeffs)
    for again in (_built_again(spec), ExtFieldSpec(3, 2, [4, 5, 2]), ext_field(3, 2)):
        assert again is spec and again.element((1, 2)) is before


def test_equal_specs_and_int_operands_mix():
    shared = ext_field(3, 3)
    again = ExtFieldSpec(3, 3, shared.modulus)
    assert again is shared and again == shared and hash(again) == hash(shared)
    x, y = shared.from_index(14), again.from_index(22)
    assert x.log is not None and y.log is not None and y.spec is shared
    for a, b in [(x, y), (y, x)]:
        assert a + b == b + a == shared.element((0, 0, 0)) + x + y
        assert (a * b).coeffs == shared._convolve(x.coeffs, y.coeffs)
        assert a - b == -(b - a) and (a / b) * b == a
        assert (a + b).spec is shared
    assert again.element(x) is x and shared.element(y) is shared.from_index(22)
    assert again.from_index(22) ** 2 is shared.from_index(22) ** 2
    assert {shared.from_index(5): 1}[again.from_index(5)] == 1
    a = shared.generator
    assert a + 1 == 1 + a == shared.element((1, 1, 0))
    assert 2 * a == a * 2 == shared.element((0, 2, 0))
    assert 1 - a == shared.element((1, 2, 0)) and a - 1 == shared.element((2, 1, 0))
    assert a == shared.element((0, 1, 0)) and shared.element(4) == 1
    with pytest.raises(FieldError, match="different fields"):
        a + GF9.generator
    with pytest.raises(FieldError, match="different field"):
        shared.element(GF9.one)


@pytest.mark.parametrize(
    "spec",
    [GF4, GF8, GF9, GF27, ExtFieldSpec(2, 13, (1,) + (0,) * 8 + (1, 1, 0, 1, 1))],
    ids=lambda spec: spec.text,
)
def test_equal_elements_of_distinct_equal_specs_hash_equal(spec):
    # equal constructions are one spec object, so there are no distinct
    # equal specs: an element of either construction is the same element
    # (one object in a table field), hashed by its coordinates alone
    again = _built_again(spec)
    assert again is spec
    rng = random.Random(spec.order)
    indices = range(spec.order)
    if spec.order > 27:
        indices = rng.sample(indices, 50)
    table = {}
    for idx in indices:
        el, other = spec.from_index(idx), again.from_index(idx)
        assert other.spec is spec and el == other
        assert (el is other) == (spec.order <= LOG_TABLE_LIMIT)
        assert hash(el) == hash(other) == hash(el.coeffs)
        table[el] = idx
    assert all(table[again.from_index(idx)] == idx for idx in indices)


def test_equal_coordinates_of_unequal_fields_hash_equal_and_differ():
    other = ExtFieldSpec(2, 3, (1, 1, 0, 1))  # x^3 + x^2 + 1, GF8's is x^3 + x + 1
    assert other != GF8
    table = {el: True for el in GF8.elements()}
    for idx in range(8):
        el = other.from_index(idx)
        assert hash(el) == hash(GF8.from_index(idx)) and el != GF8.from_index(idx)
        assert el not in table


# -- field axioms as properties ---------------------------------------------


@given(spec_and_elements(3))
def test_field_axioms(data):
    spec, i, j, k = data
    a, b, c = spec.from_index(i), spec.from_index(j), spec.from_index(k)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if b:
        assert (a * b) / b == a


@given(spec_and_elements(2))
def test_frobenius(data):
    spec, i, j = data
    a, b = spec.from_index(i), spec.from_index(j)
    assert (a + b) ** spec.p == a**spec.p + b**spec.p


@given(spec_and_elements(1))
def test_unit_group_order(data):
    spec, i = data
    a = spec.from_index(i)
    if a:
        assert a ** (spec.order - 1) == spec.one


@pytest.mark.parametrize(
    "parse,template,position",
    [
        (parse_field_spec, "{}", 0),
        (parse_field_spec, " {}^2/1,0,1", 1),
        (parse_field_spec, "3^{}/1,0,1", 2),
        (parse_field_spec, " 3^2/1,{},1", 7),
        (lambda text: parse_element(text, GF31), "2 + {}", 4),
        (lambda text: parse_element(text, GF9), "{}*a + 1", 0),
        (lambda text: parse_element(text, GF9), "2*a ^ {}", 6),
    ],
)
def test_integers_past_the_digit_limit_are_field_errors(
    long_digits, parse, template, position
):
    # Python refuses to convert more than 4,300 digits with its own
    # ValueError; field and element text raise FieldError at the position
    # of the integer instead
    with pytest.raises(FieldError) as info:
        parse(template.format(long_digits))
    assert info.value.position == position
    assert str(info.value) == (
        f"integer of 5000 digits is too long (at position {position})"
    )
