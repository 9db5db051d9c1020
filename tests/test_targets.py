import dataclasses
import gc
import random
import weakref
import itertools
from itertools import product
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from gfdelta.attack import (
    CONFIRM_POINTS,
    AttackError,
    BlackBox,
    BudgetExhausted,
    _charged_oracle,
    candidate_terms,
    confirm_key,
    online,
    preprocess,
)
from gfdelta.diff import _term_grid
from gfdelta.field import prime_field
from gfdelta.poly import MultiPoly, all_points
import gfdelta.targets as targets
from gfdelta.targets import (
    FOLD_TERMS,
    KINDS,
    PlantedConfig,
    PlantedTarget,
    TargetError,
    ToyCipher,
    ToyCipherParams,
    _compile,
    _PublicMonomials,
    load_target,
    make_planted,
    save_target,
)

from conftest import evaluate_ints
from oracles import interpolate

GF3 = prime_field(3)


# -- planted targets ---------------------------------------------------------------


def test_planted_is_seed_deterministic():
    a = make_planted(31, 3, 4, 6, 8, seed=42)
    b = make_planted(31, 3, 4, 6, 8, seed=42)
    assert a.poly == b.poly and a.key == b.key
    assert a.planted_terms == b.planted_terms
    c = make_planted(31, 3, 4, 6, 8, seed=43)
    assert c.poly != a.poly


def test_planted_blackbox_agrees_with_symbolic(rng):
    target = make_planted(31, 3, 3, 5, 6, seed=7)
    bb = target.blackbox()
    spec = target.spec
    for _ in range(1000):
        public = [spec.random_element(rng) for _ in range(target.n_pub)]
        secret = [spec.random_element(rng) for _ in range(target.n_sec)]
        assert bb.evaluate(public, secret) == target.poly.evaluate(
            list(public) + list(secret)
        )


def test_planted_structure():
    target = make_planted(5, 2, 3, 4, 6, seed=1)
    deg = target.poly.degrees()
    assert deg.total == 4
    assert len(target.planted_terms) == 3
    for term in target.planted_terms:
        assert sum(term) == 3  # multiplicity deg-1 anchors


def test_planted_rejects_infeasible_profiles():
    with pytest.raises(TargetError):
        make_planted(5, 0, 2, 4, 4, seed=1)  # no public variables
    with pytest.raises(TargetError):
        make_planted(5, 1, 2, 6, 4, seed=1)  # multiplicity 5 exceeds p-1
    with pytest.raises(TargetError):
        make_planted(5, 1, 3, 4, 4, seed=1)  # one anchor cannot serve 3 keys
    with pytest.raises(TargetError):
        make_planted(5, 2, 0, 4, 4, seed=1)  # no secrets to recover


def test_forced_anchor_is_found_by_preprocessing():
    # with one public variable the only anchor is v1^(d-1)
    target = make_planted(7, 1, 1, 4, 3, seed=11)
    assert target.planted_terms == ((3,),)
    bb = target.blackbox()
    result = preprocess(bb, budget=10**5, max_total_mult=3, seed=2)
    assert result.status == "complete"
    terms = [r.term for r in result.records + result.dependent]
    assert (3,) in terms
    outcome = online(target.online_oracle(), result.records, target.spec, 1)
    assert outcome.status == "recovered" and outcome.key == target.key


@given(
    p=st.sampled_from([5, 7, 31]),
    n_pub=st.integers(1, 3),
    data=st.data(),
)
def test_planted_kernel_hoisting_matches_symbolic(p, n_pub, data):
    # every way of handing the black box a secret must still give the
    # symbolic value
    n_sec = data.draw(st.integers(1, n_pub))  # at least n_sec anchors exist
    target = make_planted(
        p,
        n_pub,
        n_sec,
        data.draw(st.integers(2, 5)),
        data.draw(st.integers(0, 10)),
        seed=data.draw(st.integers(0, 10**6)),
    )
    spec = target.spec
    rng = random.Random(data.draw(st.integers(0, 10**6)))

    def vector(n):
        return tuple(spec.random_element(rng) for _ in range(n))

    bb = target.blackbox()

    def check(secret):
        public = vector(n_pub)
        assert bb.evaluate(public, secret) == target.poly.evaluate(
            public + tuple(secret)
        )

    first = vector(n_sec)
    for _ in range(3):
        check(first)  # one tuple for several probes, as in a grid
    second = vector(n_sec)
    check(second)
    check(tuple(list(first)))  # equal values, new tuple object
    as_list = list(second)
    check(as_list)
    as_list[0] = as_list[0] + spec.one  # mutated in place between calls
    check(as_list)
    check(first)

    oracle = target.online_oracle()
    for _ in range(3):
        public = vector(n_pub)
        assert oracle(public) == bb.evaluate(public, target.key)
    assert oracle.evaluations == 3


def reference_fold(parts, secret, p):
    """One public monomial's coefficient at a secret, as a loop: its terms
    (coeff, secret factors) summed mod p."""
    coeff = 0
    for c, factors in parts:
        for j, e in factors:
            x = secret[j]
            if x == 0:
                c = 0
                break
            c = c * x if e == 1 else c * pow(x, e, p)
        coeff += c
    return coeff % p


def _small_planted(p, data):
    """A planted target over GF(p) with 1-3 publics, 1-4 secrets, degree
    2-5 and 0-12 extra terms, as far as p admits."""
    n_pub = data.draw(st.integers(1, 3))
    degree = data.draw(st.integers(2, min(5, n_pub * (p - 1) + 1)))
    anchors = len(_PublicMonomials(n_pub, n_pub, degree - 1, p - 1))
    n_sec = data.draw(st.integers(1, min(4, anchors)))
    return make_planted(
        p,
        n_pub,
        n_sec,
        degree,
        data.draw(st.integers(0, 12)),
        seed=data.draw(st.integers(0, 10**6)),
    )


@given(p=st.sampled_from([2, 3, 31, 2**61 - 1]), data=st.data())
def test_compiled_coefficients_match_the_loop_fold(p, data):
    target = _small_planted(p, data)
    n_sec = target.n_sec
    residue = st.one_of(st.just(0), st.integers(0, p - 1))
    secrets = data.draw(
        st.lists(st.tuples(*[residue] * n_sec), min_size=1, max_size=4)
    )
    for secret in secrets:
        assert [target._fold(g)(secret) for g in range(len(target._groups))] == [
            reference_fold(parts, secret, p) for _, parts in target._groups
        ]


@pytest.mark.parametrize("slice_terms", [1, 2, 5])
def test_a_group_larger_than_one_slice_matches_the_loop_fold(monkeypatch, slice_terms):
    # a group of more than FOLD_TERMS terms compiles as a sum of slices
    monkeypatch.setattr(targets, "FOLD_TERMS", slice_terms)
    target = make_planted(31, 3, 4, 5, 40, seed=3)
    assert max(len(parts) for _, parts in target._groups) > 2 * slice_terms
    rng = random.Random(slice_terms)
    secrets = [tuple(rng.randrange(31) for _ in range(4)) for _ in range(3)]
    secrets += [(0, 1, 0, 30), (0, 0, 0, 0)]
    for secret in secrets:
        assert [target._fold(g)(secret) for g in range(len(target._groups))] == [
            reference_fold(parts, secret, 31) for _, parts in target._groups
        ]


def reference_table(target, points):
    """The planted grid stage as a loop: per point, each group's public
    monomial mod p, zero as soon as a factor is."""
    p = target.spec.p
    table = []
    for point in points:
        row = []
        for factors, _ in target._groups:
            value = 1
            for i, e in factors:
                v = point[i]
                if not v:
                    value = 0
                    break
                value = value * v if e == 1 else value * pow(v, e, p)
            row.append(value % p)
        table.append(tuple(row))
    return table


class _Zero(int):
    """A zero coordinate that refuses arithmetic: a table that multiplies
    it spends a product on a monomial its guard already knows is zero."""

    def _refuse(self, *args):
        raise AssertionError("arithmetic on a zero coordinate")

    __mul__ = __rmul__ = __mod__ = __pow__ = __rpow__ = _refuse


@given(p=st.sampled_from([2, 3, 31, 2**61 - 1]), data=st.data())
def test_planted_grid_stage_matches_symbolic_on_zero_heavy_batches(p, data):
    # superpoly grids hold the publics outside their term at zero; the
    # table, the live groups and the answers must match the symbolic
    # polynomial on each grid, a replay of several, repeated points and
    # the empty batch
    target = _small_planted(p, data)
    spec, n_pub, n_sec = target.spec, target.n_pub, target.n_sec
    multiplicity = st.integers(0, min(2, p - 1))
    terms = data.draw(
        st.lists(st.tuples(*[multiplicity] * n_pub), min_size=1, max_size=3)
    )
    grids = [_term_grid(spec, term).residues for term in terms]
    replay = tuple(pt for grid in grids for pt in grid)
    repeated = data.draw(st.lists(st.sampled_from(replay), max_size=8))
    residue = st.one_of(st.just(0), st.integers(0, p - 1))
    secrets = data.draw(
        st.lists(st.tuples(*[residue] * n_sec), min_size=1, max_size=3)
    )

    def symbolic(point, secret):
        return int(target.poly.evaluate([spec.element(v) for v in point + secret]))

    for points in grids + [replay, repeated, ()]:
        table = reference_table(target, points)
        assert target._tabulate(points) == table
        poisoned = [tuple(v or _Zero() for v in pt) for pt in points]
        assert target._tabulate(poisoned) == table
        expected = [[symbolic(pt, secret) for pt in points] for secret in secrets]
        assert target._on_grid(points)(secrets) == expected


@pytest.mark.parametrize("p", [2, 3, 31, 2**61 - 1])
def test_out_of_range_publics_give_the_loop_residues(p):
    # ints outside 0..p-1 reach a kernel only when called directly; each
    # tabulator gives what the loops it replaced gave, so the answers are
    # those at the reduced points
    values = [0, 1, p - 1, p, 2 * p + 1, -1]
    points = list(product(values, repeat=3))
    reduced = [tuple(v % p for v in pt) for pt in points]
    rng = random.Random(p)
    secrets = [tuple(rng.randrange(p) for _ in range(2)) for _ in range(2)]
    planted = make_planted(p, 3, 2, 3, 8, seed=5)
    assert planted._tabulate(points) == reference_table(planted, points)
    assert planted._on_grid(points)(secrets) == planted._on_grid(reduced)(secrets)
    for rounds, width in [(0, 2), (1, 3), (2, 2), (3, 5)]:
        cipher = ToyCipher(ToyCipherParams(p, rounds, width, 3, 2, 5))
        assert cipher._load(points) == reference_load(cipher, points)
        assert cipher._on_grid(points)(secrets) == [
            [reference_encrypt(cipher, pt, secret) for pt in points]
            for secret in secrets
        ]


@pytest.mark.parametrize("p", [2, 3, 31, 2**61 - 1])
def test_out_of_range_secrets_give_the_reduced_answers(p):
    # ints outside 0..p-1 reach a secret stage only when it is called
    # directly; the planted coefficients and the key constants each toy
    # chunk derives reduce them, so the answers are those at the reduced
    # secret (at p = 2^61 - 1 a key constant is a sum of products past 2^122)
    values = [0, 1, p - 1, p, 2 * p + 1, -1]
    secrets = list(product(values, repeat=2))
    reduced = [tuple(v % p for v in secret) for secret in secrets]
    rng = random.Random(p)
    points = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(4)]
    planted = make_planted(p, 3, 2, 3, 8, seed=5)
    assert planted._on_grid(points)(secrets) == planted._on_grid(points)(reduced)
    for rounds, width in [(0, 2), (1, 3), (2, 2), (3, 5)]:
        cipher = ToyCipher(ToyCipherParams(p, rounds, width, 3, 2, 5))
        assert cipher._on_grid(points)(secrets) == [
            [reference_encrypt(cipher, pt, secret) for pt in points]
            for secret in reduced
        ]


# (p, live groups, slot bytes): len(live) * (p - 1)^2 on each side of 2^16,
# 2^32 and 2^64, exactly at 2^16 (p = 257) and 2^32 (p = 65537), and wide
# slots up to the largest prime below 2^63
PACKED_CASES = [
    (2, 4, 2),
    (3, 1, 2),
    (127, 4, 2),
    (131, 4, 4),
    (251, 1, 2),
    (257, 1, 4),
    (32749, 4, 4),
    (32771, 4, 8),
    (65521, 1, 4),
    (65537, 1, 8),
    (2**31 - 1, 4, 8),
    (2147483659, 4, 9),
    (4294967291, 1, 8),
    (4294967311, 1, 9),
    (2**61 - 1, 4, 16),
    (2**63 - 25, 4, 16),
]


def _packed_target(p, groups):
    """A planted target over GF(p) with 3 publics, 2 secrets and `groups`
    public monomials of odd degree, each -1 at the public point (-1, -1, -1);
    each coefficient is (p - 1)*s0 plus c*s1^2, so at the secret (1, 0) every
    live product is (p - 1)^2 and a slot holds the bound len(live)*(p - 1)^2."""
    spec = prime_field(p)
    publics = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)][:groups]
    rng = random.Random(p)
    terms = {}
    for pub in publics:
        terms[pub + (1, 0)] = spec.element(p - 1)
        terms[pub + (0, 2)] = spec.element(rng.randrange(1, p))
    poly = MultiPoly(spec, 5, terms)
    key = (spec.zero, spec.zero)
    return PlantedTarget(PlantedConfig(p, 3, 2, 5, 0, 0), poly, key, tuple(publics))


@pytest.mark.parametrize("p, groups, width", PACKED_CASES)
@settings(max_examples=10)
@given(data=st.data())
def test_packed_secret_stage_matches_symbolic(p, groups, width, data):
    # the packed columns must give poly.evaluate on empty, one-point and
    # term-grid batches, at batches of 0, 1 and several secrets; the
    # all-(p - 1) point at the secret (1, 0) fills every slot to the bound
    # that sets its width, so a slot one width too narrow carries
    bound = groups * (p - 1) ** 2
    assert width == next(
        (w for w in (2, 4, 8) if bound < 2 ** (8 * w)), (bound.bit_length() + 7) // 8
    )
    target = _packed_target(p, groups)
    spec = target.spec
    top = (p - 1,) * 3
    term = data.draw(st.tuples(*[st.integers(0, min(2, p - 1))] * 3))
    grid = _term_grid(spec, term).residues
    residue = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    batches = [(), (top,), grid, grid + (top,)]
    batches += [(data.draw(st.tuples(residue, residue, residue)),)]
    drawn = data.draw(st.lists(st.tuples(residue, residue), max_size=3))
    for secrets in [[], [(0, 0)], [(1, 0)], [(0, 0), (1, 0)] + drawn]:
        for points in batches:
            expected = [
                [
                    int(target.poly.evaluate([spec.element(v) for v in pt + secret]))
                    for pt in points
                ]
                for secret in secrets
            ]
            assert target._on_grid(points)(secrets) == expected
    [[value]] = target._on_grid((top,))([(1, 0)])
    assert value == groups % p


def test_tabulators_are_compiled_with_no_names():
    # built on first use, and the generated source can read no builtin; the
    # toy's rounds, key schedule included, form two chunks at width 50
    planted = make_planted(31, 3, 4, 5, 12, seed=3)
    toy = ToyCipher(ToyCipherParams(7, 4, 50, 4, 4, 1))
    assert "_tabulate" not in vars(planted)
    assert "_load" not in vars(toy) and "_chunks" not in vars(toy)
    chunks = [chunk for chunk, _, _ in toy._chunks]
    assert len(chunks) == 2
    for compiled in [planted._tabulate, toy._load] + chunks:
        assert compiled.__globals__ == {"__builtins__": {}}
        for name in ["len", "sum", "pow", "print", "__import__"]:
            with pytest.raises(NameError, match=name):
                eval(name, compiled.__globals__)


@given(p=st.sampled_from([2, 5, 31]), data=st.data())
def test_a_group_is_compiled_when_a_grid_first_makes_it_live(p, data):
    n_pub = data.draw(st.integers(1, 3))
    target = make_planted(
        p,
        n_pub,
        1,
        data.draw(st.integers(2, min(5, n_pub * (p - 1) + 1))),
        data.draw(st.integers(0, 12)),
        seed=data.draw(st.integers(0, 10**6)),
    )
    assert target._folds == [None] * len(target._groups)
    assert "_tabulate" not in vars(target)
    residues = st.tuples(*[st.integers(0, p - 1)] * n_pub)
    live = set()
    for _ in range(3):
        points = data.draw(st.lists(residues, max_size=4))
        target._on_grid(points)
        live |= {
            g
            for g, (factors, _) in enumerate(target._groups)
            if any(all(pt[i] for i, _ in factors) for pt in points)
        }
        assert {g for g, f in enumerate(target._folds) if f} == live


def test_generated_code_sees_no_other_builtins():
    # the helper both target kinds compile through hands the source only
    # the names it is given
    names = {"pow": pow, "sum": sum}
    assert _compile("def f(s):\n    return sum(s) % pow(2, 3)\n", names)((5, 6)) == 3
    for name in ["open", "len", "print", "__import__", "getattr"]:
        with pytest.raises(NameError, match=name):
            _compile(f"def f(s):\n    return {name}(s)\n", names)(())
    with pytest.raises(ImportError):
        _compile("def f():\n    import os\n", {})()


def test_largest_planted_target_compiles_and_agrees_with_symbolic():
    # the largest shape a target file admits has a public-monomial group of
    # 3,964 terms, which a compiled chain of '+' could not take
    target = make_planted(31, 8, 64, 12, 10_000, seed=1)
    assert max(len(parts) for _, parts in target._groups) == 3964
    spec, rng = target.spec, random.Random(0)
    points = [tuple(rng.randrange(1, 31) for _ in range(8)) for _ in range(3)]
    secrets = [tuple(rng.randrange(31) for _ in range(64)) for _ in range(2)]
    secrets.append(tuple(0 if j % 3 else v for j, v in enumerate(secrets[0])))

    def symbolic(point, secret):
        return int(target.poly.evaluate([spec.element(v) for v in point + secret]))

    got = target.blackbox().stage(points)(secrets)
    assert got == [[symbolic(pt, s) for pt in points] for s in secrets]
    # the big group compiles in slices, which bound the compiler's memory
    big = max(range(len(target._groups)), key=lambda g: len(target._groups[g][1]))
    fold = target._folds[big]
    assert len(fold.__globals__) == 1 + -(-3964 // FOLD_TERMS)
    for secret in secrets:
        assert fold(secret) == reference_fold(target._groups[big][1], secret, 31)


def test_compiled_code_is_freed_with_its_target():
    # generated functions hold no reference cycle through their globals, so
    # a target rebuilt for every run frees the old one's code at once, not
    # at the next garbage collection
    gc.disable()
    try:
        planted = make_planted(31, 3, 4, 5, 12, seed=3)
        planted._on_grid([(1, 2, 3)])
        toy = ToyCipher(ToyCipherParams(7, 4, 40, 4, 4, 1))
        refs = [weakref.ref(f) for f in planted._folds if f]
        refs += [weakref.ref(f) for f, _, _ in toy._chunks]
        refs += [weakref.ref(planted._tabulate), weakref.ref(toy._load)]
        assert len(refs) > 4
        del planted, toy
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


# -- toy cipher ---------------------------------------------------------------------


def reference_encrypt(cipher, public, secret):
    """The toy cipher's round function as one straight-line evaluation."""
    p = cipher.config.p
    w = cipher.config.width
    state = [public[i] % p if i < len(public) else 0 for i in range(w)]
    state = [
        (s + sum(k * x for k, x in zip(row, secret)) + c) % p
        for s, row, c in zip(state, cipher.whiten, cipher.whiten_const)
    ]
    for mix, keys, consts in zip(
        cipher.round_mix, cipher.round_key, cipher.round_const
    ):
        affine = [
            (
                sum(a * s for a, s in zip(row, state))
                + sum(k * x for k, x in zip(krow, secret))
                + c
            )
            % p
            for row, krow, c in zip(mix, keys, consts)
        ]
        state = [
            (affine[i] + affine[(i + 1) % w] * affine[(i + 2) % w]) % p
            for i in range(w)
        ]
    return state[0]


def reference_load(cipher, points):
    """The toy grid stage as a loop: per point, the first round's mix rows
    (the row [1] at zero rounds) times the publics, unreduced, over the
    columns both have."""
    first = cipher._layers[0][0] if cipher._layers else [[1]]
    return [tuple(sum(map(mul, row, pt)) for row in first) for pt in points]


@given(
    # the reference reduces after every step, the kernel once per quadratic
    # step; at p = 2 about half the mix entries are zero and the compiled
    # rounds drop them
    p=st.sampled_from([2, 3, 5, 7, 2**61 - 1]),
    rounds=st.integers(0, 5),
    width=st.integers(1, 5),
    n_pub=st.integers(1, 6),
    n_sec=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_toy_cipher_schedule_matches_reference(
    p, rounds, width, n_pub, n_sec, seed, data
):
    cipher = ToyCipher(ToyCipherParams(p, rounds, width, n_pub, n_sec, seed))
    values = st.integers(0, p - 1)
    secret = tuple(data.draw(values) for _ in range(n_sec))
    bb = cipher.blackbox()
    key = tuple(cipher.spec.element(x) for x in secret)
    for _ in range(3):
        public = tuple(data.draw(values) for _ in range(n_pub))
        expected = reference_encrypt(cipher, public, secret)
        assert cipher._on_grid([public])([secret]) == [[expected]]
        assert evaluate_ints(cipher, public, secret) == expected
        point = tuple(cipher.spec.element(v) for v in public)
        assert int(bb.evaluate(point, key)) == expected


@given(
    p=st.sampled_from([2, 3, 5, 7, 2**61 - 1]),
    rounds=st.integers(0, 5),
    width=st.integers(1, 5),
    n_pub=st.integers(1, 6),
    n_sec=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_toy_cipher_grid_matches_reference(
    p, rounds, width, n_pub, n_sec, seed, data
):
    # one grid stage answers a whole batch, repeated points included, at
    # every batch of 0-5 secrets it is handed
    cipher = ToyCipher(ToyCipherParams(p, rounds, width, n_pub, n_sec, seed))
    values = st.integers(0, p - 1)
    pool = data.draw(st.lists(st.tuples(*[values] * n_pub), min_size=1, max_size=8))
    points = data.draw(st.lists(st.sampled_from(pool), max_size=20))
    assert cipher._load(points) == reference_load(cipher, points)
    at_secrets = cipher._on_grid(points)
    for _ in range(2):
        secrets = data.draw(st.lists(st.tuples(*[values] * n_sec), max_size=5))
        expected = [
            [reference_encrypt(cipher, pt, secret) for pt in points]
            for secret in secrets
        ]
        assert at_secrets(secrets) == expected


@pytest.mark.parametrize(
    "p, rounds, width, chunks",
    [
        (2**61 - 1, 0, 3, 1),
        (2**61 - 1, 1, 3, 1),
        (2**61 - 1, 4, 50, 2),  # two 2,500-entry rounds cannot share a chunk
        (7, 16, 64, 14),  # the largest shape a target file admits
    ],
)
def test_toy_cipher_chunks_match_reference(p, rounds, width, chunks):
    # zero and one rounds have no round after the grid stage, so their one
    # chunk takes no state but the grid's; wider ciphers hand states from
    # chunk to chunk
    cipher = ToyCipher(ToyCipherParams(p, rounds, width, 64, 64, 1))
    assert len(cipher._chunks) == chunks
    # every chunk takes the grid's states and the 64 secret residues
    assert {f.__code__.co_argcount for f, _, _ in cipher._chunks} == {65}
    assert [stop for _, _, stop in cipher._chunks][-1] == len(cipher._key_map)
    for (_, _, stop), (_, start, _) in zip(cipher._chunks, cipher._chunks[1:]):
        assert stop == start
    rng = random.Random(width)
    points = [tuple(rng.randrange(p) for _ in range(64)) for _ in range(4)]
    secrets = [tuple(rng.randrange(p) for _ in range(64)) for _ in range(2)]
    secrets.append(tuple(0 if j % 3 else v for j, v in enumerate(secrets[0])))
    expected = [[reference_encrypt(cipher, pt, s) for pt in points] for s in secrets]
    assert cipher._on_grid(points)(secrets) == expected
    for i, pt in enumerate(points[:2]):
        assert cipher._on_grid([pt])([secrets[i]]) == [[expected[i][i]]]
        assert evaluate_ints(cipher, pt, secrets[i]) == expected[i][i]


def test_toy_cipher_deterministic_and_keyed():
    params = ToyCipherParams(p=5, rounds=1, width=3, n_pub=2, n_sec=2, seed=3)
    a, b = ToyCipher(params), ToyCipher(params)
    assert a.key == b.key
    for pub in [(0, 0), (1, 2), (4, 4)]:
        for sec in [(0, 0), (3, 1)]:
            assert evaluate_ints(a, pub, sec) == evaluate_ints(b, pub, sec)


def test_toy_cipher_zero_rounds_is_affine_in_key():
    params = ToyCipherParams(p=3, rounds=0, width=2, n_pub=1, n_sec=2, seed=5)
    cipher = ToyCipher(params)
    f = interpolate(
        GF3,
        3,
        lambda pt: GF3.element(
            evaluate_ints(cipher, [int(pt[0])], [int(pt[1]), int(pt[2])])
        ),
    )
    deg = f.degrees()
    assert deg.total <= 1  # affine in everything at zero rounds
    # preprocessing picks it up through the empty term and solves outright
    bb = cipher.blackbox()
    result = preprocess(bb, budget=10**5, max_total_mult=1, seed=6)
    outcome = online(cipher.online_oracle(), result.records, cipher.spec, 2)
    if result.rank == 2:
        assert outcome.status == "recovered" and outcome.key == cipher.key
    else:
        assert outcome.status in ("partial", "recovered")


def test_toy_cipher_one_round_is_quadratic():
    params = ToyCipherParams(p=3, rounds=1, width=3, n_pub=1, n_sec=2, seed=8)
    cipher = ToyCipher(params)
    f = interpolate(
        GF3,
        3,
        lambda pt: GF3.element(
            evaluate_ints(cipher, [int(pt[0])], [int(pt[1]), int(pt[2])])
        ),
    )
    assert f.degrees().total <= 2


def test_toy_cipher_one_round_attack_succeeds():
    params = ToyCipherParams(p=5, rounds=1, width=3, n_pub=2, n_sec=2, seed=3)
    cipher = ToyCipher(params)
    bb = cipher.blackbox()
    result = preprocess(bb, budget=10**6, max_total_mult=2, seed=11)
    assert result.status == "complete"
    assert any(sum(r.term) == 1 for r in result.records)  # first differences help
    outcome = online(cipher.online_oracle(), result.records, cipher.spec, 2)
    assert outcome.status == "recovered" and outcome.key == cipher.key


def test_toy_cipher_pinned_vector():
    # frozen on first run; guards the round function against silent change
    params = ToyCipherParams(p=7, rounds=2, width=3, n_pub=2, n_sec=3, seed=123)
    cipher = ToyCipher(params)
    inputs = [((0, 0), (0, 0, 0)), ((1, 2), (3, 4, 5)), ((6, 6), (1, 0, 1))]
    values = [evaluate_ints(cipher, pub, sec) for pub, sec in inputs]
    assert values == [3, 2, 5]


def test_toy_cipher_blackbox_helper():
    params = ToyCipherParams(p=5, rounds=1, width=3, n_pub=2, n_sec=2, seed=3)
    cipher = ToyCipher(params)
    spec = cipher.spec
    assert (cipher.n_pub, cipher.n_sec) == (2, 2)
    for key in [cipher.key, (spec.element(3), spec.one)]:
        for pub in [(spec.one, spec.zero), (spec.element(4), spec.element(2))]:
            value = cipher.blackbox().evaluate(pub, key)
            assert value == cipher.online_oracle(key)(pub)


@pytest.mark.parametrize("extra", [-1, 2])
def test_key_widths_are_checked(extra):
    # a short or long key is neither truncated nor padded into an answer
    toy = ToyCipher(ToyCipherParams(7, 2, 4, 4, 4, 3))
    planted = make_planted(31, 3, 4, 5, 12, seed=3)
    key = tuple(range(1, 5 + extra))
    for target in (toy, planted):
        with pytest.raises(TargetError, match="coordinates"):
            target.online_oracle(key)
    with pytest.raises(TargetError, match="coordinates"):
        evaluate_ints(toy, (1, 2, 3, 4), key)


@pytest.mark.parametrize("kind", ["planted", "toy"])
def test_online_public_widths_are_checked(kind):
    # a short or long public point is neither padded nor cut into an answer,
    # nor counted as a probe
    if kind == "planted":
        target = make_planted(31, 3, 4, 5, 12, seed=3)
    else:
        target = ToyCipher(ToyCipherParams(7, 2, 4, 4, 4, 3))
    oracle = target.online_oracle()
    with pytest.raises(AttackError):
        oracle((target.spec.one,))
    with pytest.raises(AttackError):
        oracle.evaluate_grid([(1, 2, 3, 4, 5)])
    if kind == "toy":
        for public in [(1,), (1, 2, 3, 4, 5)]:
            with pytest.raises(AttackError):
                evaluate_ints(target, public, target.key)
    assert oracle.evaluations == 0
    assert len(oracle.evaluate_grid([(1,) * target.n_pub])) == 1


@pytest.mark.parametrize("kind", ["planted", "toy"])
def test_confirm_key_costs_the_same_when_it_refutes(kind):
    if kind == "planted":
        target = make_planted(31, 3, 4, 5, 12, seed=3)
    else:
        target = ToyCipher(ToyCipherParams(7, 2, 4, 4, 4, 3))
    wrong = (target.key[0] + target.spec.one,) + target.key[1:]
    for key, verdict in [(target.key, True), (wrong, False)]:
        bb, oracle = target.blackbox(), target.online_oracle()
        assert confirm_key(bb, oracle, key) is verdict
        assert bb.evaluations == oracle.evaluations == CONFIRM_POINTS
        # a per-point callable over the oracle gives the same verdict
        assert confirm_key(bb, lambda public: oracle(public), key) is verdict
        assert bb.evaluations == oracle.evaluations == 2 * CONFIRM_POINTS


# -- the grid path ------------------------------------------------------------------


def _grid_target(data):
    """A small planted target (p in {5, 7, 31}) or toy cipher (p in {5, 7,
    2^61 - 1}, up to the benchmark's 3 rounds, widths below and above the
    public count)."""
    if data.draw(st.booleans()):
        p = data.draw(st.sampled_from([5, 7, 31]))
        n_pub = data.draw(st.integers(1, 3))
        return make_planted(
            p,
            n_pub,
            data.draw(st.integers(1, n_pub)),
            data.draw(st.integers(2, 5)),
            data.draw(st.integers(0, 10)),
            seed=data.draw(st.integers(0, 10**6)),
        )
    return ToyCipher(
        ToyCipherParams(
            data.draw(st.sampled_from([5, 7, 2**61 - 1])),
            data.draw(st.integers(0, 3)),
            data.draw(st.integers(1, 5)),
            data.draw(st.integers(1, 3)),
            data.draw(st.integers(1, 3)),
            data.draw(st.integers(0, 10**6)),
        )
    )


def check_grid(bb, points, secret):
    """One grid call equals the per-point route and counts one probe a point."""
    before = bb.evaluations
    [got] = bb.stage(points)([secret])
    assert bb.evaluations == before + len(points)
    assert got == [int(bb.evaluate(pt, secret)) for pt in points]


@given(st.data())
def test_grid_kernel_matches_per_point_evaluation(data):
    target = _grid_target(data)
    p, n_pub, n_sec = target.spec.p, target.n_pub, target.n_sec
    rng = random.Random(data.draw(st.integers(0, 10**6)))

    def vector(n, lo=0):
        return tuple(rng.randrange(lo, p) for _ in range(n))

    bb = target.blackbox()
    # a superpoly grid: the publics outside the term are zero everywhere
    term = tuple(data.draw(st.integers(0, min(3, p - 1))) for _ in range(n_pub))
    term_points = _term_grid(target.spec, term).residues
    for _ in range(2):
        check_grid(bb, term_points, vector(n_sec))
    # every public nonzero somewhere
    dense = tuple(vector(n_pub) for _ in range(rng.randrange(4))) + (vector(n_pub, 1),)
    check_grid(bb, dense, vector(n_sec))
    # one points object with fresh secrets, then an equal new tuple
    for _ in range(3):
        check_grid(bb, term_points, vector(n_sec))
    check_grid(bb, tuple(tuple(pt) for pt in term_points), vector(n_sec))
    # one tuple of lists, mutated in place between calls
    batch = tuple(list(pt) for pt in dense)
    check_grid(bb, batch, vector(n_sec))
    batch[-1][0] = 0
    check_grid(bb, batch, vector(n_sec))
    check_grid(bb, term_points, vector(n_sec))


@given(st.data())
def test_batch_kernel_answers_each_secret_alone(data):
    # one grid at a batch of 0-5 secrets gives each secret's answers, also
    # for an empty grid and for repeated points; the box counts a probe per
    # point and secret and refuses a batch with any one secret of the
    # wrong width
    target = _grid_target(data)
    spec, n_pub, n_sec = target.spec, target.n_pub, target.n_sec
    values = st.integers(0, spec.p - 1)
    pool = data.draw(st.lists(st.tuples(*[values] * n_pub), min_size=1, max_size=6))
    points = tuple(data.draw(st.lists(st.sampled_from(pool), max_size=12)))
    secrets = data.draw(st.lists(st.tuples(*[values] * n_sec), max_size=5))

    def answer(point, secret):
        if isinstance(target, ToyCipher):
            return reference_encrypt(target, point, secret)
        return int(target.poly.evaluate([spec.element(v) for v in point + secret]))

    expected = [[answer(pt, secret) for pt in points] for secret in secrets]
    assert target._on_grid(points)(secrets) == expected
    assert target._on_grid(())(secrets) == [[] for _ in secrets]
    bb = target.blackbox()
    assert bb.stage(points)(secrets) == expected
    assert bb.evaluations == len(points) * len(secrets)
    if secrets:
        bad = list(secrets)
        index = data.draw(st.integers(0, len(bad) - 1))
        bad[index] = data.draw(st.sampled_from([bad[index][1:], bad[index] + (0,)]))
        with pytest.raises(AttackError):
            bb.stage(points)(bad)
        assert bb.evaluations == len(points) * len(secrets)


def _poly_box(target):
    """A plain box over a per-point function: the planted target's
    polynomial, evaluated point by point."""
    poly = target.poly

    def fn(public, secret):
        return poly.evaluate(list(public) + list(secret))

    return BlackBox(target.spec, target.n_pub, target.n_sec, fn)


# the boxes the weighted entry serves: the planted kernel's own weighted
# stage, over GF(31) and over GF(2^61 - 1), and the shared fallback over the
# toy kernel and over a plain per-point function
WEIGHTED_BOXES = {
    "planted-31": lambda: make_planted(31, 3, 4, 5, 12, seed=3).blackbox(),
    "planted-2^61-1": lambda: make_planted(2**61 - 1, 3, 4, 5, 12, seed=3).blackbox(),
    "toy": lambda: ToyCipher(ToyCipherParams(7, 3, 4, 4, 4, 0)).blackbox(),
    "fn": lambda: _poly_box(make_planted(31, 3, 4, 5, 12, seed=3)),
}


@pytest.mark.parametrize("name", sorted(WEIGHTED_BOXES))
@settings(max_examples=30)
@given(data=st.data())
def test_weighted_stage_sums_the_per_point_stage(name, data):
    # the weighted entry answers, per secret, the sum of w * (per-point
    # answer) mod p, on term grids (whose weights cancel many groups'
    # columns) and on any points and weights; the zero secret is always in
    # the batch, and each entry charges len(points) * len(secrets) probes
    bb = WEIGHTED_BOXES[name]()
    p, n_pub, n_sec = bb.spec.p, bb.n_pub, bb.n_sec
    residue = st.one_of(st.just(0), st.just(p - 1), st.integers(0, p - 1))
    if data.draw(st.booleans()):
        term = data.draw(st.tuples(*[st.integers(0, 2)] * n_pub))
        points, weights = _term_grid(bb.spec, term)
    else:
        points = data.draw(st.lists(st.tuples(*[residue] * n_pub), max_size=8))
        count = len(points)
        weights = data.draw(st.lists(residue, min_size=count, max_size=count))
    secrets = [(0,) * n_sec] + data.draw(
        st.lists(st.tuples(*[residue] * n_sec), max_size=3)
    )
    size = len(points) * len(secrets)
    before = bb.evaluations
    per_point = bb.stage(points)(secrets)
    assert bb.evaluations == before + size
    assert bb.stage_sum(points, weights)(secrets) == [
        sum(map(mul, weights, values)) % p for values in per_point
    ]
    assert bb.evaluations == before + 2 * size
    # the weighted entry refuses what the per-point entry refuses, and a
    # weight list of another length, before any probe
    with pytest.raises(AttackError, match="one weight per point"):
        bb.stage_sum(points, list(weights) + [1])
    with pytest.raises(AttackError, match="width"):
        bb.stage_sum(tuple(points) + ((0,) * (n_pub + 1),), list(weights) + [1])
    with pytest.raises(AttackError, match="width"):
        bb.stage_sum(points, weights)(secrets + [(0,) * (n_sec + 1)])
    assert bb.evaluations == before + 2 * size


@pytest.mark.parametrize("name", sorted(WEIGHTED_BOXES))
def test_a_budget_cut_batch_charges_its_funded_secrets(name):
    # a batch of secrets that the budget funds only in part: the superpoly
    # oracle's weighted entry charges the funded secrets' grids, and no more
    bb = WEIGHTED_BOXES[name]()
    term = (1, 2) + (0,) * (bb.n_pub - 2)
    size = len(_term_grid(bb.spec, term).weights)
    secrets = [(0,) * bb.n_sec, (1,) * bb.n_sec, (2,) * bb.n_sec]
    for funded in range(len(secrets)):
        before = bb.evaluations
        oracle = _charged_oracle(bb, term, before + (funded + 1) * size - 1)
        with pytest.raises(BudgetExhausted):
            oracle(secrets)
        assert bb.evaluations == before + funded * size


@pytest.mark.parametrize("name", sorted(WEIGHTED_BOXES))
def test_stage_computes_each_distinct_point_once(name):
    # nested terms share grid points, so a replay repeats them: the box
    # stages each distinct point once, in first-seen order, fans every
    # secret's answers back out to the caller's order and still charges
    # len(points) * len(secrets) probes, repeats included
    bb = WEIGHTED_BOXES[name]()
    spec, n_pub, n_sec = bb.spec, bb.n_pub, bb.n_sec
    rest = (0,) * (n_pub - 2)
    terms = [(2, 0) + rest, (2, 1) + rest, (1, 1) + rest]
    points = tuple(pt for term in terms for pt in _term_grid(spec, term).residues)
    distinct = list(dict.fromkeys(points))
    assert (len(points), len(distinct)) == (13, 6)
    rng = random.Random(0)
    secrets = [(0,) * n_sec, tuple(rng.randrange(spec.p) for _ in range(n_sec))]
    # each point's one-point stage, one answer per secret
    alone = {pt: [values for [values] in bb.stage([pt])(secrets)] for pt in points}

    def expected(batch):
        return [[alone[tuple(pt)][s] for pt in batch] for s in range(len(secrets))]

    staged = []
    grid = bb._grid
    bb._grid = lambda batch: staged.append(batch) or grid(batch)
    before = bb.evaluations
    assert bb.stage(points)(secrets) == expected(points)
    assert bb.evaluations == before + len(points) * len(secrets)
    assert staged == [distinct]
    # points given as lists
    lists = [list(pt) for pt in points]
    assert bb.stage(lists)(secrets) == expected(points)
    assert staged == [distinct] * 2
    # a batch without repeats reaches the kernel with the same points
    assert bb.stage(distinct)(secrets) == expected(distinct)
    assert staged[-1] == distinct
    # a width mismatch is refused before any staging or probe
    del staged[:]
    before = bb.evaluations
    with pytest.raises(AttackError, match="width"):
        bb.stage(points + ((0,) * (n_pub + 1),))
    assert staged == [] and bb.evaluations == before
    # the empty batch
    assert bb.stage(())([secrets[1]]) == [[]]
    assert bb.evaluations == before


def test_the_planted_weighted_stage_folds_only_the_nonvanishing_groups():
    # over the benchmark's planted target (p = 31, 5 publics, 12 secrets,
    # degree 6, 60 extra terms, seed 2) and the 95 terms its seed-2 search
    # tries, 521 group columns are nonzero at some grid point, but only 63
    # have a nonzero weighted sum: the weighted stage calls those groups'
    # coefficients alone and answers as the per-point stage does
    target = make_planted(31, 5, 12, 6, 60, seed=2)
    assert preprocess(target.blackbox(), 10**6, 5, seed=2).terms_tried == 95
    calls = []
    for group in range(len(target._groups)):
        fold = target._folds[group] or target._fold(group)
        target._folds[group] = lambda s, g=group, f=fold: calls.append(g) or f(s)
    bb = target.blackbox()
    rng = random.Random(0)
    secrets = [(0,) * 12, tuple(rng.randrange(31) for _ in range(12))]
    live = nonvanishing = 0
    for term in itertools.islice(candidate_terms(5, 31, 5), 95):
        points, weights = _term_grid(target.spec, term)
        sums = [
            sum(map(mul, weights, column)) % 31
            for column in zip(*target._tabulate(points))
        ]
        live += sum(map(any, zip(*target._tabulate(points))))
        nonvanishing += sum(map(bool, sums))
        del calls[:]
        got = bb.stage_sum(points, weights)(secrets)
        assert sorted(calls) == sorted(2 * [g for g, c in enumerate(sums) if c])
        assert got == [
            sum(map(mul, weights, values)) % 31
            for values in bb.stage(points)(secrets)
        ]
    assert (live, nonvanishing) == (521, 63)


# -- description files ----------------------------------------------------------------


def test_target_files_round_trip(tmp_path):
    planted = make_planted(31, 3, 4, 6, 8, seed=42)
    path = tmp_path / "planted.target"
    save_target(path, planted)
    again = load_target(path)
    assert again.poly == planted.poly and again.key == planted.key

    cipher = ToyCipher(ToyCipherParams(5, 1, 3, 2, 2, 3))
    path2 = tmp_path / "toy.target"
    save_target(path2, cipher)
    again2 = load_target(path2)
    assert again2.key == cipher.key
    assert evaluate_ints(again2, (1, 2), (3, 4)) == evaluate_ints(
        cipher, (1, 2), (3, 4)
    )


@pytest.mark.parametrize(
    "kind, ranges, lines",
    [
        (
            "planted",
            KINDS["planted"].sizes,
            {"public": 2, "secret": 2, "total-degree": 4, "extra-terms": 4},
        ),
        (
            "toy-cipher",
            KINDS["toy-cipher"].sizes,
            {"public": 2, "secret": 2, "rounds": 1, "width": 3},
        ),
    ],
)
def test_target_file_sizes_are_bounded(tmp_path, kind, ranges, lines):
    path = tmp_path / "sized.target"

    def write(sizes):
        body = "".join(f"{k}: {v}\n" for k, v in sizes.items())
        path.write_text(f"kind: {kind}\nfield: 5\nseed: 1\n{body}")

    write(lines)
    load_target(path)
    for name, (_, lo, hi) in ranges.items():
        for value in (lo - 1, hi + 1):
            write({**lines, name: value})
            with pytest.raises(TargetError, match=name):
                load_target(path)


def test_target_file_errors(tmp_path):
    path = tmp_path / "broken.target"
    path.write_text("kind: planted\nfield: 31\n")
    with pytest.raises(TargetError):
        load_target(path)
    path.write_text("kind: mystery\nfield: 31\n")
    with pytest.raises(TargetError):
        load_target(path)
    # the checks run in one order: kind, field, a prime field, a known kind,
    # each size in file order, the seed, a repeated key, then an unknown key
    sizes = "public: 3\nsecret: 4\ntotal-degree: 5\nextra-terms: 12\n"
    toy = "kind: toy-cipher\nrounds: 1\nwidth: 3\n"
    for text, message in [
        ("field: 31\n", "target file missing 'kind'"),
        ("kind: mystery\n", "target file missing 'field'"),
        ("kind: mystery\nfield: 3^2/1,2,2\n", "targets are defined over prime fields"),
        ("kind: mystery\nfield: 31\n" + sizes, "unknown target kind 'mystery'"),
        ("kind: planted\nfield: 31\n", "target file missing 'public'"),
        ("kind: planted\nfield: 31\npublic: 3\n", "target file missing 'secret'"),
        ("kind: planted\nfield: 31\n" + sizes, "target file missing 'seed'"),
        ("kind: toy-cipher\nfield: 7\n" + sizes, "target file missing 'rounds'"),
        (
            "kind: planted\nfield: 31\nseed: x\nsecret: 99\npublic: 9\n",
            "target public 9 is outside 1..8",
        ),
        (
            "kind: planted\nfield: 31\nseed: x\n" + sizes,
            "target seed is not an integer within Python's digit limit",
        ),
        ("kind planted\n", "bad target line 'kind planted'"),
        ("kind: planted\nfield: 31\n" + sizes + "public: 3\n", "target file missing 'seed'"),
        (
            # the last kind would build a toy cipher
            "kind: planted\nfield: 31\n" + sizes + "seed: 1\n" + toy,
            "target key 'kind' is repeated",
        ),
        (
            "kind: planted\nfield: 31\n" + sizes + "seed: 1\nbogus: 7\nseed: 1\n",
            "target key 'seed' is repeated",
        ),
        (
            "kind: planted\nfield: 31\n" + sizes + "seed: 1\nbogus: 7\nrounds: 1\n",
            "unknown target key 'bogus'",
        ),
    ]:
        path.write_text(text)
        with pytest.raises(TargetError) as info:
            load_target(path)
        assert str(info.value) == message, text


PLANTED_TEXT = """# gfdelta target v1
kind: planted
field: 31
public: 3
secret: 4
total-degree: 6
extra-terms: 8
seed: 42
"""
TOY_TEXT = """# gfdelta target v1
kind: toy-cipher
field: 5
public: 2
secret: 2
rounds: 1
width: 3
seed: 3
"""


def test_target_file_text_is_pinned(tmp_path):
    path = tmp_path / "pinned.target"
    for target, text in [
        (make_planted(31, 3, 4, 6, 8, seed=42), PLANTED_TEXT),
        (ToyCipher(ToyCipherParams(5, 1, 3, 2, 2, 3)), TOY_TEXT),
    ]:
        save_target(path, target)
        assert path.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "make",
    [
        lambda seed: make_planted(31, 3, 4, 6, 8, seed=seed),
        lambda seed: make_planted(7, 1, 1, 2, 0, seed=seed),
        lambda seed: ToyCipher(ToyCipherParams(5, 1, 3, 2, 2, seed)),
        lambda seed: ToyCipher(ToyCipherParams(2, 0, 1, 64, 64, seed)),
    ],
    ids=["planted", "planted-smallest", "toy", "toy-zero-rounds"],
)
@pytest.mark.parametrize("seed", [0, -5, 10**30])
def test_target_files_round_trip_their_config(tmp_path, make, seed):
    target = make(seed)
    path = tmp_path / "again.target"
    save_target(path, target)
    again = load_target(path)
    assert type(again) is type(target) and again.config == target.config
    assert (again.n_pub, again.n_sec) == (target.n_pub, target.n_sec)
    assert again.key == target.key


def test_target_files_ignore_layout(tmp_path):
    # comments, blank lines, any key order, and padding around keys and values
    path = tmp_path / "loose.target"
    for text, config in [
        (
            "\n# planted\n  seed :42\n\nextra-terms:\t8  \ntotal-degree: 6\n"
            "kind:planted\n# in between\n secret : 4\npublic: 3\nfield:  31 \n",
            PlantedConfig(31, 3, 4, 6, 8, 42),
        ),
        (
            "width: 3\nrounds: 1\n\n\nsecret: 2\n\tpublic\t: 2\nseed: 3\n"
            "field: 5\n  kind: toy-cipher\n# end",
            ToyCipherParams(5, 1, 3, 2, 2, 3),
        ),
    ]:
        path.write_text(text)
        assert load_target(path).config == config


def test_each_kind_sets_every_config_field_from_its_schema():
    # `field` sets p and `seed` the seed; the sizes set every other field
    for kind in KINDS.values():
        fields = {f.name for f in dataclasses.fields(kind.config)} - {"p", "seed"}
        assert sorted(attr for attr, _, _ in kind.sizes.values()) == sorted(fields)
