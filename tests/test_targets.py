import random

import pytest
from hypothesis import given, strategies as st

from gfdelta.attack import (
    CONFIRM_POINTS,
    AttackError,
    _term_grid,
    confirm_key,
    online,
    preprocess,
)
from gfdelta.field import prime_field
from gfdelta.poly import interpolate, all_points
from gfdelta.targets import (
    PLANTED_SIZES,
    TOY_SIZES,
    TargetError,
    ToyCipher,
    ToyCipherParams,
    load_target,
    make_planted,
    save_target,
)

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


# -- toy cipher ---------------------------------------------------------------------


def reference_encrypt(cipher, public, secret):
    """The toy cipher's round function as one straight-line evaluation."""
    p = cipher.params.p
    w = cipher.params.width
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


@given(
    # the reference reduces after every step, the kernel once per round
    p=st.sampled_from([3, 5, 7, 2**61 - 1]),
    rounds=st.integers(0, 3),
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
    schedule = cipher._key_schedule(secret)
    bb = cipher.blackbox()
    key = tuple(cipher.spec.element(x) for x in secret)
    for _ in range(3):
        public = tuple(data.draw(values) for _ in range(n_pub))
        expected = reference_encrypt(cipher, public, secret)
        assert cipher._rounds([cipher._tabulate(public)], schedule)[0] == expected
        assert cipher.evaluate_ints(public, secret) == expected
        point = tuple(cipher.spec.element(v) for v in public)
        assert int(bb.evaluate(point, key)) == expected


def test_toy_cipher_deterministic_and_keyed():
    params = ToyCipherParams(p=5, rounds=1, width=3, n_pub=2, n_sec=2, seed=3)
    a, b = ToyCipher(params), ToyCipher(params)
    assert a.key == b.key
    for pub in [(0, 0), (1, 2), (4, 4)]:
        for sec in [(0, 0), (3, 1)]:
            assert a.evaluate_ints(pub, sec) == b.evaluate_ints(pub, sec)


def test_toy_cipher_zero_rounds_is_affine_in_key():
    params = ToyCipherParams(p=3, rounds=0, width=2, n_pub=1, n_sec=2, seed=5)
    cipher = ToyCipher(params)
    f = interpolate(
        GF3,
        3,
        lambda pt: GF3.element(
            cipher.evaluate_ints([int(pt[0])], [int(pt[1]), int(pt[2])])
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
            cipher.evaluate_ints([int(pt[0])], [int(pt[1]), int(pt[2])])
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
    values = [cipher.evaluate_ints(pub, sec) for pub, sec in inputs]
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
        toy.evaluate_ints((1, 2, 3, 4), key)


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
                target.evaluate_ints(public, target.key)
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
    got = bb.evaluate_grid(points, secret)
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
    assert again2.evaluate_ints((1, 2), (3, 4)) == cipher.evaluate_ints(
        (1, 2), (3, 4)
    )


@pytest.mark.parametrize(
    "kind, ranges, lines",
    [
        (
            "planted",
            PLANTED_SIZES,
            {"public": 2, "secret": 2, "total-degree": 4, "extra-terms": 4},
        ),
        (
            "toy-cipher",
            TOY_SIZES,
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
    for name, (lo, hi) in ranges.items():
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
