"""Record files pinned byte for byte at fixed seeds, and their online
replay.

The expected files were written by an earlier implementation of the grid,
the term schedule and the planted-target builder; any change to those that
alters a record, a probe count or the order of the schedule shows up here.
"""

from pathlib import Path

import pytest

from gfdelta.attack import load_records, online, preprocess, save_records
from gfdelta.targets import ToyCipher, ToyCipherParams, make_planted

DATA = Path(__file__).parent / "data"

BUILD = {
    "records_planted_p31.txt": lambda: make_planted(31, 3, 4, 5, 12, seed=3),
    "records_toy_p7.txt": lambda: ToyCipher(ToyCipherParams(7, 2, 4, 3, 3, 5)),
    # the benchmark's toy shape: two rounds past the tabulated one
    "records_toy_p7_r3.txt": lambda: ToyCipher(ToyCipherParams(7, 3, 4, 4, 4, 0)),
}


@pytest.mark.parametrize(
    "name, build, seed, evaluations, terms_tried",
    [
        (name, BUILD[name], seed, evaluations, terms_tried)
        for name, seed, evaluations, terms_tried in [
            ("records_planted_p31.txt", 6, 2156, 18),
            ("records_toy_p7.txt", 8, 871, 14),
            ("records_toy_p7_r3.txt", 0, 17307, 214),
        ]
    ],
)
def test_records_match_golden(tmp_path, name, build, seed, evaluations, terms_tried):
    target = build()
    bb = target.blackbox()
    result = preprocess(
        bb, budget=10**6, max_total_mult=target.suggested_max_multiplicity, seed=seed
    )
    path = tmp_path / name
    save_records(
        path,
        result.records + result.dependent,
        spec=bb.spec,
        n_pub=bb.n_pub,
        n_sec=bb.n_sec,
        seed=seed,
    )
    assert path.read_bytes() == (DATA / name).read_bytes()
    assert (result.evaluations, result.terms_tried) == (evaluations, terms_tried)


@pytest.mark.parametrize(
    "name, probes",
    [
        ("records_planted_p31.txt", 32),
        ("records_toy_p7.txt", 18),
        ("records_toy_p7_r3.txt", 64),
    ],
)
def test_golden_records_replay_online(name, probes):
    # records plus dependent records, as attack-online replays them
    target = BUILD[name]()
    spec, n_sec = target.spec, target.n_sec
    records, _ = load_records(DATA / name, expected=(spec, target.n_pub, n_sec))
    oracle = target.online_oracle()
    batches = []
    grid = oracle.evaluate_grid
    oracle.evaluate_grid = lambda points: batches.append(len(points)) or grid(points)
    outcome = online(oracle, records, spec, n_sec)
    assert outcome.status == "recovered" and outcome.key == target.key
    assert oracle.evaluations == probes
    assert batches == [probes]  # the whole replay is one batch
    # a per-point callable over the same oracle splits nothing
    assert online(lambda public: oracle(public), records, spec, n_sec) == outcome
    assert oracle.evaluations == 2 * probes
    assert batches == [probes] + [1] * probes


@pytest.mark.parametrize(
    "name, seed, terms_tried",
    [("records_planted_p31.txt", 6, 18), ("records_toy_p7.txt", 8, 14)],
)
def test_each_grid_is_staged_once(name, seed, terms_tried):
    # the box keeps one staged batch: a term's grid is staged once for all
    # of its calls, and an online replay once
    target = BUILD[name]()
    staged = []
    kernel = target._on_grid
    target._on_grid = lambda points: staged.append(len(points)) or kernel(points)
    result = preprocess(
        target.blackbox(),
        budget=10**6,
        max_total_mult=target.suggested_max_multiplicity,
        seed=seed,
    )
    assert len(staged) == result.terms_tried == terms_tried
    records, _ = load_records(DATA / name)
    del staged[:]
    online(target.online_oracle(), records, target.spec, target.n_sec)
    assert len(staged) == 1
