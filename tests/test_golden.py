"""Record files pinned byte for byte at fixed seeds.

The expected files were written by an earlier implementation of the grid,
the term schedule and the planted-target builder; any change to those that
alters a record, a probe count or the order of the schedule shows up here.
"""

from pathlib import Path

import pytest

from gfdelta.attack import preprocess, save_records
from gfdelta.targets import ToyCipher, ToyCipherParams, make_planted

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "name, build, seed, evaluations, terms_tried",
    [
        (
            "records_planted_p31.txt",
            lambda: make_planted(31, 3, 4, 5, 12, seed=3),
            6,
            2156,
            18,
        ),
        (
            "records_toy_p7.txt",
            lambda: ToyCipher(ToyCipherParams(7, 2, 4, 3, 3, 5)),
            8,
            871,
            14,
        ),
        (
            # the benchmark's toy shape: two rounds past the tabulated one
            "records_toy_p7_r3.txt",
            lambda: ToyCipher(ToyCipherParams(7, 3, 4, 4, 4, 0)),
            0,
            17307,
            214,
        ),
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
