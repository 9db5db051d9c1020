"""Construction digests: everything `load_target` builds, hashed by sha256
and pinned, so that a change to how targets are built must rebuild every
pinned shape bit for bit.

A planted digest covers the sorted terms with their coefficients, the key,
`planted_terms` and the term groups the kernel compiles from (`_groups`, in
their order); a toy digest covers every matrix and constant vector the seed
draws and the key. The CI workflow loads three of these files through the
CLI's loader and compares them with the pins here:

    PYTHONPATH=src:tests python -c 'from test_target_digests import check; check()'
"""

import hashlib
import pathlib
import tempfile
import time

import pytest

from gfdelta.targets import PlantedTarget, load_target

P61 = 2**61 - 1


def planted(p, public, secret, degree, extra, seed):
    return (
        f"kind: planted\nfield: {p}\npublic: {public}\nsecret: {secret}\n"
        f"total-degree: {degree}\nextra-terms: {extra}\nseed: {seed}\n"
    )


def toy(p, public, secret, rounds, width, seed):
    return (
        f"kind: toy-cipher\nfield: {p}\npublic: {public}\nsecret: {secret}\n"
        f"rounds: {rounds}\nwidth: {width}\nseed: {seed}\n"
    )


# each case is one or more description files, hashed in order
CASES = {
    # the benchmark's planted target is seed 2 of this shape
    "benchmark planted": [planted(31, 5, 12, 6, 60, 2)],
    "benchmark planted, seeds 0-19": [planted(31, 5, 12, 6, 60, s) for s in range(20)],
    # exponents reach the cap p - 1 often over few variables
    "planted over GF(5)": [planted(5, 3, 4, 5, 20, s) for s in range(5)],
    "planted over GF(5), capped": [planted(5, 2, 2, 7, 10, s) for s in range(5)],
    "planted over GF(7)": [planted(7, 4, 6, 7, 40, s) for s in range(5)],
    "planted over GF(2^61 - 1)": [planted(P61, 5, 12, 6, 60, s) for s in range(3)],
    # a random 3 x 3 matrix over GF(2) is singular more often than not
    "planted over GF(2), key-matrix retries": [
        planted(2, 4, 3, 3, 4, s) for s in range(10)
    ],
    "largest planted": [planted(31, 8, 64, 12, 10_000, 1)],
    "benchmark toy, seeds 0-7": [toy(7, 4, 4, 3, 4, s) for s in range(8)],
    "toy, zero rounds": [toy(7, 4, 4, 0, 4, s) for s in range(5)],
    "toy, width 1": [toy(7, 2, 3, 3, 1, s) for s in range(5)],
    # one secret over GF(2): whitening row 0 is zero half the time
    "toy over GF(2), whitening retries": [toy(2, 3, 1, 2, 3, s) for s in range(10)],
    "toy over GF(2^61 - 1)": [toy(P61, 4, 4, 3, 4, s) for s in range(3)],
    "largest toy": [toy(7, 64, 64, 16, 64, 1)],
}

# sha256 pins, taken before any change to target construction
DIGESTS = {
    "benchmark planted": "fdd98650223141fa0884a8b30751c44b4cc80cf258440471dfb400aaec986853",
    "benchmark planted, seeds 0-19": "ddf79e2e71c4d0dfe3b84f462a6535db24759b025451e74695b22b79e4592f0c",
    "planted over GF(5)": "e19913f6e40cb20207a487cda63acf7b2407d2984ecca034834b82bc424aab8b",
    "planted over GF(5), capped": "5dc5e0ebaca4dcbd0b2216c6a9ec336bc3420260ac1353e06af7d2a1b6f7dc79",
    "planted over GF(7)": "f357bce9c6f8042f336d42bbbb217b3c08edecedd6731a2d0e30a131a88a8a3c",
    "planted over GF(2^61 - 1)": "9e46bd88a5b12c09a5a870841a4d3d08f378ce559e4fd01a97b102905cf36563",
    "planted over GF(2), key-matrix retries": "f7f3eb1569201df3e28e00000cf33e38e42dbd2f6f642ee52b6d8a9f21397363",
    "largest planted": "8d70b8b55a620f35eaa8e083248642d8275364df2ae4446da6dd038cfd2ffc2b",
    "benchmark toy, seeds 0-7": "e9b1d3a8fb5deab74dd6f0443dce27af703837b0525f29f57d2c3d5ca11096dc",
    "toy, zero rounds": "ffc642a2ac26792075e9e930f6aa3d72bf0c06dba9f5dd4b7e45b5ec7c4a339a",
    "toy, width 1": "cdd88a183a45a2281b608b1c51b2b84d8b51c734c5e24f24e9a0fe9d7d2293ff",
    "toy over GF(2), whitening retries": "ffc727fd35d4830d9c77160fa933a2e74179e6407cf7e3d4c278a5d01153fea7",
    "toy over GF(2^61 - 1)": "b497aa7c851eee9de21ab9f8fe95158ffe37299f2d236b64ae53c35812034d9f",
    "largest toy": "075fbec836d05cc60c1a9862e43c8083ff4547c936e0eaf7da0864e24974368b",
}


def target_digest(target) -> str:
    """sha256 of everything the target's construction produced."""
    key = tuple(map(int, target.key))
    if isinstance(target, PlantedTarget):
        terms = sorted((mono, int(c)) for mono, c in target.poly._terms.items())
        parts = (terms, key, target.planted_terms, target._groups)
    else:
        parts = (
            target.whiten,
            target.whiten_const,
            target.round_mix,
            target.round_key,
            target.round_const,
            key,
        )
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def case_digest(directory, name: str) -> str:
    """The digest of a case: one sha256 over its files' digests, in order."""
    digests = []
    for k, text in enumerate(CASES[name]):
        path = directory / f"case-{k}.target"
        path.write_text(text)
        digests.append(target_digest(load_target(path)))
    if len(digests) == 1:
        return digests[0]
    return hashlib.sha256(" ".join(digests).encode()).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_targets_rebuild_bit_for_bit(tmp_path, name):
    assert case_digest(tmp_path, name) == DIGESTS[name]


def check(names=("benchmark planted", "largest planted", "largest toy")) -> None:
    """Load each named case's files through `load_target` in a temporary
    directory and compare its digest with the pin; print the load time of
    each, for information."""
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            start = time.perf_counter()
            digest = case_digest(pathlib.Path(tmp), name)
            seconds = time.perf_counter() - start
            print(f"{name}: sha256 {digest} loaded in {seconds:.3f} s")
            if digest != DIGESTS[name]:
                raise SystemExit(f"{name}: expected {DIGESTS[name]}")
