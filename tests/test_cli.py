import contextlib
import io
import math
import re
import time

import pytest
from hypothesis import given, strategies as st

from gfdelta.attack import DEFAULT_BUDGET, AttackError, superpoly_oracle
from gfdelta.cli import (
    EXIT_INCOMPLETE,
    EXIT_INPUT,
    EXIT_INVARIANT,
    EXIT_OK,
    main,
)
from gfdelta.diff import DiffError
from gfdelta.field import FieldError
from gfdelta.poly import ParseError, PolyError
from gfdelta.reduce_pm import ReductionError
from gfdelta.targets import (
    KINDS,
    TargetError,
    ToyCipher,
    ToyCipherParams,
    make_planted,
    save_target,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- diff ---------------------------------------------------------------------


def test_diff_worked_example(capsys):
    for field, poly, plan, expected in [
        ("31", "x1^5*x2 + x1^4*x3*x4 + x4^6", "x1^5", "27*x2"),
        # 2^61 - 1: no table may be sized by the prime
        ("2305843009213693951", "x1^3*x2 + 5*x2^2", "x1*x2", "3*x1^2 + 3*x1 + 1"),
    ]:
        code, out, _ = run(
            capsys, "diff", "--field", field, "--poly", poly, "--plan", plan
        )
        assert code == EXIT_OK
        assert out.strip() == expected


def test_diff_beyond_degree_prints_zero(capsys):
    code, out, _ = run(
        capsys, "diff", "--field", "31", "--poly", "x1^2", "--plan", "x1^3"
    )
    assert code == EXIT_OK and out.strip() == "0"


def test_diff_gf9_with_default_basis_steps(capsys):
    code, out, _ = run(
        capsys,
        "diff",
        "--field",
        "3^2/1,2,2",
        "--poly",
        "x1^5",
        "--plan",
        "x1^3",
    )
    assert code == EXIT_OK
    assert out.strip() == "(2*a+2)"  # 2a^3+a in basis coordinates


def test_diff_with_explicit_steps(capsys):
    code, out, _ = run(
        capsys,
        "diff",
        "--field",
        "3^2/1,2,2",
        "--poly",
        "x1^5",
        "--plan",
        "x1^3",
        "--steps",
        "1,1,a",
    )
    assert code == EXIT_OK and out.strip() == "(2*a+2)"


def test_diff_steps_admit_whitespace(capsys):
    code, out, _ = run(
        capsys,
        "diff",
        "--field",
        "3^2/1,2,2",
        "--poly",
        "x1^5",
        "--plan",
        "x1^3",
        "--steps",
        "1,\n1, \ta",
    )
    assert code == EXIT_OK and out.strip() == "(2*a+2)"


def test_diff_plan_admits_whitespace(capsys):
    # plan text admits whitespace where polynomial text does
    results = [
        run(
            capsys, "diff", "--field", "31", "--poly", "x1^2*x3 + 5*x3", "--plan", plan
        )
        for plan in ("x1 *\tx3", " x1\n* x3 ", "x1*x3")
    ]
    assert results[0] == results[1] == results[2] == (EXIT_OK, "2*x1 + 1\n", "")


def test_diff_parses_the_polynomial_once(capsys, monkeypatch):
    import gfdelta.poly as poly

    calls = []
    parse = poly.parse_poly

    def counting(*args, **kwargs):
        calls.append(args)
        return parse(*args, **kwargs)

    monkeypatch.setattr(poly, "parse_poly", counting)
    code, out, _ = run(
        capsys, "diff", "--field", "31", "--poly", "x1^2", "--plan", "x3"
    )
    assert code == EXIT_OK and out == "0\n"
    assert len(calls) == 1
    # a plan past the polynomial's variables still differences it there
    code, out, _ = run(
        capsys, "diff", "--field", "31", "--poly", "x1^2*x2", "--plan", "x1*x3"
    )
    assert code == EXIT_OK and out == "0\n"
    code, out, _ = run(
        capsys, "diff", "--field", "31", "--poly", "x1^2*x3", "--plan", "x3"
    )
    assert code == EXIT_OK and out == "x1^2\n"
    assert len(calls) == 3


def test_diff_variable_past_the_cap_is_input_error(capsys):
    from gfdelta.poly import MAX_VARIABLE

    for poly_text, plan in [
        (f"x{MAX_VARIABLE + 1}", "x1"),
        ("x1", "x" + "9" * 30),
        ("x1 + x" + "9" * 30, "x1"),
        ("x1", f"x1*x{MAX_VARIABLE + 1}"),
    ]:
        code, out, err = run(
            capsys, "diff", "--field", "31", "--poly", poly_text, "--plan", plan
        )
        assert code == EXIT_INPUT and out == "" and err.startswith("error:")


def test_diff_step_count_mismatch_is_input_error(capsys):
    code, _, err = run(
        capsys,
        "diff",
        "--field",
        "31",
        "--poly",
        "x1^2",
        "--plan",
        "x1^2",
        "--steps",
        "1",
    )
    assert code == EXIT_INPUT and "error" in err


def test_diff_empty_steps_are_refused_not_defaulted(capsys):
    # an empty --steps is one empty element, not the default steps
    code, out, err = run(
        capsys, "diff", "--field", "31", "--poly", "x1^3", "--plan", "x1",
        "--steps", "",
    )
    assert code == EXIT_INPUT and not out
    assert err.strip() == "error: empty element literal"


def test_diff_bad_field_is_input_error(capsys):
    code, _, err = run(
        capsys, "diff", "--field", "6", "--poly", "x1", "--plan", "x1"
    )
    assert code == EXIT_INPUT and "error" in err


@pytest.mark.parametrize(
    "field",
    [
        "3317044064679887385961981^1/1,0",  # composite, passes 2..41
        "618970019642690137449562111^2/1,0,1",  # the prime 2^89 - 1
    ],
)
def test_diff_extension_field_past_one_word_is_input_error(capsys, field):
    code, out, err = run(capsys, "diff", "--field", field, "--poly", "x1", "--plan", "x1")
    assert code == EXIT_INPUT and not out and "machine word" in err


def test_diff_writes_output_file(capsys, tmp_path):
    out_path = tmp_path / "result.txt"
    code, _, _ = run(
        capsys,
        "diff",
        "--field",
        "31",
        "--poly",
        "x1^5*x2 + x1^4*x3*x4 + x4^6",
        "--plan",
        "x1^5",
        "--out",
        str(out_path),
    )
    assert code == EXIT_OK
    assert out_path.read_text() == "27*x2\n"


def test_diff_unwritable_output_prints_nothing(capsys, tmp_path):
    code, out, err = run(
        capsys,
        "diff",
        "--field",
        "31",
        "--poly",
        "x1^5*x2",
        "--plan",
        "x1^5",
        "--out",
        str(tmp_path / "missing" / "result.txt"),
    )
    assert code == EXIT_INPUT and out == "" and err.startswith("error:")


def test_diff_over_cap_multiplicity_names_the_bound(capsys):
    code, out, err = run(
        capsys, "diff", "--field", "31", "--poly", "x1^5", "--plan", "x1^31"
    )
    assert code == EXIT_INPUT and out == ""
    assert "multiplicity 31 exceeds the field bound 30" in err


GF3_41 = "3^41/1," + "0," * 39 + "2,1"
GF2_20 = "2^20/1," + "0," * 16 + "1,0,0,1"  # x^20 + x^3 + 1
GF2_64 = "2^64/1," + "0," * 59 + "1,1,0,1,1"  # x^64 + x^4 + x^3 + x + 1


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["--field", GF3_41, "--poly", "x1", "--plan", "x1"],
            "GF(3^41) has more than 2^64 elements",
        ),
        (
            ["--field", "3^256/1," + "0," * 254 + "2,1"]
            + ["--poly", "x1", "--plan", "x1"],
            "GF(3^256) has more than 2^64 elements",
        ),
        (
            ["--field", GF2_20, "--poly", "x1", "--plan", "x1^17"],
            "plan variable x1 may need more than 65536 grid offsets",
        ),
        (
            ["--field", "1000000007", "--poly", "x1", "--plan", "x2*x1^100000"],
            "plan variable x1 may need more than 65536 grid offsets",
        ),
        (
            ["--field", "1000000007", "--poly", "x1", "--plan", "x1^17", "--steps",
             ",".join(str(h) for h in range(1, 18))],
            "plan variable x1 may need more than 65536 grid offsets",
        ),
    ],
    ids=["field-3^41", "field-3^256", "plan-2^17", "plan-100001", "plan-steps"],
)
def test_diff_oversized_fields_and_plans_are_input_errors(capsys, args, message):
    code, out, err = run(capsys, "diff", *args)
    assert code == EXIT_INPUT and not out
    assert err == f"error: {message}\n"


def test_diff_at_the_field_and_plan_bounds(capsys):
    for field, poly, plan, expected in [
        # 2^16 offsets, the most a plan variable's table may hold
        (GF2_20, "x1", "x1^16", "0"),
        # 243 offsets: the 242nd difference of x^242 is 242!
        ("1000000007", "x1^242", "x1^242", str(math.factorial(242) % (10**9 + 7))),
        # 2^64 elements, the largest field accepted
        (GF2_64, "x1^2", "x1", "1"),
    ]:
        code, out, _ = run(
            capsys, "diff", "--field", field, "--poly", poly, "--plan", plan
        )
        assert code == EXIT_OK
        assert out.strip() == expected


@pytest.mark.parametrize(
    "field, poly",
    [
        # one digit: 10^9 nonzero binomials C(999999999, k) mod p
        ("1000000007", "x1^999999999"),
        # 20 binary digits: 2^20 binomials, over a field without log tables
        (GF2_20, "x1^1048575"),
    ],
    ids=["gf-10^9+7", "gf-2^20"],
)
def test_diff_oversized_differences_are_input_errors(capsys, field, poly):
    # refused before any binomial row is built
    start = time.perf_counter()
    code, out, err = run(capsys, "diff", "--field", field, "--poly", poly, "--plan", "x1")
    assert time.perf_counter() - start < 1
    assert code == EXIT_INPUT and not out
    assert err == "error: the difference may hold more than 262144 terms\n"


@pytest.mark.parametrize("file", ["target", "records"])
def test_oversized_field_in_a_file_is_an_input_error(capsys, tmp_path, file):
    target_path = tmp_path / "planted.target"
    records = tmp_path / "records.txt"
    field = GF3_41 if file == "target" else "31"
    target_path.write_text(
        f"kind: planted\nfield: {field}\npublic: 3\nsecret: 4\ntotal-degree: 5\n"
        "extra-terms: 12\nseed: 3\n"
    )
    records.write_text(f"field: {GF3_41}\npublic: 3\nsecret: 4\n")
    code, out, err = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert code == EXIT_INPUT and not out
    assert err == "error: GF(3^41) has more than 2^64 elements\n"


# -- degree-bound -------------------------------------------------------------


def test_degree_bound_values(capsys):
    code, out, _ = run(capsys, "degree-bound", "--field", "2^3/1,0,1,1",
                       "--d", "11", "--k", "2")
    assert code == EXIT_OK and out.strip() == "8"
    code, out, _ = run(capsys, "degree-bound", "--field", "31",
                       "--d", "5", "--k", "2")
    assert code == EXIT_OK and out.strip() == "3"
    code, out, _ = run(capsys, "degree-bound", "--field", "3^2/1,2,2",
                       "--d", "5", "--k", "4")
    assert code == EXIT_OK and out.strip() == "zero"


# -- attack pipeline ----------------------------------------------------------


@pytest.fixture
def planted_file(tmp_path):
    target = make_planted(5, 2, 2, 4, 4, seed=5)
    path = tmp_path / "planted.target"
    save_target(path, target)
    return path, target


def test_attack_round_trip(capsys, tmp_path, planted_file):
    target_path, target = planted_file
    records = tmp_path / "records.txt"
    code, out, _ = run(
        capsys,
        "attack-pre",
        "--target",
        str(target_path),
        "--budget",
        "1000000",
        "--seed",
        "9",
        "--out",
        str(records),
    )
    assert code == EXIT_OK
    assert "status=complete" in out and "rank=2/2" in out
    content = records.read_text()
    assert "# seed: 9" in content

    first = records.read_bytes()
    code, _, _ = run(
        capsys,
        "attack-pre",
        "--target",
        str(target_path),
        "--budget",
        "1000000",
        "--seed",
        "9",
        "--out",
        str(records),
    )
    assert code == EXIT_OK
    assert records.read_bytes() == first  # byte-identical reruns

    code, out, _ = run(
        capsys,
        "attack-online",
        "--target",
        str(target_path),
        "--records",
        str(records),
    )
    assert code == EXIT_OK
    key_line = next(l for l in out.splitlines() if l.startswith("key:"))
    expected = ",".join(str(int(v)) for v in target.key)
    assert key_line == f"key: {expected}"


def test_attack_pre_budget_exhaustion_exit_code(capsys, tmp_path, planted_file):
    target_path, _ = planted_file
    records = tmp_path / "records.txt"
    code, out, _ = run(
        capsys,
        "attack-pre",
        "--target",
        str(target_path),
        "--budget",
        "2",
        "--seed",
        "9",
        "--out",
        str(records),
    )
    assert code == EXIT_INCOMPLETE
    assert "status=budget-exhausted" in out


def test_attack_online_detects_corruption(capsys, tmp_path, planted_file):
    target_path, _ = planted_file
    records = tmp_path / "records.txt"
    run(
        capsys,
        "attack-pre",
        "--target",
        str(target_path),
        "--budget",
        "1000000",
        "--seed",
        "9",
        "--out",
        str(records),
    )
    lines = records.read_text().splitlines()
    idx, line = next(
        (i, l) for i, l in enumerate(lines) if l.startswith("record ")
    )
    # corrupt the first coefficient of the first record
    parts = line.split(" ")
    cfield = next(i for i, p in enumerate(parts) if p.startswith("c="))
    cvals = parts[cfield][2:].split(",")
    cvals[0] = str((int(cvals[0]) + 1) % 5)
    parts[cfield] = "c=" + ",".join(cvals)
    lines[idx] = " ".join(parts)
    records.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys,
        "attack-online",
        "--target",
        str(target_path),
        "--records",
        str(records),
    )
    assert code == EXIT_INVARIANT
    assert "status=inconsistent" in out


def test_attack_pre_requires_seed(capsys, tmp_path, planted_file):
    target_path, _ = planted_file
    code = main(
        [
            "attack-pre",
            "--target",
            str(target_path),
            "--out",
            str(tmp_path / "r.txt"),
        ]
    )
    capsys.readouterr()
    assert code == EXIT_INPUT


def _pre_records(capsys, tmp_path, target_path):
    records = tmp_path / "records.txt"
    code, _, _ = run(
        capsys,
        "attack-pre",
        "--target",
        str(target_path),
        "--seed",
        "9",
        "--out",
        str(records),
    )
    assert code == EXIT_OK
    return records


@pytest.mark.parametrize(
    "other",
    [
        make_planted(5, 2, 3, 4, 4, seed=5),  # one more secret variable
        make_planted(5, 3, 2, 4, 4, seed=5),  # one more public variable
        make_planted(7, 2, 2, 4, 4, seed=5),  # another field
    ],
)
def test_attack_online_rejects_records_for_another_target(
    capsys, tmp_path, planted_file, other
):
    records = _pre_records(capsys, tmp_path, planted_file[0])
    other_path = tmp_path / "other.target"
    save_target(other_path, other)
    code, out, err = run(
        capsys, "attack-online", "--target", str(other_path), "--records", str(records)
    )
    assert code == EXIT_INPUT
    assert err.startswith("error:") and "status=" not in out


def test_attack_online_rejects_malformed_term(capsys, tmp_path, planted_file):
    target_path, _ = planted_file
    records = _pre_records(capsys, tmp_path, target_path)
    text = records.read_text()
    records.write_text(text.replace("record term=", "record term=y", 1))
    code, _, err = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert code == EXIT_INPUT and err.startswith("error:")


def test_attack_pre_rejects_zero_trials(capsys, tmp_path, planted_file):
    target_path, _ = planted_file
    code, _, err = run(
        capsys,
        "attack-pre",
        "--target",
        str(target_path),
        "--trials",
        "0",
        "--seed",
        "9",
        "--out",
        str(tmp_path / "r.txt"),
    )
    assert code == EXIT_INPUT and err.startswith("error:")


def test_toy_cipher_target_through_cli(capsys, tmp_path):
    cipher = ToyCipher(ToyCipherParams(5, 1, 3, 2, 2, 3))
    target_path = tmp_path / "toy.target"
    save_target(target_path, cipher)
    records = tmp_path / "records.txt"
    code, out, _ = run(
        capsys,
        "attack-pre",
        "--target",
        str(target_path),
        "--budget",
        "1000000",
        "--seed",
        "11",
        "--out",
        str(records),
    )
    assert code == EXIT_OK and "rank=2/2" in out
    code, out, _ = run(
        capsys,
        "attack-online",
        "--target",
        str(target_path),
        "--records",
        str(records),
    )
    assert code == EXIT_OK
    expected = ",".join(str(int(v)) for v in cipher.key)
    assert f"key: {expected}" in out


# -- verify ---------------------------------------------------------------------


def test_verify_quick_passes(capsys):
    code, out, _ = run(capsys, "verify", "--seed", "7", "--sizes", "quick")
    assert code == EXIT_OK
    assert out.count("PASS") == 4 and "FAIL" not in out


# -- key confirmation -------------------------------------------------------------


@pytest.fixture
def toy_records(capsys, tmp_path):
    cipher = ToyCipher(ToyCipherParams(7, 2, 4, 4, 4, 3))
    target_path = tmp_path / "toy.target"
    save_target(target_path, cipher)
    records = tmp_path / "records.txt"
    code, _, _ = run(
        capsys, "attack-pre", "--target", str(target_path), "--seed", "1",
        "--out", str(records),
    )
    assert code == EXIT_OK
    return target_path, records, cipher


def test_attack_online_confirms_recovered_key(capsys, toy_records):
    target_path, records, cipher = toy_records
    code, out, _ = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert code == EXIT_OK
    assert "status=recovered rank=4 online-probes=16" in out
    assert "key: " + ",".join(str(int(v)) for v in cipher.key) in out
    assert any(line.startswith("confirmed") for line in out.splitlines())


def test_attack_online_refutes_key_from_corrupted_c0(capsys, toy_records):
    # one wrong constant still gives a full-rank, consistent system: the solve
    # recovers a wrong key that only the check against the oracle catches
    target_path, records, cipher = toy_records
    lines = records.read_text().splitlines()
    idx = next(i for i, l in enumerate(lines) if l.startswith("record "))
    parts = lines[idx].split(" ")
    c0 = next(i for i, p in enumerate(parts) if p.startswith("c0="))
    parts[c0] = f"c0={(int(parts[c0][3:]) + 1) % 7}"
    lines[idx] = " ".join(parts)
    records.write_text("\n".join(lines) + "\n")
    code, out, _ = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert code == EXIT_INVARIANT
    assert "status=recovered" in out
    assert "key: " + ",".join(str(int(v)) for v in cipher.key) not in out
    assert any(line.startswith("refuted") for line in out.splitlines())
    assert "confirmed" not in out


def test_attack_pre_rejects_oversized_target(capsys, tmp_path):
    target_path = tmp_path / "wide.target"
    target_path.write_text(
        "kind: toy-cipher\nfield: 7\npublic: 4\nsecret: 4\nrounds: 2\n"
        "width: 65\nseed: 3\n"
    )
    code, out, err = run(
        capsys, "attack-pre", "--target", str(target_path), "--seed", "1",
        "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_INPUT and err.startswith("error:") and "width" in err
    assert not (tmp_path / "r.txt").exists()


# -- input checks before any probe or record line --------------------------------


def test_attack_pre_rejects_negative_max_mult(capsys, tmp_path):
    target_path = tmp_path / "toy.target"
    save_target(target_path, ToyCipher(ToyCipherParams(7, 2, 4, 4, 4, 3)))
    out_path = tmp_path / "r.txt"
    code, out, err = run(
        capsys, "attack-pre", "--target", str(target_path), "--max-mult", "-3",
        "--seed", "1", "--out", str(out_path),
    )
    assert code == EXIT_INPUT and err.startswith("error:")
    assert "status=" not in out
    assert not out_path.exists()


def test_attack_online_checks_the_header_before_record_lines(
    capsys, tmp_path, planted_file
):
    # the header names one more public variable than the target has; the
    # record line after it cannot be parsed, and must never be reached
    target_path, target = planted_file
    records = tmp_path / "records.txt"
    records.write_text(
        f"field: {target.spec.text}\npublic: {target.n_pub + 1}\n"
        f"secret: {target.n_sec}\nrecord term=?? c0=x c=y evals=z\n"
    )
    code, out, err = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert code == EXIT_INPUT and "status=" not in out
    assert err.startswith("error:") and "does not match the target's" in err
    assert "cannot parse" not in err


def test_attack_online_refuses_an_oversized_replay(capsys, tmp_path):
    # one record whose grid holds 7^12 points, over the replay cap: refused
    # before any grid is built
    target_path = tmp_path / "toy.target"
    save_target(target_path, ToyCipher(ToyCipherParams(7, 1, 4, 12, 2, 3)))
    term = "*".join(f"x{i}^6" for i in range(1, 13))
    records = tmp_path / "records.txt"
    records.write_text(
        f"field: 7\npublic: 12\nsecret: 2\nrecord term={term} c0=0 c=1,0 evals=0\n"
    )
    started = time.perf_counter()
    code, out, err = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert time.perf_counter() - started < 1.0
    assert code == EXIT_INPUT and "status=" not in out
    assert err.startswith("error:") and str(DEFAULT_BUDGET) in err


def test_attack_online_prints_the_pinned_variables(capsys, tmp_path, planted_file):
    # one record pins x1 and leaves x2 free: rank 1 of 2
    target_path, target = planted_file
    records = tmp_path / "records.txt"
    records.write_text(
        f"field: {target.spec.text}\npublic: {target.n_pub}\n"
        f"secret: {target.n_sec}\nrecord term=x1 c0=3 c=1,0 evals=0\n"
    )
    code, out, _ = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    [rhs] = superpoly_oracle(target.blackbox(), (1, 0))([tuple(map(int, target.key))])
    assert code == EXIT_INCOMPLETE
    assert "status=partial rank=1 online-probes=2" in out
    assert f"solved: x1={(rhs - 3) % target.spec.p}\n" in out


def test_attack_pre_rejects_an_extension_field_target(capsys, tmp_path):
    target_path = tmp_path / "gf9.target"
    target_path.write_text(
        "kind: planted\nfield: 3^2/1,2,2\npublic: 2\nsecret: 2\n"
        "total-degree: 3\nextra-terms: 2\nseed: 1\n"
    )
    code, out, err = run(
        capsys, "attack-pre", "--target", str(target_path), "--seed", "1",
        "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_INPUT and "status=" not in out
    assert err.startswith("error:") and "prime fields" in err


def test_attack_pre_rejects_a_zero_budget(capsys, tmp_path, planted_file):
    code, out, err = run(
        capsys, "attack-pre", "--target", str(planted_file[0]), "--budget", "0",
        "--seed", "1", "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_INPUT and "status=" not in out
    assert err.startswith("error:") and "budget" in err


@pytest.mark.parametrize(
    "records_text,message",
    [
        # c= holds three of the four secret coefficients
        (
            "field: 7\npublic: 4\nsecret: 4\n"
            "record term=x1 c0=0 c=1,0,0 evals=0\n",
            "record width",
        ),
        ("public: 4\nsecret: 4\n", "missing field header"),
        # a multiplicity of p differences every function to zero
        (
            "field: 7\npublic: 4\nsecret: 4\n"
            "record term=x1^7 c0=0 c=1,0,0,0 evals=0\n",
            "below p",
        ),
    ],
)
def test_attack_online_rejects_bad_records(capsys, tmp_path, records_text, message):
    target_path = tmp_path / "toy.target"
    save_target(target_path, ToyCipher(ToyCipherParams(7, 2, 4, 4, 4, 3)))
    records = tmp_path / "records.txt"
    records.write_text(records_text)
    code, out, err = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert code == EXIT_INPUT and "status=" not in out
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize(
    "args",
    [
        ["--field", "31", "--poly", "{}*x1", "--plan", "x1"],
        ["--field", "31", "--poly", "x1^{}", "--plan", "x1"],
        ["--field", "31", "--poly", "x{}", "--plan", "x1"],
        ["--field", "31", "--poly", "x1", "--plan", "x{}"],
        ["--field", "{}", "--poly", "x1", "--plan", "x1"],
    ],
)
def test_diff_integers_past_the_digit_limit_are_input_errors(
    capsys, long_digits, args
):
    code, out, err = run(capsys, "diff", *[a.format(long_digits) for a in args])
    assert code == EXIT_INPUT and not out
    assert "integer of 5000 digits is too long (at position" in err
    assert "set_int_max_str_digits" not in err


def test_target_seed_past_the_digit_limit_is_an_input_error(
    capsys, tmp_path, long_digits
):
    target_path = tmp_path / "planted.target"
    target_path.write_text(
        "kind: planted\nfield: 31\npublic: 3\nsecret: 4\ntotal-degree: 5\n"
        f"extra-terms: 12\nseed: {long_digits}\n"
    )
    code, out, err = run(
        capsys, "attack-pre", "--target", str(target_path), "--seed", "1",
        "--out", str(tmp_path / "r.txt"),
    )
    assert code == EXIT_INPUT and not out
    assert err == "error: target seed is not an integer within Python's digit limit\n"
    assert not (tmp_path / "r.txt").exists()


def test_record_c0_past_the_digit_limit_is_an_input_error(
    capsys, tmp_path, long_digits
):
    target_path = tmp_path / "toy.target"
    save_target(target_path, ToyCipher(ToyCipherParams(7, 2, 4, 4, 4, 3)))
    records = tmp_path / "records.txt"
    records.write_text(
        "field: 7\npublic: 4\nsecret: 4\n"
        f"record term=x1 c0={long_digits} c=1,0,0,0 evals=0\n"
    )
    code, out, err = run(
        capsys, "attack-online", "--target", str(target_path), "--records", str(records)
    )
    assert code == EXIT_INPUT and not out
    assert err == (
        "error: record file c0 is not an integer within Python's digit limit\n"
    )


def test_package_errors_map_to_the_input_exit():
    # main catches ValueError for exit 2, so each package error must be one
    for error in (
        FieldError, ParseError, PolyError, DiffError, AttackError, TargetError,
        ReductionError,
    ):
        assert issubclass(error, ValueError)


# -- malformed target and record files ----------------------------------------------

# what a mutated value becomes: small, negative, huge, empty and non-numeric
# tokens (`int` reads "1_0" and the Arabic-Indic digit three)
TOKENS = (
    "0", "1", "2", "4", "-1", "-7", str(10**30), str(2**61 - 1),
    "", "x", "1.5", "0x1f", "nan", "1_0", "\u0663",
)
# a size field takes only small in-range values, or values outside its
# range and garbage, so that no example builds a large target
SIZE_TOKENS = ("0", "1", "2", "3", "-1", "65", str(10**30), "", "x", "1.5")
# the separators a line splits into tokens at: "key: value", "term=x1^2*x3",
# "c=1,2"
_SEPARATORS = re.compile(r"([\s=:,*^]+)")


@pytest.fixture(scope="module")
def valid_toy_files(tmp_path_factory):
    """A small toy target file, the record file `attack-pre` writes for it,
    and a directory for the mutated copies."""
    work = tmp_path_factory.mktemp("fuzz")
    target_path = work / "valid.target"
    save_target(target_path, ToyCipher(ToyCipherParams(5, 1, 3, 2, 2, 3)))
    records = work / "valid.txt"
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(
            ["attack-pre", "--target", str(target_path), "--seed", "11",
             "--out", str(records)]
        )
    assert code == EXIT_OK
    return target_path.read_text(), records.read_text(), work


def _mutate(data, text):
    """Drops, duplicates, swaps or retokenises up to three lines."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["drop", "duplicate", "swap", "token"]))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            parts = _SEPARATORS.split(lines[i])
            k = data.draw(st.sampled_from(range(0, len(parts), 2)))
            pool = SIZE_TOKENS if parts[0] in KINDS["toy-cipher"].sizes else TOKENS
            parts[k] = data.draw(st.sampled_from(pool))
            lines[i] = "".join(parts)
    return "\n".join(lines) + "\n"


@given(st.data())
def test_malformed_files_map_to_exit_codes(valid_toy_files, data):
    target_text, records_text, work = valid_toy_files
    target_path, records = work / "fuzzed.target", work / "fuzzed.txt"
    target_path.write_text(_mutate(data, target_text))
    records.write_text(_mutate(data, records_text))
    runs = [
        ["attack-pre", "--target", str(target_path), "--budget", "2000",
         "--seed", "1", "--out", str(work / "pre.txt")],
        ["attack-online", "--target", str(target_path), "--records", str(records)],
    ]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        codes = [main(argv) for argv in runs]
    assert set(codes) <= {EXIT_OK, EXIT_INPUT, EXIT_INCOMPLETE, EXIT_INVARIANT}
