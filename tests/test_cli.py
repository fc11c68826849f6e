import json
import subprocess
import sys

import pytest

from idemfree import FiniteSemigroup, InvalidParameters, format_cayley_table, group_nil_chain, parse_cayley_table
from idemfree.cli import main
from idemfree.verify import run_verification
from oracles import left_zero_semigroup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_table(tmp_path, S, name="s.table"):
    path = tmp_path / name
    path.write_text(format_cayley_table(S))
    return str(path)


def write_seq(tmp_path, terms, name="s.seq"):
    path = tmp_path / name
    path.write_text(" ".join(str(t) for t in terms) + "\n")
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write_table(tmp_path, group_nil_chain(2, 2))
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 4
    assert payload["idempotentCount"] == 2
    assert payload["commutative"] is True
    assert payload["zeroElement"] == 3


def test_validate_rejects_non_associative(tmp_path, capsys):
    path = tmp_path / "bad.table"
    path.write_text("2\n0 1\n0 0\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "(1, 0, 1)" in err


def test_validate_rejects_malformed_row(tmp_path, capsys):
    path = tmp_path / "bad.table"
    path.write_text("2\n0 1 1\n0 0\n")
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "entries" in err


def test_constants_z4(tmp_path, capsys):
    from idemfree import cyclic_group

    path = write_table(tmp_path, cyclic_group(4))
    code, out, _ = run_cli(capsys, "constants", path)
    assert code == 0
    reports = json.loads(out)
    assert [(r["kind"], r["value"]) for r in reports] == [
        ("ErdosBurgess", 4),
        ("StrongErdosBurgess", 4),
        ("Davenport", 4),
    ]


def test_constants_group_nil_chain(tmp_path, capsys):
    path = write_table(tmp_path, group_nil_chain(3, 2))
    code, out, _ = run_cli(capsys, "constants", path, "--which", "I,D")
    assert code == 0
    reports = json.loads(out)
    assert [(r["kind"], r["value"]) for r in reports] == [("ErdosBurgess", 4), ("Davenport", 3)]


def test_constants_pooled_matches_serial(tmp_path, capsys):
    # a commutative table, and a noncommutative one of order 4 whose I
    # search rebuilds any-order sets (I = 2 < SI = 3); both go through the
    # process pool at 2 workers
    nilpotent = FiniteSemigroup([[3, 3, 3, 3], [3, 3, 3, 3], [3, 0, 3, 3], [3, 3, 3, 3]])
    cases = (
        (group_nil_chain(3, 2), [("ErdosBurgess", 4), ("StrongErdosBurgess", 4), ("Davenport", 3)]),
        (nilpotent, [("ErdosBurgess", 2), ("StrongErdosBurgess", 3)]),
    )
    for S, want in cases:
        path = write_table(tmp_path, S)
        outputs = []
        for workers in ("1", "2"):
            code, out, _ = run_cli(capsys, "constants", path, "--workers", workers)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]
        assert [(r["kind"], r["value"]) for r in json.loads(outputs[1])] == want


def test_constants_skips_davenport_on_noncommutative(tmp_path, capsys):
    path = tmp_path / "lz.table"
    path.write_text("2\n0 0\n1 1\n")
    code, out, err = run_cli(capsys, "constants", str(path))
    assert code == 0
    reports = json.loads(out)
    assert [(r["kind"], r["value"]) for r in reports] == [
        ("ErdosBurgess", 1),
        ("StrongErdosBurgess", 1),
    ]
    assert "skipped" in err


def test_products_and_free_check(tmp_path, capsys):
    path = write_table(tmp_path, group_nil_chain(2, 2))
    seq = write_seq(tmp_path, [0, 2])
    code, out, _ = run_cli(capsys, "products", path, seq)
    assert code == 0
    assert json.loads(out) == {"anyOrder": [0, 2], "naturalOrder": [0, 2]}
    code, out, _ = run_cli(capsys, "free-check", path, seq)
    assert json.loads(out) == {"mode": "weak", "free": True}
    code, out, _ = run_cli(capsys, "free-check", path, seq, "--strong")
    assert json.loads(out) == {"mode": "strong", "free": True}


@pytest.mark.parametrize(
    "text, message",
    [("1 2\n0 1\n", "one line of indices, got 2 data lines"), ("0 x\n", "sequence term 'x' is not an integer")],
)
def test_free_check_rejects_bad_sequence_file(tmp_path, capsys, text, message):
    path = write_table(tmp_path, group_nil_chain(2, 2))
    seq = tmp_path / "bad.seq"
    seq.write_text(text)
    code, out, err = run_cli(capsys, "free-check", path, str(seq))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_check_extremal(tmp_path, capsys):
    path = write_table(tmp_path, group_nil_chain(2, 2))
    seq = write_seq(tmp_path, [0, 2])
    code, out, _ = run_cli(capsys, "check-extremal", path, seq)
    assert code == 0
    payload = json.loads(out)
    assert payload["weaklyFree"] is True
    assert payload["certificate"]["verdict"] == "pass"
    assert payload["equivalenceHolds"] is True


def test_check_extremal_wrong_length(tmp_path, capsys):
    path = write_table(tmp_path, group_nil_chain(2, 2))
    seq = write_seq(tmp_path, [0])
    code, _, err = run_cli(capsys, "check-extremal", path, seq)
    assert code == 1
    assert "1" in err and "2" in err  # actual vs expected lengths


def test_gen_roundtrip_is_byte_identical(tmp_path, capsys):
    out_path = tmp_path / "z5.table"
    code, _, _ = run_cli(capsys, "gen", "cyclic-group", "5", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert format_cayley_table(parse_cayley_table(text)) == text
    code, _, _ = run_cli(capsys, "validate", str(out_path))
    assert code == 0


def test_gen_extremal_writes_pair(tmp_path, capsys):
    base = str(tmp_path / "ext")
    code, _, _ = run_cli(
        capsys, "gen", "extremal",
        "--component", "mono:1,3", "--component", "gbn:2,2", "--out", base,
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "check-extremal", base + ".table", base + ".seq")
    assert code == 0
    assert json.loads(out)["equivalenceHolds"] is True


def test_gen_bad_params(tmp_path, capsys):
    code, _, err = run_cli(capsys, "gen", "cyclic-group", "5", "7")
    assert code == 1 and "parameter" in err
    code, _, err = run_cli(capsys, "gen", "extremal", "--component", "mono:2,2", "--out", str(tmp_path / "x"))
    assert code == 1


def test_enumerate_order2(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--order", "2")
    assert code == 0
    blocks = [b for b in out.split("\n\n") if b.strip()]
    assert len(blocks) == 8
    assert "enumerated 8" in err


def test_enumerate_respects_order_cap(capsys):
    code, _, err = run_cli(capsys, "enumerate", "--order", "5")
    assert code == 1
    assert "cap" in err


def test_verify_quick(tmp_path, capsys):
    log_path = tmp_path / "run.json"
    code, out, _ = run_cli(
        capsys, "verify", "--max-order", "2",
        "--checks", "ghw-bound,strong-vs-weak", "--log", str(log_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["allPassed"] is True
    assert payload["corpus"]["semigroups"] == 9
    assert log_path.read_text() == out


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "nope")
    assert code == 1
    assert "unknown checks" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--workers", "0"], "--workers must be at least 1, got 0"),
        (["constants", "--workers", "-2"], "--workers must be at least 1, got -2"),
        (["constants", "--which", ","], "--which ',' names no constant"),
        (["verify", "--workers", "0"], "workers must be at least 1, got 0"),
        (["verify", "--max-order", "0"], "max_order must be at least 1, got 0"),
        (["verify", "--max-order", "-3"], "max_order must be at least 1, got -3"),
        (["verify", "--checks", ","], "no checks selected"),
        (["verify", "--checks", ""], "no checks selected"),
    ],
)
def test_bad_counts_fail_at_once(tmp_path, capsys, argv, message):
    if argv[0] == "constants":
        argv = [argv[0], write_table(tmp_path, group_nil_chain(2, 2))] + argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_run_verification_rejects_zero_workers():
    with pytest.raises(InvalidParameters, match="workers must be at least 1, got 0"):
        run_verification(workers=0)


def test_verify_logs_identical_across_worker_counts(tmp_path, capsys):
    args = ["verify", "--max-order", "2", "--checks", "ghw-bound,extremal-equivalence"]
    one = tmp_path / "one.json"
    three = tmp_path / "three.json"
    assert run_cli(capsys, *args, "--log", str(one))[0] == 0
    assert run_cli(capsys, *args, "--workers", "3", "--log", str(three))[0] == 0
    assert one.read_bytes() == three.read_bytes()


def test_verify_exits_nonzero_on_failure(capsys, monkeypatch):
    import idemfree.cli as cli_mod

    def fake_run(**kwargs):
        return {
            "corpus": {"maxOrder": 1, "commutativeOnly": False, "semigroups": 1},
            "requestedChecks": ["ghw-bound"],
            "checks": [{"id": "ghw-bound", "instances": 1, "passed": 0, "failed": 1, "failures": []}],
            "summary": {"instances": 1, "passed": 0, "failed": 1, "allPassed": False},
        }

    monkeypatch.setattr(cli_mod.verify, "run_verification", fake_run)
    code, out, _ = run_cli(capsys, "verify", "--max-order", "1")
    assert code == 1
    assert json.loads(out)["summary"]["allPassed"] is False


def test_module_entry_point(tmp_path):
    S = group_nil_chain(2, 2)
    path = write_table(tmp_path, S)
    proc = subprocess.run(
        [sys.executable, "-m", "idemfree", "validate", path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 4


def test_products_refuses_oversized_dp(tmp_path, capsys):
    path = write_table(tmp_path, left_zero_semigroup(25))
    code, out, err = run_cli(capsys, "products", path, write_seq(tmp_path, range(25)))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "states" in err


def test_max_enum_order_flag(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--order", "3", "--max-enum-order", "3")
    assert code == 0
    assert len([b for b in out.split("\n\n") if b.strip()]) == 113


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"workers": 1.5}, "workers 1.5 is not an integer"),
        ({"max_order": 2.5}, "max_order 2.5 is not an integer"),
        ({"enum_cap": 2.5}, "enum_cap 2.5 is not an integer"),
        ({"checks": "ghw-bound"}, "checks must be a list of check ids, not the string 'ghw-bound'"),
        ({"checks": ["ghw-bound", "nope"]}, r"unknown checks: \['nope'\]"),
    ],
)
def test_run_verification_rejects_bad_arguments(kwargs, message):
    with pytest.raises(InvalidParameters, match=message):
        run_verification(**{"max_order": 1, **kwargs})
