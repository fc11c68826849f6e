import json
from types import SimpleNamespace

import pytest

from idemfree import (
    FiniteSemigroup,
    InvalidParameters,
    enumerate_semigroups,
    format_cayley_table,
    group_nil_chain,
    parse_cayley_table,
)
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
    # search rebuilds any-order sets (I = 2 < SI = 3)
    nilpotent = FiniteSemigroup([[3, 3, 3, 3], [3, 3, 3, 3], [3, 0, 3, 3], [3, 3, 3, 3]])
    cases = (
        (group_nil_chain(3, 2), [("ErdosBurgess", 4), ("StrongErdosBurgess", 4), ("Davenport", 3)]),
        (nilpotent, [("ErdosBurgess", 2), ("StrongErdosBurgess", 3)]),
    )
    for S, want in cases:
        code, out, _ = run_cli(capsys, "constants", write_table(tmp_path, S))
        assert code == 0
        assert [(r["kind"], r["value"]) for r in json.loads(out)] == want


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
    [
        ("1 2\n0 1\n", "one line of indices, got 2 data lines"),
        ("0 x\n", "sequence term 'x' is not an integer"),
        ("1_0\n", "sequence term '1_0' is not an integer"),
        ("0 \uff12\n", "sequence term '\uff12' is not an integer"),
    ],
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


def test_check_extremal_checks_the_length_before_freeness(tmp_path, monkeypatch):
    # gbn(3, 3), 200 trivial groups and mono(3, 2): k = 7, |S| = 209; a
    # 6-term sequence is refused before any product set is built
    from idemfree import ExtremalSpec, GroupByNil, Monogenic, WrongLength, extremal_pair, seqprod
    from idemfree.cli import cmd_check_extremal

    S, T = extremal_pair(ExtremalSpec((GroupByNil(3, 3),) + (Monogenic(1, 1),) * 200 + (Monogenic(3, 2),)))
    assert (S.order, len(T.terms)) == (209, 7)
    args = SimpleNamespace(table=write_table(tmp_path, S), seq=write_seq(tmp_path, T.terms[:6]))

    def refuse(*_):
        raise AssertionError("product set built before the length was checked")

    monkeypatch.setattr(seqprod, "_any_mask", refuse)
    with pytest.raises(WrongLength, match=r"^sequence length 6 != \|S \\ E\(S\)\| = 7$"):
        cmd_check_extremal(args)


def test_gen_roundtrip_is_byte_identical(tmp_path, capsys):
    out_path = tmp_path / "z5.table"
    code, _, _ = run_cli(capsys, "gen", "cyclic-group", "5", "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert format_cayley_table(parse_cayley_table(text)) == text
    code, _, _ = run_cli(capsys, "validate", str(out_path))
    assert code == 0
    # without --out the same table goes to stdout
    code, out, err = run_cli(capsys, "gen", "cyclic-group", "5")
    assert (code, out, err) == (0, text, "")


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["extremal", "3", "4", "--component", "mono:1,2", "--out", "B"],
            "error: extremal generation takes no integer parameters, got [3, 4]; use --component\n",
        ),
        (
            ["cyclic-group", "3", "--component", "mono:1,2", "--adjoin-identity"],
            "error: family cyclic-group takes no --component or --adjoin-identity; only extremal generation does\n",
        ),
        (
            ["cyclic-group", "3", "--adjoin-identity"],
            "error: family cyclic-group takes no --adjoin-identity; only extremal generation does\n",
        ),
        (
            ["extremal", "--component", "mono:3", "--out", "B"],
            "error: bad component 'mono:3'; expected mono:I,P or gbn:N,P\n",
        ),
        (
            ["extremal", "--component", "foo:1,2", "--out", "B"],
            "error: unknown component kind 'foo'; expected mono or gbn\n",
        ),
        (
            ["extremal", "--out", "B"],
            "error: extremal generation needs at least one --component\n",
        ),
        (
            ["extremal", "--component", "mono:1,2"],
            "error: extremal generation needs --out BASE for the table and sequence files\n",
        ),
    ],
    ids=[
        "extremal-params", "family-component-and-identity", "family-identity",
        "extremal-short-component", "extremal-unknown-component", "extremal-no-component", "extremal-no-out",
    ],
)
def test_gen_refuses_arguments_it_would_ignore(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 1
    assert out == ""
    assert err == message
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["enumerate", "--order", "5"],
            "error: order 5 exceeds the enumeration cap 4; raise it with --max-enum-order 5\n",
        ),
        (
            ["verify", "--max-order", "5", "--checks", "ghw-bound"],
            "error: order 5 exceeds the enumeration cap 4; raise it with --max-enum-order 5\n",
        ),
        (
            ["verify", "--max-order", "3", "--max-enum-order", "2", "--checks", "ghw-bound"],
            "error: order 3 exceeds the enumeration cap 2; raise it with --max-enum-order 3\n",
        ),
        # past the hard cap no flag helps, so none is named
        (["enumerate", "--order", "6", "--max-enum-order", "6"], "error: enumeration is capped at order 5\n"),
    ],
    ids=["enumerate", "verify", "verify-low-cap", "hard-cap"],
)
def test_enum_cap_error_names_the_flag(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == message


def test_enumerate_resume_from_matches_library(capsys):
    code, out, err = run_cli(capsys, "enumerate", "--order", "3", "--resume-from", "0,1 1 2")
    want = [format_cayley_table(S) for S in enumerate_semigroups(3, resume_from=[0, 1, 1, 2])]
    assert code == 0
    assert 0 < len(want) < 113
    assert out == "\n".join(want)
    assert f"enumerated {len(want)} tables of order 3" in err


@pytest.mark.parametrize(
    "prefix, message",
    [
        ("0 x", "error: --resume-from cell 'x' is not an integer\n"),
        ("0_1", "error: --resume-from cell '0_1' is not an integer\n"),
        ("0 \u0663", "error: --resume-from cell '\u0663' is not an integer\n"),
        ("0 2", "error: resume cell 2 is not in [0, 2)\n"),
        ("0 " * 5, "error: resume prefix has 5 cells, more than the 4 of order 2\n"),
    ],
    ids=["not-an-integer", "underscore", "non-ascii-digit", "out-of-range", "too-long"],
)
def test_enumerate_rejects_a_bad_resume_cell(capsys, prefix, message):
    code, out, err = run_cli(capsys, "enumerate", "--order", "2", "--resume-from", prefix)
    assert code == 1
    assert out == ""
    assert err == message


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


def test_verify_refuses_an_unwritable_log_before_the_run(tmp_path, capsys, monkeypatch):
    import idemfree.cli as cli_mod

    def no_run(**kwargs):
        raise AssertionError("the run started before the log path was checked")

    monkeypatch.setattr(cli_mod.verify, "run_verification", no_run)
    code, out, err = run_cli(capsys, "verify", "--log", str(tmp_path / "missing" / "run.json"))
    assert code == 1
    assert out == ""
    assert err.startswith("error: [Errno 2]")


def test_verify_keeps_an_existing_log_until_the_new_one_is_ready(tmp_path, capsys):
    # a refused run leaves the old log as it was; a finished one replaces it
    old = tmp_path / "old.json"
    old.write_text("previous log\n")
    code, out, err = run_cli(capsys, "verify", "--checks", "nope", "--log", str(old))
    assert code == 1 and out == "" and "unknown checks" in err
    assert old.read_text() == "previous log\n"
    code, out, _ = run_cli(capsys, "verify", "--max-order", "1", "--checks", "nil-product-lemma", "--log", str(old))
    assert code == 0
    assert old.read_text() == out


def test_verify_removes_a_log_it_created_when_the_run_fails(tmp_path, capsys):
    new = tmp_path / "new.json"
    code, out, err = run_cli(capsys, "verify", "--checks", "nope", "--log", str(new))
    assert code == 1 and out == "" and "unknown checks" in err
    assert not new.exists()


def test_verify_leaves_an_existing_log_when_the_run_fails(tmp_path, capsys, monkeypatch):
    import idemfree.cli as cli_mod

    def failed_run(**kwargs):
        raise InvalidParameters("the run failed")

    monkeypatch.setattr(cli_mod.verify, "run_verification", failed_run)
    old = tmp_path / "old.json"
    old.write_text("")
    code, out, err = run_cli(capsys, "verify", "--log", str(old))
    assert code == 1 and out == "" and err == "error: the run failed\n"
    assert old.exists() and old.read_text() == ""


def test_verify_rejects_unknown_check(capsys):
    code, _, err = run_cli(capsys, "verify", "--checks", "nope")
    assert code == 1
    assert "unknown checks" in err


def test_verify_rejects_a_repeated_check(capsys):
    # run twice, the check would count each of the 9 tables of order <= 2 twice
    code, out, err = run_cli(capsys, "verify", "--max-order", "2", "--checks", "ghw-bound,ghw-bound")
    assert code == 1
    assert out == ""
    assert err == "error: repeated checks: ['ghw-bound']; name each check once\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["constants", "--which", "I,Q"], "unknown constants ['Q']; choose from I, SI, D"),
        (["constants", "--which", "i,davenport"], "unknown constants ['DAVENPORT']; choose from I, SI, D"),
        (["constants", "--which", ","], "--which ',' names no constant"),
        (["verify", "--workers", "0"], "workers must be at least 1, got 0"),
        (["verify", "--max-order", "0"], "max_order must be at least 1, got 0"),
        (["verify", "--max-order", "-3"], "max_order must be at least 1, got -3"),
        (["verify", "--checks", ","], "no checks selected"),
        (["verify", "--checks", ""], "no checks selected"),
        (["constants", "--which", "I,I"], "repeated constants: ['I']; name each once"),
        (["constants", "--which", "d,SI,i,D,I"], "repeated constants: ['D', 'I']; name each once"),
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


def test_verify_summary_names_the_processes_that_ran(capsys, monkeypatch):
    # 64 workers on 2 CPUs start a pool of 2 processes, and the summary
    # says 2; the log is the one a serial run writes
    import idemfree.cli as cli_mod

    monkeypatch.setattr(cli_mod.verify.os, "cpu_count", lambda: 2)
    args = ["verify", "--max-order", "2", "--checks", "ghw-bound"]
    code, serial, err = run_cli(capsys, *args)
    assert code == 0
    assert err.endswith(" with 1 worker(s)\n")
    code, pooled, err = run_cli(capsys, *args, "--workers", "64")
    assert code == 0
    assert err.endswith(" with 2 worker(s)\n")
    assert pooled == serial


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
        # a set iterates in an order that follows the hash seed, and so would the log
        ({"checks": {"ghw-bound", "strong-vs-weak"}}, "^checks must be a list of check ids, not a set, whose order is not fixed$"),
        ({"checks": frozenset({"ghw-bound"})}, "not a frozenset, whose order is not fixed"),
        ({"checks": None}, "^checks must be a list of check ids, got None$"),
        ({"checks": ["ghw-bound", "nope"]}, r"unknown checks: \['nope'\]"),
        (
            {"checks": ["strong-vs-weak", "ghw-bound", "strong-vs-weak", "ghw-bound"]},
            r"^repeated checks: \['ghw-bound', 'strong-vs-weak'\]; name each check once$",
        ),
        ({"workers": True}, "workers True is not an integer"),
        ({"commutative_only": "no"}, "commutative_only must be True or False, got 'no'"),
    ],
)
def test_run_verification_rejects_bad_arguments(kwargs, message):
    with pytest.raises(InvalidParameters, match=message):
        run_verification(**{"max_order": 1, **kwargs})
