"""Every pinned output of the command line and the verifier, in one table.

Each entry of PINS is an id, a call, the value the call must return, and
whether it is slow; slow entries run only with IDEMFREE_SLOW_TESTS set. A
call returns a sha256, check counters or (kind, value, nodes) triples; its
parameters name the fixtures it reads, and it runs in a fresh working
directory. The command line runs in process, except where a fresh
interpreter's hash seed is the point.
"""

import hashlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from idemfree import FiniteSemigroup, cyclic_group, enumerate_semigroups, erdos_burgess, format_cayley_table, verify
from idemfree import extremal_main_form, extremal_structure_check, idempotents, monogenic, strong_erdos_burgess
from idemfree.cli import main
from conftest import slow
from oracles import dihedral


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli(*argv) -> tuple[str, str]:
    """stdout and stderr of one successful in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([str(a) for a in argv])
    assert code == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def _gen(*params) -> str:
    return _cli("gen", *params)[0]


def _triples(reports: str) -> list[tuple]:
    return [(r["kind"], r["value"], r["nodesExplored"]) for r in json.loads(reports)]


def _constants(table: str, which: str) -> list[tuple]:
    Path("s.table").write_text(table)
    return _triples(_cli("constants", "s.table", "--which", which)[0])


def _band_over(S: FiniteSemigroup) -> str:
    # a left-zero band below S: noncommutative, but its letters commute
    n = S.order + 2
    rows = [[0, 0, *range(2, n)], [1, 1, *range(2, n)]]
    rows += [[a + 2, a + 2, *(v + 2 for v in row)] for a, row in enumerate(S.table)]
    return format_cayley_table(FiniteSemigroup(rows))


def _heavy(m: int, *argv) -> str:
    """stdout of a command after ``gen extremal`` writes heavy.table and
    heavy.seq for gbn(3, 3), m trivial groups and mono(3, 2): k = 7, |S| = m + 9."""
    parts = ["gbn:3,3"] + ["mono:1,1"] * m + ["mono:3,2"]
    _cli("gen", "extremal", *(a for part in parts for a in ("--component", part)), "--out", "heavy")
    return _cli(*argv)[0]


def _tail(*argv) -> tuple[str, str]:
    """The count line and the sha256 of the tables of a resumed order-5 stream."""
    out, err = _cli("enumerate", "--order", 5, "--max-enum-order", 5, "--resume-from", *argv)
    return err.strip(), _sha(out)


def _verify_run(*argv, seed: str = "random") -> str:
    """The sha256 of the log of ``python -m idemfree verify`` under a hash seed."""
    env = {**os.environ, "PYTHONPATH": str(Path(verify.__file__).parents[1]), "PYTHONHASHSEED": seed}
    argv = [sys.executable, "-m", "idemfree", "verify", *map(str, argv)]
    proc = subprocess.run(argv, capture_output=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(proc.stdout).hexdigest()


def _commutative_5(workers: int) -> tuple[str, tuple]:
    """The sha256 of the commutative order-5 log and its equivalence counters."""
    checks = "ghw-bound,extremal-equivalence,strong-vs-weak,nil-product-lemma"
    argv = ["--max-order", 5, "--commutative", "--max-enum-order", 5, "--checks", checks, "--workers", workers]
    text = _cli("verify", *argv)[0]
    c = next(c for c in json.loads(text)["checks"] if c["id"] == "extremal-equivalence")
    return _sha(text), (c["sequences"], c["freeSequences"], c["lambdaChecked"], c["failed"])


def _equivalence(corpus_le4) -> tuple:
    c = verify.check_extremal_equivalence(corpus_le4)
    keys = ("instances", "passed", "failed", "sequences", "freeSequences", "lambdaChecked")
    return tuple(map(c.get, keys)), _sha(json.dumps(c, sort_keys=True))


def _reports(reports) -> tuple[int, str]:
    reports = [r.to_json_dict() for r in reports]
    return len(reports), _sha(json.dumps(reports))


def _certificates(commutative_le4) -> str:
    """The sha256 of every certificate and main-form verdict over the
    multisets of length |S \\ E(S)| of the commutative order <= 4 tables."""
    rows = [
        [extremal_structure_check(S, m).to_json_dict(), extremal_main_form(S, m)]
        for S in commutative_le4
        for m in itertools.combinations_with_replacement(S.elements, S.order - len(idempotents(S)))
    ]
    return _sha(json.dumps(rows))


def _families(workers: int, max_components: int, max_terms: int) -> tuple:
    with verify._fan_out(workers) as map_fn:
        c = verify.check_extremal_families(map_fn, max_components, max_terms)
    return c["instances"], c["passed"], c["failed"]


I, SI, D = "ErdosBurgess", "StrongErdosBurgess", "Davenport"
V4 = "f0b6e86fad7037aee9cd55ca2ef6acb346ef033a2800ca0f67285b41f5bbc313"
C5 = ("c7b0023ca3bea634dffaa7afa24a7f49f706a56e827400250cb9e208ab9396ee", (1556783, 26295, 44954, 0))
HEAVY = [(I, 8, 399), (SI, 8, 25690)]

PINS = [  # (id, call, expected, slow)
    # deep searches; then left-zero bands below C12 and monogenic(13, 12)
    ("c24", lambda: _constants(_gen("cyclic-group", 24), "I,SI,D"),
     [(I, 24, 645349), (SI, 24, 2153425140), (D, 24, 764517)], False),
    ("c12", lambda: _constants(_gen("cyclic-group", 12), "I,SI,D"),
     [(I, 12, 4004), (SI, 12, 173932), (D, 12, 5084)], False),
    ("m13-12", lambda: _constants(_gen("monogenic", 13, 12), "I,D"), [(I, 24, 304909), (D, 25, 305653)], False),
    ("gnc10-10", lambda: _constants(_gen("group-nil-chain", 10, 10), "I,D"), [(I, 19, 272283), (D, 11, 7371)], False),
    ("m11-5", lambda: _constants(_gen("monogenic", 11, 5), "SI"), [(SI, 15, 514080)], False),
    ("d16", lambda: _constants(format_cayley_table(dihedral(8)), "I,SI"), [(I, 9, 8514), (SI, 9, 2436780)], False),
    ("band-c12", lambda: _constants(_band_over(cyclic_group(12)), "I,SI"), [(I, 12, 4004), (SI, 12, 173932)], False),
    ("band-m13-12", lambda: _constants(_band_over(monogenic(13, 12)), "I"), [(I, 24, 304909)], False),
    # order-5 streams resumed mid-stream; the commutative prefix ends on a
    # lower cell, above its mirror's value
    ("c5-tail", lambda: _tail("2 " * 16 + "3", "--commutative"),
     ("enumerated 8603 tables of order 5", "acbc2de7dd044651d88681bc70766795957fefa3872462242a90eb0ba6ce97d9"), False),
    ("l5-tail", lambda: _tail("4 4 3 2 1"),
     ("enumerated 4895 tables of order 5", "2a8a7e8bb44604516839ab908ff8009e82de711d646f3a59d3f4d343e0be5637"), True),
    # idempotent-heavy extremal tables, |S| = 209 and 609
    ("check209", lambda: _sha(_heavy(200, "check-extremal", "heavy.table", "heavy.seq")),
     "1d878f0e8b6da56aff65f5160c162fed004f68a5d6df8e74323fd71d13427d96", False),
    ("heavy200", lambda: _triples(_heavy(200, "constants", "heavy.table", "--which", "I,SI")), HEAVY, True),
    ("heavy600", lambda: _triples(_heavy(600, "constants", "heavy.table", "--which", "I,SI")), HEAVY, True),
    # the default order-4 verify log, as ``verify --log`` writes it, in
    # process and in fresh interpreters
    ("v4", lambda acceptance_logs: _sha(json.dumps(acceptance_logs[0], indent=2) + "\n"), V4, False),
    ("v4-seed1", lambda: _verify_run(seed="1"), V4, True),
    ("v4-seed2-w2", lambda: _verify_run("--workers", 2, seed="2"), V4, True),
    ("v4-w64", lambda: _verify_run("--max-order", 4, "--workers", 64), V4, True),
    # the commutative order-5 log at 1 and 2 workers, with its counters
    ("c5-w1", lambda: _commutative_5(1), C5, True),
    ("c5-w2", lambda: _commutative_5(2), C5, True),
    # extremal-equivalence over labelled order 4, noncommutative tables included
    ("equivalence-l4", _equivalence,
     ((3614, 3614, 0, 16074, 3030, 2974), "b0148a48661c906036836314b715771b14db57bab9e303974154b22f4e67de2d"), False),
    # certificates and main forms over the 11 698 multisets of commutative order <= 4
    ("certificates-c4", _certificates, "bd45179208766f5afb647881662e55739a63a2edc904a2b8b33f456912f5b397", False),
    # I and SI reports over labelled order <= 4; I over the first 40 000 of order 5
    ("reports-l4",
     lambda corpus_le4: _reports(search(S) for S in corpus_le4 for search in (erdos_burgess, strong_erdos_burgess)),
     (7228, "4aeab43ff27985031053223ce0fc21a3a899b9fbb1c86a7cdd6f7dbd4480bf9b"), False),
    ("reports-l5", lambda: _reports(map(erdos_burgess, itertools.islice(enumerate_semigroups(5, max_order=5), 40000))),
     (40000, "8c69595f982278ce5e9ac8fe4ab53358e6cfded02facbb88760cde211defe43f"), True),
    # extremal-families past the default (3, 10): serial, and through the pool
    ("families-3-12", lambda: _families(1, 3, 12), (29894, 29894, 0), True),
    ("families-4-10-w2", lambda: _families(2, 4, 10), (106514, 106514, 0), True),
]


@pytest.mark.parametrize("call, want", [pytest.param(*pin[1:3], id=pin[0], marks=[slow] * pin[3]) for pin in PINS])
def test_pin(call, want, request, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert call(*map(request.getfixturevalue, inspect.signature(call).parameters)) == want
