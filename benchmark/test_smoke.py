"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import metrics  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from idemfree import cyclic_group  # noqa: E402
from spans import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    REGISTERED = json.load(fh)


def test_search_counters_match_hand_counts():
    # C3 = {x, x^2, x^3 = e} as 0, 1, 2; the non-idempotents are 0 and 1.
    # I: from 0, the nodes (0), (0,0), (0,0,0), (0,0,1), (0,1): 5; from 1,
    #    (1), (1,1), (1,1,1): 3. Longest free (0,0), so I = 3.
    # SI: words from 0: (0), (0,0), (0,0,0), (0,0,1), (0,1): 5; from 1:
    #    (1), (1,0), (1,1), (1,1,0), (1,1,1): 5. SI = 3.
    # D: the identity 2 as first term is one node; from 0, (0) and six
    #    children tried: 7; from 1, (1), (1,1), (1,1,1), (1,1,2), (1,2): 5.
    tr = Tracer("hand-count")
    searches = []
    got = {kind: wl.traced_search(tr, searches, kind, cyclic_group(3)) for kind in ("I", "SI", "D")}
    assert {k: r.value for k, r in got.items()} == {"I": 3, "SI": 3, "D": 3}
    assert tr.counts["constants.weak_comm_nodes"] == 8 == got["I"].nodes_explored
    assert tr.counts["constants.strong_nodes"] == 10 == got["SI"].nodes_explored
    assert tr.counts["constants.davenport_nodes"] == 13 == got["D"].nodes_explored
    assert [s[2] for s in tr.spans] == ["constants.weak_comm", "constants.strong", "constants.davenport"]


def test_unit_timer_scales_to_reference_speed():
    timer = wl.UnitTimer()
    timer.record("unit", 2.0, 2.0)  # host at half its reference speed
    timer.record("unit", 3.0, 1.0)
    timer.record("other", 0.5, 1.0)
    assert timer.wall() == 2.5 and timer.raw_wall() == 3.0


def test_registered_metrics_match_definitions():
    assert [(m["name"], m["unit"], m["better"]) for m in REGISTERED["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in metrics.END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in REGISTERED["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _moves) in metrics.PER_LAYER.items()
    ]
    assert [w["name"] for w in REGISTERED["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_registered_metric_is_reported(workload, trace, capsys):
    rc = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.05", "--trace", str(trace)], sizes=wl.TINY
    )
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert rc == 0 and result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    registered = REGISTERED["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in registered} == {k: v["unit"] for k, v in result["metrics"].items()}
    report = json.loads(lines[-2])
    assert report["env"]["seed"] == 7 and report["env"]["nproc"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "search", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
