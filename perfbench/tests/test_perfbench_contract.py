"""BENCHMARK.json agrees with the harness; generators are seeded; the
benchmark refuses to run without the program's sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from pbench import gen, layers, machine

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_lists_match_the_harness():
    e2e = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
    per = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    assert e2e == layers.END_TO_END
    assert per == layers.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_workloads_match_the_entry_point():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_service_stream_is_a_function_of_the_seed():
    a = gen.service_jobs(5, 2.0, 10.0)
    b = gen.service_jobs(5, 2.0, 10.0)
    c = gen.service_jobs(6, 2.0, 10.0)
    assert a == b
    assert a != c
    assert len(a) == len(c) == 20
    assert [j.due_s for j in a] == sorted(j.due_s for j in a)
    classes = [j.cls for j in a]
    assert classes.count("long") >= 1 and classes[0] != "repeat"
    fresh = {json.dumps(j.spec, sort_keys=True) for j in a
             if j.cls != "repeat"}
    assert len(fresh) == len(a) - classes.count("repeat")


def test_other_generators_are_seeded():
    assert gen.burst_variants(3, 8) == gen.burst_variants(3, 8)
    assert gen.campaign_seeds(3, 8) == gen.campaign_seeds(3, 8)
    assert gen.campaign_seeds(3, 8) != gen.campaign_seeds(4, 8)
    assert all(0 <= v < len(gen.BURST_DELAYS)
               for v in gen.burst_variants(3, 64))
    assert isinstance(gen.HELD_OUT_SEED, int)


def test_history_appends_and_flags_a_tier_change(tmp_path):
    path = tmp_path / "history.jsonl"
    fp = {"nproc": 2, "cpu": "x", "python": "3", "numpy": "2",
          "scipy": "1", "kernel_tier": "c", "kernel_cache_warm": True}
    entry = {"source": "abc", "workload": "rca32_tran", "machine": fp}
    assert machine.append_history(dict(entry), path)["comparable"]
    numpy_fp = dict(fp, kernel_tier="numpy")
    flagged = machine.append_history(dict(entry, machine=numpy_fp), path)
    assert not flagged["comparable"]
    assert "numpy" in flagged["not_comparable_reason"]
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["machine"]["kernel_tier"] == "c"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rca32_tran",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
