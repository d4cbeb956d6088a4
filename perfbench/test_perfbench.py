"""Tests of the benchmark itself (not of the program).

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._use_program_sources()

import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
MAPPING = json.loads((HERE / "mapping.json").read_text())

#: Shapes small enough for a test, one per workload.
TINY = {
    "sssp_twitter64": dict(scale_shift=6, n_ranks=8),
    "cc_tiny1024": dict(scale_shift=7, n_ranks=32),
    "live_update": dict(scale_shift=6, n_ranks=8, batch_edges=5),
}


def _tiny(name: str, seed: int = 3):
    spec = dataclasses.replace(workloads.SPECS[name], **TINY[name])
    return workloads.make(name, seed, seconds=3, spec=spec)


def test_names_are_declared_and_well_formed():
    declared = run.declared_metrics()
    names = [w["name"] for w in BENCH["workloads"]]
    names += list(declared["end_to_end"]) + list(declared["per_layer"])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    assert set(workloads.SPECS) == {w["name"] for w in BENCH["workloads"]}
    assert set(TINY) == set(workloads.SPECS)


def test_mapping_cites_declared_names():
    declared = run.declared_metrics()
    workload_names = set(workloads.SPECS)
    assert MAPPING["claim_holdout_seed"] == workloads.CLAIM_HOLDOUT_SEED
    for pred in MAPPING["predictions"]:
        assert set(pred["layer_metrics"]) <= set(declared["per_layer"]), pred["id"]
        for move in pred.get("moves", []) + pred.get("unchanged", []):
            assert move["metric"] in declared["end_to_end"], pred["id"]
            assert move["workload"] in workload_names, pred["id"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_passes_oracle_and_emits_declared_metrics(name):
    declared = run.declared_metrics()
    out = run.measure(_tiny(name), 0.2)
    assert out.correct and out.attempted >= 1, out.details
    assert set(out.metrics) == set(declared["end_to_end"])
    assert all(v > 0 for v in out.metrics.values()), out.metrics

    out = run.measure_traced(_tiny(name), "test")
    assert out.correct and out.details["traced_equals_untraced"], out.details
    assert set(out.metrics) == set(declared["per_layer"])
    assert out.metrics["engine.other.calls"] >= 1
    assert out.metrics["wire.encode.calls"] >= 1
    assert len(out.recorder) == out.details["spans"] > 0


def test_wrappers_leave_patched_modules_unchanged():
    wl = _tiny("live_update")
    wl.prepare()
    wl.start()
    wl.run_pass()  # finish every lazy import before the snapshot
    owners = {id(owner): owner for _, owner, _, _ in spans.patch_points()}
    before = {key: dict(vars(owner)) for key, owner in owners.items()}
    wl.start()
    rec = spans.Recorder("restore")
    with pytest.raises(RuntimeError):
        with spans.traced(rec):
            assert all(
                vars(owner)[attr] is not before[id(owner)][attr]
                for _, owner, attr, _ in spans.patch_points()
            )
            wl.run_pass()
            raise RuntimeError("leave the block early")
    for key, owner in owners.items():
        now = dict(vars(owner))
        assert now.keys() == before[key].keys(), owner
        changed = [k for k, v in now.items() if v is not before[key][k]]
        assert not changed, f"{owner.__name__}: {changed} not restored"
    layers = {spans.LAYERS[i].name for i in rec.layer}
    assert {"incremental.update", "checkpoint.capture", "absorb"} <= layers


def test_self_time_subtracts_children():
    rec = spans.Recorder("synthetic")
    index = {layer.name: i for i, layer in enumerate(spans.LAYERS)}
    # root [0, 100] ns holds encode [10, 30] and absorb [40, 90]; absorb
    # holds decode [50, 60].
    for layer, parent, t0, t1 in [
        ("engine.other", -1, 0, 100),
        ("wire.encode", 0, 10, 30),
        ("absorb", 0, 40, 90),
        ("wire.decode", 2, 50, 60),
    ]:
        rec.layer.append(index[layer])
        rec.parent.append(parent)
        rec.start_ns.append(t0)
        rec.end_ns.append(t1)
        rec.rows.append(0)
        rec.extra.append(0)
    m = spans.layer_metrics(rec)
    assert m["engine.other.self_s"] == pytest.approx(30e-9)
    assert m["wire.encode.self_s"] == pytest.approx(20e-9)
    assert m["absorb.self_s"] == pytest.approx(40e-9)
    assert m["wire.decode.self_s"] == pytest.approx(10e-9)


def test_tail_is_highest_percentile_with_ten_beyond():
    assert workloads.tail([float(i) for i in range(40)]) == (29.0, 75.0)
    assert workloads.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cc_tiny1024",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
