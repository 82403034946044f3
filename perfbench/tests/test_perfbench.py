"""Tests of the benchmark itself: tiny runs, span arithmetic, determinism.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

from perfbench import tracer as tracer_mod
from perfbench import workloads
from perfbench.tracer import Tracer, self_times, summarize

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NETSIM = ("base_interlock", "merkle_batch", "hostile_cumulative")
DETERMINISTIC = (
    "packets.per_msg",
    "crypto.hash_ops_per_msg.signer",
    "crypto.mac_ops_per_msg.signer",
    "crypto.hash_ops_per_msg.verifier",
    "crypto.mac_ops_per_msg.verifier",
    "crypto.hash_ops_per_msg.relay",
    "crypto.mac_ops_per_msg.relay",
    "sim_msgs_per_s",
    "failed_share",
    "unverified_forward_share",
)


# -- span arithmetic ---------------------------------------------------------------


def test_self_times_of_a_nested_trace():
    # root [0,100] > a [10,40] > a1 [15,25];  root > b [50,90]
    parents = [-1, 0, 1, 0]
    starts = [0, 10, 15, 50]
    ends = [100, 40, 25, 90]
    assert list(self_times(parents, starts, ends)) == [30, 20, 10, 40]
    assert sum(self_times(parents, starts, ends)) == 100


def test_a_child_is_clipped_to_its_parent():
    assert list(self_times([-1, 0], [0, 5], [10, 20])) == [5, 15]


def test_summarize_counts_same_name_nesting_as_one_call():
    names = ["root", "verify", "decode"]
    # root > verify > verify (a layer method calling its sibling) ; root > decode
    table = summarize(names, [0, 1, 1, 2], [-1, 0, 1, 0], [0, 10, 12, 40], [100, 30, 20, 60])
    assert table["verify"] == {"calls": 1, "spans": 2, "total_ns": 20, "self_ns": 20}
    assert table["decode"]["calls"] == 1 and table["decode"]["self_ns"] == 20
    assert table["root"]["self_ns"] == 60
    assert sum(row["self_ns"] for row in table.values()) == 100


def test_tracer_wraps_restores_and_round_trips(tmp_path):
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    tracer = Tracer()
    results = []
    tracer.wrap(Layer, "outer", "layer.outer", results.append)
    tracer.wrap(Layer, "inner", "layer.inner")
    root = tracer.open("root")
    assert Layer().outer() == 2
    tracer.close(root)
    tracer.restore()
    assert results == [2]
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")
    names, name_ids, parents, starts, ends = tracer.spans()
    assert [names[n] for n in name_ids] == ["root", "layer.outer", "layer.inner"]
    assert list(parents) == [-1, 0, 1]
    table = summarize(names, name_ids, parents, starts, ends)
    assert sum(r["self_ns"] for r in table.values()) == ends[0] - starts[0]
    path = tmp_path / "spans.bin"
    tracer.dump(path)
    loaded = tracer_mod.load(path)
    assert loaded[0] == names
    assert [list(c) for c in loaded[1:]] == [list(name_ids), list(parents), list(starts), list(ends)]


# -- correctness gate ----------------------------------------------------------------


def test_gate_counts_every_fate():
    payloads = workloads.make_payloads(0, 6, 32)
    altered = payloads[3][:-1] + bytes([payloads[3][-1] ^ 1])
    received = [("s", payloads[0]), ("s", payloads[1]), ("s", payloads[1]),
                ("s", altered), ("s", b"forged")]
    failures = [("v", SimpleNamespace(messages=[payloads[2], payloads[0]]))]
    acc = workloads.account(payloads, received, failures)
    assert acc["delivered"] == 1 and acc["duplicated"] == 1
    assert acc["reported_failed"] == 1 and acc["silently_missing"] == 3
    assert acc["altered"] == 1 and acc["foreign"] == 1
    assert acc["failed"] == 5 and acc["balanced"] and not acc["correct"]
    clean = workloads.account(payloads, [("s", p) for p in payloads], [])
    assert clean["correct"] and clean["failed"] == 0


# -- tiny runs -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_of_each_workload(workload):
    run = workloads.Run(workload, seed=0)
    payloads = workloads.make_payloads(0, 24, workloads.WORKLOADS[workload][1])
    metrics, out = run.end_to_end(payloads)
    acc = out["accounting"]
    assert acc["correct"] and acc["balanced"], acc
    assert acc["submitted"] == 24
    assert metrics["msgs_per_s"][0] > 0 and metrics["setup_s"][0] > 0
    traced, tout = run.traced(payloads)
    table = tout["table"]
    assert sum(r["self_ns"] for r in table.values()) == table["bench.timed"]["total_ns"]
    assert tout["accounting"]["correct"]
    layer = "reactor.turns" if workload == "udp_loopback" else "relay.packets"
    assert traced[layer][0] > 0
    assert traced["packets.decode.calls"][0] > 0


def test_netsim_times_are_scaled_by_the_interleaved_reference():
    run = workloads.Run("base_interlock", seed=0)
    metrics, out = run.end_to_end(workloads.make_payloads(0, 64, 512))
    ref = out["host_ref"]
    assert ref.iterations >= 8 * workloads.REF_CHUNK
    delivered = out["accounting"]["delivered"]
    assert metrics["msgs_per_s"][0] == pytest.approx(delivered * ref.wall_scale() / out["wall_s"])
    assert metrics["cpu_us_per_msg"][0] == pytest.approx(
        out["cpu_s"] / ref.cpu_scale() / delivered * 1e6)
    assert len(out["setup_times"]) == len(out["raw_setup_times"]) > workloads.SEGMENTS


def test_hostile_run_shows_forged_traffic_fates():
    run = workloads.Run("hostile_cumulative", seed=0)
    metrics, out = run.end_to_end(workloads.make_payloads(0, 200, 64))
    forger, fates = out["forged"]
    assert forger.sent == 200
    judged = sum(sum(fate.values()) for fate in fates.by_hop[:1])
    assert 0 < judged <= forger.sent
    assert 0 <= metrics["forged_past_first_relay_share"][0] <= 1


# -- determinism -----------------------------------------------------------------------


@pytest.mark.parametrize("workload", NETSIM)
def test_one_seed_reproduces_the_deterministic_counts(workload):
    size = workloads.WORKLOADS[workload][1]
    figures = []
    for _ in range(2):
        run = workloads.Run(workload, seed=3)
        metrics, _ = run.traced(workloads.make_payloads(3, 64, size))
        figures.append({name: metrics[name][0] for name in DETERMINISTIC})
    assert figures[0] == figures[1]


def _bench(*args, cwd=ROOT, hash_seed="0"):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )


def test_counts_do_not_depend_on_the_process():
    figures = []
    for hash_seed in ("1", "2"):
        # 0.128 s sizes 96 messages, halved to 48 per phase of a traced run.
        proc = _bench("--workload", "hostile_cumulative", "--seed", "5", "--seconds", "0.128",
                      "--trace", "1", hash_seed=hash_seed)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["attempted"] == 48
        figures.append({n: result["metrics"][n]["value"] for n in DETERMINISTIC})
    assert figures[0] == figures[1]


def test_untraced_result_line_has_every_end_to_end_metric():
    proc = _bench("--workload", "merkle_batch", "--seed", "1", "--seconds", "0.03",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as src:
        spec = json.load(src)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["failed"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "base_interlock",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
