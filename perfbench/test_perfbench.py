"""Small-size runs of every workload, and the benchmark's own checks.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import generate  # noqa: E402
from repro.engine.instance import InstanceState  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import key_family  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SMALL = {"port_backlog": 100, "order_autocommit": 300, "cluster_mixed": 40}


def small_run(workload: str, traced: bool) -> run.Run:
    bench = run.Run(workload, seed=3, seconds=0, traced=traced, size=SMALL[workload])
    bench.metrics = bench.execute()
    return bench


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_small_run_is_correct_and_reports_every_end_to_end_metric(workload):
    bench = small_run(workload, traced=False)
    assert bench.errors == []
    assert bench.failed == 0
    assert list(bench.metrics) == END_TO_END
    for name, (value, unit) in bench.metrics.items():
        if name == "rss_bytes_per_instance":
            # this process reuses memory freed by earlier tests; only a
            # fresh process (as the command runs) sees the growth
            assert value >= 0
        else:
            assert value > 0, name


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_run_reports_every_per_layer_metric(workload):
    bench = small_run(workload, traced=True)
    assert bench.errors == []
    assert list(bench.metrics) == PER_LAYER
    metric = {name: value for name, (value, _) in bench.metrics.items()}
    assert abs(metric["share.uncovered"]) < 0.05
    assert metric["engine.dispatch.StartInstance.calls"] > 0
    if workload == "order_autocommit":
        assert metric["worklist.queue_lengths.calls"] == 0
        assert metric["services.invoke.retries"] > 0
    else:
        assert metric["worklist.queue_lengths.calls"] > 0
    if workload == "cluster_mixed":
        assert metric["cluster.forwards"] > 0
        assert metric["views.query.instances.calls"] > 0
    if workload != "order_autocommit":
        assert metric["engine.match.calls"] > 0
    assert metric["engine.query.find_instances.calls"] > 0


def test_only_the_first_round_probes_and_recovers():
    bench = run.Run("port_backlog", seed=3, seconds=0, traced=False, size=30)
    try:
        first = bench.round(0, bench.plain, time.perf_counter, "plain")
        second = bench.round(1, bench.plain, time.perf_counter, "plain")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    assert bench.errors == [] and bench.failed == 0
    assert len(first["recover_s"]) == bench.plain.recoveries
    assert first["latency"]["lookup"] and first["latency"]["scan"]
    assert second["recover_s"] == [] and second["latency"]["lookup"] == []
    assert second["timed"]["complete"]


def admit_round(workload_cls, size: int, directory: str):
    """Run one round's admission and return the open system."""
    workload = workload_cls(size)
    rng = generate.round_rng(5, 0)
    inputs = workload.inputs(rng)
    system = workload.open(directory, workload.context(inputs), fresh=True)
    rec = workloads.Recorder(lambda: 0.0)
    workload.admit(system, inputs, rec, rng)
    assert rec.failed == 0
    return workload, inputs, system, rec, rng


def drive_round(workload_cls, size: int, directory: str):
    """Run one round's commands (no recovery) and return the open system."""
    workload, inputs, system, rec, rng = admit_round(workload_cls, size, directory)
    workload.drain(system, inputs, rec, rng)
    assert rec.failed == 0
    return workload, inputs, system


@pytest.mark.parametrize("workload_cls", [workloads.PortBacklog, workloads.ClusterMixed])
def test_a_wrong_customs_status_trips_the_check(workload_cls, tmp_path):
    workload, inputs, system = drive_round(workload_cls, 20, str(tmp_path))
    try:
        assert workload.check(system, inputs) == []
        first = inputs.containers[0]
        flipped = "inspection" if first.verdict == "release" else "release"
        wrong = dataclasses.replace(
            inputs, containers=(dataclasses.replace(first, verdict=flipped),) + inputs.containers[1:]
        )
        errors = workload.check(system, wrong)
        assert any(first.container_id in error for error in errors)
    finally:
        workload.close(system)


def test_a_wrong_order_outcome_trips_the_check(tmp_path):
    workload, inputs, system = drive_round(workloads.OrderAutocommit, 40, str(tmp_path))
    try:
        assert workload.check(system, inputs) == []
        first = inputs.orders[0]
        flipped = "backordered" if first.expected_status == "shipped" else "shipped"
        wrong = dataclasses.replace(
            inputs, orders=(dataclasses.replace(first, expected_status=flipped),) + inputs.orders[1:]
        )
        errors = workload.check(system, wrong)
        assert any(first.order_no in error for error in errors)
    finally:
        workload.close(system)


def test_an_open_work_item_trips_the_check(tmp_path):
    workload, inputs, system, _, _ = admit_round(workloads.PortBacklog, 10, str(tmp_path))
    try:
        errors = workload.check(system, inputs)
        assert any("message waits left open" in error for error in errors)
        assert any("expected completed" in error for error in errors)
    finally:
        workload.close(system)


def test_a_wrong_view_answer_trips_the_scan_check(tmp_path):
    workload, inputs, system, _, _ = admit_round(workloads.ClusterMixed, 20, str(tmp_path))
    try:
        assert workload.check_scans(system, inputs, settled=False) == []
        views = system.cluster.views
        right = views.instances
        views.instances = lambda state=None: right(state)[1:]
        errors = workload.check_scans(system, inputs, settled=False)
        assert any(error.startswith("scan of instances running") for error in errors)
        views.instances = right
        views.work_items = lambda state=None: []
        errors = workload.check_scans(system, inputs, settled=False)
        assert any(error.startswith("scan of work items allocated") for error in errors)
    finally:
        workload.close(system)


def test_a_stale_merged_scan_trips_the_check(tmp_path):
    workload, inputs, system, rec, rng = admit_round(workloads.ClusterMixed, 20, str(tmp_path))
    try:
        views = system.cluster.views
        assert views.instances(InstanceState.RUNNING)  # merged and cached
        frozen = views._fingerprint()
        views._fingerprint = lambda: frozen  # the cache never sees a change
        workload.drain(system, inputs, rec, rng)
        errors = workload.check(system, inputs)
        assert any(error.startswith("scan of instances running") for error in errors)
    finally:
        workload.close(system)


def test_the_same_seed_gives_the_same_inputs():
    assert generate.port_inputs(generate.round_rng(9, 2), 50) == generate.port_inputs(
        generate.round_rng(9, 2), 50
    )
    assert generate.order_inputs(generate.round_rng(9, 2), 50, "O") == generate.order_inputs(
        generate.round_rng(9, 2), 50, "O"
    )
    assert generate.port_inputs(generate.round_rng(9, 2), 50) != generate.port_inputs(
        generate.round_rng(10, 2), 50
    )


def test_order_oracle_never_exhausts_payment_retries():
    inputs = generate.order_inputs(generate.round_rng(1, 0), 2000, "O")
    assert max(o.payment_failures for o in inputs.orders) < generate.PAYMENT_ATTEMPTS
    assert {o.expected_status for o in inputs.orders} == {"shipped", "backordered"}


def test_key_families():
    assert key_family("instance/order-12") == "instance"
    assert key_family("engine/message_waits") == "engine.message_waits"
    assert key_family("view/by_state/running") == "view.by_state"
    assert key_family("dispatch/0000000012") == "dispatch"


def test_the_command_prints_one_json_line_last():
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "port_backlog",
         "--seed", "4", "--seconds", "0", "--trace", "0", "--size", "10"],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert set(result["metrics"]) == set(END_TO_END)


def test_the_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "port_backlog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
