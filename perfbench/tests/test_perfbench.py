"""Smoke tests of the benchmark, on shrunken inputs.

Run from the root of a checkout::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one round takes well under a second."""
    monkeypatch.setattr(workloads, "REDIS_OPS_PER_CLIENT", 60)
    monkeypatch.setattr(workloads, "REDIS_SETS_PER_CLIENT", 6)
    monkeypatch.setattr(workloads, "NGINX_CONNS_PER_CLIENT", 1)
    monkeypatch.setattr(workloads, "SQLITE_OPS_PER_WORKER", 40)
    monkeypatch.setattr(workloads, "EXPLORE_RUNS", 1)


def _round(workload, trace, seed=7):
    return workloads.run_round(
        workload, workloads.make_inputs(workload, seed), trace)


def test_inputs_repeat_for_a_seed_and_change_with_it(small):
    for workload in workloads.WORKLOADS:
        assert (workloads.make_inputs(workload, 3)
                == workloads.make_inputs(workload, 3))
        assert (workloads.make_inputs(workload, 3)
                != workloads.make_inputs(workload, 4))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_self_times_plus_other_sum_to_traced_wall(small, workload):
    result = _round(workload, trace=True)
    trace = result["trace"]
    other_s = trace["wall_s"] - trace["root_s"]
    assert other_s >= 0.0
    assert all(value >= -1e-9 for value in trace["self_s"].values())
    total = sum(trace["self_s"].values()) + other_s
    assert total == pytest.approx(trace["wall_s"], rel=1e-9, abs=1e-9)
    metrics = trace["metrics"]
    per_op = sum(metrics["%s.self_us_per_op" % layer] for layer in
                 ("net", "client", "core", "hw", "fs", "apps", "explore",
                  "other"))
    assert per_op == pytest.approx(
        trace["wall_s"] * 1e6 / result["attempted"], rel=1e-9)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_leaves_the_model_unchanged(small, workload):
    plain = _round(workload, trace=False)
    traced = _round(workload, trace=True)
    again = _round(workload, trace=False)
    assert plain["digest"] == traced["digest"] == again["digest"]
    assert plain["counts"] == traced["counts"] == again["counts"]
    assert plain["sim"] == traced["sim"]
    assert plain["wrong"] == traced["wrong"] == 0


def test_spans_nest_and_inherit_the_client_layer():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("net", "leaf", lambda: None)
    guest = recorder.wrap("net", "guest", lambda: leaf())
    client = recorder.wrap("client", "client", lambda: guest())
    recorder.active = True
    client()
    guest()
    recorder.active = False
    assert [recorder.span(i)["parent"] for i in range(len(recorder))] == \
        [-1, 0, 1, -1, 3]
    self_s, calls, root_s, effective = recorder.account()
    assert effective == ["client", "client", "client", "net", "net"]
    assert calls == {"client": 3, "net": 2}
    assert sum(self_s.values()) == pytest.approx(root_s, rel=1e-12)


def test_uninstall_restores_every_function():
    from repro.core.image import Router
    from repro.kernel.fs.vfs import Vfs

    route, read = Router.route, Vfs.read
    cell = read.__closure__[read.__code__.co_freevars.index("func")]
    body = cell.cell_contents
    recorder = spans.SpanRecorder().install()
    assert Router.route is not route and cell.cell_contents is not body
    recorder.uninstall()
    assert Router.route is route and cell.cell_contents is body


def test_a_wrong_redis_reply_is_counted(small, monkeypatch):
    from repro.apps.redis import RedisServer

    execute = RedisServer.execute_degradable

    def corrupt(self, line):
        reply = execute(self, line)
        return b"+KO\r\n" if reply == b"+OK\r\n" else reply

    monkeypatch.setattr(RedisServer, "execute_degradable", corrupt)
    result = _round("redis-kv", trace=False)
    sets = workloads.CLIENTS * workloads.REDIS_SETS_PER_CLIENT
    assert result["wrong"] == result["failed"] == sets


def test_a_lost_insert_is_counted(small, monkeypatch):
    from repro.apps.sqlite import SqliteEngine

    execute = SqliteEngine.execute
    calls = []

    def drop_one(self, sql):
        calls.append(sql)
        if len(calls) == 5:
            return 0
        return execute(self, sql)

    monkeypatch.setattr(SqliteEngine, "execute", drop_one)
    result = _round("sqlite-insert", trace=False)
    assert result["wrong"] >= 1 and result["failed"] >= 1


def _largest_reply_last(seed=7):
    inputs = workloads.make_inputs("nginx-static", seed)
    for plan in inputs["clients"]:
        for ops in plan:
            ops.sort(key=lambda op: len(op[1]))
    return inputs


def test_client_close_receives_every_reply(small):
    result = workloads.run_round("nginx-static", _largest_reply_last(), False)
    assert result["attempted"] > 0
    assert result["failed"] == 0 and result["errors"] == []


@pytest.mark.xfail(strict=True, reason=(
    "kernel/net/tcp.py: TcpConnection.close sends FIN ahead of the unsent "
    "backlog, so a last reply over 65,535 B arrives truncated at 64,240 B"))
def test_server_close_delivers_a_large_last_reply(small, monkeypatch):
    monkeypatch.setattr(workloads, "SERVER_CLOSES", True)
    result = workloads.run_round("nginx-static", _largest_reply_last(), False)
    assert result["failed"] == 0, result["errors"]


def test_framing_waits_for_whole_replies():
    assert workloads.resp_length(bytearray(b"+OK\r")) is None
    assert workloads.resp_length(bytearray(b"+OK\r\n$3")) == 5
    assert workloads.resp_length(bytearray(b"$3\r\nab")) is None
    assert workloads.resp_length(bytearray(b"$3\r\nabc\r\n")) == 9
    assert workloads.resp_length(bytearray(b"$-1\r\n")) == 5
    reply = workloads.NGINX_HEADER % 4 + b"body"
    assert workloads.http_length(bytearray(reply[:-1])) is None
    assert workloads.http_length(bytearray(reply + b"HTTP")) == len(reply)


def test_p99_needs_ten_samples_beyond_it():
    assert workloads.percentile(list(range(1000)), 99) == (989, 10)
    assert workloads.percentile(list(range(999)), 99)[1] == 9


def test_nginx_file_ladder_spans_512_bytes_to_128_kib():
    sizes = workloads.nginx_file_sizes()
    assert sizes[0] == 512 and sizes[-1] == 128 * 1024
    assert sizes == sorted(sizes)


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == \
        list(run.PER_LAYER.items())
    assert [w["name"] for w in declared["workloads"]] == \
        list(workloads.WORKLOADS)


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "redis-kv",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
