"""Host-throughput benchmark of the FlexOS simulator, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload redis-kv --seed 1 --seconds 30 --trace 0

Workloads: redis-kv, nginx-static, sqlite-insert, explore-full (see
``perfbench/README.md``).  Each round runs in a fresh interpreter:
seeded inputs are generated first, then the set-up clock starts, the
simulator is imported, built and booted, and the operations are timed.
Rounds repeat until ``--seconds`` are used up; the reported figures are
medians over rounds.  Host times are in reference-host seconds: each
round also times a fixed calibration loop, and its wall times are scaled
to a host where that loop takes ``CALIBRATION_REF_S``.  ``--trace 1``
alternates untraced and traced rounds and reports the per-layer metrics
instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    CALIBRATION_REF_S,
    WORKLOADS,
    make_inputs,
    run_round,
)

MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 2
MAX_ROUNDS = 40
#: Wall seconds after which a run gives up; the caller allows 180.
RUN_DEADLINE_S = 170
#: Where rounds cache bytecode, inside the checkout (git ignores it).
PYCACHE_DIR = os.path.join(".bench_build", "pycache")

END_TO_END = (
    ("host_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics: name -> unit.  Time metrics are medians over the
#: traced rounds; every other one is a count and must repeat exactly.
PER_LAYER = {
    "net.self_us_per_op": "us", "net.calls_per_op": "count",
    "net.frames_per_op": "count", "net.wire_bytes_per_op": "B",
    "net.goodput_ratio": "ratio", "net.rx_queue_depth": "count",
    "net.drops_per_op": "count",
    "client.self_us_per_op": "us", "client.calls_per_op": "count",
    "core.self_us_per_op": "us", "core.route_calls_per_op": "count",
    "core.gate_crossings_per_op": "count",
    "hw.self_us_per_op": "us", "hw.mmu_checks_per_op": "count",
    "hw.tlb_hit_ratio": "ratio",
    "fs.self_us_per_op": "us", "fs.calls_per_op": "count",
    "fs.bytes_read_per_op": "B", "fs.bytes_written_per_op": "B",
    "apps.self_us_per_op": "us", "apps.calls_per_op": "count",
    "sched.switches_per_op": "count", "sched.core_busy_ratio": "ratio",
    "other.self_us_per_op": "us",
    "explore.self_us_per_op": "us", "explore.leq_calls_per_op": "count",
    "explore.measured_ratio": "ratio", "explore.eval_us_per_config": "us",
    "trace.overhead_ratio": "ratio",
}
TIMED_LAYER_METRICS = {name for name, unit in PER_LAYER.items()
                       if unit == "us"}


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", choices=("plain", "traced", "warmup"),
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _child(args, src):
    """One round in this interpreter; prints its result as JSON."""
    if args.round == "warmup":
        # Compile and cache the bytecode of the simulator and of what it
        # imports, so that set-up times imports from cached bytecode.
        import compileall

        compileall.compile_dir(os.path.join(src, "repro"), quiet=1)
        import repro.apps.host  # noqa: F401
        import repro.apps.sqlite  # noqa: F401
        import repro.explore.formal  # noqa: F401
        import repro.explore.parallel  # noqa: F401
        return 0
    inputs = make_inputs(args.workload, args.seed)
    result = run_round(args.workload, inputs, args.round == "traced")
    print(json.dumps(result))
    return 0


def _spawn(args, kind, env, deadline):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--round", kind]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - perf_counter()))
    if proc.returncode != 0:
        raise RuntimeError("%s round failed (exit %d):\n%s"
                           % (kind, proc.returncode, proc.stderr[-4000:]))
    if kind == "warmup":
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rounds(args, env):
    """Run rounds until the time is used up; returns (plain, traced)."""
    plain, traced = [], []
    deadline = perf_counter() + RUN_DEADLINE_S
    _spawn(args, "warmup", env, deadline)
    start = perf_counter()
    durations = []
    while True:
        n = len(plain) + len(traced)
        if args.trace:
            enough = (len(plain) >= MIN_TRACED_ROUNDS
                      and len(traced) >= MIN_TRACED_ROUNDS)
        else:
            enough = n >= MIN_ROUNDS
        elapsed = perf_counter() - start
        if n >= MAX_ROUNDS or (enough and elapsed + statistics.mean(
                durations) > args.seconds):
            return plain, traced
        began = perf_counter()
        if args.trace and n % 2 == 1:
            traced.append(_spawn(args, "traced", env, deadline))
        else:
            plain.append(_spawn(args, "plain", env, deadline))
        durations.append(perf_counter() - began)


def _fmt(value):
    return "missing" if value is None else "%.6g" % value


def _scale(result):
    """Reference-host seconds per wall second in one round."""
    return CALIBRATION_REF_S / result["calibration_s"]


def aggregate(args, plain, traced):
    """Fold the rounds into (correct, attempted, failed, metrics, report)."""
    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = list(dict.fromkeys(e for r in rounds for e in r["errors"]))
    correct = all(r["wrong"] == 0 for r in rounds)
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        correct = False
        problems.append("model digests differ between rounds: %s"
                        % sorted(digests))
    counts = [json.dumps(r["counts"], sort_keys=True) for r in rounds]
    if len(set(counts)) != 1:
        correct = False
        problems.append("simulator counters differ between rounds")
    first = plain[0]
    end_to_end = {
        "host_ops_per_s": statistics.median(
            (r["attempted"] - r["failed"]) / (r["timed_s"] * _scale(r))
            for r in plain),
        "setup_s": statistics.median(r["setup_s"] * _scale(r)
                                     for r in plain),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }
    wall = {
        "host_ops_per_s": statistics.median(
            (r["attempted"] - r["failed"]) / r["timed_s"] for r in plain),
        "setup_s": statistics.median(r["setup_s"] for r in plain),
    }
    report = [
        "perfbench %s seed=%d trace=%d rounds=%d+%d traced ops/round=%d"
        % (args.workload, args.seed, args.trace, len(plain), len(traced),
           first["attempted"]),
        "provenance %s" % json.dumps({
            "workload": args.workload, "seed": args.seed,
            "FLEXOS_TLB": os.environ.get("FLEXOS_TLB", "unset (on)"),
            "FLEXOS_COMPILE": os.environ.get("FLEXOS_COMPILE",
                                             "unset (on, not attached)"),
            "compartments": first["extra"].get("compartments",
                                               "n/a (no instance)"),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
        }, sort_keys=True),
    ]
    report.append("host speed       calibration loop %.4g ms (median), "
                  "reference %.4g ms" % (
                      1e3 * statistics.median(r["calibration_s"]
                                              for r in plain),
                      1e3 * CALIBRATION_REF_S))
    for name, unit in END_TO_END:
        note = ("; reference-host seconds, %s in wall seconds"
                % _fmt(wall[name]) if name in wall else "")
        report.append("%-16s %12s %s  (median of %d rounds%s)"
                      % (name, _fmt(end_to_end[name]), unit, len(plain),
                         note))
    report.append("%-16s %12s ratio  (%d of %d operations failed)"
                  % ("error_rate", _fmt(failed / attempted), failed,
                     attempted))
    sim = first["sim"]
    if sim is None:
        for name in ("sim_ops_per_s", "sim_p50_us", "sim_p99_us"):
            report.append("%-16s %12s  (no virtual-clock requests in %s)"
                          % (name, "n/a", args.workload))
    else:
        p99 = sim["p99_us"] if sim["beyond_p99"] >= 10 else None
        report.append("%-16s %12s 1/s" % ("sim_ops_per_s",
                                          _fmt(sim["ops_per_s"])))
        report.append("%-16s %12s us  (n=%d)" % ("sim_p50_us",
                                                 _fmt(sim["p50_us"]),
                                                 sim["samples"]))
        report.append("%-16s %12s us  (n=%d, %d beyond)"
                      % ("sim_p99_us", _fmt(p99), sim["samples"],
                         sim["beyond_p99"]))
    if "recommended" in first["extra"]:
        report.append("recommended %s" % json.dumps(
            first["extra"]["recommended"]))
    report.append("model_digest %s  (%s across %d rounds)" % (
        first["digest"], "identical" if len(digests) == 1 else "DIFFERENT",
        len(rounds)))
    report.extend("problem: %s" % p.strip().replace("\n", " | ")
                  for p in problems[:10])
    if not args.trace:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END}
        return correct, attempted, failed, metrics, report
    layer, layer_ok = per_layer(plain, traced)
    if not layer_ok:
        correct = False
        report.append("problem: per-layer counts differ between traced "
                      "rounds")
    spans = traced[0]["trace"]
    report.append("traced round: wall %.6g s = self %.6g s + other %.6g s "
                  "over %d spans" % (
                      spans["wall_s"], sum(spans["self_s"].values()),
                      spans["wall_s"] - spans["root_s"], spans["spans"]))
    metrics = {name: {"value": layer[name], "unit": unit}
               for name, unit in PER_LAYER.items()}
    return correct, attempted, failed, metrics, report


def per_layer(plain, traced):
    """Per-layer metrics from the traced rounds; (metrics, repeatable)."""
    layer = {}
    repeatable = True
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            continue
        if name in TIMED_LAYER_METRICS:
            layer[name] = statistics.median(
                r["trace"]["metrics"][name] * _scale(r) for r in traced)
            continue
        values = [r["counts"].get(name, r["trace"]["metrics"].get(name, 0.0))
                  for r in traced]
        repeatable = repeatable and len(set(values)) == 1
        layer[name] = values[0]
    layer["trace.overhead_ratio"] = (
        statistics.median(r["timed_s"] * _scale(r) for r in traced)
        / statistics.median(r["timed_s"] * _scale(r) for r in plain))
    return layer, repeatable


def main(argv=None):
    args = _args(sys.argv[1:] if argv is None else argv)
    src = os.path.join(os.getcwd(), "src")
    if args.round:
        sys.path.insert(0, src)
        return _child(args, src)
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print("perfbench: no simulator sources at %s; run from the root of "
              "a checkout" % src, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Rounds always import from cached bytecode, whatever the caller's
    # environment says, and the cache stays inside the checkout.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = os.path.join(os.getcwd(), PYCACHE_DIR)
    try:
        plain, traced = _rounds(args, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    correct, attempted, failed, metrics, report = aggregate(
        args, plain, traced)
    for line in report:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
