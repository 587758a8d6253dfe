"""The four benchmark workloads: seeded inputs and one measured round each.

A round runs in a fresh interpreter (see ``run.py``), so it pays the
imports a user pays.  Input generation uses only the standard library
and happens before the set-up clock starts; :func:`run_round` then
imports the simulator, builds, boots, serves, and checks every output.

All request workloads are closed loop on ``cores=2``: two client
connections (or two worker threads), each with one operation in flight.
"""

from __future__ import annotations

import functools
import hashlib
import json
import marshal
import random
import resource
import statistics
import traceback
from time import perf_counter

from spans import SpanRecorder

WORKLOADS = ("redis-kv", "nginx-static", "sqlite-insert", "explore-full")

CORES = 2
CLIENTS = 2
#: Scheduler switch budget for one round (the simulator's default, 1M,
#: is sized for unit tests).
MAX_SWITCHES = 50_000_000
#: Empty polls before a client gives up on a reply.
MAX_STALL_POLLS = 300_000
#: Errors kept per round, for the report.
MAX_ERRORS = 5

REDIS_OPS_PER_CLIENT = 1500
REDIS_KEYS_PER_CLIENT = 50
REDIS_SETS_PER_CLIENT = 150          # exactly 10 % of the operations

NGINX_FILES = 16
NGINX_CONNS_PER_CLIENT = 17
NGINX_REQUESTS_PER_CONN = 32
#: Who closes a keep-alive connection after its planned requests.  With
#: False the client closes it and the server closes on the client's FIN.
#: With True the server closes right after its last reply, which exposes
#: a defect of ``kernel/net/tcp.py``: a last reply over 65,535 B arrives
#: truncated (see README.md), so that request fails.
SERVER_CLOSES = False

SQLITE_OPS_PER_WORKER = 2000
SQLITE_SAMPLED_ROWS = 16

EXPLORE_RUNS = 3
EXPLORE_BUDGET = 500_000
EXPLORE_SPACE = 224

#: Wall seconds the calibration loop takes on the reference host.  Host
#: times are reported in reference-host seconds: wall seconds scaled by
#: CALIBRATION_REF_S / (the loop's wall time in the same round).
CALIBRATION_REF_S = 0.02
#: Calibration loops timed before set-up and again after the timed phase.
CALIBRATION_REPS = 3

_ALNUM = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

NGINX_HEADER = (b"HTTP/1.1 200 OK\r\n"
                b"Server: flexos-nginx\r\n"
                b"Content-Length: %d\r\n"
                b"Connection: keep-alive\r\n"
                b"\r\n")


# -- inputs (standard library only) -------------------------------------------
def _token(rng, n):
    return bytes(rng.choices(_ALNUM, k=n))


def make_inputs(workload, seed):
    """The seeded inputs of one workload; the same seed, the same inputs."""
    rng = random.Random("%s:%d" % (workload, seed))
    return {
        "redis-kv": _redis_inputs,
        "nginx-static": _nginx_inputs,
        "sqlite-insert": _sqlite_inputs,
        "explore-full": _explore_inputs,
    }[workload](rng)


def _redis_inputs(rng):
    """Per client: one connection of GET/SET over its own keys.

    Each client owns a disjoint key range, so the expected reply of every
    command follows from that client's model store alone.
    """
    clients = []
    for c in range(CLIENTS):
        kinds = ([True] * REDIS_SETS_PER_CLIENT
                 + [False] * (REDIS_OPS_PER_CLIENT - REDIS_SETS_PER_CLIENT))
        rng.shuffle(kinds)
        model = {}
        ops = []
        for is_set in kinds:
            key = b"key:%d:%d" % (c, rng.randrange(REDIS_KEYS_PER_CLIENT))
            if is_set:
                value = _token(rng, rng.randint(16, 512))
                model[key] = value
                ops.append((b"SET %s %s\r\n" % (key, value), b"+OK\r\n"))
            else:
                value = model.get(key)
                expected = (b"$-1\r\n" if value is None
                            else b"$%d\r\n%s\r\n" % (len(value), value))
                ops.append((b"GET %s\r\n" % key, expected))
        clients.append([ops])
    return {"clients": clients, "per_conn": REDIS_OPS_PER_CLIENT}


def nginx_file_sizes():
    """A fixed log-spaced ladder from 512 B to 128 KiB."""
    return [int(round(512 * 2 ** (8.0 * i / (NGINX_FILES - 1))))
            for i in range(NGINX_FILES)]


def _nginx_inputs(rng):
    """Seeded file contents and a seeded request mix.

    Every file is requested equally often, so the bytes served per round
    do not depend on the seed; the seed picks the order, and with it
    which file is the last reply on each keep-alive connection.
    """
    files = {"/f%02d.bin" % i: rng.randbytes(size)
             for i, size in enumerate(nginx_file_sizes())}
    paths = sorted(files)
    per_client = NGINX_CONNS_PER_CLIENT * NGINX_REQUESTS_PER_CONN
    replies = {path: NGINX_HEADER % len(body) + body
               for path, body in files.items()}
    clients = []
    for _ in range(CLIENTS):
        mix = paths * (per_client // len(paths))
        rng.shuffle(mix)
        ops = [(b"GET %s HTTP/1.1\r\nHost: flexos\r\n\r\n" % p.encode(),
                replies[p]) for p in mix]
        clients.append([ops[i:i + NGINX_REQUESTS_PER_CONN]
                        for i in range(0, len(ops), NGINX_REQUESTS_PER_CONN)])
    return {"clients": clients, "files": files,
            "per_conn": NGINX_REQUESTS_PER_CONN}


def _sqlite_inputs(rng):
    workers = []
    for w in range(CLIENTS):
        rows = [("w%d-%05d" % (w, i), _token(rng, rng.randint(8, 40)).decode())
                for i in range(SQLITE_OPS_PER_WORKER)]
        workers.append(rows)
    every = [row for rows in workers for row in rows]
    return {"workers": workers,
            "sampled": rng.sample(every, SQLITE_SAMPLED_ROWS)}


def _explore_inputs(rng):
    return {"orders": [rng.sample(range(EXPLORE_SPACE), EXPLORE_SPACE)
                       for _ in range(EXPLORE_RUNS)]}


# -- host-speed calibration ---------------------------------------------------
@functools.lru_cache(maxsize=None)
def _calibration_code():
    """Bytecode of a synthetic module: classes, functions, constants."""
    source = "".join(
        "class C%d:\n"
        "    a = %d\n"
        "    def f(self, x):\n"
        "        return [x + i for i in range(%d)]\n"
        "    def g(self):\n"
        "        return {'k%d': self.a}\n"
        "def h%d(a, b=%d, *c, **d):\n"
        "    return (a, b, c, d)\n"
        "T%d = tuple(range(%d))\n" % (i, i, i % 7, i, i, i, i, i % 13)
        for i in range(300))
    return marshal.dumps(compile(source, "<calibration>", "exec"))


def _calibration_loop():
    """Unmarshal and run the synthetic module four times.

    This is the work an import does, and it runs no simulator code, so
    a change to the simulator cannot move it; only the host's own speed
    does.
    """
    code = _calibration_code()
    for _ in range(4):
        exec(marshal.loads(code), {"__name__": "calibration"})


def calibrate(reps=CALIBRATION_REPS):
    """Wall times of ``reps`` calibration loops."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        _calibration_loop()
        times.append(perf_counter() - start)
    return times


# -- framing ------------------------------------------------------------------
def resp_length(buf):
    """Length of the first complete RESP reply in ``buf``, or None."""
    end = buf.find(b"\r\n")
    if end < 0:
        return None
    if buf[:1] == b"$" and buf[1:2] != b"-":
        total = end + 2 + int(buf[1:end]) + 2
        return total if len(buf) >= total else None
    return end + 2


def http_length(buf):
    """Length of the first complete HTTP response in ``buf``, or None."""
    end = buf.find(b"\r\n\r\n")
    if end < 0:
        return None
    length = 0
    for line in bytes(buf[:end]).split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    total = end + 4 + length
    return total if len(buf) >= total else None


# -- shared round bookkeeping -------------------------------------------------
def percentile(sorted_values, p):
    """Nearest-rank percentile and the number of samples beyond it."""
    n = len(sorted_values)
    if n == 0:
        return None, 0
    rank = max(1, -(-n * p // 100))
    return sorted_values[int(rank) - 1], n - int(rank)


class Round:
    """What one round measured and checked."""

    def __init__(self, trace, calibration):
        self.trace = trace
        self.calibration = list(calibration)
        self.t0 = perf_counter()
        self.t1 = None
        self.t_end = None
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors = []
        self.latencies = []
        self.payload_bytes = 0
        self.first_cycles = None
        self.last_cycles = 0.0
        self.recorder = None
        self.before = {}
        self.after = {}
        self.extra = {}
        self.digest_parts = {}
        self.freq_hz = None
        self.rss_mb = None

    def error(self, text):
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(text)

    def fail(self, n=1, wrong=False, text=None):
        self.failed += n
        if wrong:
            self.wrong += n
        if text:
            self.error(text)

    def start_timed(self, snapshot=None):
        """Called just before the first operation is issued."""
        if self.t1 is not None:
            return
        if snapshot is not None:
            self.before = snapshot()
        if self.recorder is not None:
            self.recorder.active = True
        self.t1 = perf_counter()

    def stop_timed(self, snapshot=None):
        self.t_end = perf_counter()
        if self.recorder is not None:
            self.recorder.active = False
        if snapshot is not None:
            self.after = snapshot()
        self.rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0)
        self.calibration.extend(calibrate())


def _machine_counters(instance, link, clock):
    """Deterministic counters the simulator keeps (no tracing needed)."""
    sched = instance.sched
    tlbs = {id(t): t for t in [instance.ctx.tlb]
            + [core.tlb for core in sched.cores] if t is not None}
    counters = {
        "cycles": clock.cycles,
        "gate_crossings": instance.gate_crossings(),
        "switches": sched.switches,
        "busy_cycles": sum(c["busy_cycles"] for c in sched.core_stats()),
        "tlb_hits": sum(t.hits for t in tlbs.values()),
        "tlb_lookups": sum(t.hits + t.misses for t in tlbs.values()),
    }
    if link is not None:
        counters["frames"] = link.a.tx_frames + link.b.tx_frames
        counters["drops"] = link.a.dropped + link.b.dropped
    return counters


def _install_recorder(run, sched_of):
    if not run.trace:
        return
    run.recorder = SpanRecorder().install()
    if sched_of is not None:
        run.recorder.current_thread = lambda: sched_of().current


def _safety_config(mechanism, isolate):
    from repro.core.config import CompartmentSpec, SafetyConfig

    if mechanism == "none":
        return SafetyConfig(
            [CompartmentSpec("comp1", mechanism="none", default=True)], {})
    return SafetyConfig(
        [CompartmentSpec("comp1", mechanism=mechanism, default=True),
         CompartmentSpec("comp2", mechanism=mechanism)],
        {lib: "comp2" for lib in isolate})


def _compartments(instance):
    return {comp.name: comp.mechanism for comp in instance.image.compartments}


# -- TCP workloads ------------------------------------------------------------
def _tcp_round(run, inputs, app):
    """redis-kv and nginx-static: closed-loop clients over TCP."""
    import repro  # noqa: F401  (the set-up clock includes the package)
    from repro.apps.host import HostEndpoint
    from repro.apps.nginx import NginxApp
    from repro.apps.redis import RedisApp
    from repro.core.toolchain.build import build_image
    from repro.core.vm import FlexOSInstance, Machine
    from repro.hw.costs import CostModel
    from repro.kernel.net.device import LinkedDevices
    from repro.kernel.sched import yield_

    if app == "redis":
        mechanism, port, framing = "intel-mpk", 6379, resp_length
        make_server = RedisApp.make_server
    else:
        mechanism, port, framing = "vm-ept", 80, http_length
        make_server = NginxApp.make_server
    costs = CostModel.xeon_4114()
    machine = Machine(costs)
    clock = machine.clock
    link = LinkedDevices(costs)
    instance = FlexOSInstance(
        build_image(_safety_config(mechanism, ("lwip",))),
        machine=machine, net_device=link.a, cores=CORES,
    ).boot()
    host = HostEndpoint(link.b, "10.0.0.1", costs, clock)
    sched = instance.sched
    _install_recorder(run, lambda: sched)
    if run.recorder is not None:
        run.recorder.guest_stack = instance.net
    snapshot = lambda: _machine_counters(instance, link, clock)  # noqa: E731
    plans = inputs["clients"]
    ready = [0]

    def read_reply(sock, buf):
        """Generator: the next framed reply, or None on EOF/stall."""
        polls = 0
        while True:
            n = framing(buf)
            if n is not None:
                reply = bytes(buf[:n])
                del buf[:n]
                return reply
            data = host.try_recv(sock, 65536)
            if data:
                buf += data
                polls = 0
                continue
            if sock.peer_closed:
                return None
            polls += 1
            if polls > MAX_STALL_POLLS:
                return None
            yield yield_()

    def client(index):
        def body():
            for number, ops in enumerate(plans[index]):
                sock = host.socket()
                yield from host.connect_blocking(sock, instance.ip, port)
                if number == 0:
                    # Every client connects before the first operation.
                    ready[0] += 1
                    while ready[0] < len(plans):
                        yield yield_()
                    run.start_timed(snapshot)
                buf = bytearray()
                for k, (request, expected) in enumerate(ops):
                    sent = clock.cycles
                    if run.first_cycles is None:
                        run.first_cycles = sent
                    run.attempted += 1
                    host.send(sock, request)
                    run.payload_bytes += len(request)
                    reply = yield from read_reply(sock, buf)
                    if reply is None:
                        # EOF or stall inside a reply: this request and
                        # the rest planned on the connection fail; the
                        # client moves on to its next connection.
                        run.payload_bytes += len(buf)
                        missing = len(ops) - k - 1
                        run.attempted += missing
                        run.fail(1 + missing, text=(
                            "%s client %d conn %d: EOF after %d of %d reply "
                            "bytes" % (app, index, number, len(buf),
                                       len(expected))))
                        break
                    run.payload_bytes += len(reply)
                    now = clock.cycles
                    run.latencies.append(now - sent)
                    if now > run.last_cycles:
                        run.last_cycles = now
                    if reply != expected:
                        run.fail(wrong=True, text="%s client %d: reply %r, "
                                 "expected %r" % (app, index, reply[:60],
                                                  expected[:60]))
                host.close(sock)
        return body

    with instance.run():
        server = make_server(instance)
        for path, content in sorted(inputs.get("files", {}).items()):
            server.publish(path, content)
        listener = instance.libc.socket(instance.net).bind(port).listen()
        n_conns = sum(len(plan) for plan in plans)
        # A server that expects one request more than planned reads the
        # client's FIN instead, and only then closes its end.
        per_conn = inputs["per_conn"] + (0 if SERVER_CLOSES else 1)
        sched.create_thread(
            "%s-acceptor" % app,
            lambda: server.serve_connections(
                listener, instance.libc, sched, n_conns, per_conn),
        )
        for index in range(len(plans)):
            sched.create_thread("client-%d" % index, client(index))
        planned = sum(len(ops) for plan in plans for ops in plan)
        try:
            sched.run(max_switches=MAX_SWITCHES)
        except Exception:  # a round must report, not crash
            run.error(traceback.format_exc(limit=3))
            run.fail(planned - run.attempted)
            run.attempted = planned
        run.stop_timed(snapshot)
    run.extra["compartments"] = _compartments(instance)
    run.freq_hz = clock.freq_hz
    run.digest_parts = {
        "latencies": sorted(run.latencies),
        "cycles": clock.cycles,
        "crossings": instance.gate_crossings(),
    }


# -- SQLite -------------------------------------------------------------------
def _sqlite_round(run, inputs):
    import repro  # noqa: F401
    from repro.apps.sqlite import SqliteApp
    from repro.core.toolchain.build import build_image
    from repro.core.vm import FlexOSInstance, Machine
    from repro.hw.costs import CostModel
    from repro.kernel.sched import yield_

    machine = Machine(CostModel.xeon_4114())
    clock = machine.clock
    instance = FlexOSInstance(build_image(_safety_config("none", ())),
                              machine=machine, cores=CORES).boot()
    sched = instance.sched
    _install_recorder(run, lambda: sched)
    snapshot = lambda: _machine_counters(instance, None, clock)  # noqa: E731
    inserted = set()

    def worker(rows):
        def body():
            run.start_timed(snapshot)
            for key, value in rows:
                sent = clock.cycles
                if run.first_cycles is None:
                    run.first_cycles = sent
                run.attempted += 1
                try:
                    count = engine.execute(
                        "INSERT INTO bench (k, v) VALUES ('%s', '%s')"
                        % (key, value))
                except Exception as exc:  # counted, the loop goes on
                    run.fail(text="insert %s: %r" % (key, exc))
                    yield yield_()
                    continue
                now = clock.cycles
                run.latencies.append(now - sent)
                run.last_cycles = max(run.last_cycles, now)
                if count == 1:
                    inserted.add(key)
                else:
                    run.fail(wrong=True, text="insert %s returned %r"
                             % (key, count))
                yield yield_()
        return body

    with instance.run():
        engine = SqliteApp.make_engine(instance)
        engine.execute("CREATE TABLE bench (k, v)")
        for index, rows in enumerate(inputs["workers"]):
            sched.create_thread("db-worker-%d" % index, worker(rows))
        planned = sum(len(rows) for rows in inputs["workers"])
        try:
            sched.run(max_switches=MAX_SWITCHES)
        except Exception:
            run.error(traceback.format_exc(limit=3))
            run.fail(planned - run.attempted)
            run.attempted = planned
        run.stop_timed(snapshot)
        run.digest_parts = {
            "latencies": sorted(run.latencies),
            "cycles": clock.cycles,
            "crossings": instance.gate_crossings(),
        }
        # Output checks, after the timed phase.
        count = engine.execute("SELECT COUNT(*) FROM bench")
        if count != len(inserted):
            run.fail(abs(count - len(inserted)), wrong=True,
                     text="COUNT(*) = %r, expected %d"
                     % (count, len(inserted)))
        for key, value in inputs["sampled"]:
            rows = engine.execute("SELECT * FROM bench WHERE k = '%s'" % key)
            expected = [(key, value)] if key in inserted else []
            if rows != expected:
                run.fail(wrong=True, text="row %s: %r, expected %r"
                         % (key, rows, expected))
    run.extra["compartments"] = _compartments(instance)
    run.freq_hz = clock.freq_hz


# -- exploration --------------------------------------------------------------
def _answer(result):
    return {
        "recommended": sorted(result.recommended),
        "measured": sorted(result.measurements),
        "pruned": sorted(result.pruned),
    }


def _explore_round(run, inputs):
    import repro  # noqa: F401
    import repro.explore as rx
    from repro.explore.configspace import generate_full_space
    from repro.explore.formal import certify

    space = generate_full_space()
    evaluator = rx.ProfileEvaluator(app="redis")
    orders = [[space[i] for i in order] for order in inputs["orders"]]
    _install_recorder(run, None)
    results = []
    run.start_timed()
    for layouts in orders:
        results.append(rx.explore(rx.ExplorationRequest(
            layouts=layouts, evaluator=evaluator, budget=EXPLORE_BUDGET,
            jobs=1)))
    run.stop_timed()
    reference = rx.explore_serial(rx.ExplorationRequest(
        layouts=space, evaluator=evaluator, budget=EXPLORE_BUDGET))
    expected = _answer(reference)
    for result in results:
        decided = len(result.measurements) + len(result.pruned)
        run.attempted += EXPLORE_SPACE
        certificate = certify(result)
        if decided != EXPLORE_SPACE or not certificate.valid:
            run.fail(EXPLORE_SPACE, wrong=True, text="certificate %r, %d "
                     "decided" % (certificate, decided))
        elif _answer(result) != expected:
            run.fail(EXPLORE_SPACE, wrong=True,
                     text="answer differs from the serial reference")
    run.extra["recommended"] = expected["recommended"]
    run.extra["measured_ratio"] = (len(reference.measurements)
                                   / float(EXPLORE_SPACE))
    run.digest_parts = {"explorations": [
        {"measurements": [[name, float(m)] for name, m
                          in sorted(result.measurements.items())],
         "answer": _answer(result)}
        for result in results]}


# -- one round ----------------------------------------------------------------
def run_round(workload, inputs, trace):
    """Run one round in this process; returns a JSON-serialisable dict.

    The host is calibrated first; then the set-up clock starts, just
    before the simulator is imported.
    """
    calibration = calibrate()
    run = Round(trace, calibration)
    try:
        if workload == "redis-kv":
            _tcp_round(run, inputs, "redis")
        elif workload == "nginx-static":
            _tcp_round(run, inputs, "nginx")
        elif workload == "sqlite-insert":
            _sqlite_round(run, inputs)
        else:
            _explore_round(run, inputs)
        return summarize(run)
    finally:
        if run.recorder is not None:
            run.recorder.uninstall()


def summarize(run):
    ops = run.attempted
    timed_s = run.t_end - run.t1
    out = {
        "setup_s": run.t1 - run.t0,
        "timed_s": timed_s,
        "calibration_s": statistics.median(run.calibration),
        "attempted": ops,
        "failed": run.failed,
        "wrong": run.wrong,
        "errors": run.errors,
        "peak_rss_mb": run.rss_mb,
        "digest": hashlib.sha256(json.dumps(
            run.digest_parts, sort_keys=True).encode()).hexdigest(),
        "extra": run.extra,
        "sim": None,
        "counts": {},
    }
    if run.latencies:
        lat = sorted(run.latencies)
        to_us = 1e6 / run.freq_hz
        p50, _ = percentile(lat, 50)
        p99, beyond = percentile(lat, 99)
        span = (run.last_cycles - run.first_cycles) / run.freq_hz
        out["sim"] = {
            "ops_per_s": len(lat) / span if span > 0 else 0.0,
            "p50_us": p50 * to_us,
            "p99_us": p99 * to_us,
            "samples": len(lat),
            "beyond_p99": beyond,
        }
    before, after = run.before, run.after
    if before:
        delta = {key: after[key] - before[key] for key in before}
        out["counts"] = {
            "core.gate_crossings_per_op": delta["gate_crossings"] / ops,
            "sched.switches_per_op": delta["switches"] / ops,
            "sched.core_busy_ratio": (
                delta["busy_cycles"] / (CORES * delta["cycles"])
                if delta["cycles"] > 0 else 0.0),
            "hw.tlb_hit_ratio": (delta["tlb_hits"] / delta["tlb_lookups"]
                                 if delta["tlb_lookups"] else 0.0),
            "net.frames_per_op": delta.get("frames", 0) / ops,
            "net.drops_per_op": delta.get("drops", 0) / ops,
        }
    if run.recorder is not None:
        out["trace"] = trace_metrics(run, ops, timed_s)
    return out


def trace_metrics(run, ops, timed_s):
    """Per-layer numbers from one traced round's spans."""
    recorder = run.recorder
    self_s, calls, root_s, _ = recorder.account()
    per_op_us = 1e6 / ops
    counters = recorder.counters
    metrics = {}
    for layer in ("net", "client", "core", "hw", "fs", "apps", "explore"):
        metrics["%s.self_us_per_op" % layer] = (self_s.get(layer, 0.0)
                                                * per_op_us)
    metrics["other.self_us_per_op"] = (timed_s - root_s) * per_op_us
    for layer in ("net", "client", "fs", "apps"):
        metrics["%s.calls_per_op" % layer] = calls.get(layer, 0) / ops
    _, routes = recorder.inclusive_s("Router.route")
    _, checks = recorder.inclusive_s("MMU.check")
    _, leqs = recorder.inclusive_s("safety_leq")
    eval_s, evals = recorder.inclusive_s("evaluate_profile")
    metrics["core.route_calls_per_op"] = routes / ops
    metrics["hw.mmu_checks_per_op"] = checks / ops
    metrics["net.wire_bytes_per_op"] = counters["wire_bytes"] / ops
    metrics["net.goodput_ratio"] = (run.payload_bytes / counters["wire_bytes"]
                                    if counters["wire_bytes"] else 0.0)
    metrics["net.rx_queue_depth"] = (
        counters["rx_depth_sum"] / counters["rx_depth_samples"]
        if counters["rx_depth_samples"] else 0.0)
    metrics["fs.bytes_read_per_op"] = counters["fs_bytes_read"] / ops
    metrics["fs.bytes_written_per_op"] = counters["fs_bytes_written"] / ops
    metrics["explore.leq_calls_per_op"] = leqs / ops
    metrics["explore.eval_us_per_config"] = (eval_s * 1e6 / evals
                                             if evals else 0.0)
    metrics["explore.measured_ratio"] = run.extra.get("measured_ratio", 0.0)
    return {"metrics": metrics, "wall_s": timed_s, "root_s": root_s,
            "self_s": self_s, "spans": len(recorder)}
