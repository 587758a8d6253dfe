"""Perf-regression observatory: snapshots, diffs, verdicts, CLI gate.

Virtual cycles are deterministic, so the gate's tolerance is zero: the
acceptance case here plants a synthetic +5% ``cycles_per_request``
regression in a freshly generated snapshot and requires ``obs check`` to
exit non-zero against the committed baseline.
"""

import io
import json
import os

import pytest

import benchmarks.common as bench_common
from repro.cli import main as cli_main
from repro.errors import ReproError
from repro.obs import (
    SNAPSHOT_SCHEMA_VERSION,
    check_baselines,
    check_snapshot,
    config_digest,
    diff_snapshots,
    flatten_metrics,
    load_snapshot,
)

BASELINES = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                         "results", "baselines")


def snap(results, benchmark="bench", config=None, schema=None):
    """A snapshot payload shaped like ``write_metrics`` output."""
    config = config or {"n": 1}
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION if schema is None
        else schema,
        "benchmark": benchmark,
        "config": config,
        "config_digest": config_digest(config),
        "results": results,
    }


def write_snap(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle)
    return str(path)


class TestFlatten:
    def test_numeric_leaves_get_dotted_paths(self):
        flat = flatten_metrics(snap({
            "cycles": 10.5,
            "nested": {"a": 1, "b": [2, 3]},
            "ok": True,
            "note": "ignored",
            "nothing": None,
        }))
        assert flat == {
            "results.cycles": 10.5,
            "results.nested.a": 1,
            "results.nested.b.0": 2,
            "results.nested.b.1": 3,
            "results.ok": 1,
        }

    def test_metadata_keys_excluded(self):
        flat = flatten_metrics(snap({"x": 1}))
        assert all(not path.startswith(("schema_version", "config",
                                        "benchmark")) for path in flat)


class TestDiff:
    def test_identical_snapshots_all_ok(self):
        diff = diff_snapshots(snap({"x": 1, "y": 2.5}),
                              snap({"x": 1, "y": 2.5}))
        assert diff.changed() == []
        assert "no differences" in diff.to_text()

    def test_changed_added_removed(self):
        diff = diff_snapshots(snap({"x": 1, "gone": 3}),
                              snap({"x": 2, "new": 4}))
        by_status = {d.status: d for d in diff.deltas}
        assert by_status["changed"].path == "results.x"
        assert by_status["changed"].delta == 1
        assert by_status["changed"].relative == pytest.approx(1.0)
        assert by_status["removed"].path == "results.gone"
        assert by_status["added"].path == "results.new"
        assert "3 of 3 metrics differ" in diff.to_text()

    def test_refuses_cross_schema(self):
        with pytest.raises(ReproError, match="schema version"):
            diff_snapshots(snap({"x": 1}),
                           snap({"x": 1},
                                schema=SNAPSHOT_SCHEMA_VERSION + 1))

    def test_refuses_cross_benchmark(self):
        with pytest.raises(ReproError, match="benchmark"):
            diff_snapshots(snap({"x": 1}, benchmark="a"),
                           snap({"x": 1}, benchmark="b"))

    def test_refuses_cross_config(self):
        with pytest.raises(ReproError, match="config digest"):
            diff_snapshots(snap({"x": 1}, config={"requests": 10}),
                           snap({"x": 1}, config={"requests": 20}))


class TestVerdicts:
    def test_any_change_is_a_regression_by_default(self):
        verdict = check_snapshot(snap({"cycles": 100}),
                                 snap({"cycles": 100.001}))
        assert not verdict.ok
        assert verdict.summary_line().startswith("FAIL")
        assert len(verdict.regressions) == 1

    def test_allowlist_blesses_matching_metrics(self):
        verdict = check_snapshot(
            snap({"cycles": 100, "other": 1}),
            snap({"cycles": 105, "other": 1}),
            allow=("results.cycles",),
        )
        assert verdict.ok
        assert [d.path for d in verdict.allowed] == ["results.cycles"]
        assert "allowed" in verdict.summary_line()

    def test_allowlist_patterns_are_fnmatch(self):
        verdict = check_snapshot(
            snap({"a": {"cycles": 1}, "b": {"cycles": 2}}),
            snap({"a": {"cycles": 9}, "b": {"cycles": 9}}),
            allow=("results.*.cycles",),
        )
        assert verdict.ok

    def test_incomparable_snapshots_fail_the_verdict(self):
        verdict = check_snapshot(snap({"x": 1}, config={"n": 1}),
                                 snap({"x": 1}, config={"n": 2}))
        assert not verdict.ok
        assert "config digest" in verdict.summary_line()


class TestSnapshotIo:
    def test_load_refuses_unversioned_payload(self, tmp_path):
        path = write_snap(tmp_path / "BENCH_x.json", {"results": {"x": 1}})
        with pytest.raises(ReproError, match="schema-versioned"):
            load_snapshot(path)

    def test_write_metrics_stamps_metadata(self, tmp_path, monkeypatch):
        monkeypatch.setattr(bench_common, "RESULTS_DIR", str(tmp_path))
        path = bench_common.write_metrics(
            "demo", {"results": {"x": 1}}, config={"n": 3},
        )
        payload = load_snapshot(path)
        assert payload["schema_version"] == SNAPSHOT_SCHEMA_VERSION
        assert payload["benchmark"] == "demo"
        assert payload["config"] == {"n": 3}
        assert payload["config_digest"] == config_digest({"n": 3})
        assert os.path.basename(path) == "BENCH_demo.json"


class TestBaselineGate:
    def _dirs(self, tmp_path):
        results = tmp_path / "results"
        baselines = results / "baselines"
        baselines.mkdir(parents=True)
        return results, baselines

    def test_matching_snapshots_pass(self, tmp_path):
        results, baselines = self._dirs(tmp_path)
        payload = snap({"cycles": 100})
        write_snap(baselines / "BENCH_bench.json", payload)
        write_snap(results / "BENCH_bench.json", payload)
        report = check_baselines(str(results), str(baselines))
        assert report.ok
        assert "perf gate: PASS" in report.to_text()

    def test_regression_fails_the_gate(self, tmp_path):
        results, baselines = self._dirs(tmp_path)
        write_snap(baselines / "BENCH_bench.json", snap({"cycles": 100}))
        write_snap(results / "BENCH_bench.json", snap({"cycles": 105}))
        report = check_baselines(str(results), str(baselines))
        assert not report.ok
        assert "perf gate: FAIL" in report.to_text()

    def test_missing_current_snapshot_fails(self, tmp_path):
        results, baselines = self._dirs(tmp_path)
        write_snap(baselines / "BENCH_bench.json", snap({"cycles": 100}))
        report = check_baselines(str(results), str(baselines))
        assert not report.ok
        assert "no current snapshot" in report.to_text()

    def test_unbaselined_snapshot_is_skipped_not_failed(self, tmp_path):
        results, baselines = self._dirs(tmp_path)
        payload = snap({"cycles": 100})
        write_snap(baselines / "BENCH_bench.json", payload)
        write_snap(results / "BENCH_bench.json", payload)
        write_snap(results / "BENCH_extra.json",
                   snap({"x": 1}, benchmark="extra"))
        report = check_baselines(str(results), str(baselines))
        assert report.ok
        assert "skip BENCH_extra.json" in report.to_text()

    def test_no_baselines_at_all_fails(self, tmp_path):
        results, baselines = self._dirs(tmp_path)
        report = check_baselines(str(results), str(baselines))
        assert not report.ok

    def test_allowlist_json_next_to_baselines(self, tmp_path):
        results, baselines = self._dirs(tmp_path)
        write_snap(baselines / "BENCH_bench.json", snap({"cycles": 100}))
        write_snap(results / "BENCH_bench.json", snap({"cycles": 105}))
        write_snap(baselines / "allowlist.json",
                   {"allow": ["results.cycles"]})
        report = check_baselines(str(results), str(baselines))
        assert report.ok

    def test_malformed_allowlist_raises(self, tmp_path):
        results, baselines = self._dirs(tmp_path)
        write_snap(baselines / "BENCH_bench.json", snap({"cycles": 100}))
        write_snap(baselines / "allowlist.json", {"allow": "not-a-list"})
        with pytest.raises(ReproError, match="allowlist"):
            check_baselines(str(results), str(baselines))


class TestCliGate:
    def run_cli(self, argv):
        out = io.StringIO()
        code = cli_main(argv, out=out)
        return code, out.getvalue()

    def _committed_redis_baseline(self):
        return load_snapshot(
            os.path.join(BASELINES, "BENCH_functional_redis.json"),
        )

    def test_synthetic_regression_fails_obs_check(self, tmp_path):
        """The acceptance case: +5% cycles/request against the real
        committed Redis baseline must fail the gate."""
        results = tmp_path / "results"
        results.mkdir()
        payload = self._committed_redis_baseline()
        for point in payload["points"]:
            point["cycles_per_request"] *= 1.05
        write_snap(results / "BENCH_functional_redis.json", payload)
        code, output = self.run_cli([
            "obs", "check", "--results", str(results),
            "--baseline", BASELINES,
        ])
        assert code != 0
        assert "FAIL functional_redis" in output
        assert "perf gate: FAIL" in output

    def test_pristine_snapshot_passes_obs_check(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        # Every committed baseline must have a current snapshot, so the
        # pristine run mirrors the whole baselines directory.
        for name in sorted(os.listdir(BASELINES)):
            if name.startswith("BENCH_") and name.endswith(".json"):
                write_snap(results / name,
                           load_snapshot(os.path.join(BASELINES, name)))
        code, output = self.run_cli([
            "obs", "check", "--results", str(results),
            "--baseline", BASELINES,
        ])
        assert code == 0
        assert "perf gate: PASS" in output

    def test_obs_diff_reports_deltas(self, tmp_path):
        a = write_snap(tmp_path / "a.json", snap({"cycles": 100}))
        b = write_snap(tmp_path / "b.json", snap({"cycles": 110}))
        code, output = self.run_cli(["obs", "diff", a, b])
        assert code == 0
        assert "results.cycles" in output
        assert "+10.00%" in output

    def test_obs_diff_refuses_cross_config(self, tmp_path):
        a = write_snap(tmp_path / "a.json",
                       snap({"x": 1}, config={"n": 1}))
        b = write_snap(tmp_path / "b.json",
                       snap({"x": 1}, config={"n": 2}))
        code, output = self.run_cli(["obs", "diff", a, b])
        assert code == 1
        assert "error" in output
        assert "config digest" in output

    def test_obs_report_json_attribution_sums(self):
        """End-to-end acceptance: the reported critical path's per-pair
        cycles sum to within 1% of the total gate cycles."""
        code, output = self.run_cli([
            "obs", "report", "redis", "--requests", "15",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(output)
        path = payload["critical_path"]
        attributed = sum(p["cycles"] for p in path["pairs"])
        assert attributed == pytest.approx(path["total_gate_cycles"],
                                           rel=0.01)
        assert path["total_gate_cycles"] > 0

    def test_obs_report_text(self):
        code, output = self.run_cli([
            "obs", "report", "sqlite", "--requests", "10",
            "--mechanism", "vm-ept",
        ])
        assert code == 0
        assert "critical path" in output
        assert "crossing matrix" in output
        assert "top callee libraries" in output
