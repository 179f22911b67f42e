"""Report aggregation, framework comparison, and deterministic emission."""

import csv
import textwrap

import pytest

import foggrid
from foggrid import (
    NODES_HEADER,
    SESSIONS_HEADER,
    IoFailure,
    Mode,
    ProcessingModel,
    Tier,
    build_report,
    compare_frameworks,
    emit_comparison,
    emit_report,
    parse_config,
    processing_time,
)

# One area, rates calibrated so the gateway settles near 84 s sojourn and
# the cloud near 188 s. The second vehicle is unregistered, so one session
# is rejected and its owner column stays empty.
SCENARIO = textwrap.dedent(
    """
    run:
      seed: 9
      horizon_s: 200000.0
      warmup_s: 10000.0
    topology:
      nodes:
        - {id: 0, tier: cloud, service_rate_per_s: 0.02198581560283688}
        - {id: 1, tier: fog, area: 0, service_rate_per_s: 0.02857142857142857}
        - {id: 2, tier: device, area: 0}
        - {id: 3, tier: device, area: 0}
    workload:
      arrival_processes:
        - {rate_per_s: 0.016666666666666666, target: 2, payload_kind: GridTelemetry, size_bytes: 64}
      vehicle_registry:
        ev-a: {meter: 3, account: acct-a}
      sessions:
        - {vehicle_id: ev-a, outlet_meter: 2, start_s: 1000.0, energy_kwh: 4.0, duration_s: 50.0}
        - {vehicle_id: ghost, outlet_meter: 2, start_s: 2000.0, energy_kwh: 1.0}
    models:
      c_ms: 0.5
    """
)

EMPTY_SCENARIO = textwrap.dedent(
    """
    run:
      seed: 1
      horizon_s: 100.0
    topology:
      nodes:
        - {id: 0, tier: cloud}
        - {id: 1, tier: fog, area: 0}
        - {id: 2, tier: device, area: 0}
    """
)


@pytest.fixture(scope="module")
def scenario():
    return parse_config(SCENARIO)


@pytest.fixture(scope="module")
def report(scenario):
    rc = scenario.run_config
    return build_report(rc, foggrid.run(rc), c_ms=scenario.c_ms)


class TestBuildReport:
    def test_aggregates_recompute_from_rows(self, report):
        serving = [r for r in report.nodes if r.tier is not Tier.DEVICE]
        lam = sum(r.stats.lambda_hat for r in serving)
        weighted = sum(r.stats.lambda_hat * r.stats.mean_wait_s for r in serving)
        assert report.mean_wait_s == weighted / lam
        assert report.total_energy_mj == sum(
            r.energy.energy_mj for r in report.nodes
        )

    def test_nlogn_uses_total_bytes(self, report):
        expected = processing_time(
            ProcessingModel(c_ms=0.5), report.total_message_bytes
        )
        assert report.nlogn_processing_ms == expected

    def test_session_rows(self, report):
        rows = {r.session_id: r for r in report.sessions}
        assert rows[0].state == "billed"
        assert rows[0].amount == pytest.approx(4.0 * 0.2)
        assert rows[0].owner_meter == 3
        assert rows[1].state == "rejected"
        assert rows[1].amount == 0.0
        assert rows[1].owner_meter is None
        assert report.sessions_billed == 1
        assert report.energy_delivered_kwh == 4.0

    def test_empty_run_has_no_headline_wait(self):
        rc = parse_config(EMPTY_SCENARIO).run_config
        rep = build_report(rc, foggrid.run(rc))
        assert rep.mean_wait_s is None
        assert rep.nlogn_processing_ms == 0.0
        assert rep.sessions == ()


class TestEmitReport:
    def test_writes_three_files(self, report, tmp_path):
        paths = emit_report(report, tmp_path / "out")
        assert [p.name for p in paths] == ["nodes.csv", "sessions.csv", "summary.txt"]
        for p in paths:
            assert p.exists()

    def test_headers_are_exact(self, report, tmp_path):
        nodes_csv, sessions_csv, _ = emit_report(report, tmp_path / "out")
        assert nodes_csv.read_text().splitlines()[0] == NODES_HEADER
        assert sessions_csv.read_text().splitlines()[0] == SESSIONS_HEADER

    def test_emission_is_deterministic(self, report, tmp_path):
        first = emit_report(report, tmp_path / "a")
        second = emit_report(report, tmp_path / "b")
        for p1, p2 in zip(first, second):
            assert p1.read_bytes() == p2.read_bytes()

    def test_nodes_csv_round_trips(self, report, tmp_path):
        nodes_csv, _, _ = emit_report(report, tmp_path / "out")
        with open(nodes_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(report.nodes)
        by_id = {r.node_id: r for r in report.nodes}
        for row in rows:
            node = by_id[int(row["node_id"])]
            assert row["tier"] == node.tier.name.lower()
            for col, value in [
                ("lambda_hat", node.stats.lambda_hat),
                ("mean_wait_s", node.stats.mean_wait_s),
                ("utilization", node.stats.utilization),
                ("energy_mj", node.energy.energy_mj),
            ]:
                assert float(row[col]) == pytest.approx(value, rel=1e-5, abs=1e-12)

    def test_sessions_csv_rows(self, report, tmp_path):
        _, sessions_csv, _ = emit_report(report, tmp_path / "out")
        with open(sessions_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["state"] == "billed"
        assert rows[0]["owner_meter"] == "3"
        assert rows[1]["state"] == "rejected"
        assert rows[1]["owner_meter"] == ""

    def test_summary_layout(self, report, tmp_path):
        _, _, summary = emit_report(report, tmp_path / "out")
        lines = summary.read_text().splitlines()
        keys = [line.split(":", 1)[0] for line in lines]
        assert keys == [
            "mode",
            "seed",
            "horizon_s",
            "warmup_s",
            "nodes",
            "messages_generated",
            "messages_delivered",
            "mean_wait_s",
            "total_energy_mj",
            "total_message_bytes",
            "nlogn_processing_ms",
            "sessions_total",
            "sessions_billed",
            "energy_delivered_kwh",
            "amount_billed",
            "trace_digest",
            "events",
        ]
        assert f"trace_digest: {report.trace_digest}" in lines
        assert f"seed: {report.seed}" in lines

    def test_na_for_missing_wait(self, tmp_path):
        rc = parse_config(EMPTY_SCENARIO).run_config
        rep = build_report(rc, foggrid.run(rc))
        _, _, summary = emit_report(rep, tmp_path / "out")
        assert "mean_wait_s: n/a" in summary.read_text().splitlines()

    def test_unwritable_target(self, report, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        with pytest.raises(IoFailure):
            emit_report(report, blocker / "out")


@pytest.fixture(scope="module")
def mode_comparison(scenario):
    return compare_frameworks(scenario)


class TestComparison:
    @pytest.fixture
    def comparison(self, mode_comparison):
        return mode_comparison

    def test_modes_and_seed(self, comparison, scenario):
        assert comparison.cloud.mode is Mode.CLOUD_ONLY
        assert comparison.fog.mode is Mode.FOG_AUGMENTED
        assert comparison.cloud.seed == comparison.fog.seed == 9
        assert comparison.cloud.trace_digest != comparison.fog.trace_digest

    def test_deltas_are_fog_minus_cloud(self, comparison):
        assert comparison.delta_mean_wait_s == (
            comparison.fog.mean_wait_s - comparison.cloud.mean_wait_s
        )
        assert comparison.delta_energy_mj == (
            comparison.fog.total_energy_mj - comparison.cloud.total_energy_mj
        )

    def test_fog_cuts_the_wait(self, comparison):
        # Calibrated rates: ~84 s at the gateway vs ~188 s at the cloud.
        assert comparison.fog.mean_wait_s < comparison.cloud.mean_wait_s

    def test_same_workload_both_sides(self, comparison):
        assert (
            comparison.cloud.messages_generated
            == comparison.fog.messages_generated
        )
        assert (
            comparison.cloud.total_message_bytes
            == comparison.fog.total_message_bytes
        )

    def test_no_serving_samples_compare_as_na(self, tmp_path):
        comparison = compare_frameworks(parse_config(EMPTY_SCENARIO))
        assert comparison.delta_mean_wait_s is None
        lines = emit_comparison(comparison, tmp_path / "cmp")[-1].read_text().splitlines()
        assert "delta_mean_wait_s: n/a" in lines

    def test_unwritable_comparison(self, comparison, tmp_path):
        (tmp_path / "cmp" / "comparison.txt").mkdir(parents=True)
        with pytest.raises(IoFailure):
            emit_comparison(comparison, tmp_path / "cmp")

    def test_emit_comparison_layout(self, comparison, tmp_path):
        paths = emit_comparison(comparison, tmp_path / "cmp")
        names = [str(p.relative_to(tmp_path / "cmp")) for p in paths]
        assert names == [
            "cloud-only/nodes.csv",
            "cloud-only/sessions.csv",
            "cloud-only/summary.txt",
            "fog-augmented/nodes.csv",
            "fog-augmented/sessions.csv",
            "fog-augmented/summary.txt",
            "comparison.txt",
        ]
        lines = paths[-1].read_text().splitlines()
        keys = [line.split(":", 1)[0] for line in lines]
        assert keys == [
            "cloud_mean_wait_s",
            "fog_mean_wait_s",
            "delta_mean_wait_s",
            "cloud_total_energy_mj",
            "fog_total_energy_mj",
            "delta_total_energy_mj",
            "cloud_trace_digest",
            "fog_trace_digest",
        ]
        assert f"fog_trace_digest: {comparison.fog.trace_digest}" in lines
