"""Command-line surface: subcommands, output routing, and exit codes."""

import dataclasses
import textwrap

import pytest
from conftest import FINITE_FIELDS, NONFINITE_YAML, finite_field_scenario, nonfinite_line

import foggrid.cli
from foggrid.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from foggrid.scenario import load_config

SCENARIO = textwrap.dedent(
    """
    run:
      seed: 5
      horizon_s: 20000.0
    topology:
      nodes:
        - {id: 0, tier: cloud, service_rate_per_s: 0.02198581560283688}
        - {id: 1, tier: fog, area: 0, service_rate_per_s: 0.02857142857142857}
        - {id: 2, tier: device, area: 0}
    workload:
      arrival_processes:
        - {rate_per_s: 0.016666666666666666, target: 2, payload_kind: GridTelemetry, size_bytes: 64}
    """
)


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO, encoding="utf-8")
    return path


@pytest.fixture(autouse=True)
def isolated_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FOGGRID_OUT", raising=False)


class TestValidate:
    def test_ok(self, scenario_file, capsys):
        assert main(["validate", str(scenario_file)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.strip() == "ok: 3 nodes, 1 arrival processes, 0 sessions"

    def test_missing_file(self, tmp_path, capsys):
        code = main(["validate", str(tmp_path / "absent.yaml")])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("SchemaError:")
        assert "cannot read config file" in err

    def test_invalid_yaml(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("run: [1, 2\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert "invalid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "value",
        ["!!bool maybe", "!!timestamp soon", '!!timestamp ""', '!!float ""'],
    )
    def test_scalar_that_does_not_match_its_tag(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.yaml"
        bad.write_text(f"run: {{horizon_s: {value}}}\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("SchemaError: document: invalid YAML ("), err

    def test_schema_problems_one_per_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("run: {seed: -1}\nextra: 1\n", encoding="utf-8")
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) >= 3  # seed, missing horizon, missing topology, extra
        assert all(line.startswith("SchemaError: ") for line in lines)

    def test_invalid_topology(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            "run: {horizon_s: 10.0}\n"
            "topology:\n  nodes:\n    - {id: 1, tier: fog, area: 0}\n",
            encoding="utf-8",
        )
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("InvalidTopology:")
        assert "cloud" in err

    @pytest.mark.parametrize(
        "field, old, new",
        [
            ("cpu_mhz", "0.02857142857142857}", "0.02857142857142857, spec: {cpu_mhz: N}}"),
            ("size_bytes", "size_bytes: 64", "size_bytes: N"),
        ],
        ids=["spec", "size"],
    )
    def test_integer_beyond_float_range_is_config_error(
        self, field, old, new, tmp_path, capsys
    ):
        # Both once ended in an OverflowError traceback: the spec field in
        # the topology check, the message size in the processing model.
        bad = tmp_path / "bad.yaml"
        bad.write_text(SCENARIO.replace(old, new.replace("N", "1" + "0" * 400)))
        for command in ("validate", "run"):
            assert main([command, str(bad)]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("SchemaError:")
            assert f".{field}: must be within the float range" in err

    def test_dangling_reference(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            SCENARIO.replace("target: 2", "target: 9"), encoding="utf-8"
        )
        assert main(["validate", str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("DanglingReference:")

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_private_data_from_a_fog_node_is_config_error(
        self, command, tmp_path, capsys
    ):
        # Sealing MeterReading data for fog node 1 is forbidden, so the
        # config cannot run; it once passed validate and failed mid-run.
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            SCENARIO.replace(
                "target: 2, payload_kind: GridTelemetry",
                "target: 1, payload_kind: MeterReading",
            ),
            encoding="utf-8",
        )
        assert main([command, str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "DanglingReference: workload.arrival_processes[0].target: "
            "fog node 1 may not hold keys for private MeterReading data\n"
        )

    @pytest.mark.parametrize("command", ["validate", "run", "compare"])
    def test_empty_payload_kind_is_config_error(self, command, tmp_path, capsys):
        # An empty kind needs a classification entry like any other.
        bad = tmp_path / "bad.yaml"
        bad.write_text(
            SCENARIO.replace("payload_kind: GridTelemetry", 'payload_kind: ""'),
            encoding="utf-8",
        )
        assert main([command, str(bad)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "SchemaError: workload.arrival_processes[0].payload_kind: "
            "'' has no classification entry\n"
        )


class TestRun:
    def test_writes_report_files(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code = main(["run", str(scenario_file), "--out", str(out_dir)])
        assert code == EXIT_OK
        for name in ("nodes.csv", "sessions.csv", "summary.txt"):
            assert (out_dir / name).exists()
        out = capsys.readouterr().out
        assert out.count("wrote ") == 3
        assert "mean_wait_s: " in out
        assert "trace_digest: " in out

    @pytest.mark.parametrize(
        "rate, headline",
        [
            (
                "0.016666666666666666",
                "mean_wait_s: 75.9\ntotal_energy_mj: 2.47325e+06\n"
                "trace_digest: 533280e76314a246\n",
            ),
            ("0", "mean_wait_s: n/a\ntotal_energy_mj: 0\ntrace_digest: e4a6a0577479b2b4\n"),
        ],
        ids=["traffic", "idle"],
    )
    def test_stdout_bytes(self, rate, headline, tmp_path, capsys):
        path = tmp_path / "scenario.yaml"
        path.write_text(SCENARIO.replace("0.016666666666666666", rate), encoding="utf-8")
        assert main(["run", str(path), "--out", "o"]) == EXIT_OK
        names = ("nodes.csv", "sessions.csv", "summary.txt")
        wrote = "".join(f"wrote o/{name}\n" for name in names)
        assert capsys.readouterr().out == wrote + headline

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_message_bytes_beyond_float_range(self, command, tmp_path):
        # Each size is in range; their total is not, and prices at inf.
        big = tmp_path / "big.yaml"
        doc = SCENARIO.replace("size_bytes: 64", f"size_bytes: {10**307}")
        big.write_text(doc, encoding="utf-8")
        assert main(["validate", str(big)]) == EXIT_OK
        assert main([command, str(big), "--out", "o"]) == EXIT_OK
        summaries = sorted((tmp_path / "o").glob("**/summary.txt"))
        assert len(summaries) == (1 if command == "run" else 2)
        for summary in summaries:
            assert "nlogn_processing_ms: inf" in summary.read_text().splitlines()

    def test_default_directory(self, scenario_file, tmp_path):
        assert main(["run", str(scenario_file)]) == EXIT_OK
        assert (tmp_path / "foggrid-out" / "summary.txt").exists()

    def test_env_directory(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("FOGGRID_OUT", str(tmp_path / "from-env"))
        assert main(["run", str(scenario_file)]) == EXIT_OK
        assert (tmp_path / "from-env" / "summary.txt").exists()

    def test_empty_env_is_unset(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("FOGGRID_OUT", "")
        assert main(["run", str(scenario_file)]) == EXIT_OK
        assert (tmp_path / "foggrid-out" / "summary.txt").exists()
        assert not (tmp_path / "summary.txt").exists()

    def test_out_flag_beats_env(self, scenario_file, tmp_path, monkeypatch):
        monkeypatch.setenv("FOGGRID_OUT", str(tmp_path / "from-env"))
        assert (
            main(["run", str(scenario_file), "--out", str(tmp_path / "flag")])
            == EXIT_OK
        )
        assert (tmp_path / "flag" / "summary.txt").exists()
        assert not (tmp_path / "from-env").exists()

    def test_overrides_reach_the_report(self, scenario_file, tmp_path):
        out_dir = tmp_path / "o"
        code = main(
            [
                "run",
                str(scenario_file),
                "--seed",
                "123",
                "--horizon",
                "5000",
                "--out",
                str(out_dir),
            ]
        )
        assert code == EXIT_OK
        summary = (out_dir / "summary.txt").read_text().splitlines()
        assert "seed: 123" in summary
        assert "horizon_s: 5000" in summary
        assert "warmup_s: 50" in summary  # default 1% follows the override

    @pytest.mark.parametrize("value", NONFINITE_YAML)
    @pytest.mark.parametrize("field", FINITE_FIELDS)
    def test_nonfinite_config_is_config_error(self, field, value, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text(finite_field_scenario(field, value), encoding="utf-8")
        for command in ("validate", "run"):
            assert main([command, str(bad)]) == EXIT_CONFIG
            assert capsys.readouterr().err == f"SchemaError: {nonfinite_line(field, value)}\n"

    @pytest.mark.parametrize("horizon", ["inf", "-inf", "nan"])
    def test_nonfinite_horizon_override(self, scenario_file, horizon, capsys):
        code = main(["run", str(scenario_file), f"--horizon={horizon}"])
        assert code == EXIT_CONFIG
        assert "horizon override: must be finite" in capsys.readouterr().err

    def test_engine_precondition_is_runtime_error(
        self, scenario_file, monkeypatch, capsys
    ):
        # Parsing rejects every such config, so hand the engine one
        # directly: a negative hop delay.
        def load_broken(path):
            sc = load_config(path)
            rc = dataclasses.replace(sc.run_config, hop_delay_s=-1.0)
            return dataclasses.replace(sc, run_config=rc)

        monkeypatch.setattr(foggrid.cli, "load_config", load_broken)
        assert main(["run", str(scenario_file)]) == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "InvalidRunConfig: hop_delay_s: must be finite and nonnegative, got -1.0\n"

    def test_bad_seed_override(self, scenario_file, capsys):
        assert main(["run", str(scenario_file), "--seed", "-1"]) == EXIT_CONFIG
        assert "seed override" in capsys.readouterr().err

    def test_unwritable_out_is_runtime_error(self, scenario_file, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        code = main(
            ["run", str(scenario_file), "--out", str(blocker / "nested")]
        )
        assert code == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("IoFailure:")


class TestCompare:
    def test_writes_both_reports_and_deltas(self, scenario_file, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        assert main(["compare", str(scenario_file), "--out", str(out_dir)]) == EXIT_OK
        assert (out_dir / "cloud-only" / "summary.txt").exists()
        assert (out_dir / "fog-augmented" / "summary.txt").exists()
        assert (out_dir / "comparison.txt").exists()
        out = capsys.readouterr().out
        assert out.count("wrote ") == 7
        assert "delta_mean_wait_s: " in out
        assert "fog_trace_digest: " in out

    def test_repeat_runs_are_byte_identical(self, scenario_file, tmp_path):
        files = (
            "cloud-only/nodes.csv",
            "cloud-only/sessions.csv",
            "cloud-only/summary.txt",
            "fog-augmented/nodes.csv",
            "fog-augmented/sessions.csv",
            "fog-augmented/summary.txt",
            "comparison.txt",
        )
        for out in ("c1", "c2"):
            assert (
                main(["compare", str(scenario_file), "--out", str(tmp_path / out)])
                == EXIT_OK
            )
        for name in files:
            a = (tmp_path / "c1" / name).read_bytes()
            b = (tmp_path / "c2" / name).read_bytes()
            assert a == b, f"{name} differs between identical runs"
