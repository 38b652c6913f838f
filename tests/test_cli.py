"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_search_arguments(self):
        args = build_parser().parse_args(["search", "DLRM-RMC1", "T3", "--sla", "30"])
        args_defaults = build_parser().parse_args(["search", "DLRM-RMC1", "T3"])
        assert args.sla == 30.0
        assert args_defaults.sla is None

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "DLRM-RMC9", "T3"])

    def test_rejects_unknown_server(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["search", "DLRM-RMC1", "T99"])

    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.servers == 20
        assert args.policy == "p2c"
        assert args.peak_qps is None
        assert not args.autoscale

    def test_fleet_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--policy", "fifo"])


class TestCommands:
    def test_models_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in ("DLRM-RMC1", "DIEN", "MT-WnD"):
            assert name in out

    def test_servers_lists_fleet(self, capsys):
        assert main(["servers"]) == 0
        out = capsys.readouterr().out
        assert "T10" in out and "CPU-T2+NMPx8+V100" in out

    def test_search_prints_plan(self, capsys):
        assert main(["search", "DLRM-RMC1", "T2"]) == 0
        out = capsys.readouterr().out
        assert "Hercules" in out and "QPS" in out

    def test_search_with_baseline(self, capsys):
        assert main(["search", "DLRM-RMC1", "T2", "--baseline"]) == 0
        out = capsys.readouterr().out
        assert "DeepRecSys+Baymax" in out

    def test_search_impossible_sla_fails(self, capsys):
        assert main(["search", "DLRM-RMC1", "T2", "--sla", "0.001"]) == 1

    def test_profile_small_slice(self, capsys):
        code = main(
            ["profile", "--servers", "T2", "--models", "DLRM-RMC1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "efficiency tuples" in out

    def test_serve_day(self, capsys):
        code = main(
            [
                "serve",
                "--servers", "T2", "T3",
                "--models", "DLRM-RMC1",
                "--policy", "greedy",
                "--peak-qps", "3000",
                "--interval", "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "peak" in out and "shortfall: no" in out.lower().replace(
            "false", "no"
        )

    def test_serve_overloaded_day_reports_shortfall(self, capsys):
        # The fleet cannot cover this day: every infeasible interval's
        # LP must end in a reported shortfall, not a solver error.
        code = main(
            [
                "serve",
                "--servers", "T1", "T2", "T5", "T6", "T10",
                "--models", "DIN", "MT-WnD",
                "--peak-qps", "100000",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "peak" in out and "shortfall: True" in out

    def test_fleet_replay(self, capsys):
        code = main(
            [
                "fleet",
                "--servers", "4",
                "--server-types", "T2",
                "--models", "DLRM-RMC1",
                "--policy", "p2c",
                "--duration", "2",
                "--segments", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "p99 ms" in out and "viol" in out
        assert "fleet power" in out and "queries served" in out
        assert "DLRM-RMC1" in out

    def test_fleet_autoscale(self, capsys):
        code = main(
            [
                "fleet",
                "--servers", "4",
                "--server-types", "T2",
                "--models", "DLRM-RMC1",
                "--duration", "2",
                "--segments", "8",
                "--autoscale",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet power" in out

    def test_fleet_shards_honour_the_vector_core(self):
        # Sharded workers run the core asked for: sketch percentiles
        # need the per-event core, so a forced vector core fails with
        # the engine's reason instead of quietly running python.
        with pytest.raises(ValueError, match="sketch-mode"):
            main(
                [
                    "fleet",
                    "--servers", "4",
                    "--server-types", "T2",
                    "--models", "DLRM-RMC1",
                    "--percentile-mode", "sketch",
                    "--duration", "2",
                    "--segments", "8",
                    "--shards", "2",
                    "--core", "vector",
                ]
            )


_SLICE = ["--servers", "4", "--server-types", "T2", "--models", "DLRM-RMC1"]


class TestFailFast:
    """A malformed spec fails before the table is profiled, with the
    same error it raised after profiling."""

    @pytest.mark.parametrize(
        "argv, error, match",
        [
            (["provision-fault-aware", *_SLICE, "--faults", "bogus@1:0"],
             ValueError, "bad fault entry"),
            (["provision-carbon-aware", *_SLICE, "--carbon", "sawtooth:x=1"],
             ValueError, "unknown carbon shape"),
            (["provision-carbon-aware", *_SLICE, "--carbon", "constant:intensity=1",
              "--deferrable", "jobs:bogus=1"],
             ValueError, "bad --deferrable parameter"),
            (["fleet", *_SLICE, "--faults", "bogus@1:0"],
             ValueError, "bad fault entry"),
            (["fleet", *_SLICE, "--arrivals", "sawtooth:x=1"],
             ValueError, "unknown arrival shape"),
            (["fleet", *_SLICE, "--carbon", "constant:intensity=300",
              "--deferrable", "jobs:bogus=1"],
             ValueError, "bad --deferrable parameter"),
            (["fleet", *_SLICE, "--carbon", "no-such-grid.csv"],
             FileNotFoundError, "no-such-grid.csv"),
            (["fleet", *_SLICE, "--deferrable", "jobs:duration=1,power=1"],
             SystemExit, "--deferrable needs --carbon"),
            (["fleet", *_SLICE, "--power-cap", "500"],
             SystemExit, "--carbon and --deferrable"),
            (["fleet", *_SLICE, "--trace", "t.txt", "--peak-qps", "100"],
             ValueError, "cannot infer trace format"),
            (["fleet", *_SLICE, "--shards", "2", "--faults", "crash@1:0"],
             SystemExit, "supports fault-free replays only"),
            (["fleet", *_SLICE, "--shards", "2", "--metrics-out", "m.csv"],
             SystemExit, "cannot export observability"),
            (["fleet", *_SLICE, "--shards", "2", "--carbon", "constant:intensity=300"],
             SystemExit, "cannot account carbon"),
        ],
    )
    def test_bad_spec_fails_before_profiling(
        self, monkeypatch, capsys, argv, error, match
    ):
        from repro.scheduling import OfflineProfiler

        def refuse(*args, **kwargs):
            raise AssertionError("profiled before the specs were checked")

        monkeypatch.setattr(OfflineProfiler, "profile", refuse)
        with pytest.raises(error, match=match):
            main(argv)
        assert "Profiling" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, name, match",
        [
            ("--metrics-out", "m.txt", "metrics path must end in .csv or .jsonl"),
            ("--trace-out", "t.txt", "trace path must end in .json or .jsonl"),
        ],
    )
    def test_bad_output_path_exits_before_profiling(
        self, monkeypatch, capsys, tmp_path, flag, name, match
    ):
        """An output extension the probe cannot write ends the command
        with its message before the profile and the replay."""
        from repro.scheduling import OfflineProfiler

        monkeypatch.setattr(OfflineProfiler, "profile", _refuse_profile)
        out = tmp_path / name
        with pytest.raises(SystemExit, match=match):
            main(["fleet", *_SLICE, "--duration", "2", flag, str(out)])
        assert not out.exists()
        assert "Profiling" not in capsys.readouterr().out

    def test_csv_metrics_refuse_a_traced_model_before_profiling(
        self, monkeypatch, capsys, tmp_path
    ):
        """A recorded trace that names a model a CSV cell cannot hold
        refuses ``--metrics-out x.csv`` with the row writer's message,
        before the profile; ``.jsonl`` metrics are not refused."""
        import json

        from repro.scheduling import OfflineProfiler

        trace = tmp_path / "unserved.jsonl"
        trace.write_text("".join(
            json.dumps({"model": "DLRM-RMC1" if i % 2 == 0 else "web,burst",
                        "t": 0.005 * i, "size": 20}) + "\n"
            for i in range(40)
        ))
        monkeypatch.setattr(OfflineProfiler, "profile", _refuse_profile)
        argv = ["fleet", "--trace", str(trace), "--peak-qps", "200", *_SLICE]
        out = tmp_path / "unserved.csv"
        with pytest.raises(SystemExit, match="model 'web,burst' contains a comma"):
            main([*argv, "--metrics-out", str(out)])
        assert not out.exists()
        assert "Profiling" not in capsys.readouterr().out
        with pytest.raises(AssertionError, match="profiled"):
            main([*argv, "--metrics-out", str(tmp_path / "metrics.jsonl")])


def _refuse_profile(*args, **kwargs):
    raise AssertionError("profiled before the output paths were checked")


class TestBench:
    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.quick is False
        assert args.seed == 0
        assert args.jobs == 1
        assert args.output == "BENCH_perf.json"

    def test_bench_subset_writes_json(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        code = main(
            [
                "bench",
                "--quick",
                "--scenarios", "loadgen",
                "--seed", "7",
                "--output", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "loadgen" in out

        import json

        doc = json.loads(out_path.read_text())
        assert doc["schema"] == 1
        assert doc["mode"] == "quick"
        assert doc["seed"] == 7
        assert set(doc["scenarios"]) == {"loadgen"}
        metrics = doc["scenarios"]["loadgen"]
        assert metrics["wall_s"] > 0
        assert metrics["queries_per_s"] > 0

    def test_bench_rejects_unknown_scenario(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--scenarios", "nope",
                  "--output", str(tmp_path / "x.json")])


class TestObservabilityCLI:
    """`--json`, telemetry export flags, and the `observe` subcommand."""

    FLEET = [
        "fleet",
        "--servers", "4",
        "--server-types", "T2",
        "--models", "DLRM-RMC1",
        "--policy", "p2c",
        "--duration", "2",
        "--segments", "8",
    ]

    def test_fleet_json_is_machine_readable(self, capsys):
        import json

        assert main([*self.FLEET, "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # stdout is exactly one JSON document
        stats = payload["per_model"]["DLRM-RMC1"]
        assert stats["completed"] > 0
        assert payload["totals"]["completed"] == stats["completed"]
        assert payload["policy"] == "p2c"
        assert set(payload["analytic"]) == {
            "provisioned_power_w", "drawn_power_w"
        }
        # Floats are emitted via repr, so a dump/parse cycle is lossless.
        assert json.loads(json.dumps(payload)) == payload
        assert isinstance(stats["p99_ms"], float)

    def test_fleet_json_matches_table_run(self, capsys):
        import json

        assert main(self.FLEET) == 0
        table = capsys.readouterr().out
        assert main([*self.FLEET, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # Same seed, same run: the table's served count appears verbatim.
        assert f"queries served {payload['totals']['completed']}" in table

    def test_fleet_metrics_out_writes_csv(self, tmp_path, capsys):
        from repro.obs.probe import METRIC_FIELDS

        out = tmp_path / "metrics.csv"
        assert main([*self.FLEET, "--metrics-out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(METRIC_FIELDS)
        assert len(lines) > 1
        assert "wrote metrics series" in capsys.readouterr().out

    def test_fleet_trace_out_chrome_counts_match_result(self, tmp_path, capsys):
        import json

        trace = tmp_path / "trace.json"
        code = main([*self.FLEET, "--json", "--trace-out", str(trace)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)

        assert main(["observe", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["format"] == "chrome-trace"
        assert summary["balanced"]
        for key in ("completed", "dropped", "failed", "retried", "hedged"):
            assert summary["measured"][key] == payload["totals"][key], key

    def test_fleet_trace_out_jsonl_summarizes(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main([*self.FLEET, "--trace-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["observe", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace-jsonl" in out

    def test_observe_diff_same_file_is_zero(self, tmp_path, capsys):
        import json

        metrics = tmp_path / "metrics.jsonl"
        assert main([*self.FLEET, "--metrics-out", str(metrics)]) == 0
        capsys.readouterr()
        assert main(["observe", str(metrics), str(metrics), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        for group in doc["diff"]["deltas"].values():
            for cell in group.values():
                assert cell["delta"] == 0

    def test_provision_fault_aware_json(self, capsys):
        import json

        code = main(
            [
                "provision-fault-aware",
                "--servers", "6",
                "--server-types", "T2",
                "--models", "DLRM-RMC1",
                "--duration", "1",
                "--segments", "4",
                "--faults", "crash@0.4:0+0.3",
                "--max-evals", "2",
                "--r-tol", "0.5",
                "--json",
            ]
        )
        assert code in (0, 1)  # exit mirrors convergence, not JSON health
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] == (code == 0)
        assert payload["chosen_r"] >= 0.0
        assert payload["evaluations"]
        assert "provisioned_power_w" in payload
        assert "per_model" in payload["result"]
        assert all(":" in key for key in payload["allocation"])
        assert json.loads(json.dumps(payload)) == payload

    def test_provision_fault_aware_json_without_convergence(self, capsys):
        """A search that never meets its target still prints its
        document: the chosen allocation and result are null."""
        import json

        code = main(
            [
                "provision-fault-aware",
                "--servers", "6",
                "--server-types", "T2",
                "--models", "DLRM-RMC1",
                "--duration", "2",
                "--faults", "random:crash_mtbf=1,mttr=5",
                "--retries", "0",
                "--r-max", "0.2",
                "--max-evals", "2",
                "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is False
        assert payload["chosen_r"] is None
        assert payload["allocation"] is None and payload["result"] is None
        assert payload["baseline_allocation"]
        assert "per_model" in payload["baseline_result"]

    def test_provision_fault_aware_refuses_shards_before_profiling(self, capsys):
        with pytest.raises(SystemExit, match="shards"):
            main(
                [
                    "provision-fault-aware",
                    "--servers", "4",
                    "--server-types", "T2",
                    "--models", "DLRM-RMC1",
                    "--faults", "random:crash_mtbf=5",
                    "--shards", "2",
                ]
            )
        assert "Profiling" not in capsys.readouterr().out


class TestCarbonCLI:
    FLEET = [
        "fleet",
        "--servers", "4",
        "--server-types", "T2",
        "--models", "DLRM-RMC1",
        "--duration", "2",
        "--segments", "8",
    ]
    CARBON = ["--carbon", "diurnal:base=350,swing=150,period=2,steps=12"]
    JOBS = ["--deferrable", "jobs:count=2,duration=0.3,power=600,slack=1.5"]

    def test_fleet_carbon_only_prints_emissions(self, capsys):
        assert main([*self.FLEET, *self.CARBON]) == 0
        out = capsys.readouterr().out
        assert "gCO2" in out and "grid mean" in out
        assert "deferrable jobs" not in out

    def test_fleet_carbon_with_jobs_prints_plan_line(self, capsys):
        assert main(
            [
                *self.FLEET, *self.CARBON, *self.JOBS,
                "--deferrable-policy", "carbon-waiting",
                "--power-cap", "6000",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "gCO2" in out
        assert "deferrable jobs" in out and "carbon-waiting" in out

    def test_fleet_carbon_json_block(self, capsys):
        import json

        assert main([*self.FLEET, *self.CARBON, *self.JOBS, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        carbon = doc["carbon"]
        assert carbon["realtime_g"] > 0.0
        assert carbon["total_g"] == pytest.approx(
            carbon["realtime_g"] + carbon["deferrable_g"]
        )
        assert carbon["jobs_submitted"] == 2
        assert carbon["jobs_completed"] + carbon["jobs_suspended"] + (
            carbon["jobs_dropped"]
        ) == 2
        assert carbon["policy"] == "no-wait"  # the CLI default

    def test_fleet_json_has_no_carbon_key_when_off(self, capsys):
        import json

        assert main([*self.FLEET, "--json"]) == 0
        assert "carbon" not in json.loads(capsys.readouterr().out)

    def test_fleet_deferrable_requires_carbon(self):
        with pytest.raises(SystemExit, match="--carbon"):
            main([*self.FLEET, *self.JOBS])

    def test_fleet_cap_requires_carbon_and_jobs(self):
        for knobs in (
            ["--power-cap", "5000"],
            ["--deferral-horizon", "1.0"],
            [*self.CARBON, "--power-cap", "5000"],
        ):
            with pytest.raises(SystemExit, match="--carbon and --deferrable"):
                main([*self.FLEET, *knobs])

    def test_fleet_shards_refuse_carbon(self):
        with pytest.raises(SystemExit, match="shards"):
            main([*self.FLEET, *self.CARBON, "--shards", "2"])

    def test_fleet_carbon_file_roundtrip(self, tmp_path, capsys):
        from repro.carbon import CarbonTrace

        path = tmp_path / "grid.csv"
        CarbonTrace.step((0.0, 1.0), (500.0, 100.0)).save(str(path))
        assert main([*self.FLEET, "--carbon", str(path)]) == 0
        assert "gCO2" in capsys.readouterr().out

    def test_fleet_bad_carbon_spec_fails(self):
        # Grammar errors surface as ValueError with the offending
        # shape named, matching the --faults mini-language convention.
        with pytest.raises(ValueError, match="unknown carbon shape"):
            main([*self.FLEET, "--carbon", "sawtooth:x=1"])

    def test_provision_carbon_aware_json(self, capsys):
        import json

        code = main(
            [
                "provision-carbon-aware",
                "--servers", "6",
                "--server-types", "T2",
                "--models", "DLRM-RMC1",
                "--duration", "1",
                "--segments", "4",
                *self.CARBON,
                "--deferrable", "jobs:count=2,duration=0.2,power=400,slack=2",
                "--policies", "no-wait", "carbon-waiting",
                "--power-caps", "none/8000",
                "--deferral-horizons", "none/1.0",
                "--max-evals", "2",
                "--r-tol", "0.5",
                "--json",
            ]
        )
        assert code in (0, 1)  # exit mirrors convergence, not JSON health
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] == (code == 0)
        assert payload["chosen_r"] >= 0.0
        assert payload["evaluations"]
        assert "total_g" in payload and "no_wait_g" in payload
        if payload["converged"]:
            assert payload["result"]["carbon"]["realtime_g"] > 0.0
            # 2 policies x 2 caps x 2 horizons = 8 sweep points.
            assert len(payload["plan"]) == 8
            assert payload["chosen_plan"]["feasible"] is True
            assert payload["deferral_savings_g"] >= 0.0
        assert json.loads(json.dumps(payload)) == payload

    def test_provision_carbon_aware_table(self, capsys):
        code = main(
            [
                "provision-carbon-aware",
                "--servers", "6",
                "--server-types", "T2",
                "--models", "DLRM-RMC1",
                "--duration", "1",
                "--segments", "4",
                *self.CARBON,
                "--max-evals", "2",
                "--r-tol", "0.5",
            ]
        )
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "availability" in out
        assert "gCO2" in out

    def test_provision_carbon_aware_refuses_shards(self):
        with pytest.raises(SystemExit, match="shards"):
            main(
                [
                    "provision-carbon-aware",
                    "--servers", "4",
                    "--server-types", "T2",
                    "--models", "DLRM-RMC1",
                    *self.CARBON,
                    "--shards", "2",
                ]
            )

    @pytest.mark.parametrize(
        "flags", [("--retries", "5"), ("--hedge-ms", "3")]
    )
    def test_provision_carbon_aware_refuses_retries_and_hedging(self, flags):
        # The search replays fault-free and never passes them on.
        with pytest.raises(SystemExit, match="--retries/--hedge-ms"):
            main(
                [
                    "provision-carbon-aware",
                    "--servers", "4",
                    "--server-types", "T2",
                    "--models", "DLRM-RMC1",
                    *self.CARBON,
                    *flags,
                ]
            )

    def test_sweep_value_grammar(self, capsys):
        parser = build_parser()
        args = parser.parse_args(
            [
                "provision-carbon-aware",
                *self.CARBON,
                "--power-caps", "none/3000/4500.5",
                "--deferral-horizons", "-",
            ]
        )
        assert args.power_caps == (None, 3000.0, 4500.5)
        assert args.deferral_horizons == (None,)
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["provision-carbon-aware", *self.CARBON, "--power-caps", "abc"]
            )
        capsys.readouterr()
