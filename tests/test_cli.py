"""Tests for the command line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "figure3a" in output
        assert "figure5" in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "perigee-sim" in capsys.readouterr().out

    def test_parser_has_experiment_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["figure3a", "--num-nodes", "50", "--rounds", "2"])
        assert args.command == "figure3a"
        assert args.num_nodes == 50
        assert args.rounds == 2

    def test_parser_has_runtime_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["figure3a", "--workers", "4", "--store", "runs/"]
        )
        assert args.workers == 4
        assert args.store == "runs/"

    def test_parser_has_resume_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(["resume", "--store", "runs/", "--workers", "2"])
        assert args.command == "resume"
        assert args.store == "runs/"
        assert args.workers == 2

    def test_parser_has_cluster_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(
            ["submit", "figure3b", "--store", "runs/", "--repeats", "3"]
        )
        assert args.command == "submit"
        assert args.experiment == "figure3b"
        assert args.repeats == 3
        args = parser.parse_args(
            ["worker", "--store", "runs/", "--drain", "--lease-ttl", "5"]
        )
        assert args.command == "worker"
        assert args.drain is True
        assert args.lease_ttl == 5.0
        assert args.max_attempts == 3
        args = parser.parse_args(["status", "--store", "runs/"])
        assert args.command == "status"

    def test_parser_has_large_n_flags_on_scaling(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "scaling",
                "--latency-memory", "sparse",
                "--eval-mode", "sampled",
                "--eval-samples", "128",
                "--eval-threshold", "2048",
            ]
        )
        assert args.latency_memory == "sparse"
        assert args.eval_mode == "sampled"
        assert args.eval_samples == 128
        assert args.eval_threshold == 2048
        # submit forwards the same knobs into the queued task descriptions.
        args = parser.parse_args(
            ["submit", "scaling", "--store", "runs/", "--latency-memory", "sparse"]
        )
        assert args.latency_memory == "sparse"

    def test_submit_rejects_large_n_flags_on_other_experiments(self, capsys):
        # figure3a would silently drop them — the CLI must refuse instead.
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "submit", "figure3a", "--store", "runs/",
                    "--latency-memory", "sparse",
                ]
            )
        assert excinfo.value.code == 2
        assert "scaling" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["submit", "figure5"], ["figure5"]])
    def test_figure5_rejects_repeats(self, command, tmp_path, capsys):
        # figure5 is single-repeat: queueing one repeat for --repeats 3
        # would silently drop the request, so the CLI must refuse instead.
        with pytest.raises(SystemExit) as excinfo:
            main([*command, "--store", str(tmp_path), "--repeats", "3"])
        assert excinfo.value.code == 2
        assert "single-repeat" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_large_n_flags_reach_scaling_specs(self):
        from repro.analysis.experiments import build_experiment_specs

        specs = build_experiment_specs(
            "scaling",
            num_nodes=400,
            rounds=2,
            seed=0,
            repeats=1,
            latency_memory="sparse",
            evaluation={"mode": "sampled", "sample_size": 32},
        )
        task = specs[0].expand()[0]
        assert task.scenario_params == {"latency_memory": "sparse"}
        assert task.evaluation_params == {"mode": "sampled", "sample_size": 32}

    def test_parser_has_cluster_flag(self):
        parser = build_parser()
        args = parser.parse_args(["figure3a", "--store", "runs/", "--cluster"])
        assert args.cluster is True

    def test_cluster_flag_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure3a", "--cluster"])
        assert "--cluster requires --store" in capsys.readouterr().err

    def test_cluster_flag_rejects_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure3a", "--cluster", "--store", "runs/", "--workers", "2"])
        assert "mutually exclusive" in capsys.readouterr().err


class TestExecution:
    def test_run_small_figure3a(self, capsys):
        code = main(["figure3a", "--num-nodes", "40", "--rounds", "2", "--seed", "3"])
        assert code == 0
        output = capsys.readouterr().out
        assert "experiment: figure3a" in output
        assert "perigee-subset" in output

    def test_run_small_figure4a_sweep(self, capsys):
        code = main(["figure4a", "--num-nodes", "40", "--rounds", "2"])
        assert code == 0
        output = capsys.readouterr().out
        assert "validation-delay sweep" in output

    def test_run_with_store_then_resume(self, capsys, tmp_path):
        store = str(tmp_path / "runs")
        code = main(
            [
                "figure3a",
                "--num-nodes",
                "40",
                "--rounds",
                "2",
                "--store",
                store,
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "experiment: figure3a" in captured.out
        assert "[1/" in captured.err  # progress lines go to stderr

        code = main(["resume", "--store", store])
        assert code == 0
        captured = capsys.readouterr()
        assert "0 task(s) executed" in captured.out
        assert "experiment: figure3a" in captured.out

    def test_resume_empty_store_fails(self, capsys, tmp_path):
        code = main(["resume", "--store", str(tmp_path / "empty")])
        assert code == 1
        assert "no stored sweeps" in capsys.readouterr().err

    def test_submit_worker_status_round_trip(self, capsys, tmp_path):
        store = str(tmp_path / "runs")
        base = ["--num-nodes", "30", "--rounds", "2", "--seed", "3"]
        assert main(["submit", "figure3a", "--store", store, *base]) == 0
        assert "enqueued 7/7" in capsys.readouterr().out

        assert main(["status", "--store", store]) == 0
        assert "7 pending, 0 leased" in capsys.readouterr().out

        code = main(
            [
                "worker", "--store", store, "--drain",
                "--poll-interval", "0.1", "--worker-id", "test-worker",
            ]
        )
        assert code == 0
        assert "completed 7 task(s)" in capsys.readouterr().out

        assert main(["status", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "0 pending, 0 leased" in output
        assert "7 ok, 0 failed" in output
        assert "test-worker" in output

        # resume aggregates the worker-produced shard without re-running.
        assert main(["resume", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "0 task(s) executed, 7 from store" in output
        assert "experiment: figure3a" in output

    def test_run_with_cluster_flag(self, capsys, tmp_path):
        store = str(tmp_path / "runs")
        code = main(
            [
                "figure3a", "--num-nodes", "30", "--rounds", "2",
                "--seed", "3", "--store", store, "--cluster",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "experiment: figure3a" in captured.out
        assert "[7/7]" in captured.err  # progress covers the whole grid
