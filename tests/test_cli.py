"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table2_defaults(self):
        args = build_parser().parse_args(["table2"])
        assert args.datasets == ["beauty", "sports", "toys", "yelp"]
        assert args.preset == "smoke"

    def test_figure4_rates(self):
        args = build_parser().parse_args(
            ["figure4", "--rates", "0.1", "0.9", "--dataset", "yelp"]
        )
        assert args.rates == [0.1, 0.9]
        assert args.dataset == "yelp"

    def test_ablation_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablation", "--which", "nonsense"])

    def test_preset_choices(self):
        args = build_parser().parse_args(["figure5", "--preset", "bench"])
        assert args.preset == "bench"

    def test_figure6_arguments(self):
        args = build_parser().parse_args(
            ["figure6", "--fractions", "0.2", "1.0", "--gamma", "0.1"]
        )
        assert args.fractions == [0.2, 1.0]
        assert args.gamma == 0.1

    def test_convergence_arguments(self):
        args = build_parser().parse_args(
            ["convergence", "--bar-fraction", "0.8", "--dataset", "toys"]
        )
        assert args.bar_fraction == 0.8
        assert args.dataset == "toys"

    def test_scale_overrides_parsed(self):
        args = build_parser().parse_args(
            ["table2", "--dataset-scale", "0.02", "--dim", "24", "--seed", "3"]
        )
        assert args.dataset_scale == 0.02
        assert args.dim == 24
        assert args.seed == 3

    def test_serve_arguments(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--checkpoint",
                "ckpts/joint",
                "--requests-file",
                "reqs.jsonl",
                "--max-batch-size",
                "64",
                "--cache-size",
                "128",
            ]
        )
        assert args.checkpoint == "ckpts/joint"
        assert args.requests_file == "reqs.jsonl"
        assert args.max_batch_size == 64
        assert args.cache_size == 128
        assert args.model == "CL4SRec"

    def test_serve_requires_checkpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--port", "8080"])

    def test_recommend_requires_user_or_sequence(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend", "--checkpoint", "c"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["recommend", "--checkpoint", "c", "--user", "1",
                 "--sequence", "2", "3"]
            )

    def test_recommend_sequence_parsed(self):
        args = build_parser().parse_args(
            ["recommend", "--checkpoint", "c", "--sequence", "3", "5", "9",
             "--k", "7", "--include-seen"]
        )
        assert args.sequence == [3, 5, 9]
        assert args.k == 7
        assert args.exclude_seen is False


class TestMain:
    def test_table1_runs(self, capsys, tmp_path):
        out = tmp_path / "t1.md"
        code = main(["table1", "--scale", "0.02", "--output", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "Table 1" in captured
        assert out.exists()
        assert "beauty" in out.read_text()

    def test_table2_micro_runs(self, capsys):
        code = main(
            [
                "table2",
                "--datasets",
                "beauty",
                "--models",
                "Pop",
                "--dataset-scale",
                "0.01",
                "--epochs",
                "1",
            ]
        )
        assert code == 0
        assert "Pop" in capsys.readouterr().out

    def test_report_command(self, capsys, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table1.md").write_text("### Table 1\n| x |\n")
        out = tmp_path / "REPORT.md"
        code = main(
            ["report", "--results-dir", str(results), "--output", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "Table 1" in out.read_text()

    def test_serve_rejects_both_modes(self, capsys):
        code = main(["serve", "--checkpoint", "c", "--requests-file", "r",
                     "--port", "8080"])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err

    SERVING_SCALE = ["--dataset", "beauty", "--dataset-scale", "0.01",
                     "--dim", "16", "--max-length", "12"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--requests-file", "r"],
            ["recommend", "--user", "0"],
            ["index", "--output", "i.npz"],
            ["chaos"],
            ["loadtest", "--quick"],
            ["online", "--store-dir", "s"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_missing_checkpoint_is_one_line_exit_2(self, argv, capsys):
        """Every serving subcommand reports a set-up failure as
        ``<command>: <message>`` — no traceback — and returns 2."""
        code = main([*argv, "--checkpoint", "/nonexistent/ckpt",
                     *self.SERVING_SCALE])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"{argv[0]}: /nonexistent/ckpt")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--threads", "0"], "threads must be positive, got 0"),
            (["--pace-speedup", "0"], "pace_speedup must be positive, got 0.0"),
            (["--timeout-s", "0"], "timeout_s must be positive, got 0.0"),
            (["--request-deadline-ms", "0"],
             "deadline_ms must be positive, got 0.0"),
            (["--url", "localhost:8080"],
             "'localhost:8080' does not look like http://host:port"),
        ],
        ids=["threads", "pace-speedup", "timeout-s", "request-deadline-ms", "url"],
    )
    def test_bad_loadtest_flag_is_one_line_exit_2(self, argv, message, capsys):
        """A bad flag is the caller's error (exit 2), not a violated
        serving invariant (exit 1), and is refused before any engine
        is built."""
        code = main(["loadtest", "--quick", "--checkpoint", "/nonexistent/ckpt",
                     *self.SERVING_SCALE, *argv])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"loadtest: {message}"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workers", "-1"], "workers must be >= 0, got -1"),
            (["--keep", "0"], "keep must be >= 1, got 0"),
            (["--checkpoint-every", "-1"], "checkpoint_every must be >= 0, got -1"),
        ],
        ids=["workers", "keep", "checkpoint-every"],
    )
    def test_bad_train_flag_is_one_line_exit_2(
        self, argv, message, capsys, tmp_path, monkeypatch
    ):
        """``train`` follows the serving commands' rule, and refuses a
        bad flag before the dataset is built or a checkpoint directory
        is made."""
        from repro.data import registry

        def no_dataset(*args, **kwargs):
            raise AssertionError("the dataset was built before the flags were checked")

        monkeypatch.setattr(registry, "load_dataset", no_dataset)
        code = main(["train", "--preset", "smoke",
                     "--checkpoint-dir", str(tmp_path / "ck"), *argv])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"train: {message}"
        assert list(tmp_path.iterdir()) == []

    def test_bad_serve_config_is_one_line_exit_2(self, capsys):
        code = main(["recommend", "--checkpoint", "c", "--user", "0",
                     "--cache-size", "0"])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            "recommend: cache_size must be positive, got 0"
        )

    def test_unservable_model_is_one_line_exit_2(self, capsys):
        code = main(["serve", "--checkpoint", "c", "--requests-file", "r",
                     "--model", "Pop", *self.SERVING_SCALE])
        assert code == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("serve: Pop") and "cannot be served" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--checkpoint", "c"],
            ["recommend", "--checkpoint", "c", "--user", "0"],
            ["loadtest", "--quick"],
            ["chaos", "--checkpoint", "c"],
            ["online", "--checkpoint", "c", "--store-dir", "s"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_serving_has_no_workers_flag(self, argv, capsys):
        """Serving runs in one process: ``--workers`` is refused by the
        parser, never accepted and ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--workers", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err

    def test_index_kind_is_an_argparse_choice(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["recommend", "--checkpoint", "c", "--user", "0",
                  "--index", "bogus"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_index_build_failure_is_one_line_exit_2(self, capsys, tmp_path):
        """``--pq-m 5`` does not divide dim 16: an IndexBuildError raised
        while fitting the index, after the checkpoint loaded fine."""
        ckpts = tmp_path / "ckpts"
        assert main(["train", *self.SERVING_SCALE, "--mode", "joint",
                     "--epochs", "1", "--checkpoint-dir", str(ckpts)]) == 0
        capsys.readouterr()
        code = main(["index", "--checkpoint", str(ckpts / "joint"),
                     *self.SERVING_SCALE, "--index", "ivf_pq", "--pq-m", "5",
                     "--output", str(tmp_path / "i.npz")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("index: ")
        assert not (tmp_path / "i.npz").exists()

    def test_index_builds_the_index_once(self, capsys, tmp_path, monkeypatch):
        import json

        from repro.retrieval import IVFIndex

        builds = []
        build = IVFIndex.build
        monkeypatch.setattr(
            IVFIndex, "build",
            lambda self, matrix: builds.append(self.kind) or build(self, matrix),
        )
        ckpts = tmp_path / "ckpts"
        assert main(["train", *self.SERVING_SCALE, "--mode", "joint",
                     "--epochs", "1", "--checkpoint-dir", str(ckpts)]) == 0
        capsys.readouterr()
        out = tmp_path / "i.npz"
        assert main(["index", "--checkpoint", str(ckpts / "joint"),
                     *self.SERVING_SCALE, "--index", "ivf_pq", "--pq-m", "4",
                     "--output", str(out)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert builds == ["ivf_pq"]
        assert stats["kind"] == "ivf_pq" and stats["artifact"] == str(out)
        assert {"build_seconds", "artifact_bytes", "checksum"} <= set(stats)

    def test_train_then_serve_and_recommend(self, capsys, tmp_path):
        """End-to-end: train -> checkpoint -> batch serve -> one-shot."""
        import json

        scale_args = [
            "--dataset", "beauty", "--dataset-scale", "0.01",
            "--dim", "16", "--max-length", "12",
        ]
        code = main(
            ["train", *scale_args, "--mode", "joint", "--epochs", "1",
             "--checkpoint-dir", str(tmp_path / "ckpts")]
        )
        assert code == 0
        capsys.readouterr()

        requests = tmp_path / "reqs.jsonl"
        requests.write_text('{"user": 0, "k": 5}\n{"user": 1, "k": 5}\n')
        out = tmp_path / "results.jsonl"
        metrics_out = tmp_path / "metrics.json"
        serve_args = [
            "serve", "--checkpoint", str(tmp_path / "ckpts" / "joint"),
            *scale_args, "--requests-file", str(requests),
            "--output", str(out), "--metrics-output", str(metrics_out),
        ]
        assert main(serve_args) == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["user"] == 0 and len(first["items"]) == 5
        assert 0 not in first["items"]

        metrics = json.loads(metrics_out.read_text())
        assert metrics["counters"]["requests"] == 2
        assert "p50_ms" in metrics["latency"]["total"]
        assert {"hits", "misses", "hit_rate"} <= set(metrics["cache"])

        # Serving is deterministic: a second pass produces identical output.
        out2 = tmp_path / "results2.jsonl"
        serve_args[serve_args.index(str(out))] = str(out2)
        assert main(serve_args) == 0
        capsys.readouterr()
        assert out.read_text() == out2.read_text()

        # One-shot recommend agrees with the batch path.
        code = main(
            ["recommend", "--checkpoint", str(tmp_path / "ckpts" / "joint"),
             *scale_args, "--user", "0", "--k", "5"]
        )
        assert code == 0
        one_shot = json.loads(capsys.readouterr().out.strip())
        assert one_shot == first

    def test_figure4_micro_runs(self, capsys):
        code = main(
            [
                "figure4",
                "--dataset",
                "beauty",
                "--operators",
                "crop",
                "--rates",
                "0.5",
                "--dataset-scale",
                "0.01",
                "--epochs",
                "1",
                "--pretrain-epochs",
                "1",
                "--dim",
                "16",
                "--max-length",
                "12",
            ]
        )
        assert code == 0
        assert "Figure 4" in capsys.readouterr().out


class TestObservabilityCli:
    def test_stats_parser_takes_run_dir(self):
        args = build_parser().parse_args(["stats", "runs/exp1"])
        assert args.command == "stats" and args.run_dir == "runs/exp1"

    def test_train_obs_flags_parsed(self):
        args = build_parser().parse_args(
            ["train", "--obs-dir", "runs/exp1", "--profile"]
        )
        assert args.obs_dir == "runs/exp1" and args.profile

    def test_stats_missing_run_dir_fails(self, capsys, tmp_path):
        assert main(["stats", str(tmp_path / "nope")]) == 2
        assert "obs.jsonl" in capsys.readouterr().err

    def test_train_obs_dir_then_stats(self, capsys, tmp_path):
        """train --obs-dir writes a valid stream and stats renders it."""
        import json

        from repro.obs import read_events

        run_dir = tmp_path / "run"
        code = main(
            ["train", "--dataset", "beauty", "--dataset-scale", "0.01",
             "--dim", "16", "--max-length", "12", "--mode", "joint",
             "--epochs", "2", "--checkpoint-dir", str(tmp_path / "ckpts"),
             "--obs-dir", str(run_dir), "--profile"]
        )
        assert code == 0
        capsys.readouterr()

        # Every line is strict JSON with the schema envelope.
        lines = (run_dir / "obs.jsonl").read_text().splitlines()
        for line in lines:
            record = json.loads(line)
            assert record["v"] == 1 and "seq" in record and "event" in record

        names = [e["event"] for e in read_events(str(run_dir))]
        assert names[0] == "run_start" and names[-1] == "run_end"
        for expected in ("joint_epoch", "checkpoint_saved", "eval",
                         "profile_summary", "metrics_snapshot"):
            assert expected in names, f"missing {expected} event"

        assert main(["stats", str(run_dir)]) == 0
        report = capsys.readouterr().out
        assert "[joint] 2 epoch(s)" in report
        assert "[eval]" in report
        assert "[profile]" in report

    def test_train_records_the_trained_dtype(self, capsys, tmp_path):
        """The run's obs meta and tracked record name the precision the
        model trained in, and the checkpoint holds it."""
        import glob

        import numpy as np

        from repro.experiments.tracking import RunRegistry
        from repro.obs import read_events

        run_dir = tmp_path / "run"
        code = main(
            ["train", "--dataset", "beauty", "--dataset-scale", "0.01",
             "--dim", "16", "--max-length", "12", "--mode", "joint",
             "--epochs", "1", "--checkpoint-dir", str(tmp_path / "ckpts"),
             "--obs-dir", str(run_dir), "--track-dir", str(tmp_path / "track")]
        )
        assert code == 0
        capsys.readouterr()
        start = read_events(str(run_dir))[0]
        assert start["event"] == "run_start"
        assert start["meta"]["dtype"] == "float32"
        (record,) = RunRegistry(tmp_path / "track").runs()
        assert record.params["dtype"] == "float32"
        newest = sorted(glob.glob(str(tmp_path / "ckpts" / "joint" / "*.npz")))[-1]
        with np.load(newest) as archive:
            floats = {
                archive[key].dtype for key in archive.files
                if np.issubdtype(archive[key].dtype, np.floating)
                and key.startswith("model/")
            }
        assert floats == {np.dtype(np.float32)}

    @pytest.mark.parametrize("command", [["train"], ["serve", "--checkpoint", "c"]])
    def test_no_dtype_flag(self, command, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, "--dtype", "float64"])

    def test_train_without_obs_dir_writes_nothing(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(
            ["train", "--dataset", "beauty", "--dataset-scale", "0.01",
             "--dim", "16", "--max-length", "12", "--mode", "joint",
             "--epochs", "1", "--checkpoint-dir", str(tmp_path / "ckpts")]
        )
        assert code == 0
        capsys.readouterr()
        assert not (tmp_path / "obs.jsonl").exists()
