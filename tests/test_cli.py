import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A tiny collect -> train run shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    dataset = root / "dataset.json"
    surrogate = root / "surrogate.json"
    rc = main(
        [
            "collect",
            "--out", str(dataset),
            "--workloads", "4",
            "--configurations", "5",
            "--faulty", "1",
            "--seed", "3",
            "--quiet",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "train",
            "--dataset", str(dataset),
            "--out", str(surrogate),
            "--networks", "3",
            "--seed", "3",
        ]
    )
    assert rc == 0
    return dataset, surrogate


class TestCollect(object):
    def test_dataset_written(self, artifacts):
        dataset, _ = artifacts
        blob = json.loads(dataset.read_text())
        assert len(blob["samples"]) == 4 * 5 - 1
        assert blob["feature_parameters"]


class TestTrain:
    def test_surrogate_written(self, artifacts):
        _, surrogate = artifacts
        blob = json.loads(surrogate.read_text())
        assert blob["networks"]


class TestWorkers:
    def test_parallel_collect_matches_serial(self, artifacts, tmp_path):
        """--workers N changes scheduling, not results."""
        serial_dataset, _ = artifacts
        parallel_dataset = tmp_path / "dataset-parallel.json"
        rc = main(
            [
                "collect",
                "--out", str(parallel_dataset),
                "--workloads", "4",
                "--configurations", "5",
                "--faulty", "1",
                "--seed", "3",
                "--workers", "2",
                "--quiet",
            ]
        )
        assert rc == 0
        assert json.loads(parallel_dataset.read_text()) == json.loads(
            serial_dataset.read_text()
        )


class TestRecommend:
    def test_prints_configuration_json(self, artifacts, capsys):
        _, surrogate = artifacts
        rc = main(
            [
                "recommend",
                "--surrogate", str(surrogate),
                "--read-ratio", "0.9",
                "--seed", "1",
            ]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["read_ratio"] == 0.9
        assert payload["predicted_throughput"] > 0
        assert isinstance(payload["configuration"], dict)

    def test_out_of_range_read_ratio_is_one_line_error(self, artifacts, capsys):
        _, surrogate = artifacts
        rc = main(["recommend", "--surrogate", str(surrogate), "--read-ratio", "1.5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "Traceback" not in captured.err


class TestReplay:
    def test_replay_reports_gain(self, artifacts, capsys):
        _, surrogate = artifacts
        rc = main(
            [
                "replay",
                "--surrogate", str(surrogate),
                "--hours", "3",
                "--seed", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "static default" in out
        assert "rafiki" in out

    def test_forecast_mode(self, artifacts, capsys):
        _, surrogate = artifacts
        rc = main(
            [
                "replay",
                "--surrogate", str(surrogate),
                "--hours", "2",
                "--mode", "forecast",
                "--seed", "2",
            ]
        )
        assert rc == 0


class TestServe:
    MANIFEST = {
        "defaults": {"hours": 0.25, "window_seconds": 60},
        "tenants": [
            {"id": "assembly", "seed": 1},
            {"id": "annotation", "seed": 2},
            {
                "id": "archive",
                "seed": 3,
                "nodes": 3,
                "restart_policy": "rolling",
                "restart_seconds_per_node": 5,
            },
        ],
    }

    def test_serve_runs_a_manifest_fleet(self, artifacts, tmp_path, capsys):
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        for tenant_id in ("assembly", "annotation", "archive"):
            assert f"tenant {tenant_id}" in out
        assert "node restarts" in out  # the rolling tenant reports its cost

    def test_serve_rejects_bad_manifest(self, artifacts, tmp_path, capsys):
        _, surrogate = artifacts
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"tenants": [{"id": "a", "oops": 1}]}))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    GUARDED_MANIFEST = {
        "guard": {"cluster_capacity": 50000.0, "shedding": True},
        "defaults": {"hours": 0.25, "window_seconds": 60},
        "tenants": [
            {
                "id": "assembly",
                "seed": 1,
                "slo": {
                    "throughput_floor": 1000.0,
                    "window_span": 4,
                    "error_budget": 0.25,
                },
            },
            {
                "id": "burst",
                "seed": 2,
                "priority": 5,
                "guard": {"breaker_failures": 3, "breaker_cooldown": 4},
            },
        ],
    }

    def test_serve_guarded_manifest_reports_guard_columns(
        self, artifacts, tmp_path, capsys
    ):
        _, surrogate = artifacts
        manifest = tmp_path / "guarded.json"
        manifest.write_text(json.dumps(self.GUARDED_MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shed" in out
        assert "SLO" in out
        assert "breaker opens" in out
        assert "cluster:" in out  # the ledger summary line

    def test_serve_unguarded_manifest_prints_no_guard_columns(
        self, artifacts, tmp_path, capsys
    ):
        _, surrogate = artifacts
        manifest = tmp_path / "plain.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shed" not in out
        assert "SLO" not in out
        assert "cluster:" not in out

    def test_serve_rejects_bad_cluster_capacity(self, artifacts, tmp_path, capsys):
        _, surrogate = artifacts
        manifest = tmp_path / "tenants.json"
        manifest.write_text(json.dumps(self.MANIFEST))
        rc = main(
            [
                "serve",
                "--surrogate", str(surrogate),
                "--manifest", str(manifest),
                "--cluster-capacity", "-5",
                "--quiet",
            ]
        )
        assert rc == 1
        assert "bad fleet" in capsys.readouterr().err


class TestCharacterize:
    def test_outputs_characterization(self, capsys):
        rc = main(["characterize", "--hours", "4", "--queries", "300", "--seed", "5"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["windows"] == 16
        assert 0.0 <= payload["overall_read_ratio"] <= 1.0
        assert payload["krd_mean_ops"] > 0


class TestJournalAndResume:
    COLLECT = [
        "--workloads", "3",
        "--configurations", "3",
        "--faulty", "1",
        "--seed", "6",
        "--run-seconds", "30",
        "--quiet",
    ]

    def test_resume_after_kill_is_bit_identical(self, tmp_path):
        ref = tmp_path / "ref.json"
        journal = tmp_path / "ref.wal"
        assert main(["collect", "--out", str(ref), "--journal", str(journal),
                     *self.COLLECT]) == 0

        # Simulate a kill after 4 durable samples: truncate a copy of
        # the WAL, then resume from it.
        partial = tmp_path / "partial.wal"
        lines = journal.read_text().splitlines(keepends=True)
        partial.write_text("".join(lines[:5]))
        out = tmp_path / "resumed.json"
        assert main(["resume", "--journal", str(partial), "--out", str(out),
                     "--quiet"]) == 0
        assert out.read_bytes() == ref.read_bytes()

    def test_collect_without_journal_matches_journaled(self, tmp_path):
        plain = tmp_path / "plain.json"
        journaled = tmp_path / "journaled.json"
        assert main(["collect", "--out", str(plain), *self.COLLECT]) == 0
        assert main(["collect", "--out", str(journaled),
                     "--journal", str(tmp_path / "j.wal"), *self.COLLECT]) == 0
        assert plain.read_bytes() == journaled.read_bytes()


class TestCheckpointedTrain:
    def test_interrupted_train_resumes_identically(self, artifacts, tmp_path):
        dataset, _ = artifacts
        ref = tmp_path / "ref.json"
        ckpt = tmp_path / "ckpt"
        args = ["train", "--dataset", str(dataset), "--networks", "3",
                "--seed", "3", "--quiet"]
        assert main([*args, "--out", str(ref),
                     "--checkpoint-dir", str(ckpt)]) == 0
        # Drop one member checkpoint (as if killed mid-train), retrain.
        (ckpt / "member-0002.json").unlink()
        out = tmp_path / "resumed.json"
        assert main([*args, "--out", str(out),
                     "--checkpoint-dir", str(ckpt)]) == 0
        assert out.read_bytes() == ref.read_bytes()


class TestVerifyArtifact:
    def test_valid_dataset(self, artifacts, capsys):
        dataset, _ = artifacts
        assert main(["verify-artifact", str(dataset)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifact_kind"] == "performance-dataset"

    def test_valid_surrogate(self, artifacts, capsys):
        _, surrogate = artifacts
        assert main(["verify-artifact", str(surrogate)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["artifact_kind"] == "surrogate"

    def test_valid_journal(self, tmp_path, capsys):
        journal = tmp_path / "j.wal"
        assert main(["collect", "--out", str(tmp_path / "d.json"),
                     "--journal", str(journal),
                     *TestJournalAndResume.COLLECT]) == 0
        capsys.readouterr()  # drop collect's own output
        assert main(["verify-artifact", str(journal)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "journal"
        assert payload["records"] == 9

    def test_corrupt_artifact_exits_nonzero(self, artifacts, tmp_path, capsys):
        dataset, _ = artifacts
        bad = tmp_path / "bad.json"
        bad.write_text(dataset.read_text().replace("0", "1", 1))
        assert main(["verify-artifact", str(bad)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        assert main(["verify-artifact", str(tmp_path / "nope.json")]) == 1


class TestErrorExits:
    """Every subcommand maps a ``ReproError`` to one ``error:`` line on
    stderr and exit 1: no traceback, nothing on stdout."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["collect", "--workloads", "1"], "at least two workloads"),
            (["collect", "--run-seconds", "0"], "durations must be positive"),
            (["resume", "--journal", "{tmp}/missing.wal"], "journal not found"),
            (["train", "--dataset", "{dataset}", "--networks", "0"],
             "at least one network"),
            (["replay", "--surrogate", "{surrogate}", "--hours", "-2"],
             "duration must be positive"),
            (["characterize", "--hours", "-2"], "duration must be positive"),
        ],
        ids=["collect-workloads", "collect-run-seconds", "resume", "train",
             "replay", "characterize"],
    )
    def test_one_line_error_and_exit_1(self, artifacts, tmp_path, capsys, argv, message):
        dataset, surrogate = artifacts
        fill = dict(tmp=tmp_path, dataset=dataset, surrogate=surrogate)
        argv = [arg.format(**fill) for arg in argv]
        if argv[0] in ("collect", "resume"):
            argv += ["--out", str(tmp_path / "out.json"), "--quiet"]
        if argv[0] == "train":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and "Traceback" not in captured.err
        assert err[0].startswith("error: ") and message in err[0]
        assert not (tmp_path / "out.json").exists()


class TestValidation:
    def test_unknown_datastore(self, artifacts):
        _, surrogate = artifacts
        with pytest.raises(SystemExit):
            main(
                [
                    "recommend",
                    "--datastore", "mongodb",
                    "--surrogate", str(surrogate),
                    "--read-ratio", "0.5",
                ]
            )

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
