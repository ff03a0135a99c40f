"""CLI tests (fast paths only: tiny datasets, single runs)."""

import pytest

from repro.cli import build_parser, main

FAST = ["--pages", "12", "--runs", "1", "--seed", "3"]


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(FAST + ["table3"])
        assert args.command == "table3"
        assert args.pages == 12

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_generate_and_resolve(self, tmp_path, capsys):
        out = tmp_path / "data.json"
        assert main(FAST + ["generate", "--out", str(out)]) == 0
        assert out.exists()
        captured = capsys.readouterr()
        assert "wrote" in captured.out

        assert main(FAST + ["resolve", "--in", str(out)]) == 0
        captured = capsys.readouterr()
        assert "Resolution" in captured.out
        assert "Cohen" in captured.out

    def test_fit_and_predict(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        assert main(FAST + ["generate", "--out", str(data)]) == 0
        capsys.readouterr()

        assert main(FAST + ["fit", "--in", str(data),
                            "--model", str(model)]) == 0
        assert model.exists()
        captured = capsys.readouterr()
        assert "Fitted model" in captured.out
        assert "Cohen" in captured.out

        assert main(FAST + ["predict", "--in", str(data),
                            "--model", str(model)]) == 0
        captured = capsys.readouterr()
        assert "ground truth unused" in captured.out
        assert "Cohen" in captured.out

        assert main(FAST + ["predict", "--in", str(data),
                            "--model", str(model), "--evaluate"]) == 0
        captured = capsys.readouterr()
        assert "mean Fp" in captured.out

    def test_fit_with_workers_keeps_saved_config_serial(self, tmp_path,
                                                        capsys):
        """--workers is a runtime choice; the artifact must not make
        later loaders fan out to a process pool."""
        import json

        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        assert main(FAST + ["generate", "--out", str(data)]) == 0
        assert main(FAST + ["--workers", "2", "fit", "--in", str(data),
                            "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        assert not {"executor", "workers", "oversubscribe"} \
            & payload["config"].keys()
        captured = capsys.readouterr()
        assert "process" in captured.out  # the fit itself reported the pool

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_invalid_workers_rejected(self, tmp_path, capsys, workers):
        assert main(FAST + ["--workers", workers, "fit",
                            "--in", str(tmp_path / "data.json"),
                            "--model", str(tmp_path / "model.json")]) == 2
        assert f"workers must be >= 1, got {workers}" \
            in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_fit_with_blocker_saves_it_and_drives_predict(self, tmp_path,
                                                          capsys):
        """--blocker changes which pairs exist, so (unlike --backend and
        --workers) it is baked into the artifact and re-drives predict."""
        import json

        data = tmp_path / "data.json"
        model = tmp_path / "model.json"
        assert main(FAST + ["generate", "--out", str(data)]) == 0
        assert main(FAST + ["--blocker", "token", "fit", "--in", str(data),
                            "--model", str(model)]) == 0
        payload = json.loads(model.read_text())
        assert payload["config"]["blocker"] == "token"
        assert all(name.startswith("~block:") for name in payload["blocks"])
        capsys.readouterr()

        assert main(FAST + ["predict", "--in", str(data),
                            "--model", str(model), "--evaluate"]) == 0
        captured = capsys.readouterr()
        assert "mean Fp" in captured.out
        assert "~block:" in captured.out

    def test_generate_scale_jsonl_streams_and_resolves(self, tmp_path,
                                                       capsys):
        out = tmp_path / "scale.jsonl"
        assert main(FAST + ["generate", "--dataset", "scale",
                            "--names", "4", "--collision", "0.5",
                            "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "streamed jsonl" in captured.out
        assert "4 names" in captured.out

        model = tmp_path / "model.json"
        assert main(FAST + ["fit", "--in", str(out),
                            "--model", str(model)]) == 0
        capsys.readouterr()
        assert main(FAST + ["predict", "--in", str(out),
                            "--model", str(model), "--evaluate"]) == 0
        captured = capsys.readouterr()
        assert "mean Fp" in captured.out

    def test_generate_scale_json_materializes(self, tmp_path, capsys):
        import json

        out = tmp_path / "scale.json"
        assert main(FAST + ["generate", "--dataset", "scale",
                            "--names", "3", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["name"] == "scale-3x12"
        assert len(payload["collections"]) == 3

    def test_generate_format_flag_overrides_suffix(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        assert main(FAST + ["generate", "--format", "jsonl",
                            "--out", str(out)]) == 0
        first_line = out.read_text().splitlines()[0]
        import json

        assert json.loads(first_line)["kind"] == "jsonl-blocks"

    def test_figure1(self, capsys):
        assert main(FAST + ["figure1", "--name", "Cohen"]) == 0
        captured = capsys.readouterr()
        assert "Figure 1" in captured.out

    def test_figure1_unknown_name(self, capsys):
        assert main(FAST + ["figure1", "--name", "Nobody"]) == 2

    def test_analyze(self, capsys):
        assert main(FAST + ["analyze"]) == 0
        captured = capsys.readouterr()
        assert "Dataset profile" in captured.out
        assert "dominance" in captured.out


class TestServe:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        workdir = tmp_path_factory.mktemp("serve-cli")
        data = workdir / "data.json"
        model = workdir / "model.json"
        second = workdir / "model2.json"
        assert main(FAST + ["generate", "--out", str(data)]) == 0
        assert main(FAST + ["fit", "--in", str(data),
                            "--model", str(model)]) == 0
        assert main(["--pages", "12", "--runs", "1", "--seed", "4",
                     "fit", "--in", str(data), "--model", str(second)]) == 0
        return data, model, second

    def test_serial_demo_loop(self, artifacts, capsys):
        data, model, _ = artifacts
        assert main(FAST + ["serve", "--in", str(data),
                            "--model", str(model), "--requests", "6"]) == 0
        captured = capsys.readouterr()
        assert "Served 6 requests" in captured.out
        assert "[session]" in captured.out
        assert "p99" in captured.out

    def test_concurrent_engine_mode(self, artifacts, capsys):
        data, model, _ = artifacts
        assert main(FAST + ["serve", "--in", str(data),
                            "--model", str(model), "--requests", "16",
                            "--threads", "4"]) == 0
        captured = capsys.readouterr()
        assert "4 closed-loop threads" in captured.out
        assert "Load report (4 threads)" in captured.out
        assert "[engine]" in captured.out
        assert "p99" in captured.out

    def test_hot_swap_mid_stream(self, artifacts, capsys):
        data, model, second = artifacts
        assert main(FAST + ["serve", "--in", str(data),
                            "--model", str(model), "--requests", "12",
                            "--threads", "2",
                            "--swap-model", str(second)]) == 0
        captured = capsys.readouterr()
        assert "hot swap at halfway" in captured.out
        assert "1 swaps" in captured.out

    def test_invalid_threads_rejected(self, artifacts, capsys):
        data, model, _ = artifacts
        assert main(FAST + ["serve", "--in", str(data),
                            "--model", str(model),
                            "--threads", "0"]) == 2
        assert "threads must be >= 1" in capsys.readouterr().err
