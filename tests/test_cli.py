"""End-to-end command-line workflow and exit-code contract."""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import read_archive, small_config, write_archive
from semroute import cli, trainer
from semroute.errors import DivergenceError
from semroute.graph import LossBreakdown
from semroute.model import Model, config_hash


SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(*args):
    """`semroute` in a fresh interpreter, so that a traceback shows on stderr."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "semroute.cli", *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A config file plus generated data shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    config = small_config(total_steps=4, train_size=16, eval_size=16)
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    data_dir = root / "data"
    assert cli.main(["gen-data", "--config", str(config_path),
                     "--out-dir", str(data_dir)]) == cli.EXIT_OK
    return root, config, config_path, data_dir


class TestHelp:
    @pytest.mark.parametrize("command", ["gen-data", "train", "eval", "sweep",
                                         "diagnose", "gradcheck"])
    def test_subcommand_help_exits_zero(self, command, capsys):
        assert cli.main([command, "--help"]) == 0
        assert "--seed" in capsys.readouterr().out

    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == cli.EXIT_USAGE
        capsys.readouterr()


class TestGenData:
    def test_outputs_exist(self, workspace):
        _, config, _, data_dir = workspace
        for name in ("train.jsonl", "eval.jsonl", "cues_train.jsonl",
                     "cues_eval.jsonl", "config.json"):
            assert (data_dir / name).exists()
        train_lines = (data_dir / "train.jsonl").read_text().strip().splitlines()
        assert len(train_lines) == config.train_size + 1  # header + samples

    def test_idempotent(self, workspace, tmp_path):
        _, _, config_path, data_dir = workspace
        rerun = tmp_path / "data2"
        assert cli.main(["gen-data", "--config", str(config_path),
                         "--out-dir", str(rerun)]) == cli.EXIT_OK
        for name in ("train.jsonl", "eval.jsonl", "cues_train.jsonl"):
            assert (rerun / name).read_bytes() == (data_dir / name).read_bytes()

    def test_seed_override_changes_data(self, workspace, tmp_path):
        _, _, config_path, data_dir = workspace
        other = tmp_path / "data_seed9"
        assert cli.main(["gen-data", "--config", str(config_path), "--seed", "9",
                         "--out-dir", str(other)]) == cli.EXIT_OK
        assert (other / "train.jsonl").read_bytes() != \
            (data_dir / "train.jsonl").read_bytes()


@pytest.fixture(scope="module")
def trained(workspace):
    root, _, config_path, data_dir = workspace
    out_dir = root / "run"
    assert cli.main(["train", "--config", str(config_path),
                     "--data-dir", str(data_dir),
                     "--out-dir", str(out_dir)]) == cli.EXIT_OK
    return out_dir


class TestTrainEvalDiagnose:
    def test_train_outputs(self, workspace, trained):
        _, config, _, _ = workspace
        assert (trained / "checkpoint.npz").exists()
        metrics = (trained / "metrics.csv").read_text().strip().splitlines()
        assert len(metrics) == config.total_steps + 1  # header + one per step
        manifest = json.loads((trained / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        assert (manifest["status"], manifest["error"]) == ("ok", None)
        assert manifest["seed"] == config.seed
        assert set(manifest["outputs"]) == {"checkpoint", "metrics"}
        assert manifest["outputs"]["checkpoint"] == str(trained / "checkpoint.npz")

    def test_train_with_ablation_flag(self, workspace, tmp_path):
        root, _, config_path, data_dir = workspace
        out_dir = tmp_path / "ablated"
        assert cli.main(["train", "--config", str(config_path),
                         "--data-dir", str(data_dir), "--out-dir", str(out_dir),
                         "--ablate", "no_contrast,no_distill"]) == cli.EXIT_OK

    def test_eval(self, workspace, trained, tmp_path, capsys):
        _, _, config_path, data_dir = workspace
        out = tmp_path / "eval.csv"
        code = cli.main(["eval", "--config", str(config_path),
                         "--checkpoint", str(trained / "checkpoint.npz"),
                         "--data-dir", str(data_dir), "--mode", "student",
                         "--out", str(out)])
        assert code == cli.EXIT_OK
        assert "accuracy=" in capsys.readouterr().out
        assert out.read_text().startswith("mode,accuracy,sim_mean,n")

    def test_diagnose(self, workspace, trained, tmp_path, capsys):
        _, _, config_path, data_dir = workspace
        out_dir = tmp_path / "diag"
        code = cli.main(["diagnose", "--config", str(config_path),
                         "--checkpoint", str(trained / "checkpoint.npz"),
                         "--data-dir", str(data_dir), "--out-dir", str(out_dir)])
        assert code == cli.EXIT_OK
        assert (out_dir / "diagnostics.csv").exists()
        assert (out_dir / "heatmap.csv").exists()
        assert "sharpness=" in capsys.readouterr().out


class TestSweep:
    def test_single_cell_grid(self, workspace, tmp_path, capsys):
        _, _, config_path, _ = workspace
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--config", str(config_path),
                         "--grid-n", "4", "--grid-k", "2", "--out", str(out)])
        assert code == cli.EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n,K,acc,sim,status"
        assert len(lines) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("grid", ["2,x", ""])
    def test_bad_grid_is_usage_error(self, workspace, tmp_path, grid):
        _, _, config_path, _ = workspace
        proc = run_cli("sweep", "--config", config_path, "--grid-n", grid, "--grid-k", "2",
                       "--out", tmp_path / "sweep.csv")
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "--grid-n" in proc.stderr
        assert not (tmp_path / "sweep.csv").exists()

    def test_unwritable_out_is_data_error_before_training(self, workspace, tmp_path,
                                                          monkeypatch, capsys):
        _, _, config_path, _ = workspace
        monkeypatch.setattr(trainer, "train", lambda *a, **k: pytest.fail("a cell trained"))
        code = cli.main(["sweep", "--config", str(config_path), "--grid-n", "4",
                         "--grid-k", "2", "--out", str(tmp_path / "missing" / "sweep.csv")])
        assert code == cli.EXIT_DATA
        assert "sweep.csv" in capsys.readouterr().err


class TestRevision:
    @pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
    def test_names_the_package_checkout_not_the_working_directory(self, tmp_path,
                                                                  monkeypatch):
        def git(*args, cwd):
            return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)

        git("init", "-q", cwd=tmp_path)
        git("-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false",
            "commit", "-q", "--allow-empty", "-m", "other", cwd=tmp_path)
        other = git("rev-parse", "--short", "HEAD", cwd=tmp_path).stdout.strip()
        assert other
        package = git("rev-parse", "--short", "HEAD", cwd=Path(cli.__file__).parent)
        monkeypatch.chdir(tmp_path)
        assert cli._revision() == (package.stdout.strip() if package.returncode == 0
                                   else "unknown")
        assert cli._revision() != other

    def test_unknown_outside_a_checkout(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "__file__", str(tmp_path / "cli.py"))
        assert cli._revision() == "unknown"


class TestGradcheck:
    def test_passes_on_small_config(self, workspace, capsys):
        _, _, config_path, _ = workspace
        assert cli.main(["gradcheck", "--config", str(config_path)]) == cli.EXIT_OK
        assert "worst:" in capsys.readouterr().out

    def test_failure_exit_code(self, workspace, monkeypatch, capsys):
        _, _, config_path, _ = workspace
        monkeypatch.setattr(cli, "gradient_check", lambda config: {"gating": 0.5})
        assert cli.main(["gradcheck", "--config", str(config_path)]) == \
            cli.EXIT_GRADCHECK
        capsys.readouterr()


class TestExitCodes:
    def test_unknown_config_field_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"d": 8, "no_such_field": True}))
        assert cli.main(["gradcheck", "--config", str(bad)]) == cli.EXIT_USAGE
        assert "no_such_field" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["gradcheck", "--config",
                         str(tmp_path / "missing.json")]) == cli.EXIT_USAGE
        capsys.readouterr()

    def test_config_that_is_not_utf8_is_usage_error(self, workspace, tmp_path, capsys):
        _, _, config_path, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_bytes(config_path.read_bytes().replace(b'"d"', b'"\xff"', 1))
        assert cli.main(["gradcheck", "--config", str(bad)]) == cli.EXIT_USAGE
        assert f"cannot read config {bad}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, extra, fault", [
        ("train", ["--ablate", "no_such"], "no_such"),
        ("train", ["--seed", "-1"], "seed"),
        ("gradcheck", ["--seed", "-1"], "seed"),
    ], ids=["train_ablate", "train_seed", "gradcheck_seed"])
    def test_bad_seed_or_ablation_is_usage_error(self, workspace, tmp_path, capsys, command,
                                                 extra, fault):
        _, _, config_path, data_dir = workspace
        dirs = (["--data-dir", str(data_dir), "--out-dir", str(tmp_path / "out")]
                if command == "train" else [])
        assert cli.main([command, "--config", str(config_path), *dirs, *extra]) == \
            cli.EXIT_USAGE
        assert fault in capsys.readouterr().err

    def test_missing_dataset_is_data_error(self, workspace, tmp_path, capsys):
        root, _, config_path, _ = workspace
        code = cli.main(["train", "--config", str(config_path),
                         "--data-dir", str(tmp_path / "nowhere"),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        capsys.readouterr()

    def test_empty_train_split_is_data_error(self, workspace, tmp_path):
        _, _, config_path, data_dir = workspace
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        (edited / "train.jsonl").write_text(json.dumps({"version": 1, "count": 0}) + "\n")
        (edited / "cues_train.jsonl").unlink()
        proc = run_cli("train", "--config", config_path, "--data-dir", edited,
                       "--out-dir", tmp_path / "out")
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "no samples" in proc.stderr

    @pytest.mark.parametrize("field, value", [("eval_every", 0), ("warmup_steps", -1),
                                              ("batch", 0), ("temperature", 0.0),
                                              ("d", 0), ("beta1", 1.5)])
    def test_out_of_range_config_is_usage_error(self, workspace, tmp_path, field, value):
        _, config, _, data_dir = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**config.to_dict(), field: value}))
        proc = run_cli("train", "--config", bad, "--data-dir", data_dir,
                       "--out-dir", tmp_path / "out")
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        assert "Traceback" not in proc.stderr
        assert field in proc.stderr

    @pytest.mark.parametrize("field, value", [("variant_count", 1), ("unc_threshold", 0.0),
                                              ("max_regen_rounds", 0), ("option_count", 5),
                                              ("cue_scale", 0.0)])
    def test_generation_fault_is_usage_error(self, workspace, tmp_path, field, value):
        # each used to surface from inside generate_dataset with exit 3
        _, config, _, _ = workspace
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**config.to_dict(), field: value}))
        proc = run_cli("gen-data", "--config", bad, "--out-dir", tmp_path / "data")
        assert proc.returncode == cli.EXIT_USAGE, proc.stderr
        assert "Traceback" not in proc.stderr
        assert field in proc.stderr
        assert not (tmp_path / "data").exists()

    def test_ragged_eval_file_is_data_error(self, workspace, trained, tmp_path):
        _, _, config_path, data_dir = workspace
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        lines = (edited / "eval.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["options"].pop()
        lines[2] = json.dumps(rec)
        (edited / "eval.jsonl").write_text("\n".join(lines) + "\n")
        proc = run_cli("eval", "--config", config_path,
                       "--checkpoint", trained / "checkpoint.npz", "--data-dir", edited)
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "line 3" in proc.stderr

    def test_divergence_exit_code(self, workspace, tmp_path, monkeypatch, capsys):
        _, _, config_path, data_dir = workspace

        def explode(config, train_set, eval_set, metrics_path=None):
            raise DivergenceError(7, LossBreakdown(float("nan"), 0, 0,
                                                   float("nan"), []))

        monkeypatch.setattr(cli, "train", explode)
        code = cli.main(["train", "--config", str(config_path),
                         "--data-dir", str(data_dir),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_DIVERGENCE
        capsys.readouterr()

    def test_diverged_train_finishes_its_manifest(self, workspace, tmp_path, capsys):
        _, config, _, data_dir = workspace
        diverging = tmp_path / "diverging.json"
        diverging.write_text(json.dumps({**config.to_dict(), "lr": 1e12, "weight_decay": 0.0}))
        out_dir = tmp_path / "out"
        code = cli.main(["train", "--config", str(diverging), "--data-dir", str(data_dir),
                         "--out-dir", str(out_dir)])
        assert code == cli.EXIT_DIVERGENCE
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        assert manifest["status"] == "diverged"
        assert manifest["error"].startswith("non-finite loss at step ")
        assert manifest["error"] in capsys.readouterr().err

    def test_failed_train_finishes_its_manifest(self, workspace, tmp_path, monkeypatch,
                                               capsys):
        _, _, config_path, data_dir = workspace

        def fail(config, train_set, eval_set, metrics_path=None):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "train", fail)
        out_dir = tmp_path / "out"
        code = cli.main(["train", "--config", str(config_path), "--data-dir", str(data_dir),
                         "--out-dir", str(out_dir)])
        assert code == cli.EXIT_DATA
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["finished_at"] is not None
        assert (manifest["status"], manifest["error"]) == ("error", "disk full")
        capsys.readouterr()

    def test_non_finite_eval_file_is_data_error(self, workspace, trained, tmp_path):
        _, _, config_path, data_dir = workspace
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        lines = (edited / "eval.jsonl").read_text().splitlines()
        rec = json.loads(lines[2])
        rec["options"][1][0] = float("inf")  # no cue score reads the option text
        lines[2] = json.dumps(rec)
        (edited / "eval.jsonl").write_text("\n".join(lines) + "\n")
        proc = run_cli("eval", "--config", config_path,
                       "--checkpoint", trained / "checkpoint.npz", "--data-dir", edited)
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "finite" in proc.stderr

    def test_checkpoint_missing_parameter_is_data_error(self, workspace, trained, tmp_path):
        _, _, config_path, data_dir = workspace
        header, vector = read_archive(trained / "checkpoint.npz")
        checkpoint = tmp_path / "checkpoint.npz"
        write_archive(checkpoint, header, vector[:-1])
        proc = run_cli("eval", "--config", config_path, "--checkpoint", checkpoint,
                       "--data-dir", data_dir)
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(checkpoint) in proc.stderr
        assert f"({vector.size - 1},)" in proc.stderr and f"({vector.size},)" in proc.stderr

    def test_checkpoint_in_the_old_json_layout_is_data_error(self, workspace, trained,
                                                             tmp_path):
        # the layout of earlier versions: every parameter as a JSON list
        _, config, config_path, data_dir = workspace
        model = Model.load(trained / "checkpoint.npz")
        checkpoint = tmp_path / "checkpoint.json"
        checkpoint.write_text(json.dumps({
            "dims": {"d": model.d, "E": model.n_experts, "K": model.k, "hidden": model.hidden},
            "config_hash": config_hash(config.to_dict()),
            "params": {k: v.ravel().tolist() for k, v in model.params.items()},
            "shapes": {k: list(v.shape) for k, v in model.params.items()}}))
        proc = run_cli("eval", "--config", config_path, "--checkpoint", checkpoint,
                       "--data-dir", data_dir)
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{checkpoint} is not a semroute checkpoint archive" in proc.stderr
        assert "allow_pickle" not in proc.stderr

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_checkpoint_config_mismatch_is_data_error(self, workspace, trained, tmp_path,
                                                      command):
        # the checkpoint selects Top-2; a Top-1 config must not evaluate it silently
        _, config, _, data_dir = workspace
        other = tmp_path / "k1.json"
        other.write_text(json.dumps({**config.to_dict(), "k": 1}))
        extra = ["--out-dir", tmp_path / "diag"] if command == "diagnose" else []
        proc = run_cli(command, "--config", other, "--checkpoint", trained / "checkpoint.npz",
                       "--data-dir", data_dir, *extra)
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "differ from the config" in proc.stderr

    @pytest.mark.parametrize("name, line, edit", [
        ("cues_train.jsonl", 2, lambda rec, _: rec.update(option_id="x")),
        ("cues_train.jsonl", 2, lambda rec, _: rec.update(positive="abc")),
        ("cues_train.jsonl", 2, lambda rec, _: rec.update(variants=None)),
        ("cues_train.jsonl", 1, lambda rec, _: rec.update(dim="eight")),
        # a repeated key used to overwrite the first record and surface as
        # a missing cue of another sample
        ("cues_train.jsonl", 3, lambda rec, prev: rec.update(sample_id=prev["sample_id"],
                                                             option_id=prev["option_id"])),
        # these three used to be blamed on the dataset file
        ("cues_train.jsonl", 2,
         lambda rec, _: rec.update(positive=[math.nan, *rec["positive"][1:]])),
        ("cues_train.jsonl", 2, lambda rec, _: rec.update(variants=rec["variants"][:1])),
        ("cues_train.jsonl", 2, lambda rec, _: rec.update(negative=[0.0] * len(rec["negative"]))),
        ("train.jsonl", 2, lambda rec, _: rec.update(correct=1.0)),
        ("train.jsonl", 2, lambda rec, _: rec.update(correct=True)),
        ("train.jsonl", 3, lambda rec, prev: rec.update(sample_id=prev["sample_id"])),
        ("train.jsonl", 1, lambda rec, _: rec.update(count=str(rec["count"]))),
    ], ids=["option_id", "positive", "variants", "dim", "duplicate_cue", "nan_cue",
            "one_variant", "zero_cue", "float_correct", "bool_correct", "duplicate_sample",
            "string_count"])
    def test_bad_record_is_data_error_naming_its_file(self, workspace, tmp_path, name, line,
                                                      edit):
        _, _, config_path, data_dir = workspace
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        lines = (edited / name).read_text().splitlines()
        rec = json.loads(lines[line - 1])
        edit(rec, json.loads(lines[line - 2]) if line > 1 else None)
        lines[line - 1] = json.dumps(rec)
        (edited / name).write_text("\n".join(lines) + "\n")
        proc = run_cli("train", "--config", config_path, "--data-dir", edited,
                       "--out-dir", tmp_path / "out")
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert f"{edited / name} line {line}:" in proc.stderr

    @pytest.mark.parametrize("name, line", [("train.jsonl", 1), ("train.jsonl", 3),
                                            ("cues_train.jsonl", 1), ("cues_train.jsonl", 3)])
    def test_bytes_that_are_not_utf8_are_data_error(self, workspace, tmp_path, capsys, name,
                                                    line):
        _, _, config_path, data_dir = workspace
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        lines = (edited / name).read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:5] + b"\xff" + lines[line - 1][6:]
        (edited / name).write_bytes(b"\n".join(lines))
        code = cli.main(["train", "--config", str(config_path), "--data-dir", str(edited),
                         "--out-dir", str(tmp_path / "out")])
        assert code == cli.EXIT_DATA
        assert f"{edited / name} line {line}:" in capsys.readouterr().err

    def test_cue_file_of_another_dimension_is_data_error(self, workspace, tmp_path):
        _, config, config_path, data_dir = workspace
        other = tmp_path / "d6.json"
        other.write_text(json.dumps({**config.to_dict(), "d": 6}))
        assert cli.main(["gen-data", "--config", str(other),
                         "--out-dir", str(tmp_path / "d6")]) == cli.EXIT_OK
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        shutil.copy(tmp_path / "d6" / "cues_train.jsonl", edited / "cues_train.jsonl")
        proc = run_cli("train", "--config", config_path, "--data-dir", edited,
                       "--out-dir", tmp_path / "out")
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert str(edited / "train.jsonl") in proc.stderr
        assert f"dimension {config.d}" in proc.stderr and "dimension 6" in proc.stderr

    def test_train_without_cues_under_no_sa_no_sj_is_data_error(self, workspace, tmp_path):
        # with both directions ablated only the contrastive term reads cues
        _, _, config_path, data_dir = workspace
        edited = tmp_path / "data"
        shutil.copytree(data_dir, edited)
        (edited / "cues_train.jsonl").unlink()
        proc = run_cli("train", "--config", config_path, "--data-dir", edited,
                       "--out-dir", tmp_path / "out", "--ablate", "no_sa,no_sj")
        assert proc.returncode == cli.EXIT_DATA, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "no cues" in proc.stderr
