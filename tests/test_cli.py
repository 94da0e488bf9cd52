"""Command-line workflows: subcommand chaining, exit codes, error JSON."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rodtwin.cli import (EXIT_CONFIG, EXIT_MISSING, EXIT_OK, main)


@pytest.fixture(scope="module")
def tiny_cfg_path(tmp_path_factory):
    from rodtwin.config import MeshConfig, TwinConfig
    cfg = TwinConfig(mesh=MeshConfig(nr_fuel=4, nr_clad=2, nz=12))
    path = tmp_path_factory.mktemp("cfg") / "tiny.json"
    cfg.to_json(path)
    return str(path)


@pytest.fixture(scope="module")
def zero_power_cfg_path(tmp_path_factory):
    from rodtwin.config import MeshConfig, TwinConfig
    cfg = TwinConfig(q0=0.0, mesh=MeshConfig(nr_fuel=4, nr_clad=2, nz=12))
    path = tmp_path_factory.mktemp("cfg0") / "zero.json"
    cfg.to_json(path)
    return str(path)


@pytest.fixture(scope="module")
def tiny_run(tiny_cfg_path, tmp_path_factory):
    """simulate output (field.csv, sensors.csv) of the tiny config."""
    out = tmp_path_factory.mktemp("run")
    assert main(["simulate", "--config", tiny_cfg_path,
                 "--out-dir", str(out)]) == EXIT_OK
    return out


@pytest.fixture(scope="module")
def tiny_model(tiny_cfg_path, tmp_path_factory):
    """A tiny-config dataset and a 1-epoch checkpoint trained on it."""
    root = tmp_path_factory.mktemp("model")
    assert main(["generate", "--config", tiny_cfg_path, "--seed", "0",
                 "--out-dir", str(root / "ds")]) == EXIT_OK
    assert main(["train", "--dataset", str(root / "ds"), "--epochs", "1",
                 "--out-dir", str(root)]) == EXIT_OK
    return root


def _rewrite_csv(src, dst, edit):
    """Copy a CSV file, applying ``edit`` to its list of rows (header first)."""
    rows = [line.split(",") for line in src.read_text().splitlines()]
    dst.write_text("\n".join(",".join(row) for row in edit(rows)) + "\n")


def _reversed_rows(rows):
    return rows[:1] + rows[:0:-1]


def _drop_column(name):
    def edit(rows):
        k = rows[0].index(name)
        return [row[:k] + row[k + 1:] for row in rows]
    return edit


def _assert_config_error(capsys, rc):
    assert rc == EXIT_CONFIG
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["type"] == "ConfigurationError"
    return err


class TestSimulate:
    def test_zero_power_field_is_isothermal(self, zero_power_cfg_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", zero_power_cfg_path,
                   "--out-dir", str(out)])
        assert rc == EXIT_OK
        rows = (out / "field.csv").read_text().strip().splitlines()[1:]
        T = np.array([float(r.split(",")[-1]) for r in rows])
        assert np.abs(T - 583.15).max() < 1e-6

    def test_outputs_present(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--config", tiny_cfg_path, "--out-dir", str(out)])
        assert rc == EXIT_OK
        for name in ("field.csv", "channel.csv", "sensors.csv"):
            assert (out / name).exists()


class TestPipelineChain:
    def test_generate_train_reconstruct_strain(self, tiny_cfg_path, tmp_path):
        ds_dir = tmp_path / "ds"
        rc = main(["generate", "--config", tiny_cfg_path, "--seed", "0",
                   "--out-dir", str(ds_dir)])
        assert rc == EXIT_OK

        train_dir = tmp_path / "model"
        rc = main(["train", "--dataset", str(ds_dir), "--epochs", "2",
                   "--out-dir", str(train_dir)])
        assert rc == EXIT_OK
        assert (train_dir / "checkpoint.json").exists()
        assert (train_dir / "history.csv").exists()

        case_dir = ds_dir / "cases" / "test_q20"
        rec_dir = tmp_path / "rec"
        rc = main(["reconstruct", "--config", tiny_cfg_path,
                   "--checkpoint", str(train_dir / "checkpoint.json"),
                   "--sensors", str(case_dir / "sensors.csv"),
                   "--truth", str(case_dir / "field.csv"),
                   "--out-dir", str(rec_dir)])
        assert rc == EXIT_OK
        metrics = json.loads((rec_dir / "metrics.json").read_text())
        assert "r_squared" in metrics and "nl2" in metrics

        strain_dir = tmp_path / "strain"
        rc = main(["strain", "--config", tiny_cfg_path,
                   "--field", str(case_dir / "field.csv"),
                   "--out-dir", str(strain_dir)])
        assert rc == EXIT_OK
        strain = json.loads((strain_dir / "strain.json").read_text())
        assert strain["total_hoop_strain"] != 0.0
        assert (strain_dir / "stress.csv").exists()

    def test_generate_is_deterministic(self, tiny_cfg_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["generate", "--config", tiny_cfg_path, "--seed", "3",
                       "--out-dir", str(out)])
            assert rc == EXIT_OK
        for fa in sorted(a.rglob("*")):
            if fa.is_file():
                assert fa.read_bytes() == (b / fa.relative_to(a)).read_bytes()


@pytest.mark.slow
def test_full_workflow_reaches_target_accuracy(tmp_path):
    # generate -> train (full schedule) -> reconstruct -> strain on a
    # reduced mesh; the reconstruction should still clear R2 >= 0.99
    from rodtwin.config import MeshConfig, TwinConfig
    cfg = TwinConfig(mesh=MeshConfig(nr_fuel=6, nr_clad=3, nz=40))
    cfg_path = tmp_path / "cfg.json"
    cfg.to_json(cfg_path)

    ds_dir = tmp_path / "ds"
    assert main(["generate", "--config", str(cfg_path), "--seed", "0",
                 "--out-dir", str(ds_dir)]) == EXIT_OK
    model_dir = tmp_path / "model"
    assert main(["train", "--dataset", str(ds_dir),
                 "--out-dir", str(model_dir)]) == EXIT_OK

    case_dir = ds_dir / "cases" / "test_q20"
    rec_dir = tmp_path / "rec"
    assert main(["reconstruct", "--config", str(cfg_path),
                 "--checkpoint", str(model_dir / "checkpoint.json"),
                 "--sensors", str(case_dir / "sensors.csv"),
                 "--truth", str(case_dir / "field.csv"),
                 "--out-dir", str(rec_dir)]) == EXIT_OK
    metrics = json.loads((rec_dir / "metrics.json").read_text())
    assert metrics["r_squared"] >= 0.99

    strain_dir = tmp_path / "strain"
    assert main(["strain", "--config", str(cfg_path),
                 "--field", str(rec_dir / "reconstructed.csv"),
                 "--out-dir", str(strain_dir)]) == EXIT_OK
    strain = json.loads((strain_dir / "strain.json").read_text())
    assert strain["total_hoop_strain"] != 0.0


class TestEvaluate:
    def test_self_comparison(self, tiny_cfg_path, tmp_path, capsys):
        out = tmp_path / "run"
        main(["simulate", "--config", tiny_cfg_path, "--out-dir", str(out)])
        capsys.readouterr()
        rc = main(["evaluate", str(out / "field.csv"), str(out / "field.csv")])
        assert rc == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["r_squared"] == 1.0
        assert rep["nl2"] == 0.0

    def test_swapped_arguments_do_not_crash(self, tiny_cfg_path, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--config", tiny_cfg_path, "--out-dir", str(out)])
        rec = out / "field.csv"
        assert main(["evaluate", str(rec), str(rec)]) == EXIT_OK

    def test_closed_stdout_exits_quietly(self, tiny_run):
        # `rodtwin evaluate A B | head -1`: the reader is gone before the
        # metrics are printed
        import rodtwin
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(rodtwin.__file__).parents[1]),
             os.environ.get("PYTHONPATH", "")]))
        field = str(tiny_run / "field.csv")
        proc = subprocess.Popen(
            [sys.executable, "-m", "rodtwin.cli", "evaluate", field, field],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == EXIT_OK
        assert err == ""


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--frobnicate"])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_malformed_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        rc = main(["simulate", "--config", str(bad), "--out-dir",
                   str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"

    @pytest.mark.parametrize("text", [
        '{"architecture": {"layer_sizes": [5, 128',   # truncated JSON
        '{"architecture": {"layer_sizes": [5, 128, 64, 1]}, "eta": 1.0}',
    ])
    def test_malformed_checkpoint(self, tiny_cfg_path, tmp_path, capsys, text):
        run = tmp_path / "run"
        assert main(["simulate", "--config", tiny_cfg_path,
                     "--out-dir", str(run)]) == EXIT_OK
        ckpt = tmp_path / "checkpoint.json"
        ckpt.write_text(text)
        capsys.readouterr()
        rc = main(["reconstruct", "--config", tiny_cfg_path,
                   "--checkpoint", str(ckpt),
                   "--sensors", str(run / "sensors.csv"),
                   "--out-dir", str(tmp_path / "rec")])
        assert rc == EXIT_CONFIG
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["type"] == "ConfigurationError"

    def test_strain_rejects_reordered_field(self, tiny_cfg_path, tiny_run,
                                            tmp_path, capsys):
        field = tmp_path / "field.csv"
        _rewrite_csv(tiny_run / "field.csv", field, _reversed_rows)
        capsys.readouterr()
        rc = main(["strain", "--config", tiny_cfg_path, "--field", str(field),
                   "--out-dir", str(tmp_path / "strain")])
        _assert_config_error(capsys, rc)
        assert not (tmp_path / "strain" / "strain.json").exists()

    def test_reconstruct_rejects_reordered_truth(self, tiny_cfg_path, tiny_run,
                                                 tiny_model, tmp_path, capsys):
        truth = tmp_path / "field.csv"
        _rewrite_csv(tiny_run / "field.csv", truth, _reversed_rows)
        capsys.readouterr()
        rc = main(["reconstruct", "--config", tiny_cfg_path,
                   "--checkpoint", str(tiny_model / "checkpoint.json"),
                   "--sensors", str(tiny_run / "sensors.csv"),
                   "--truth", str(truth), "--out-dir", str(tmp_path / "rec")])
        _assert_config_error(capsys, rc)
        assert not (tmp_path / "rec" / "metrics.json").exists()

    def test_evaluate_rejects_reordered_field(self, tiny_run, tmp_path, capsys):
        field = tmp_path / "field.csv"
        _rewrite_csv(tiny_run / "field.csv", field, _reversed_rows)
        capsys.readouterr()
        rc = main(["evaluate", str(field), str(tiny_run / "field.csv")])
        err = _assert_config_error(capsys, rc)
        assert "mesh order" in err["message"]

    def test_evaluate_rejects_different_node_count(self, tiny_run, tmp_path,
                                                   capsys):
        field = tmp_path / "field.csv"
        _rewrite_csv(tiny_run / "field.csv", field, lambda rows: rows[:-1])
        capsys.readouterr()
        rc = main(["evaluate", str(field), str(tiny_run / "field.csv")])
        _assert_config_error(capsys, rc)

    def test_reconstruct_rejects_sensors_without_column(self, tiny_cfg_path,
                                                        tiny_run, tiny_model,
                                                        tmp_path, capsys):
        sensors = tmp_path / "sensors.csv"
        _rewrite_csv(tiny_run / "sensors.csv", sensors, _drop_column("dhat"))
        capsys.readouterr()
        rc = main(["reconstruct", "--config", tiny_cfg_path,
                   "--checkpoint", str(tiny_model / "checkpoint.json"),
                   "--sensors", str(sensors), "--out-dir", str(tmp_path / "rec")])
        err = _assert_config_error(capsys, rc)
        assert "dhat" in err["message"]

    @pytest.mark.parametrize("key", ["config", "splits", "cases",
                                     "normalization", "seed"])
    def test_train_rejects_manifest_without_key(self, tiny_model, tmp_path,
                                                capsys, key):
        ds = tmp_path / "ds"
        shutil.copytree(tiny_model / "ds", ds)
        manifest = json.loads((ds / "manifest.json").read_text())
        del manifest[key]
        (ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        rc = main(["train", "--dataset", str(ds), "--epochs", "1",
                   "--out-dir", str(tmp_path / "model")])
        err = _assert_config_error(capsys, rc)
        assert f"'{key}'" in err["message"]

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "nope"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_MISSING
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"
