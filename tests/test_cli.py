"""Command-line workflows: subcommand chaining, exit codes, error JSON."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodtwin.cli import (EXIT_CONFIG, EXIT_MISSING, EXIT_OK, EXIT_USAGE,
                         main)


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

    def test_strain_is_deterministic(self, tiny_cfg_path, tiny_run, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["strain", "--config", tiny_cfg_path,
                         "--field", str(tiny_run / "field.csv"),
                         "--out-dir", str(out)]) == EXIT_OK
        for name in ("strain.json", "stress.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

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


def _assert_usage_error(argv, needle):
    rc, err = _assert_one_error_object(argv)
    assert rc == EXIT_USAGE
    assert (err["error"], err["type"]) == ("usage", "ArgumentError")
    assert needle in err["message"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self):
        _assert_usage_error(["simulate", "--frobnicate"], "--frobnicate")

    def test_unknown_subcommand_is_usage_error(self):
        _assert_usage_error(["transmogrify"], "transmogrify")

    @pytest.mark.parametrize("argv, needle", [
        (["train", "--dataset", "ds", "--config", "other.json"], "--config"),
        (["evaluate", "a.csv", "b.csv", "--config", "c.json"], "--config"),
        (["simulate", "--seed", "1"], "--seed"),
        (["reconstruct", "--checkpoint", "c", "--sensors", "s", "--seed", "1"],
         "--seed"),
        (["strain", "--field", "f.csv", "--seed", "1"], "--seed"),
        (["evaluate", "a.csv", "b.csv", "--seed", "1"], "--seed"),
        (["train", "--dataset", "ds", "--epochs", "two"], "two"),
        (["train"], "--dataset"),
        ([], "command"),
    ])
    def test_usage_errors_are_one_error_object(self, argv, needle):
        _assert_usage_error(argv, needle)

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0
        assert "--dataset" in capsys.readouterr().out

    @pytest.mark.parametrize("epochs", ["0", "-3"])
    def test_train_rejects_fewer_than_one_epoch(self, tiny_model, tmp_path,
                                                 epochs):
        rc, err = _assert_one_error_object(
            ["train", "--dataset", str(tiny_model / "ds"), "--epochs", epochs,
             "--out-dir", str(tmp_path / "m")])
        assert rc == EXIT_CONFIG
        assert err["type"] == "ConfigurationError"
        assert "epochs" in err["message"]
        assert not (tmp_path / "m").exists()

    def test_sweep_rejects_zero_epochs_before_writing(self, tiny_cfg_path,
                                                       tmp_path):
        rc, err = _assert_one_error_object(
            ["sweep-burnup", "--config", tiny_cfg_path, "--n-cases", "10",
             "--epochs", "0", "--out-dir", str(tmp_path / "sweep")])
        assert rc == EXIT_CONFIG
        assert err["type"] == "ConfigurationError"
        assert not (tmp_path / "sweep").exists()

    def test_config_rejects_zero_epochs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"training": {"epochs": 0}}))
        rc, err = _assert_one_error_object(
            ["simulate", "--config", str(cfg), "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        assert "epochs must be >= 1" in err["message"]
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize("column", ["T", "z", "w"])
    def test_reconstruct_rejects_nan_sensor(self, tiny_cfg_path, tiny_run,
                                            tiny_model, tmp_path, capsys,
                                            column):
        def edit(rows):
            rows[1][rows[0].index(column)] = "nan"
            return rows
        sensors = tmp_path / "sensors.csv"
        _rewrite_csv(tiny_run / "sensors.csv", sensors, edit)
        capsys.readouterr()
        rc = main(["reconstruct", "--config", tiny_cfg_path,
                   "--checkpoint", str(tiny_model / "checkpoint.json"),
                   "--sensors", str(sensors), "--out-dir", str(tmp_path / "rec")])
        err = _assert_config_error(capsys, rc)
        assert "non-finite" in err["message"]
        assert not (tmp_path / "rec" / "reconstructed.csv").exists()

    def test_strain_rejects_repeated_column(self, tiny_cfg_path, tiny_run,
                                            tmp_path, capsys):
        field = tmp_path / "field.csv"
        _rewrite_csv(tiny_run / "field.csv", field,
                     lambda rows: [row + [row[-1]] for row in rows])
        capsys.readouterr()
        rc = main(["strain", "--config", tiny_cfg_path, "--field", str(field),
                   "--out-dir", str(tmp_path / "strain")])
        err = _assert_config_error(capsys, rc)
        assert "repeated column(s) T" in err["message"]
        assert str(field) in err["message"]
        assert not (tmp_path / "strain" / "strain.json").exists()

    @pytest.mark.parametrize("edit", [
        lambda rows: [row + [row[2]] for row in rows],          # ...,eta,T
        lambda rows: rows[:2] + [row[:-1] + ["0.5"] for row in rows[2:]],
    ], ids=["repeated-column", "eta-differs"])
    def test_reconstruct_rejects_ambiguous_sensors(self, tiny_cfg_path,
                                                   tiny_run, tiny_model,
                                                   tmp_path, capsys, edit):
        sensors = tmp_path / "sensors.csv"
        _rewrite_csv(tiny_run / "sensors.csv", sensors, edit)
        capsys.readouterr()
        rc = main(["reconstruct", "--config", tiny_cfg_path,
                   "--checkpoint", str(tiny_model / "checkpoint.json"),
                   "--sensors", str(sensors), "--out-dir", str(tmp_path / "rec")])
        err = _assert_config_error(capsys, rc)
        assert str(sensors) in err["message"]
        assert not (tmp_path / "rec" / "reconstructed.csv").exists()

    def test_evaluate_rejects_nan_temperature(self, tiny_run, tmp_path, capsys):
        def edit(rows):
            rows[5][-1] = "nan"
            return rows
        field = tmp_path / "field.csv"
        _rewrite_csv(tiny_run / "field.csv", field, edit)
        capsys.readouterr()
        rc = main(["evaluate", str(field), str(tiny_run / "field.csv")])
        captured = capsys.readouterr()
        assert rc == EXIT_CONFIG
        assert captured.out == ""     # no metrics with "r_squared": NaN
        assert "non-finite" in json.loads(captured.err)["message"]

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

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:1] + [[row[0], repr(float(row[1]) + 0.5)] + row[2:]
                                 for row in rows[1:]],       # nodes moved 0.5 m
        lambda rows: rows[:1] + [rows[2], rows[1]] + rows[3:],  # two swapped
    ], ids=["moved", "swapped"])
    def test_train_rejects_field_off_the_config_mesh(self, tiny_model, tmp_path,
                                                     capsys, edit):
        ds = tmp_path / "ds"
        shutil.copytree(tiny_model / "ds", ds)
        field = sorted((ds / "cases").glob("*/field.csv"))[-1]
        _rewrite_csv(field, field, edit)
        capsys.readouterr()
        rc = main(["train", "--dataset", str(ds), "--epochs", "1",
                   "--out-dir", str(tmp_path / "model")])
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["type"] == "ConfigurationError"
        assert str(field) in err["message"]
        assert not (tmp_path / "model" / "checkpoint.json").exists()

    def test_simulate_rejects_channel_radius_off_the_rod(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"geometry": {"R_co": 0.0049}}))
        rc = main(["simulate", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "sim")])
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert "R_co" in json.loads(lines[0])["message"]
        assert not (tmp_path / "sim" / "field.csv").exists()

    @pytest.mark.parametrize("section", [{"mesh": {"nz": "abc"}},
                                         {"mesh": {"nr_fuel": 4.0}},
                                         {"training": {"epochs": "abc"}}])
    def test_simulate_rejects_non_integer_config_field(self, tmp_path, capsys,
                                                      section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(section))
        rc = main(["simulate", "--config", str(cfg),
                   "--out-dir", str(tmp_path / "sim")])
        assert rc == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert (err["error"], err["type"]) == ("config", "ConfigurationError")
        assert "must be an integer" in err["message"]
        assert not (tmp_path / "sim" / "field.csv").exists()

    @pytest.mark.parametrize("command, section", [
        ("strain", {"materials": {"E_fuel": "x"}}),
        ("strain", {"materials": {"alpha_theta": None}}),
        ("strain", {"materials": {"creep_n": "2"}}),
        ("strain", {"thermomech": {"P_gap": "2e6"}}),
        ("strain", {"thermomech": {"creep_duration": True}}),
        ("strain", {"materials": {"nu_fuel": 1.0}}),
        ("strain", {"materials": {"nu_fuel": 0.5}}),
        ("strain", {"materials": {"E_clad": -8e10}}),
        ("strain", {"materials": {"E_fuel": 0.0}}),
        ("simulate", {"source": {"q0": "2e4"}}),
        ("simulate", {"delta_e": "0.08"}),
        ("simulate", {"materials": {"fuel_k_bu": "x"}}),
        ("simulate", {"materials": {"clad_k_a": None}}),
        ("simulate", {"sensors": {"eta": "1"}}),
        ("simulate", {"sensors": {"z_fracs": [0.2, "x"]}}),
        ("simulate", {"sensors": {"z_fracs": 0.5}}),
        ("simulate", {"roster_train": [10e3, True]}),
        ("simulate", {"dedupe_validation": "yes"}),
        ("simulate", {"materials": 5}),
        ("simulate", {"source": 5}),
        ("strain", {"materials": {"alpha_theta": float("nan")}}),
        ("strain", {"thermomech": {"P_gap": float("inf")}}),
        ("simulate", {"burnup": float("nan")}),
        ("simulate", {"sensors": {"z_fracs": [0.2, float("-inf")]}}),
        ("simulate", {"sensors": {"z_fracs": [[0.2, 0.4], 0.6]}}),
        ("simulate", {"roster_train": [[10e3, 20e3]]}),
        ("simulate", {"training": {"schedule": [300, 1e-3]}}),
    ])
    def test_wrong_config_value_exits_3(self, tiny_run, tmp_path, command,
                                        section):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"mesh": {"nr_fuel": 4, "nr_clad": 2, "nz": 12}, **section}))
        argv = [command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        if command == "strain":
            argv += ["--field", str(tiny_run / "field.csv")]
        rc, err = _assert_one_error_object(argv)
        assert (rc, err["type"]) == (EXIT_CONFIG, "ConfigurationError")
        assert not (tmp_path / "o").exists()

    def test_missing_file(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "nope"),
                   "--out-dir", str(tmp_path / "o")])
        assert rc == EXIT_MISSING
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "missing-file"


# Malformed CSV files: one edit of a valid tiny-config file, or a whole file
# of empty or arbitrary bytes. Every edit leaves the file invalid: each column
# is required and may appear once, and cell edits only touch numeric cells of
# data rows.
_NOT_A_NUMBER = st.text(alphabet="abcxyz_.-+e ", max_size=6)   # no digit, n, i
_NON_FINITE = st.sampled_from(["nan", "NaN", "-nan", "inf", "-inf",
                               "+Infinity", "1e999", "-1e400"])


def _csv_edits(n_columns, numeric_columns, n_rows):
    """Edits of a file of n_columns; cell edits in its first n_rows."""
    return st.one_of(
        st.tuples(st.just("drop-column"), st.integers(0, n_columns - 1)),
        st.tuples(st.just("repeat-column"), st.integers(0, n_columns - 1)),
        st.tuples(st.just("cell"), st.integers(1, n_rows),
                  st.sampled_from(numeric_columns),
                  st.one_of(_NOT_A_NUMBER, _NON_FINITE)),
        st.tuples(st.just("ragged"), st.integers(0, n_rows), st.booleans()),
        st.tuples(st.just("header-only")),
        st.tuples(st.just("bytes"), st.one_of(
            st.sampled_from([b"", b"\n", b" \n\n", b"\x00"]),
            st.binary(max_size=64))),
    )


_SENSOR_EDITS = _csv_edits(7, range(7), 4)
_FIELD_EDITS = _csv_edits(4, (0, 1, 3), 10)    # r, z, region, T


def _edited_csv(text, edit):
    rows = [line.split(",") for line in text.splitlines()]
    kind = edit[0]
    if kind == "bytes":
        return edit[1]
    if kind == "drop-column":
        k = edit[1]
        rows = [row[:k] + row[k + 1:] for row in rows]
    elif kind == "repeat-column":
        rows = [row + [row[edit[1]]] for row in rows]
    elif kind == "cell":
        rows[edit[1]][edit[2]] = edit[3]
    elif kind == "ragged":
        row = rows[edit[1]]
        rows[edit[1]] = row + ["1.0"] if edit[2] else row[:-1]
    else:
        rows = rows[:1]
    return ("\n".join(",".join(row) for row in rows) + "\n").encode()


def _assert_one_error_object(argv):
    """main(argv) fails with exit 2-5 and one JSON error object on stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc in (2, 3, 4, 5)
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    obj = json.loads(lines[0])
    assert set(obj) == {"error", "type", "message"}
    return rc, obj


class TestSensorsFuzz:
    @given(edit=_SENSOR_EDITS)
    @settings(max_examples=50, deadline=None)
    def test_malformed_sensors_exit_with_one_error_object(
            self, tiny_cfg_path, tiny_run, tiny_model, tmp_path_factory, edit):
        sensors = tmp_path_factory.getbasetemp() / "fuzz_sensors.csv"
        sensors.write_bytes(_edited_csv(
            (tiny_run / "sensors.csv").read_text(), edit))
        _assert_one_error_object(
            ["reconstruct", "--config", tiny_cfg_path,
             "--checkpoint", str(tiny_model / "checkpoint.json"),
             "--sensors", str(sensors),
             "--out-dir", str(sensors.parent / "fuzz_rec")])


class TestFieldFuzz:
    @given(edit=_FIELD_EDITS, as_truth=st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_malformed_field_exits_with_one_error_object(
            self, tiny_cfg_path, tiny_run, tmp_path_factory, edit, as_truth):
        field = tmp_path_factory.getbasetemp() / "fuzz_field.csv"
        field.write_bytes(_edited_csv((tiny_run / "field.csv").read_text(),
                                      edit))
        good = str(tiny_run / "field.csv")
        _assert_one_error_object(
            ["strain", "--config", tiny_cfg_path, "--field", str(field),
             "--out-dir", str(field.parent / "fuzz_strain")])
        _assert_one_error_object(
            ["evaluate", *((good, str(field)) if as_truth else
                           (str(field), good))])


# Malformed checkpoints: one edit of a valid tiny-model checkpoint, or a whole
# file of arbitrary bytes. Every edit leaves the checkpoint invalid: each
# dropped key is one the reader needs, and each value is not a finite JSON
# number (true, false and numeric strings are not numbers), or is a scale that
# is not positive.
_LAYERS = [(stack, key) for stack in ("G", "dG")
           for key in ("W1", "b1", "W2", "b2", "W3", "b3")]
_NORM_KEYS = ("r_center", "r_scale", "z_center", "z_scale", "T_center",
              "T_scale")
_NOT_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_NOT_NUMERIC = st.one_of(_NOT_A_NUMBER, st.none(), st.just([]), st.just({}))
_NUMBER_LIKE = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str))
_CHECKPOINT_EDITS = st.one_of(
    st.tuples(st.just("bytes"), st.one_of(
        st.sampled_from([b"", b"{}", b"null", b"[]", b"\x00"]),
        st.binary(max_size=64))),
    st.tuples(st.just("drop-key"), st.sampled_from(
        [("architecture",), ("architecture", "layer_sizes"),
         ("normalization",), ("eta",), ("stacks",), ("stacks", "G"),
         ("stacks", "dG"), *(("stacks", *layer) for layer in _LAYERS),
         *(("normalization", key) for key in _NORM_KEYS)])),
    st.tuples(st.just("shape"), st.sampled_from(_LAYERS),
              st.sampled_from(["drop-row", "drop-entry", "wrap", "scalar"])),
    st.tuples(st.just("weight"), st.sampled_from(_LAYERS),
              st.integers(0, 2 ** 20),
              st.one_of(_NOT_NUMERIC, _NOT_FINITE, _NUMBER_LIKE)),
    st.tuples(st.just("eta"),
              st.one_of(_NOT_NUMERIC, _NOT_FINITE, _NUMBER_LIKE)),
    st.tuples(st.just("layer-sizes"),
              st.lists(st.integers(0, 200), max_size=5).filter(
                  lambda sizes: sizes != [5, 128, 64, 1])),
    st.tuples(st.just("norm"), st.sampled_from(_NORM_KEYS),
              st.one_of(_NOT_NUMERIC, _NOT_FINITE, _NUMBER_LIKE)),
    st.tuples(st.just("norm"), st.sampled_from(("r_scale", "z_scale",
                                                "T_scale")),
              st.sampled_from([0, 0.0, -0.0, -1e-300, -1.0, float("nan")])),
)


def _edited_checkpoint(text, edit):
    kind = edit[0]
    if kind == "bytes":
        return edit[1]
    blob = json.loads(text)
    if kind == "drop-key":
        *parents, key = edit[1]
        node = blob
        for parent in parents:
            node = node[parent]
        del node[key]
    elif kind in ("shape", "weight"):
        (stack, key), layer = edit[1], blob["stacks"][edit[1][0]]
        value = layer[key]
        if kind == "weight":
            row = value[edit[2] % len(value)] if key[0] == "W" else value
            row[edit[2] % len(row)] = edit[3]
        elif edit[2] == "drop-row":
            layer[key] = value[:-1]
        elif edit[2] == "drop-entry":
            layer[key] = [value[0][:-1], *value[1:]] if key[0] == "W" \
                else value[:-1]
        elif edit[2] == "wrap":
            layer[key] = [value]
        else:
            layer[key] = 0.0
    elif kind == "layer-sizes":
        blob["architecture"]["layer_sizes"] = edit[1]
    elif kind == "eta":
        blob["eta"] = edit[1]
    else:
        blob["normalization"][edit[1]] = edit[2]
    return json.dumps(blob).encode()


def _reconstruct_with_edited_checkpoint(cfg_path, run, model, tmp_root, edit):
    """(exit code, error object) of reconstruct with one checkpoint edit."""
    ckpt = tmp_root / "fuzz_checkpoint.json"
    ckpt.write_bytes(_edited_checkpoint(
        (model / "checkpoint.json").read_text(), edit))
    return _assert_one_error_object(
        ["reconstruct", "--config", cfg_path, "--checkpoint", str(ckpt),
         "--sensors", str(run / "sensors.csv"),
         "--out-dir", str(tmp_root / "fuzz_ckpt_rec")])


class TestCheckpointFuzz:
    @given(edit=_CHECKPOINT_EDITS)
    @settings(max_examples=50, deadline=None)
    def test_malformed_checkpoint_exits_with_one_error_object(
            self, tiny_cfg_path, tiny_run, tiny_model, tmp_path_factory, edit):
        _reconstruct_with_edited_checkpoint(
            tiny_cfg_path, tiny_run, tiny_model,
            tmp_path_factory.getbasetemp(), edit)

    # JSON true/false and numeric strings: np.array(v, float) and
    # math.isfinite take them as numbers
    @pytest.mark.parametrize("edit", [
        ("eta", "not a number"), ("eta", True), ("eta", "1.0"), ("eta", None),
        ("eta", float("nan")), ("weight", ("G", "W2"), 5, True),
        ("weight", ("dG", "b1"), 7, "1.5"), ("weight", ("G", "b3"), 0, False),
        ("norm", "T_scale", True), ("norm", "r_center", False),
        ("norm", "z_center", "1.9")], ids=repr)
    def test_number_like_value_exits_3(self, tiny_cfg_path, tiny_run,
                                       tiny_model, tmp_path, edit):
        rc, _ = _reconstruct_with_edited_checkpoint(
            tiny_cfg_path, tiny_run, tiny_model, tmp_path, edit)
        assert rc == EXIT_CONFIG
