"""File formats: CSV/JSON round trips must be bit exact."""

import csv
import json
from dataclasses import replace
from io import StringIO

import numpy as np
import pytest

from rodtwin.conduction import TemperatureField
from rodtwin.config import TrainSettings, TwinConfig
from rodtwin.errors import ConfigurationError
from rodtwin.io import (SENSOR_COLUMNS, channel_to_csv, field_arrays_from_csv,
                        field_from_csv, field_to_csv, history_to_csv,
                        load_checkpoint, load_dataset, mesh_from_config,
                        metrics_to_json, save_checkpoint, save_dataset,
                        sensors_from_csv, sensors_to_csv,
                        strain_report_to_json, stress_field_to_csv)
from rodtwin.khnet import (PARAM_KEYS, TrainHistory, kh_integrate,
                           kh_physical_layer, train)
from rodtwin.mesh import CLAD, FUEL
from rodtwin.metrics import compute_metrics
from rodtwin.pipeline import NormConstants, SensorSet, burnup_sweep


def _rewrite_csv(path, edit):
    """Apply ``edit`` to the list of rows (header first) of a CSV file."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("\n".join(",".join(row) for row in edit(rows)) + "\n")


def _drop_column(rows, name):
    k = rows[0].index(name)
    return [row[:k] + row[k + 1:] for row in rows]


class TestFieldCsv:
    def test_round_trip_bit_exact(self, coupled20, tmp_path):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        again = field_from_csv(path, coupled20.field.mesh)
        np.testing.assert_array_equal(again.T_fuel, coupled20.field.T_fuel)
        np.testing.assert_array_equal(again.T_clad, coupled20.field.T_clad)

    def test_wrong_mesh_rejected(self, coupled20, cfg_tiny, tmp_path):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        with pytest.raises(ConfigurationError):
            field_from_csv(path, mesh_from_config(cfg_tiny))

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:1] + rows[:0:-1],               # all rows reversed
        lambda rows: rows[:1] + [rows[2], rows[1]] + rows[3:],  # two swapped
    ], ids=["reversed", "swapped"])
    def test_reordered_nodes_rejected(self, coupled20, tmp_path, edit):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        _rewrite_csv(path, edit)
        with pytest.raises(ConfigurationError, match="mesh order"):
            field_from_csv(path, coupled20.field.mesh)

    @pytest.mark.parametrize("column", ["r", "z", "region", "T"])
    def test_missing_column_rejected(self, coupled20, tmp_path, column):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        _rewrite_csv(path, lambda rows: _drop_column(rows, column))
        with pytest.raises(ConfigurationError, match=f"missing column.*{column}"):
            field_arrays_from_csv(path)

    def test_repeated_column_rejected(self, coupled20, tmp_path):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        _rewrite_csv(path, lambda rows: [row + [row[0]] for row in rows])
        with pytest.raises(ConfigurationError, match="repeated column.*r") as exc:
            field_arrays_from_csv(path)
        assert str(path) in str(exc.value)

    def test_each_repeated_column_named_once(self, coupled20, tmp_path):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        _rewrite_csv(path, lambda rows: [row + [row[3], row[1], row[3]]
                                         for row in rows])
        with pytest.raises(ConfigurationError,
                           match=r"repeated column\(s\) T, z$"):
            field_arrays_from_csv(path)

    def test_non_numeric_value_rejected(self, coupled20, tmp_path):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        _rewrite_csv(path, lambda rows: rows[:1] + [rows[1][:3] + ["hot"]]
                     + rows[2:])
        with pytest.raises(ConfigurationError):
            field_arrays_from_csv(path)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected(self, coupled20, tmp_path, token):
        path = tmp_path / "field.csv"
        field_to_csv(coupled20.field, path)
        _rewrite_csv(path, lambda rows: rows[:3] + [rows[3][:3] + [token]]
                     + rows[4:])
        with pytest.raises(ConfigurationError,
                           match="column T, data row 3: non-finite"):
            field_arrays_from_csv(path)


class TestSensorsCsv:
    def test_round_trip_bit_exact(self, coupled20, tmp_path):
        from rodtwin.pipeline import extract_sensors
        z = np.array([0.2, 0.4, 0.6, 0.8]) * coupled20.field.mesh.geom.L_fr
        s = extract_sensors(coupled20, z, eta=1.0)
        path = tmp_path / "sensors.csv"
        sensors_to_csv(s, path)
        again = sensors_from_csv(path)
        for f in ("z", "r", "T", "T_inf", "dhat", "w"):
            np.testing.assert_array_equal(getattr(again, f), getattr(s, f))
        assert again.eta == s.eta

    @pytest.fixture
    def sensors_path(self, coupled20, tmp_path):
        from rodtwin.pipeline import extract_sensors
        z = np.array([0.2, 0.4, 0.6, 0.8]) * coupled20.field.mesh.geom.L_fr
        path = tmp_path / "sensors.csv"
        sensors_to_csv(extract_sensors(coupled20, z, eta=1.0), path)
        return path

    @pytest.mark.parametrize("column", SENSOR_COLUMNS)
    def test_missing_column_rejected(self, sensors_path, column):
        _rewrite_csv(sensors_path, lambda rows: _drop_column(rows, column))
        with pytest.raises(ConfigurationError, match=f"missing column.*{column}"):
            sensors_from_csv(sensors_path)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:1],                               # header only
        lambda rows: rows[:1] + [rows[1][:-1]] + rows[2:],   # short row
        lambda rows: [[]],                                   # empty file
    ], ids=["no-rows", "short-row", "empty"])
    def test_malformed_rows_rejected(self, sensors_path, edit):
        _rewrite_csv(sensors_path, edit)
        with pytest.raises(ConfigurationError):
            sensors_from_csv(sensors_path)

    @pytest.mark.parametrize("column", ["z", "T", "w"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_rejected(self, sensors_path, column, token):
        def edit(rows):
            rows[2][rows[0].index(column)] = token
            return rows
        _rewrite_csv(sensors_path, edit)
        with pytest.raises(ConfigurationError,
                           match=f"column {column}, data row 2: non-finite"):
            sensors_from_csv(sensors_path)

    @pytest.mark.parametrize("data, error", [
        (b"z,r,\xff\xfe\n", "UnicodeDecodeError"),           # not UTF-8
        (b"z," + b"1" * 200_000 + b"\n", "Error: field larger"),  # csv.Error
    ], ids=["undecodable", "oversized-field"])
    def test_unreadable_text_rejected(self, sensors_path, data, error):
        sensors_path.write_bytes(data)
        with pytest.raises(ConfigurationError, match=error):
            sensors_from_csv(sensors_path)

    def test_repeated_column_rejected(self, sensors_path):
        # the last T column would otherwise win silently
        _rewrite_csv(sensors_path, lambda rows: [row + [row[2]] for row in rows])
        with pytest.raises(ConfigurationError,
                           match="repeated column.*T") as exc:
            sensors_from_csv(sensors_path)
        assert str(sensors_path) in str(exc.value)

    def test_eta_that_differs_between_rows_rejected(self, sensors_path):
        # the first row's eta would otherwise win silently
        def edit(rows):
            rows[3][rows[0].index("eta")] = "2.0"
            return rows
        _rewrite_csv(sensors_path, edit)
        with pytest.raises(ConfigurationError,
                           match="column eta, data row 3: '2.0'") as exc:
            sensors_from_csv(sensors_path)
        assert str(sensors_path) in str(exc.value)


class TestDatasetDirectory:
    def test_round_trip_values_and_manifest(self, dataset_tiny, tmp_path):
        out = tmp_path / "ds"
        save_dataset(dataset_tiny, out)
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["splits"]) == {c.spec.case_id
                                           for c in dataset_tiny.cases}
        assert manifest["config_hash"] == dataset_tiny.config.config_hash()

        again = load_dataset(out)
        assert again.norm == dataset_tiny.norm
        assert again.config == dataset_tiny.config
        for ca, cb in zip(again.cases, dataset_tiny.cases):
            assert ca.spec == cb.spec
            np.testing.assert_array_equal(ca.T, cb.T)
            np.testing.assert_array_equal(ca.sensors.T, cb.sensors.T)

    def test_loaded_dataset_saves_and_reloads_bit_identically(self, dataset_tiny,
                                                              tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(dataset_tiny, a)
        first = load_dataset(a)
        assert all(c.solution is None for c in first.cases)
        save_dataset(first, b)
        second = load_dataset(b)
        for ca, cb in zip(first.cases, second.cases):
            assert ca.spec == cb.spec
            for f in ("r", "z", "T"):
                np.testing.assert_array_equal(getattr(cb, f), getattr(ca, f))
            assert cb.region == ca.region
            for f in ("z", "r", "T", "T_inf", "dhat", "w"):
                np.testing.assert_array_equal(getattr(cb.sensors, f),
                                              getattr(ca.sensors, f))
            for name in ("field.csv", "sensors.csv"):
                rel = f"cases/{ca.spec.case_id}/{name}"
                assert (b / rel).read_bytes() == (a / rel).read_bytes()
            # channel states are not part of a loaded dataset
            assert not (b / f"cases/{ca.spec.case_id}/channel.csv").exists()

    @pytest.mark.parametrize("key", ["config", "splits", "cases",
                                     "normalization", "seed"])
    def test_missing_manifest_key_rejected(self, dataset_tiny, tmp_path, key):
        save_dataset(dataset_tiny, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        del manifest[key]
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match=f"'{key}'"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("key, value", [("T_scale", 0.0),
                                            ("r_scale", -1.0),
                                            ("z_center", np.nan)])
    def test_manifest_normalization_must_be_valid(self, dataset_tiny, tmp_path,
                                                  key, value):
        save_dataset(dataset_tiny, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["normalization"][key] = value
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="normalization"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("text", ['{"config": ', '[1, 2]'])
    def test_malformed_manifest_rejected(self, dataset_tiny, tmp_path, text):
        save_dataset(dataset_tiny, tmp_path)
        (tmp_path / "manifest.json").write_text(text)
        with pytest.raises(ConfigurationError):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("nz", ["12", {"rows": 12}, 5],
                             ids=["string", "mapping", "too-few"])
    def test_manifest_mesh_that_builds_no_mesh_rejected(self, dataset_tiny,
                                                        tmp_path, nz):
        save_dataset(dataset_tiny, tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["config"]["mesh"]["nz"] = nz
        path.write_text(json.dumps(manifest))
        with pytest.raises(ConfigurationError, match="nz|manifest"):
            load_dataset(tmp_path)

    def test_case_csv_without_column_rejected(self, dataset_tiny, tmp_path):
        save_dataset(dataset_tiny, tmp_path)
        path = tmp_path / "cases" / dataset_tiny.cases[0].spec.case_id / "sensors.csv"
        _rewrite_csv(path, lambda rows: _drop_column(rows, "dhat"))
        with pytest.raises(ConfigurationError, match="dhat"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("edit", [
        lambda rows: rows[:1] + [[row[0], repr(float(row[1]) + 0.5)] + row[2:]
                                 for row in rows[1:]],       # nodes moved 0.5 m
        lambda rows: rows[:1] + [rows[2], rows[1]] + rows[3:],  # two swapped
    ], ids=["moved", "swapped"])
    def test_field_off_the_config_mesh_rejected(self, dataset_tiny, tmp_path,
                                                edit):
        save_dataset(dataset_tiny, tmp_path)
        path = tmp_path / "cases" / dataset_tiny.cases[1].spec.case_id / "field.csv"
        _rewrite_csv(path, edit)
        with pytest.raises(ConfigurationError, match="mesh order") as exc:
            load_dataset(tmp_path)
        assert str(path) in str(exc.value)

    def test_loaded_cases_share_the_mesh_node_table(self, dataset_tiny,
                                                    tmp_path):
        save_dataset(dataset_tiny, tmp_path)
        r, z, region = mesh_from_config(dataset_tiny.config).node_table()
        for c in load_dataset(tmp_path).cases:
            assert c.r is r and c.z is z and c.region is region

    def test_repeated_save_is_byte_identical(self, dataset_tiny, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        save_dataset(dataset_tiny, a)
        save_dataset(dataset_tiny, b)
        for fa in sorted(a.rglob("*")):
            if fa.is_file():
                fb = b / fa.relative_to(a)
                assert fa.read_bytes() == fb.read_bytes()


class TestCheckpoint:
    def test_round_trip_identical_predictions(self, dataset_tiny, tmp_path):
        model, _ = train(dataset_tiny, TrainSettings(epochs=2, fixed_lr=1e-3))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        again = load_checkpoint(path)
        for k in PARAM_KEYS:
            np.testing.assert_array_equal(again.G_stack[k], model.G_stack[k])
            np.testing.assert_array_equal(again.dG_stack[k], model.dG_stack[k])
        assert again.norm == model.norm
        assert again.eta == model.eta

        rng = np.random.default_rng(0)
        feats = rng.uniform(-1, 1, size=(6, 4, 5))
        u = rng.uniform(-1, 1, size=4)
        d = rng.uniform(-1, 1, size=4)
        w = rng.uniform(0.1, 1, size=4)

        def predict(m):
            g, dg = m.kernels(feats)
            return kh_integrate(kh_physical_layer(u, d, g, dg), w)
        np.testing.assert_array_equal(predict(again), predict(model))

    def test_wrong_architecture_rejected(self, dataset_tiny, tmp_path):
        model, _ = train(dataset_tiny, TrainSettings(epochs=1, fixed_lr=1e-3))
        path = tmp_path / "ckpt.json"
        save_checkpoint(model, path)
        blob = json.loads(path.read_text())
        blob["architecture"]["layer_sizes"] = [5, 64, 32, 1]
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)


class TestMalformedCheckpoint:
    @pytest.fixture
    def good_blob(self, tmp_path):
        from rodtwin.khnet import KhModel, init_stack
        rng = np.random.default_rng(0)
        model = KhModel(G_stack=init_stack(rng), dG_stack=init_stack(rng),
                        norm=NormConstants(r_center=0.2, r_scale=0.3,
                                           z_center=1.9, z_scale=1.9,
                                           T_center=600.0, T_scale=300.0),
                        eta=1.0)
        save_checkpoint(model, tmp_path / "good.json")
        return json.loads((tmp_path / "good.json").read_text())

    def _check_rejected(self, path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_truncated_json(self, good_blob, tmp_path):
        path = tmp_path / "ckpt.json"
        text = json.dumps(good_blob)
        path.write_text(text[:len(text) // 2])
        self._check_rejected(path)

    @pytest.mark.parametrize("key", ["stacks", "architecture", "normalization",
                                     "eta"])
    def test_missing_top_level_key(self, good_blob, tmp_path, key):
        del good_blob[key]
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        self._check_rejected(path)

    @pytest.mark.parametrize("stack, key, value", [
        ("G", "W2", [[0.0] * 63] * 128),          # wrong width
        ("dG", "b1", [0.0] * 127),                # wrong length
        ("dG", "W3", [0.0] * 64),                 # (64,) instead of (64, 1)
        ("G", "W1", [[0.0] * 128] * 4 + [[0.0]]), # ragged
        ("G", "b2", "zeros"),                     # not numbers
    ])
    def test_wrong_layer_shape(self, good_blob, tmp_path, stack, key, value):
        good_blob["stacks"][stack][key] = value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        self._check_rejected(path)

    def test_missing_layer(self, good_blob, tmp_path):
        del good_blob["stacks"]["dG"]["b3"]
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        self._check_rejected(path)

    def test_stack_not_a_mapping(self, good_blob, tmp_path):
        good_blob["stacks"]["G"] = [1.0, 2.0]
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        self._check_rejected(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, None])
    @pytest.mark.parametrize("stack", ["G", "dG"])
    def test_non_finite_weight(self, good_blob, tmp_path, stack, value):
        # json writes NaN and Infinity literals; null reads as nan
        good_blob["stacks"][stack]["W2"][5][7] = value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        with pytest.raises(ConfigurationError, match="non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [True, False, "1.5", "0"])
    @pytest.mark.parametrize("stack, key", [("G", "W2"), ("dG", "b1")])
    def test_boolean_or_string_weight(self, good_blob, tmp_path, stack, key,
                                      value):
        # np.array(v, float) would read these as 1.0, 0.0, 1.5 and 0.0
        layer = good_blob["stacks"][stack][key]
        (layer[5] if key[0] == "W" else layer)[7] = value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        with pytest.raises(ConfigurationError, match="boolean or a string"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [True, False, "not a number", "1.0",
                                       None, [1.0], {}, np.nan, np.inf])
    def test_invalid_eta(self, good_blob, tmp_path, value):
        good_blob["eta"] = value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        with pytest.raises(ConfigurationError, match="eta"):
            load_checkpoint(path)

    def test_integer_eta_is_kept(self, good_blob, tmp_path):
        good_blob["eta"] = 2
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        assert load_checkpoint(path).eta == 2

    @pytest.mark.parametrize("key, value", [
        ("r_scale", 0), ("z_scale", -1.9), ("T_scale", 0.0),
        ("T_scale", np.nan), ("r_scale", np.inf), ("T_center", -np.inf),
        ("z_center", np.nan), ("z_scale", "1.9"), ("T_scale", None),
        ("r_scale", True), ("T_center", True), ("z_center", False),
        ("T_center", "600.0")])
    def test_invalid_normalization(self, good_blob, tmp_path, key, value):
        good_blob["normalization"][key] = value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(good_blob))
        with pytest.raises(ConfigurationError, match="normalization"):
            load_checkpoint(path)


class TestReports:
    def test_history_csv_columns(self, dataset_tiny, tmp_path):
        _, hist = train(dataset_tiny, TrainSettings(epochs=3, fixed_lr=1e-3))
        path = tmp_path / "history.csv"
        history_to_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse,lr"
        assert len(lines) == 4

    def test_strain_report_json(self, coupled20, tmp_path):
        from rodtwin.core import MaterialParams
        from rodtwin.thermomech import hoop_strain_summary
        rep = hoop_strain_summary(coupled20.field, MaterialParams(), 3.47e7)
        path = tmp_path / "strain.json"
        strain_report_to_json(rep, path)
        blob = json.loads(path.read_text())
        assert set(blob) == {"thermal_expansion_hoop_strain",
                             "creep_hoop_strain", "elastic_hoop_strain",
                             "irradiation_growth_hoop_strain",
                             "total_hoop_strain", "location"}
        assert blob["total_hoop_strain"] == rep.total
        assert blob["irradiation_growth_hoop_strain"] == 0.0

    def test_stress_field_csv(self, coupled20, tmp_path):
        from rodtwin.core import MaterialParams
        from rodtwin.thermomech import stress_field
        sf = stress_field(coupled20.field, 2e6, 15.51e6, MaterialParams())
        path = tmp_path / "stress.csv"
        stress_field_to_csv(sf, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,z,sigma_r,sigma_z,sigma_theta"
        assert len(lines) == coupled20.field.mesh.n_nodes + 1

    def test_metrics_json(self, tmp_path):
        rep = compute_metrics(np.array([1.0, 2.0]), np.array([1.0, 2.5]))
        path = tmp_path / "metrics.json"
        metrics_to_json(rep, path)
        blob = json.loads(path.read_text())
        assert blob["nl2"] == rep.nl2


# Values whose shortest round-trip text is awkward: exponents, signed zero,
# the smallest subnormal, integers written as floats.
AWKWARD = np.array([1e-05, 1e16, -0.0, 5e-324, 0.1, -1.5e-300, 123456789.0,
                    2.0 ** 0.5, 1e22, 7])


def _reference_csv(header, columns) -> bytes:
    """The bytes that csv.writer writes with repr(float(x)) for each number."""
    buf = StringIO()
    wr = csv.writer(buf)
    wr.writerow(header)
    for row in zip(*columns):
        wr.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])
    return buf.getvalue().encode()


def _awkward(n, shift=0):
    return np.roll(np.resize(AWKWARD, n), shift)


class TestWriterBytes:
    """Every CSV writer writes the bytes of the csv.writer reference."""

    def test_region_names_need_no_quoting(self):
        for name in (FUEL, CLAD):
            assert not set(name) & set(',"\r\n')

    def test_field(self, cfg_tiny, tmp_path):
        mesh = mesh_from_config(cfg_tiny)
        T = _awkward(mesh.n_nodes)
        path = tmp_path / "field.csv"
        field_to_csv(TemperatureField.from_flat(mesh, T), path)
        assert path.read_bytes() == _reference_csv(
            ["r", "z", "region", "T"], [*mesh.node_table(), T])

    def test_field_nodes_are_formatted_once_per_mesh(self, cfg_tiny, tmp_path):
        from rodtwin.io import _node_text
        mesh = mesh_from_config(cfg_tiny)
        field = TemperatureField.from_flat(mesh, _awkward(mesh.n_nodes))
        field_to_csv(field, tmp_path / "a.csv")
        field_to_csv(field, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()
        r, z = _node_text(mesh)
        assert _node_text(mesh) == (r, z) and _node_text(mesh)[0] is r
        assert all(type(col) is tuple and all(type(v) is str for v in col)
                   for col in (r, z))

    def test_channel(self, coupled20, tmp_path):
        ch = coupled20.channel
        n = ch.z.size
        state = replace(ch, T_cool=_awkward(n), h=_awkward(n, 1),
                        P=_awkward(n, 2), Re=_awkward(n, 3))
        path = tmp_path / "channel.csv"
        channel_to_csv(state, path)
        assert path.read_bytes() == _reference_csv(
            ["z", "T_cool", "h", "P", "Re"],
            [state.z, state.T_cool, state.h, state.P, state.Re])

    @pytest.mark.parametrize("n", [4, 0])
    def test_sensors(self, tmp_path, n):
        s = SensorSet(z=_awkward(n), r=_awkward(n, 1), T=_awkward(n, 2),
                      T_inf=_awkward(n, 3), dhat=_awkward(n, 4),
                      w=_awkward(n, 5), eta=1e-05)
        path = tmp_path / "sensors.csv"
        sensors_to_csv(s, path)
        assert path.read_bytes() == _reference_csv(
            SENSOR_COLUMNS, [s.z, s.r, s.T, s.T_inf, s.dhat, s.w,
                             np.full(n, s.eta)])

    @pytest.mark.parametrize("n", [10, 0])
    def test_history(self, tmp_path, n):
        hist = TrainHistory(train_mse=list(_awkward(n)),
                            val_mse=list(_awkward(n, 1)),
                            lr=list(_awkward(n, 2)))
        path = tmp_path / "history.csv"
        history_to_csv(hist, path)
        expected = _reference_csv(["epoch", "train_mse", "val_mse", "lr"],
                                  [range(n), hist.train_mse, hist.val_mse,
                                   hist.lr])
        assert path.read_bytes() == expected
        if n:   # integer epochs are written as floats
            assert path.read_text().splitlines()[1].startswith("0.0,")

    def test_stress_field(self, coupled20, tmp_path):
        from rodtwin.core import MaterialParams
        from rodtwin.thermomech import stress_field
        sf = stress_field(coupled20.field, 2e6, 15.51e6, MaterialParams())
        sf = replace(sf, fuel_sigma_r=_awkward(sf.fuel_sigma_r.size).reshape(
            sf.fuel_sigma_r.shape))
        path = tmp_path / "stress.csv"
        stress_field_to_csv(sf, path)
        r, z, _ = sf.mesh.node_table()
        cols = [np.concatenate([getattr(sf, f"fuel_{k}").ravel(),
                                getattr(sf, f"clad_{k}").ravel()])
                for k in ("sigma_r", "sigma_z", "sigma_theta")]
        assert path.read_bytes() == _reference_csv(
            ["r", "z", "sigma_r", "sigma_z", "sigma_theta"], [r, z, *cols])

    def test_seeded_sweep_files_match_the_reference(self, tmp_path):
        # every case file of a seeded 30-case sweep against the csv.writer
        # reference of the same arrays, so the check holds on any machine
        ds = burnup_sweep(30, (2.4, 59.7), 1234, TwinConfig())
        save_dataset(ds, tmp_path)
        written = {p.relative_to(tmp_path).as_posix()
                   for p in tmp_path.rglob("*") if p.is_file()}
        assert written == {"manifest.json"} | {
            f"cases/{c.spec.case_id}/{name}.csv" for c in ds.cases
            for name in ("field", "channel", "sensors")}
        r, z, region = mesh_from_config(ds.config).node_table()
        for c in ds.cases:
            d = tmp_path / "cases" / c.spec.case_id
            ch, s = c.solution.channel, c.sensors
            assert (d / "field.csv").read_bytes() == _reference_csv(
                ["r", "z", "region", "T"], [r, z, region, c.T])
            assert (d / "channel.csv").read_bytes() == _reference_csv(
                ["z", "T_cool", "h", "P", "Re"],
                [ch.z, ch.T_cool, ch.h, ch.P, ch.Re])
            assert (d / "sensors.csv").read_bytes() == _reference_csv(
                SENSOR_COLUMNS, [s.z, s.r, s.T, s.T_inf, s.dhat, s.w,
                                 np.full(s.z.size, s.eta)])
