"""JSON case-file schema and defaults."""

import dataclasses
import json
from pathlib import Path

import pytest

from rodtwin.config import (ROSTER_TRAIN, MeshConfig, TrainSettings,
                            TwinConfig, config_from_dict, load_config)
from rodtwin.errors import ConfigurationError


class TestDefaults:
    def test_roster_defaults(self):
        cfg = TwinConfig()
        assert cfg.roster_train == ROSTER_TRAIN
        assert cfg.roster_validate == (14e3, 16e3)
        assert cfg.roster_test == (20e3,)

    def test_schedule_thresholds_increase(self):
        with pytest.raises(ConfigurationError):
            TrainSettings(schedule=((600, 1e-3), (300, 1e-4)))

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ConfigurationError):
            TrainSettings(batch_size=0)

    @pytest.mark.parametrize("epochs", [0, -3])
    def test_fewer_than_one_epoch_rejected(self, epochs):
        with pytest.raises(ConfigurationError, match="epochs must be >= 1"):
            TrainSettings(epochs=epochs)

    def test_bad_tinf_policy_rejected(self):
        from rodtwin.config import SensorConfig
        with pytest.raises(ConfigurationError):
            SensorConfig(tinf_policy="outlet")


class TestRoundTrip:
    def test_dict_round_trip_preserves_hash(self):
        cfg = TwinConfig()
        again = config_from_dict(cfg.to_dict())
        assert again == cfg
        assert again.config_hash() == cfg.config_hash()

    def test_json_file_round_trip(self, tmp_path):
        cfg = TwinConfig(q0=25e3, burnup=12.5)
        path = tmp_path / "case.json"
        cfg.to_json(path)
        again = load_config(path)
        assert again.q0 == 25e3
        assert again.burnup == 12.5
        assert again == cfg

    def test_hash_changes_with_content(self):
        assert TwinConfig().config_hash() != TwinConfig(q0=21e3).config_hash()


class TestValidation:
    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"powerr": 20e3})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"geometry": {"L_frr": 3.9}})

    def test_source_section_maps_to_scalars(self):
        cfg = config_from_dict({"source": {"q0": 18e3, "delta_e": 0.1}})
        assert cfg.q0 == 18e3
        assert cfg.delta_e == 0.1

    def test_unknown_source_key_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_dict({"source": {"amplitude": 18e3}})

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_section_values_propagate(self):
        cfg = config_from_dict({"mesh": {"nr_fuel": 6, "nr_clad": 3, "nz": 40},
                                "sensors": {"eta": 2.0}})
        assert cfg.mesh.nr_fuel == 6
        assert cfg.sensors.eta == 2.0
        assert cfg.sensors.tinf_policy == "inlet"

    @pytest.mark.parametrize("data", [
        {"geometry": {"R_co": 0.0049}},
        {"channel": {"R_co": 0.0049}},
    ], ids=["geometry", "channel"])
    def test_channel_radius_must_match_the_rod(self, data):
        with pytest.raises(ConfigurationError, match="R_co"):
            config_from_dict(data)

    @pytest.mark.parametrize("section,key", [
        ("mesh", "nr_fuel"), ("mesh", "nr_clad"), ("mesh", "nz"),
        ("training", "epochs"), ("training", "batch_size"),
        ("training", "seed"),
    ])
    @pytest.mark.parametrize("value", ["abc", "12", 12.0, True, None, [12]])
    def test_integer_fields_reject_other_types(self, section, key, value):
        with pytest.raises(ConfigurationError, match=key):
            config_from_dict({section: {key: value}})

    def test_null_stays_valid_where_the_default_is_none(self):
        cfg = config_from_dict({"channel": {"flow_area": None, "D_h": None},
                                "training": {"fixed_lr": None}})
        assert cfg == TwinConfig()

    def test_integer_fields_accept_ints(self):
        cfg = config_from_dict({"mesh": {"nr_fuel": 6, "nr_clad": 3, "nz": 40},
                                "training": {"epochs": 2, "batch_size": 8,
                                             "seed": 3}})
        assert cfg.mesh == MeshConfig(nr_fuel=6, nr_clad=3, nz=40)
        assert (cfg.training.epochs, cfg.training.batch_size,
                cfg.training.seed) == (2, 8, 3)

    def test_equal_radii_accepted(self):
        cfg = config_from_dict({"geometry": {"R_co": 0.0049},
                                "channel": {"R_co": 0.0049}})
        assert cfg.channel.R_co == cfg.geometry.R_co == 0.0049

    def test_to_dict_is_json_serializable(self):
        json.dumps(TwinConfig().to_dict())

    def test_committed_sweep_config_only_reduces_the_mesh(self):
        path = Path(__file__).parents[1] / "configs" / "sweep_reduced_mesh.json"
        cfg = load_config(path)
        assert cfg.mesh == MeshConfig(nr_fuel=6, nr_clad=3, nz=40)
        assert dataclasses.replace(cfg, mesh=MeshConfig()) == TwinConfig()
