"""Rod-channel coupling, sensor extraction, rosters and dataset assembly."""

import numpy as np
import pytest

from rodtwin.config import MeshConfig, SensorConfig, TwinConfig
from rodtwin.core import (ChannelBoundary, HeatSource, RodGeometry,
                          integrated_rod_power)
from rodtwin import conduction
from rodtwin.errors import ConfigurationError, DomainError, SolverError
from rodtwin.pipeline import (CaseSpec, burnup_sweep, couple_rod_channel,
                              extract_sensors, generate_dataset, roster_specs)

GEOM = RodGeometry()
BC = ChannelBoundary()


class TestCaseSpec:
    def test_valid_specs(self):
        CaseSpec(case_id="a", q0=20e3, burnup=10.0, split="train")
        CaseSpec(case_id="b", q0=0.0, burnup=0.0, split="test")  # unpowered

    def test_bad_split_rejected(self):
        with pytest.raises(ConfigurationError):
            CaseSpec(case_id="a", q0=20e3, burnup=0.0, split="holdout")

    def test_out_of_band_power_rejected(self):
        with pytest.raises(ConfigurationError):
            CaseSpec(case_id="a", q0=2e3, burnup=0.0, split="train")
        with pytest.raises(ConfigurationError):
            CaseSpec(case_id="a", q0=50e3, burnup=0.0, split="train")

    def test_negative_burnup_rejected(self):
        with pytest.raises(ConfigurationError):
            CaseSpec(case_id="a", q0=20e3, burnup=-1.0, split="train")


class TestCoupling:
    def test_zero_power_fixed_point(self, cfg_coarse):
        spec = CaseSpec(case_id="z", q0=0.0, burnup=0.0, split="test")
        sol = couple_rod_channel(spec, cfg_coarse)
        assert sol.iterations <= 2
        assert np.abs(sol.field.flatten() - BC.T_in).max() < 1e-6
        assert np.abs(sol.channel.T_cool - BC.T_in).max() < 1e-6

    def test_outlet_matches_energy_balance(self, coupled20):
        from conftest import outlet_from_energy_balance
        power = integrated_rod_power(HeatSource(q0=20e3), GEOM)
        T_out = float(coupled20.channel.T_cool[-1])
        expected = outlet_from_energy_balance(power, BC)
        assert T_out - BC.T_in == pytest.approx(expected - BC.T_in, rel=5e-3)

    def test_converged_residual_below_tolerance(self, coupled20):
        assert coupled20.residual < 0.1
        assert coupled20.iterations <= 50

    def test_residual_trace_decreases(self, coupled20):
        trace = np.asarray(coupled20.residual_trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace[2:]) < 0.0)

    # the corners of the admissible q0 band on the nominal and the reduced
    # mesh: the coolant re-marched from each sweep's wall flux still gives a
    # strictly shrinking max |dT|; at 45 kW/m with burnup the fuel passes
    # 3000 K, where its conductivity is undefined
    @pytest.mark.parametrize("burnup", [0.0, 30.0, 80.0])
    @pytest.mark.parametrize("q0", [5e3, 12e3, 30e3, 45e3])
    @pytest.mark.parametrize("mesh", [MeshConfig(), MeshConfig(6, 3, 40)],
                             ids=["nominal", "reduced"])
    def test_corner_traces_decrease(self, mesh, q0, burnup):
        spec = CaseSpec(case_id="c", q0=q0, burnup=burnup, split="test")
        cfg = TwinConfig(mesh=mesh)
        if q0 == 45e3 and burnup > 0.0:
            with pytest.raises(DomainError, match="valid 300-3000 K"):
                couple_rod_channel(spec, cfg)
            return
        sol = couple_rod_channel(spec, cfg)
        assert sol.iterations < conduction.PICARD_MAX_ITER
        assert np.all(np.diff(sol.residual_trace) < 0.0)

    def test_one_loop_counts(self, coupled20):
        assert coupled20.iterations == len(coupled20.residual_trace)
        assert coupled20.residual == coupled20.residual_trace[-1] < 0.01

    def test_non_convergence_raises(self, cfg_coarse, monkeypatch):
        monkeypatch.setattr(conduction, "PICARD_MAX_ITER", 2)
        spec = CaseSpec(case_id="c20", q0=20e3, burnup=0.0, split="test")
        with pytest.raises(SolverError) as exc:
            couple_rod_channel(spec, cfg_coarse)
        assert len(exc.value.residuals) == 2
        with pytest.raises(SolverError, match="case 'c20' failed") as exc:
            generate_dataset([spec], cfg_coarse)
        assert len(exc.value.residuals) == 2


class TestSensors:
    def test_zero_eta_zeroes_the_surrogate(self, coupled20):
        z = np.array([0.2, 0.4, 0.6, 0.8]) * GEOM.L_fr
        s = extract_sensors(coupled20, z, eta=0.0)
        assert np.all(s.dhat == 0.0)

    def test_surrogate_definition(self, coupled20):
        z = np.array([0.2, 0.4, 0.6, 0.8]) * GEOM.L_fr
        s = extract_sensors(coupled20, z, eta=1.5)
        np.testing.assert_allclose(s.dhat, -1.5 * (s.T - s.T_inf), rtol=1e-12)

    def test_inlet_policy_uses_inlet_everywhere(self, coupled20):
        z = np.array([0.3, 0.7]) * GEOM.L_fr
        s = extract_sensors(coupled20, z, eta=1.0, tinf_policy="inlet")
        assert np.all(s.T_inf == coupled20.channel.T_cool[0])

    def test_local_policy_tracks_the_coolant(self, coupled20):
        z = np.array([0.3, 0.7]) * GEOM.L_fr
        s = extract_sensors(coupled20, z, eta=1.0, tinf_policy="local")
        assert s.T_inf[1] > s.T_inf[0]

    def test_weights_partition_the_heated_span(self, coupled20):
        z = np.array([0.2, 0.4, 0.6, 0.8]) * GEOM.L_fr
        s = extract_sensors(coupled20, z, eta=1.0)
        assert s.w.sum() == pytest.approx(GEOM.L_f, rel=1e-12)
        assert np.all(s.w > 0.0)

    def test_sensors_sit_on_the_outer_surface(self, coupled20):
        z = np.array([0.2, 0.8]) * GEOM.L_fr
        s = extract_sensors(coupled20, z, eta=1.0)
        assert np.all(s.r == GEOM.R_co)

    def test_off_rod_elevation_rejected(self, coupled20):
        with pytest.raises(DomainError):
            extract_sensors(coupled20, np.array([0.5, 4.5]), eta=1.0)

    def test_single_sensor_rejected(self, coupled20):
        with pytest.raises(DomainError):
            extract_sensors(coupled20, np.array([1.0]), eta=1.0)


class TestRoster:
    def test_default_roster_counts(self):
        cfg = TwinConfig()
        specs = roster_specs(cfg)
        by_split = {}
        for s in specs:
            by_split.setdefault(s.split, []).append(s.q0)
        assert len(by_split["train"]) == 8
        assert len(by_split["validate"]) == 2
        assert len(by_split["test"]) == 1
        assert by_split["test"] == [20e3]

    def test_dedupe_flag_drops_shared_validation_power(self):
        cfg = TwinConfig(dedupe_validation=True)
        specs = roster_specs(cfg)
        val = [s.q0 for s in specs if s.split == "validate"]
        assert val == [14e3]

    def test_split_disjointness(self):
        specs = roster_specs(TwinConfig())
        ids = [s.case_id for s in specs]
        assert len(set(ids)) == len(ids)


class TestDataset:
    def test_sample_count_equals_node_count(self, dataset_tiny, cfg_tiny):
        from rodtwin.io import mesh_from_config
        mesh = mesh_from_config(cfg_tiny)
        for c in dataset_tiny.cases:
            assert c.T.size == mesh.n_nodes
            assert c.r.size == c.z.size == c.T.size

    def test_training_temperatures_normalize_into_band(self, dataset_tiny):
        norm = dataset_tiny.norm
        for c in dataset_tiny.split("train"):
            t = norm.norm_T(c.T)
            assert t.min() >= -1.0 - 1e-12
            assert t.max() <= 1.0 + 1e-12

    def test_splits_are_disjoint_and_complete(self, dataset_tiny):
        ids = [c.spec.case_id for c in dataset_tiny.cases]
        assert len(set(ids)) == len(ids)
        total = sum(len(dataset_tiny.split(s))
                    for s in ("train", "validate", "test"))
        assert total == len(dataset_tiny.cases)

    def test_empty_roster_rejected(self, cfg_tiny):
        with pytest.raises(ConfigurationError):
            generate_dataset([], cfg_tiny)

    def test_missing_test_split_rejected(self, cfg_tiny):
        specs = [CaseSpec(case_id="a", q0=20e3, burnup=0.0, split="train")]
        with pytest.raises(ConfigurationError):
            generate_dataset(specs, cfg_tiny)

    def test_duplicate_ids_rejected(self, cfg_tiny):
        specs = [CaseSpec(case_id="a", q0=20e3, burnup=0.0, split="train"),
                 CaseSpec(case_id="a", q0=22e3, burnup=0.0, split="test")]
        with pytest.raises(ConfigurationError):
            generate_dataset(specs, cfg_tiny)

    def test_unknown_split_lookup_rejected(self, dataset_tiny):
        with pytest.raises(ConfigurationError):
            dataset_tiny.split("holdout")


class TestSharedMesh:
    def test_every_case_shares_the_config_mesh(self, dataset_tiny, cfg_tiny):
        from rodtwin.mesh import mesh_from_config
        mesh = mesh_from_config(cfg_tiny)
        r, z, region = mesh.node_table()
        for c in dataset_tiny.cases:
            assert c.solution.field.mesh is mesh
            assert c.r is r and c.z is z and c.region is region

    def test_couplings_of_one_config_share_the_mesh(self, cfg_tiny):
        spec = CaseSpec(case_id="a", q0=20e3, burnup=0.0, split="test")
        a = couple_rod_channel(spec, cfg_tiny)
        b = couple_rod_channel(spec, TwinConfig(mesh=MeshConfig(4, 2, 12)))
        assert a.field.mesh is b.field.mesh

    def test_sweep_builds_one_face_table(self):
        conduction._face_table.cache_clear()
        cfg = TwinConfig(mesh=MeshConfig(nr_fuel=4, nr_clad=2, nz=12))
        ds = burnup_sweep(10, (2.4, 59.7), 7, cfg)
        assert len(ds.cases) == 10
        info = conduction._face_table.cache_info()
        assert (info.misses, info.hits) == (1, 9)


class TestBurnupSweep:
    def test_split_proportions(self, cfg_tiny):
        ds = burnup_sweep(10, (2.4, 59.7), 7, cfg_tiny)
        assert len(ds.split("train")) == 6
        assert len(ds.split("validate")) == 2
        assert len(ds.split("test")) == 2

    def test_same_seed_reproduces_assignment(self, cfg_tiny):
        a = burnup_sweep(10, (2.4, 59.7), 3, cfg_tiny)
        b = burnup_sweep(10, (2.4, 59.7), 3, cfg_tiny)
        for ca, cb in zip(a.cases, b.cases):
            assert ca.spec == cb.spec
            np.testing.assert_array_equal(ca.T, cb.T)

    def test_too_few_cases_rejected(self, cfg_tiny):
        with pytest.raises(ConfigurationError):
            burnup_sweep(5, (2.4, 59.7), 0, cfg_tiny)

    def test_bad_range_rejected(self, cfg_tiny):
        with pytest.raises(ConfigurationError):
            burnup_sweep(10, (10.0, 10.0), 0, cfg_tiny)

    def test_burnup_raises_centerline_temperature(self, cfg_tiny):
        hot = couple_rod_channel(
            CaseSpec(case_id="h", q0=20e3, burnup=50.0, split="test"), cfg_tiny)
        cold = couple_rod_channel(
            CaseSpec(case_id="c", q0=20e3, burnup=0.0, split="test"), cfg_tiny)
        assert hot.field.T_fuel.max() > cold.field.T_fuel.max()
