"""Domain types, correlations, water table, heat-source law and mesh lattice."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rodtwin.core import (ChannelBoundary, HeatSource, MaterialParams,
                          RodGeometry, WATER_H_MAX, WATER_T_MAX, WATER_T_MIN,
                          clad_conductivity, fuel_conductivity,
                          integrated_rod_power, linear_heat_rate,
                          water_enthalpy, water_properties, water_temperature)
from rodtwin.errors import ConfigurationError, DomainError
from rodtwin.mesh import CLAD, FUEL, build_rod_mesh

GEOM = RodGeometry()
MAT = MaterialParams()


class TestGeometry:
    def test_defaults_are_consistent(self):
        assert GEOM.R_fo < GEOM.R_ci < GEOM.R_co
        assert GEOM.z_pt == pytest.approx(GEOM.z_pb + GEOM.L_f)

    def test_bad_radius_ordering_rejected(self):
        with pytest.raises(ConfigurationError):
            RodGeometry(R_fo=0.005, R_ci=0.0041786)

    def test_fuel_longer_than_rod_rejected(self):
        with pytest.raises(ConfigurationError):
            RodGeometry(L_f=4.0, L_fr=3.876)

    def test_z_pb_incompatible_with_lengths_rejected(self):
        with pytest.raises(ConfigurationError):
            RodGeometry(z_pb=0.5)


class TestChannelBoundary:
    def test_derived_flow_area_and_dh(self):
        bc = ChannelBoundary()
        area = bc.pitch ** 2 - np.pi * bc.R_co ** 2
        assert bc.flow_area == pytest.approx(area, rel=1e-12)
        assert bc.D_h == pytest.approx(4.0 * area / (2.0 * np.pi * bc.R_co),
                                       rel=1e-12)

    def test_inconsistent_flow_area_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelBoundary(flow_area=1e-4)

    def test_tight_pitch_rejected(self):
        with pytest.raises(ConfigurationError):
            ChannelBoundary(pitch=0.008)


class TestLinearHeatRate:
    def test_midplane_is_the_peak(self):
        src = HeatSource(q0=20e3)
        z_mid = GEOM.z_pb + 0.5 * GEOM.L_f
        assert linear_heat_rate(z_mid, src, GEOM) == pytest.approx(20e3, rel=1e-12)

    def test_zero_amplitude_gives_zero(self):
        src = HeatSource(q0=0.0)
        for z in (0.0, GEOM.z_pb, GEOM.z_pb + 1.0, GEOM.L_fr):
            assert linear_heat_rate(z, src, GEOM) == 0.0

    def test_zero_outside_fuel_span(self):
        src = HeatSource(q0=20e3)
        assert linear_heat_rate(0.05, src, GEOM) == 0.0
        assert linear_heat_rate(GEOM.L_fr, src, GEOM) == 0.0

    def test_nonzero_at_fuel_ends(self):
        # the extrapolation length keeps the sine positive at both fuel ends
        src = HeatSource(q0=20e3)
        assert linear_heat_rate(GEOM.z_pb, src, GEOM) > 0.0
        assert linear_heat_rate(GEOM.z_pt, src, GEOM) > 0.0

    def test_outside_rod_raises(self):
        src = HeatSource(q0=20e3)
        with pytest.raises(DomainError):
            linear_heat_rate(-0.01, src, GEOM)
        with pytest.raises(DomainError):
            linear_heat_rate(GEOM.L_fr + 0.01, src, GEOM)

    def test_integral_matches_trapezoid_quadrature(self):
        src = HeatSource(q0=20e3, delta_e=0.08)
        z = np.linspace(GEOM.z_pb, GEOM.z_pt, 100000)
        quad = np.trapezoid(linear_heat_rate(z, src, GEOM), z)
        assert integrated_rod_power(src, GEOM) == pytest.approx(quad, rel=1e-6)

    def test_scan_maximum_equals_amplitude(self):
        src = HeatSource(q0=20e3)
        z = np.linspace(0.0, GEOM.L_fr, 10000)
        assert linear_heat_rate(z, src, GEOM).max() == pytest.approx(20e3,
                                                                     rel=1e-6)

    def test_never_negative_in_fuel_span(self):
        src = HeatSource(q0=20e3)
        z = np.linspace(GEOM.z_pb, GEOM.z_pt, 5000)
        assert np.all(linear_heat_rate(z, src, GEOM) >= 0.0)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ConfigurationError):
            HeatSource(q0=-1.0)


class TestFuelConductivity:
    def test_reference_value_at_1000K(self):
        # 1 / (0.0452 + 2.46e-4 * 1000)
        assert fuel_conductivity(1000.0, 0.0, MAT) == pytest.approx(
            1.0 / (0.0452 + 0.246), rel=1e-12)

    def test_burnup_degrades_conductivity(self):
        assert fuel_conductivity(1000.0, 30.0, MAT) < fuel_conductivity(1000.0, 0.0, MAT)

    def test_decreasing_in_temperature(self):
        assert fuel_conductivity(500.0, 0.0, MAT) > fuel_conductivity(1500.0, 0.0, MAT)

    def test_out_of_range_raises(self):
        with pytest.raises(DomainError):
            fuel_conductivity(200.0, 0.0, MAT)
        with pytest.raises(DomainError):
            fuel_conductivity(3500.0, 0.0, MAT)
        with pytest.raises(DomainError):
            fuel_conductivity(1000.0, -1.0, MAT)

    @given(T=st.floats(500.0, 2000.0), bu=st.floats(0.0, 60.0))
    @settings(max_examples=50, deadline=None)
    def test_positive_and_deterministic(self, T, bu):
        k1 = fuel_conductivity(T, bu, MAT)
        k2 = fuel_conductivity(T, bu, MAT)
        assert k1 > 0.0
        assert k1 == k2


class TestCladConductivity:
    def test_reference_value_at_600K(self):
        assert clad_conductivity(600.0, MAT) == pytest.approx(12.6 + 0.0118 * 600,
                                                              rel=1e-12)

    def test_zero_slope_is_constant(self):
        m = MaterialParams(clad_k_b=0.0)
        assert clad_conductivity(300.0, m) == clad_conductivity(1200.0, m)

    def test_increasing_in_temperature(self):
        assert clad_conductivity(650.0, MAT) > clad_conductivity(300.0, MAT)

    def test_out_of_range_raises(self):
        with pytest.raises(DomainError):
            clad_conductivity(200.0, MAT)


class TestWaterProperties:
    def test_node_identity(self):
        w = water_properties(560.0)
        assert w.rho == 743.0
        assert w.cp == 5310.0
        assert w.mu == 9.5e-5
        assert w.k == 0.582

    def test_midpoint_is_arithmetic_mean(self):
        a = water_properties(580.0)
        b = water_properties(585.0)
        m = water_properties(582.5)
        assert m.rho == pytest.approx(0.5 * (a.rho + b.rho), rel=1e-12)
        assert m.cp == pytest.approx(0.5 * (a.cp + b.cp), rel=1e-12)
        assert m.mu == pytest.approx(0.5 * (a.mu + b.mu), rel=1e-12)
        assert m.k == pytest.approx(0.5 * (a.k + b.k), rel=1e-12)

    def test_prandtl_consistency(self):
        for T in np.arange(WATER_T_MIN, WATER_T_MAX + 2.5, 5.0):
            w = water_properties(float(T))
            assert abs(w.Pr - w.mu * w.cp / w.k) / w.Pr < 1e-9

    def test_outside_table_raises(self):
        with pytest.raises(DomainError):
            water_properties(WATER_T_MIN - 1.0)
        with pytest.raises(DomainError):
            water_properties(WATER_T_MAX + 1.0)

    def test_array_equals_scalar_calls(self):
        T = np.linspace(WATER_T_MIN, WATER_T_MAX, 57)
        w = water_properties(T)
        for f in ("rho", "cp", "mu", "k", "Pr"):
            assert getattr(w, f).shape == T.shape
            assert np.array_equal(getattr(w, f),
                                  [getattr(water_properties(float(t)), f)
                                   for t in T])
        assert type(water_properties(600.0).cp) is float

    @pytest.mark.parametrize("bad", [WATER_T_MIN - 1e-9, WATER_T_MAX + 1.0,
                                     np.nan])
    def test_array_with_one_point_outside_raises(self, bad):
        T = np.linspace(580.0, 600.0, 9)
        T[4] = bad
        with pytest.raises(DomainError):
            water_properties(T)

    @given(T=st.floats(WATER_T_MIN, WATER_T_MAX))
    @settings(max_examples=50, deadline=None)
    def test_interpolation_within_hull(self, T):
        lo = WATER_T_MIN + 5.0 * np.floor((T - WATER_T_MIN) / 5.0)
        hi = min(lo + 5.0, WATER_T_MAX)
        a, b, w = water_properties(lo), water_properties(hi), water_properties(T)
        for f in ("rho", "cp", "mu", "k"):
            va, vb, vw = getattr(a, f), getattr(b, f), getattr(w, f)
            assert min(va, vb) - 1e-12 <= vw <= max(va, vb) + 1e-12


class TestWaterEnthalpy:
    @given(T=st.floats(WATER_T_MIN, WATER_T_MAX))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, T):
        assert float(water_temperature(water_enthalpy(T))) == pytest.approx(
            T, abs=1e-9)

    def test_slope_is_table_cp(self):
        T = np.linspace(WATER_T_MIN + 0.01, WATER_T_MAX - 0.01, 41)
        dHdT = (water_enthalpy(T + 1e-4) - water_enthalpy(T - 1e-4)) / 2e-4
        np.testing.assert_allclose(dHdT, water_properties(T).cp, rtol=1e-7)

    def test_outside_table_raises(self):
        for T in (WATER_T_MIN - 1e-9, WATER_T_MAX + 1.0, np.nan):
            with pytest.raises(DomainError):
                water_enthalpy(np.array([580.0, T]))
        for H in (-1e-6, WATER_H_MAX + 1e-6, np.nan):
            with pytest.raises(DomainError):
                water_temperature(np.array([1e4, H]))


class TestMesh:
    def test_fuel_radial_span(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=11, nz=100, nr_clad=4)
        assert mesh.r_fuel[0] == 0.0
        assert mesh.r_fuel[-1] == pytest.approx(0.004096)
        assert mesh.r_clad[0] == pytest.approx(GEOM.R_ci)
        assert mesh.r_clad[-1] == pytest.approx(GEOM.R_co)

    def test_fuel_ends_land_on_nodes(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=5, nz=50, nr_clad=3)
        assert mesh.z[mesh.jf0] == pytest.approx(GEOM.z_pb, abs=1e-12)
        assert mesh.z[mesh.jf1] == pytest.approx(GEOM.z_pt, abs=1e-12)

    def test_minimal_axial_mesh(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=3, nz=10, nr_clad=2)
        assert mesh.nz == 10
        assert np.all(np.diff(mesh.z) > 0.0)
        assert mesh.z[0] == 0.0
        assert mesh.z[-1] == pytest.approx(GEOM.L_fr)

    def test_node_table_counts(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=4, nz=12, nr_clad=2)
        r, z, region = mesh.node_table()
        assert r.size == z.size == len(region) == mesh.n_nodes
        assert region.count(FUEL) == mesh.n_fuel_nodes
        assert region.count(CLAD) == mesh.n_clad_nodes

    def test_node_table_is_shared_and_read_only(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=4, nz=12, nr_clad=2)
        r, z, region = mesh.node_table()
        r2, z2, region2 = mesh.node_table()
        np.testing.assert_array_equal(r2, r)
        np.testing.assert_array_equal(z2, z)
        assert region2 == region
        for arr in (r, z):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        with pytest.raises(TypeError):
            region[0] = CLAD

    def test_too_small_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            build_rod_mesh(GEOM, nr_fuel=2)
        with pytest.raises(ConfigurationError):
            build_rod_mesh(GEOM, nz=5)
        with pytest.raises(ConfigurationError):
            build_rod_mesh(GEOM, nr_clad=1)
