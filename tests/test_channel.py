"""Coolant channel solver: HTC and friction correlations, energy and pressure
marches."""

import numpy as np
import pytest

from rodtwin.channel import (cheng_todreas_friction, dittus_boelter_htc,
                             solve_channel, uniform_channel_state)
from rodtwin.core import (ChannelBoundary, HeatSource, RodGeometry, WaterProps,
                          integrated_rod_power, linear_heat_rate,
                          water_properties)
from rodtwin.errors import CorrelationRangeError, SolverError

GEOM = RodGeometry()
BC = ChannelBoundary()

# hand evaluation of 0.023 Re^0.8 Pr^0.4 k/D_h at inlet properties and the
# default mass flux / subchannel geometry
H_NOMINAL = 34669.7892419974


def _props(mu, cp, k):
    return WaterProps(rho=700.0, cp=cp, mu=mu, k=k, Pr=mu * cp / k)


class TestDittusBoelter:
    def test_unit_prandtl_round_numbers(self):
        # Re = 1e5, Pr = 1, k/D_h = 100 -> h = 0.023 * 1e4 * 100 = 23000
        props = _props(mu=1e-5, cp=1e7, k=100.0)
        h = dittus_boelter_htc(props, G=1.0, D_h=1.0)
        assert h == pytest.approx(23000.0, rel=1e-12)

    def test_mass_flux_power_law(self):
        props = water_properties(600.0)
        h1 = dittus_boelter_htc(props, BC.G, BC.D_h)
        h2 = dittus_boelter_htc(props, 2.0 * BC.G, BC.D_h)
        assert h2 / h1 == pytest.approx(2.0 ** 0.8, rel=1e-12)

    def test_nominal_value_frozen(self):
        h = dittus_boelter_htc(water_properties(BC.T_in), BC.G, BC.D_h)
        assert h == pytest.approx(H_NOMINAL, rel=1e-9)
        assert 3e4 < h < 4e4

    def test_laminar_rejected(self):
        props = _props(mu=1e-2, cp=4000.0, k=0.5)
        with pytest.raises(CorrelationRangeError):
            dittus_boelter_htc(props, G=1.0, D_h=1.0)

    def test_low_prandtl_rejected(self):
        props = _props(mu=1e-5, cp=1e3, k=0.5)  # Pr = 0.02
        with pytest.raises(CorrelationRangeError):
            dittus_boelter_htc(props, G=10.0, D_h=1.0)

    def test_array_matches_scalar_calls(self):
        T = np.linspace(570.0, 620.0, 41)
        h = dittus_boelter_htc(water_properties(T), BC.G, BC.D_h)
        ref = [dittus_boelter_htc(water_properties(float(t)), BC.G, BC.D_h)
               for t in T]
        # array ** may differ from scalar ** in the last ulp
        np.testing.assert_allclose(h, ref, rtol=4e-16, atol=0.0)

    def test_array_with_one_laminar_point_rejected(self):
        mu = np.full(5, 1e-5)
        mu[2] = 1e-2
        with pytest.raises(CorrelationRangeError):
            dittus_boelter_htc(_props(mu=mu, cp=4000.0, k=0.5), G=1.0, D_h=1.0)


class TestChengTodreas:
    def test_reynolds_power_law(self):
        f1 = cheng_todreas_friction(1e5, 1.326)
        f2 = cheng_todreas_friction(1e6, 1.326)
        assert f2 / f1 == pytest.approx(10.0 ** -0.18, rel=1e-12)

    def test_frozen_value_at_default_geometry(self):
        # P/D for the 12.6 mm pitch over the 9.5012 mm rod diameter
        p2d = 0.0126 / (2.0 * GEOM.R_co)
        assert p2d == pytest.approx(1.3261482760072412, rel=1e-12)
        f = cheng_todreas_friction(5e5, p2d)
        assert f == pytest.approx(0.014406436797245046, rel=1e-9)

    def test_continuity_in_reynolds(self):
        assert abs(cheng_todreas_friction(1e5, 1.326)
                   - cheng_todreas_friction(1e5 + 1.0, 1.326)) < 1e-6

    def test_array_matches_scalar_calls(self):
        Re = np.geomspace(2e4, 2e6, 33)
        ref = [cheng_todreas_friction(float(x), 1.326) for x in Re]
        np.testing.assert_allclose(cheng_todreas_friction(Re, 1.326), ref,
                                   rtol=4e-16, atol=0.0)
        with pytest.raises(CorrelationRangeError):
            cheng_todreas_friction(np.array([1e5, 5e3, 1e6]), 1.326)

    def test_out_of_range_rejected(self):
        with pytest.raises(CorrelationRangeError):
            cheng_todreas_friction(5e3, 1.326)
        with pytest.raises(CorrelationRangeError):
            cheng_todreas_friction(1e5, 1.6)
        with pytest.raises(CorrelationRangeError):
            cheng_todreas_friction(1e5, 1.0)


class TestSolveChannel:
    def test_adiabatic_channel_stays_at_inlet(self):
        z = np.linspace(0.0, GEOM.L_fr, 60)
        st = solve_channel(z, np.zeros_like(z), BC)
        assert np.all(st.T_cool == BC.T_in)

    def test_uniform_power_closure(self):
        from conftest import outlet_from_energy_balance
        # uniform wall flux carrying 50 kW total
        z = np.linspace(0.0, GEOM.L_fr, 400)
        area = BC.heated_perimeter * GEOM.L_fr
        q = np.full_like(z, 50e3 / area)
        st = solve_channel(z, q, BC)
        expected = outlet_from_energy_balance(50e3, BC) - BC.T_in
        assert st.T_cool[-1] - BC.T_in == pytest.approx(expected, rel=5e-3)

    def test_sinusoidal_power_closure(self):
        from conftest import outlet_from_energy_balance
        src = HeatSource(q0=20e3)
        z = np.linspace(0.0, GEOM.L_fr, 400)
        q = linear_heat_rate(z, src, GEOM) / BC.heated_perimeter
        st = solve_channel(z, q, BC)
        power = integrated_rod_power(src, GEOM)
        expected = outlet_from_energy_balance(power, BC) - BC.T_in
        assert st.T_cool[-1] - BC.T_in == pytest.approx(expected, rel=5e-3)

    def test_energy_conservation(self):
        src = HeatSource(q0=30e3)
        z = np.linspace(0.0, GEOM.L_fr, 300)
        q = linear_heat_rate(z, src, GEOM) / BC.heated_perimeter
        st = solve_channel(z, q, BC)
        # enthalpy rise from local cp along the march
        dh = 0.0
        for j in range(z.size - 1):
            cp = water_properties(float(st.T_cool[j])).cp
            dh += cp * (st.T_cool[j + 1] - st.T_cool[j])
        power = integrated_rod_power(src, GEOM)
        assert BC.G * BC.flow_area * dh == pytest.approx(power, rel=5e-3)

    @pytest.mark.parametrize("q0", [10e3, 36e3])
    def test_matches_ode_reference(self, q0):
        # G A cp(T) dT/dz = q(z) P_h, q linear between the nodes, integrated
        # to a tolerance far below the one asserted
        from scipy.integrate import solve_ivp
        z = np.linspace(0.0, GEOM.L_fr, 100)
        q = linear_heat_rate(z, HeatSource(q0=q0), GEOM) / BC.heated_perimeter
        GA = BC.G * BC.flow_area

        def rhs(x, T):
            flux = np.interp(x, z, q) * BC.heated_perimeter
            return [flux / (GA * water_properties(float(T[0])).cp)]

        ref = solve_ivp(rhs, (z[0], z[-1]), [BC.T_in], t_eval=z, method="DOP853",
                        rtol=1e-11, atol=1e-9, max_step=z[1] - z[0])
        assert ref.success
        np.testing.assert_allclose(solve_channel(z, q, BC).T_cool, ref.y[0],
                                   rtol=0.0, atol=1e-5)

    def test_refinement_order_at_least_one(self):
        # smooth full-length sine flux; the rod profile itself is
        # discontinuous at the fuel ends, which would mask the march order
        flux = 48.5e3 / (BC.heated_perimeter * GEOM.L_fr)
        outs = []
        for n in (61, 121, 241):
            z = np.linspace(0.0, GEOM.L_fr, n)
            q = flux * np.sin(np.pi * z / GEOM.L_fr)
            outs.append(solve_channel(z, q, BC).T_cool[-1])
        order = np.log2(abs(outs[0] - outs[1]) / abs(outs[1] - outs[2]))
        assert order >= 1.0

    def test_pressure_march(self):
        src = HeatSource(q0=20e3)
        z = np.linspace(0.0, GEOM.L_fr, 120)
        q = linear_heat_rate(z, src, GEOM) / BC.heated_perimeter
        st = solve_channel(z, q, BC)
        assert st.P[-1] == BC.P_out
        assert np.all(np.diff(st.P) < 0.0)
        # inlet head is dominated by gravity plus a friction contribution
        assert 4e4 < st.P[0] - st.P[-1] < 1e5

    def test_pressure_march_sums_downward(self):
        src = HeatSource(q0=25e3)
        z = np.linspace(0.0, GEOM.L_fr, 90)
        st = solve_channel(z, linear_heat_rate(z, src, GEOM) / BC.heated_perimeter, BC)
        # the node-by-node march from the outlet, in the same summation order
        p2d = BC.pitch / (2.0 * BC.R_co)
        rho = BC.G / st.U
        P = np.empty(z.size)
        P[-1] = BC.P_out
        for j in range(z.size - 2, -1, -1):
            rho_m = 0.5 * (rho[j] + rho[j + 1])
            f = cheng_todreas_friction(0.5 * (st.Re[j] + st.Re[j + 1]), p2d)
            P[j] = P[j + 1] + (f * BC.G ** 2 / (2.0 * rho_m * BC.D_h)
                               + rho_m * 9.80665) * (z[j + 1] - z[j])
        np.testing.assert_allclose(st.P, P, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("n, flux, node", [(50, 3e6, 17), (30, 2e7, 2)])
    def test_table_exit_names_the_node(self, n, flux, node):
        # the error names the first node whose enthalpy lies past the
        # table's top, not the last node still on it
        z = np.linspace(0.0, GEOM.L_fr, n)
        with pytest.raises(SolverError) as exc:
            solve_channel(z, np.full_like(z, flux), BC)
        assert exc.value.z == z[node]

    def test_monotone_heating(self):
        src = HeatSource(q0=20e3)
        z = np.linspace(0.0, GEOM.L_fr, 120)
        q = linear_heat_rate(z, src, GEOM) / BC.heated_perimeter
        st = solve_channel(z, q, BC)
        assert np.all(np.diff(st.T_cool) >= 0.0)
        assert np.all(st.h > 0.0)

    def test_table_escape_reports_elevation(self):
        z = np.linspace(0.0, GEOM.L_fr, 60)
        q = np.full_like(z, 5e6)  # absurd flux drives the coolant off-table
        with pytest.raises(SolverError) as exc:
            solve_channel(z, q, BC)
        assert exc.value.z is not None

    def test_uniform_state_helper(self):
        z = np.linspace(0.0, GEOM.L_fr, 30)
        st = uniform_channel_state(z, BC)
        assert np.all(st.T_cool == BC.T_in)
        assert np.all(st.h > 0.0)
