"""Axisymmetric conduction solver against closed-form radial solutions."""

import numpy as np
import pytest

from rodtwin.channel import uniform_channel_state
from rodtwin.conduction import (VolumetricSource, assemble_and_solve_conduction,
                                wall_heat_flux)
from rodtwin.core import (ChannelBoundary, HeatSource, MaterialParams,
                          RodGeometry, integrated_rod_power)
from rodtwin.mesh import build_rod_mesh

GEOM = RodGeometry()
BC = ChannelBoundary()
MAT = MaterialParams()
QP = 20e3  # linear heat rate used by the closed-form checks [W/m]


def _uniform_source(mesh):
    return VolumetricSource(qppp=np.full(mesh.nz_fuel, QP / (np.pi * GEOM.R_fo ** 2)))


def _solve(mesh, m, src=None):
    coolant = uniform_channel_state(mesh.z, BC)
    src = src if src is not None else _uniform_source(mesh)
    return assemble_and_solve_conduction(mesh, m, src, coolant)


class TestAnalyticChecks:
    def test_fuel_radial_parabola(self):
        # frozen k = 3: centerline-to-surface drop is q' / (4 pi k)
        m = MaterialParams(fuel_k_A=1.0 / 3.0, fuel_k_B=0.0)
        mesh = build_rod_mesh(GEOM, nr_fuel=64, nz=20, nr_clad=3)
        field = _solve(mesh, m)
        j = mesh.nz_fuel // 2
        dT = field.T_fuel[j, 0] - field.T_fuel[j, -1]
        assert dT == pytest.approx(QP / (4.0 * np.pi * 3.0), rel=0.01)

    def test_clad_annulus_logarithm(self):
        # frozen k = 17: annulus drop is q' ln(R_co/R_ci) / (2 pi k)
        m = MaterialParams(clad_k_a=17.0, clad_k_b=0.0)
        mesh = build_rod_mesh(GEOM, nr_fuel=5, nz=20, nr_clad=8)
        field = _solve(mesh, m)
        j = mesh.jf0 + mesh.nz_fuel // 2
        dT = field.T_clad[j, 0] - field.T_clad[j, -1]
        expected = QP * np.log(GEOM.R_co / GEOM.R_ci) / (2.0 * np.pi * 17.0)
        assert expected == pytest.approx(24.0, abs=0.1)
        assert dT == pytest.approx(expected, rel=0.01)

    def test_clad_mesh_convergence_order(self):
        # nested radial refinements of the annulus check
        m = MaterialParams(clad_k_a=17.0, clad_k_b=0.0)
        expected = QP * np.log(GEOM.R_co / GEOM.R_ci) / (2.0 * np.pi * 17.0)
        errs = []
        for nrc in (4, 8, 16):
            mesh = build_rod_mesh(GEOM, nr_fuel=5, nz=20, nr_clad=nrc)
            field = _solve(mesh, m)
            j = mesh.jf0 + mesh.nz_fuel // 2
            dT = field.T_clad[j, 0] - field.T_clad[j, -1]
            errs.append(abs(dT - expected))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders >= 1.8)


class TestDegenerateAndInvariants:
    def test_zero_source_relaxes_to_coolant(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=6, nz=40, nr_clad=3)
        src = VolumetricSource(qppp=np.zeros(mesh.nz_fuel))
        field = _solve(mesh, MAT, src)
        assert np.abs(field.T_fuel - BC.T_in).max() < 1e-6
        assert np.abs(field.T_clad - BC.T_in).max() < 1e-6

    def test_picard_converges_and_reports(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=6, nz=30, nr_clad=3)
        src = VolumetricSource.from_heat_source(HeatSource(q0=20e3), GEOM, mesh)
        field = _solve(mesh, MAT, src)
        assert field.picard_iterations == len(field.picard_residuals)
        assert field.picard_residuals[-1] < 0.01

    def test_maximum_inside_fuel(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=6, nz=30, nr_clad=3)
        src = VolumetricSource.from_heat_source(HeatSource(q0=20e3), GEOM, mesh)
        field = _solve(mesh, MAT, src)
        assert field.max_fuel_T() > field.T_clad.max()
        assert field.flatten().min() >= BC.T_in - 1.0

    def test_monotone_radial_profile_in_fuel(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=8, nz=30, nr_clad=3)
        src = VolumetricSource.from_heat_source(HeatSource(q0=20e3), GEOM, mesh)
        field = _solve(mesh, MAT, src)
        assert np.all(np.diff(field.T_fuel, axis=1) <= 0.0)


class TestWallFlux:
    def test_zero_source_gives_zero_flux(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=5, nz=20, nr_clad=3)
        coolant = uniform_channel_state(mesh.z, BC)
        src = VolumetricSource(qppp=np.zeros(mesh.nz_fuel))
        field = assemble_and_solve_conduction(mesh, MAT, src, coolant)
        assert np.abs(wall_heat_flux(field, coolant)).max() < 1e-3

    def test_flux_nonnegative_for_heated_rod(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=6, nz=30, nr_clad=3)
        coolant = uniform_channel_state(mesh.z, BC)
        src = VolumetricSource.from_heat_source(HeatSource(q0=20e3), GEOM, mesh)
        field = assemble_and_solve_conduction(mesh, MAT, src, coolant)
        assert np.all(wall_heat_flux(field, coolant) >= -1e-9)

    def test_energy_closure(self):
        src_law = HeatSource(q0=20e3)
        mesh = build_rod_mesh(GEOM, nr_fuel=11, nz=100, nr_clad=4)
        coolant = uniform_channel_state(mesh.z, BC)
        src = VolumetricSource.from_heat_source(src_law, GEOM, mesh)
        field = assemble_and_solve_conduction(mesh, MAT, src, coolant)
        q = wall_heat_flux(field, coolant)
        out = np.trapezoid(q * 2.0 * np.pi * GEOM.R_co, mesh.z)
        assert out == pytest.approx(integrated_rod_power(src_law, GEOM), rel=0.01)
        # tighter balance against the discrete source actually injected
        injected = float(np.sum(src.qppp * np.pi * GEOM.R_fo ** 2
                                * _cv_heights(mesh.z_fuel)))
        assert out == pytest.approx(injected, rel=0.005)


def _cv_heights(z):
    w = np.empty_like(z)
    w[1:-1] = 0.5 * (z[2:] - z[:-2])
    w[0] = 0.5 * (z[1] - z[0])
    w[-1] = 0.5 * (z[-1] - z[-2])
    return w
