"""Axisymmetric conduction solver against closed-form radial solutions."""

import numpy as np
import pytest

from rodtwin.channel import uniform_channel_state
from rodtwin.conduction import (_FaceTable, assemble_and_solve_conduction,
                                from_heat_source, wall_heat_flux)
from rodtwin.core import (ChannelBoundary, HeatSource, MaterialParams,
                          RodGeometry, integrated_rod_power)
from rodtwin.errors import SolverError
from rodtwin.mesh import build_rod_mesh

GEOM = RodGeometry()
BC = ChannelBoundary()
MAT = MaterialParams()
QP = 20e3  # linear heat rate used by the closed-form checks [W/m]


def _uniform_source(mesh):
    return np.full(mesh.nz_fuel, QP / (np.pi * GEOM.R_fo ** 2))


def _solve(mesh, m, src=None):
    coolant = uniform_channel_state(mesh.z, BC)
    src = src if src is not None else _uniform_source(mesh)
    return assemble_and_solve_conduction(mesh, m, src, coolant).field


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
        src = np.zeros(mesh.nz_fuel)
        field = _solve(mesh, MAT, src)
        assert np.abs(field.T_fuel - BC.T_in).max() < 1e-6
        assert np.abs(field.T_clad - BC.T_in).max() < 1e-6

    def test_picard_converges_and_reports(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=6, nz=30, nr_clad=3)
        src = from_heat_source(HeatSource(q0=20e3), mesh)
        coolant = uniform_channel_state(mesh.z, BC)
        sol = assemble_and_solve_conduction(mesh, MAT, src, coolant)
        assert sol.iterations == len(sol.residual_trace)
        assert sol.residual == sol.residual_trace[-1] < 0.01
        assert sol.channel is coolant

    def test_maximum_inside_fuel(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=6, nz=30, nr_clad=3)
        src = from_heat_source(HeatSource(q0=20e3), mesh)
        field = _solve(mesh, MAT, src)
        assert field.T_fuel.max() > field.T_clad.max()
        assert field.flatten().min() >= BC.T_in - 1.0

    def test_monotone_radial_profile_in_fuel(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=8, nz=30, nr_clad=3)
        src = from_heat_source(HeatSource(q0=20e3), mesh)
        field = _solve(mesh, MAT, src)
        assert np.all(np.diff(field.T_fuel, axis=1) <= 0.0)


def _dense_system(mesh, k, g_robin, h_gap):
    """The finite-volume matrix assembled node by node: each interior face
    of a region conducts with the harmonic-mean k of its two nodes over the
    face area / node distance; each fuel row's pellet surface node is linked
    to the cladding inner node of its row by h_gap over the gap mid-radius;
    each cladding outer node has its Robin conductance on the diagonal."""
    n = mesh.n_nodes
    A = np.zeros((n, n))

    def link(p, q, g):
        A[p, p] += g
        A[q, q] += g
        A[p, q] -= g
        A[q, p] -= g

    def cv(x, i):
        return 0.5 * (x[min(i + 1, x.size - 1)] - x[max(i - 1, 0)])

    def ring(r, i):
        lo = r[0] if i == 0 else 0.5 * (r[i - 1] + r[i])
        hi = r[-1] if i == r.size - 1 else 0.5 * (r[i] + r[i + 1])
        return np.pi * (hi ** 2 - lo ** 2)

    regions = [(mesh.r_fuel, mesh.z_fuel, 0),
               (mesh.r_clad, mesh.z, mesh.n_fuel_nodes)]
    for r, z, off in regions:
        for j in range(z.size):
            for i in range(r.size):
                p = off + j * r.size + i
                if i + 1 < r.size:
                    kf = 2.0 * k[p] * k[p + 1] / (k[p] + k[p + 1])
                    area = 2.0 * np.pi * 0.5 * (r[i] + r[i + 1]) * cv(z, j)
                    link(p, p + 1, kf * area / (r[i + 1] - r[i]))
                if j + 1 < z.size:
                    q = p + r.size
                    kf = 2.0 * k[p] * k[q] / (k[p] + k[q])
                    link(p, q, kf * ring(r, i) / (z[j + 1] - z[j]))
    r_gap = 0.5 * (mesh.geom.R_fo + mesh.geom.R_ci)
    for j in range(mesh.nz_fuel):
        p = j * mesh.nr_fuel + mesh.nr_fuel - 1
        q = mesh.n_fuel_nodes + (mesh.jf0 + j) * mesh.nr_clad
        link(p, q, h_gap * 2.0 * np.pi * r_gap * cv(mesh.z_fuel, j))
    for j in range(mesh.nz):
        p = mesh.n_fuel_nodes + j * mesh.nr_clad + mesh.nr_clad - 1
        A[p, p] += g_robin[j]
    return A


class TestBandedSolve:
    @pytest.mark.parametrize("counts", [(3, 10, 2), (5, 16, 3)])
    def test_matches_dense_solve(self, counts):
        nr_fuel, nz, nr_clad = counts
        mesh = build_rod_mesh(GEOM, nr_fuel=nr_fuel, nz=nz, nr_clad=nr_clad)
        rng = np.random.default_rng(nz)
        k = rng.uniform(2.0, 20.0, mesh.n_nodes)
        g_robin = rng.uniform(1.0, 50.0, mesh.nz)
        b = rng.uniform(-10.0, 100.0, mesh.n_nodes) + 600.0 * np.bincount(
            mesh.n_fuel_nodes + np.arange(mesh.nz) * mesh.nr_clad
            + mesh.nr_clad - 1, g_robin, mesh.n_nodes)
        faces = _FaceTable(mesh, MAT.h_gap)
        # axial-row node order: one row of fuel and cladding nodes per band
        assert faces.bw == nr_fuel + nr_clad
        T = faces.solve(k, g_robin, b)
        ref = np.linalg.solve(_dense_system(mesh, k, g_robin, MAT.h_gap), b)
        np.testing.assert_allclose(T, ref, rtol=0.0, atol=1e-9)

    def test_indefinite_system_raises(self):
        # a negative fuel conductivity makes the matrix indefinite, so the
        # Cholesky factorization fails
        mesh = build_rod_mesh(GEOM, nr_fuel=5, nz=20, nr_clad=3)
        with pytest.raises(SolverError, match="factorization failed"):
            _solve(mesh, MaterialParams(fuel_k_A=-1.0))


class TestWallFlux:
    def test_zero_source_gives_zero_flux(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=5, nz=20, nr_clad=3)
        coolant = uniform_channel_state(mesh.z, BC)
        src = np.zeros(mesh.nz_fuel)
        field = assemble_and_solve_conduction(mesh, MAT, src, coolant).field
        assert np.abs(wall_heat_flux(field, coolant)).max() < 1e-3

    def test_flux_nonnegative_for_heated_rod(self):
        mesh = build_rod_mesh(GEOM, nr_fuel=6, nz=30, nr_clad=3)
        coolant = uniform_channel_state(mesh.z, BC)
        src = from_heat_source(HeatSource(q0=20e3), mesh)
        field = assemble_and_solve_conduction(mesh, MAT, src, coolant).field
        assert np.all(wall_heat_flux(field, coolant) >= -1e-9)

    def test_energy_closure(self):
        src_law = HeatSource(q0=20e3)
        mesh = build_rod_mesh(GEOM, nr_fuel=11, nz=100, nr_clad=4)
        coolant = uniform_channel_state(mesh.z, BC)
        src = from_heat_source(src_law, mesh)
        field = assemble_and_solve_conduction(mesh, MAT, src, coolant).field
        q = wall_heat_flux(field, coolant)
        out = np.trapezoid(q * 2.0 * np.pi * GEOM.R_co, mesh.z)
        assert out == pytest.approx(integrated_rod_power(src_law, GEOM), rel=0.01)
        # tighter balance against the discrete source actually injected
        injected = float(np.sum(src * np.pi * GEOM.R_fo ** 2
                                * _cv_heights(mesh.z_fuel)))
        assert out == pytest.approx(injected, rel=0.005)


def _cv_heights(z):
    w = np.empty_like(z)
    w[1:-1] = 0.5 * (z[2:] - z[:-2])
    w[0] = 0.5 * (z[1] - z[0])
    w[-1] = 0.5 * (z[-1] - z[-2])
    return w
