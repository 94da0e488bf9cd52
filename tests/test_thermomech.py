"""Slice thermoelasticity, creep law, hoop-strain summary and stress fields."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid, trapezoid

import rodtwin
from rodtwin import thermomech
from rodtwin.conduction import TemperatureField
from rodtwin.core import MaterialParams, RodGeometry
from rodtwin.errors import ConfigurationError, DomainError
from rodtwin.mesh import build_rod_mesh
from rodtwin.thermomech import (hoop_strain_rows, hoop_strain_summary,
                                lame_thermoelastic_slice, stress_field,
                                thermal_creep_increment)

GEOM = RodGeometry()
MAT = MaterialParams()


def _uniform_field(T, nz=12, nr_fuel=4, nr_clad=3):
    mesh = build_rod_mesh(GEOM, nr_fuel=nr_fuel, nz=nz, nr_clad=nr_clad)
    return TemperatureField(mesh=mesh,
                            T_fuel=np.full((mesh.nz_fuel, mesh.nr_fuel), T),
                            T_clad=np.full((mesh.nz, mesh.nr_clad), T))


class TestLameSlice:
    R = np.linspace(GEOM.R_ci, GEOM.R_co, 40)

    def test_stress_free_uniform_expansion(self):
        sl = lame_thermoelastic_slice(self.R, np.full(40, 700.0), 0.0, 0.0,
                                      MAT.E_clad, MAT.nu_clad, MAT.alpha_theta)
        for s in (sl.sigma_r, sl.sigma_theta, sl.sigma_z):
            assert np.abs(s).max() < 1.0  # Pa, vs MPa-scale loads

    def test_equal_pressures_are_hydrostatic(self):
        P = 15.51e6
        sl = lame_thermoelastic_slice(self.R, np.full(40, 600.0), P, P,
                                      MAT.E_clad, MAT.nu_clad, MAT.alpha_theta)
        np.testing.assert_allclose(sl.sigma_r, -P, rtol=0.02)
        np.testing.assert_allclose(sl.sigma_theta, -P, rtol=0.02)

    def test_pressure_boundary_tractions_exact(self):
        sl = lame_thermoelastic_slice(self.R, np.full(40, 600.0), 2e6, 15.51e6,
                                      MAT.E_clad, MAT.nu_clad, MAT.alpha_theta)
        assert sl.sigma_r[0] == pytest.approx(-2e6, rel=1e-9)
        assert sl.sigma_r[-1] == pytest.approx(-15.51e6, rel=1e-9)

    def test_logarithmic_wall_closed_form(self):
        # steady-conduction profile T = T_b + dT ln(b/r)/ln(b/a), no pressure;
        # the surface hoop stresses have a textbook closed form
        a, b = GEOM.R_ci, GEOM.R_co
        dT = 24.0
        r = np.linspace(a, b, 400)
        T = 600.0 + dT * np.log(b / r) / np.log(b / a)
        sl = lame_thermoelastic_slice(r, T, 0.0, 0.0, MAT.E_clad, MAT.nu_clad,
                                      MAT.alpha_theta)
        pref = MAT.alpha_theta * MAT.E_clad * dT / (2.0 * (1.0 - MAT.nu_clad)
                                                    * np.log(b / a))
        sig_in = pref * (1.0 - 2.0 * b * b / (b * b - a * a) * np.log(b / a))
        sig_out = pref * (1.0 - 2.0 * a * a / (b * b - a * a) * np.log(b / a))
        assert sl.sigma_theta[0] == pytest.approx(sig_in, rel=0.01)
        assert sl.sigma_theta[-1] == pytest.approx(sig_out, rel=0.01)
        # inner surface compressive, outer tensile for an inner-hot wall
        assert sl.sigma_theta[0] < 0.0 < sl.sigma_theta[-1]

    def test_superposition_of_thermal_and_pressure_loads(self):
        r = self.R
        T = 600.0 + 20.0 * np.log(GEOM.R_co / r) / np.log(GEOM.R_co / GEOM.R_ci)
        both = lame_thermoelastic_slice(r, T, 2e6, 15.51e6, MAT.E_clad,
                                        MAT.nu_clad, MAT.alpha_theta)
        thermal = lame_thermoelastic_slice(r, T, 0.0, 0.0, MAT.E_clad,
                                           MAT.nu_clad, MAT.alpha_theta)
        pressure = lame_thermoelastic_slice(r, np.full_like(r, MAT.T_ref), 2e6,
                                            15.51e6, MAT.E_clad, MAT.nu_clad,
                                            MAT.alpha_theta)
        scale = np.abs(both.sigma_theta).max()
        for f in ("sigma_r", "sigma_theta", "sigma_z"):
            resid = getattr(both, f) - getattr(thermal, f) - getattr(pressure, f)
            assert np.abs(resid).max() / scale < 1e-9

    def test_radial_equilibrium_residual(self):
        # d(r sigma_r)/dr = sigma_theta for pure mechanical loading
        r = np.linspace(GEOM.R_ci, GEOM.R_co, 2000)
        sl = lame_thermoelastic_slice(r, np.full_like(r, 600.0), 2e6, 15.51e6,
                                      MAT.E_clad, MAT.nu_clad, MAT.alpha_theta)
        lhs = np.gradient(r * sl.sigma_r, r)
        resid = np.abs(lhs[1:-1] - sl.sigma_theta[1:-1]).max()
        assert resid / np.abs(sl.sigma_theta).max() < 0.01

    def test_degenerate_annulus_rejected(self):
        with pytest.raises(ConfigurationError):
            lame_thermoelastic_slice(np.array([0.004, 0.004]), np.array([600.0, 600.0]),
                                     0.0, 0.0, MAT.E_clad, MAT.nu_clad,
                                     MAT.alpha_theta)

    @pytest.mark.parametrize("r", [
        np.array([0.004]),
        np.linspace(-0.001, 0.004, 10),
        np.array([0.0, 0.002, 0.002, 0.004]),
        np.array([0.0, 0.003, 0.002, 0.004]),
    ], ids=["too-short", "below-axis", "repeated-point", "decreasing"])
    def test_bad_radial_grid_rejected(self, r):
        with pytest.raises(ConfigurationError):
            lame_thermoelastic_slice(r, np.full(r.size, 600.0), 0.0, 0.0,
                                     MAT.E_clad, MAT.nu_clad, MAT.alpha_theta)

    @pytest.mark.parametrize("shape", [(39,), (5, 41), (40, 5)],
                             ids=["short-row", "long-rows", "transposed"])
    def test_row_length_must_match_grid(self, shape):
        with pytest.raises(ConfigurationError):
            lame_thermoelastic_slice(self.R, np.full(shape, 600.0), 0.0, 0.0,
                                     MAT.E_clad, MAT.nu_clad, MAT.alpha_theta)

    @pytest.mark.parametrize("r", [np.linspace(GEOM.R_ci, GEOM.R_co, 40),
                                   np.linspace(0.0, GEOM.R_fo, 11)],
                             ids=["annulus", "solid"])
    def test_stack_of_rows_equals_one_call_per_row(self, r, rng):
        T = 600.0 + 300.0 * rng.random((7, r.size))
        stack = lame_thermoelastic_slice(r, T, 2e6, 15.51e6, MAT.E_clad,
                                         MAT.nu_clad, MAT.alpha_theta)
        for j in range(T.shape[0]):
            row = lame_thermoelastic_slice(r, T[j], 2e6, 15.51e6, MAT.E_clad,
                                           MAT.nu_clad, MAT.alpha_theta)
            for f in ("sigma_r", "sigma_theta", "sigma_z", "eps_theta_elastic"):
                np.testing.assert_array_equal(getattr(stack, f)[j],
                                              getattr(row, f))


class TestSolidCylinderSlice:
    """The pellet: the same closed form with r[0] = 0."""

    def test_uniform_temperature_is_hydrostatic(self):
        r = np.linspace(0.0, GEOM.R_fo, 30)
        sl = lame_thermoelastic_slice(r, np.full(30, 900.0), 0.0, 2e6,
                                      MAT.E_fuel, MAT.nu_fuel, MAT.alpha_fuel)
        np.testing.assert_allclose(sl.sigma_r, -2e6, rtol=1e-9)
        np.testing.assert_allclose(sl.sigma_theta, -2e6, rtol=1e-9)

    def test_parabolic_profile_center_tension_sign(self):
        # hotter center: compressive hoop at center region boundary, tensile rim
        r = np.linspace(0.0, GEOM.R_fo, 200)
        T = 1200.0 - 400.0 * (r / GEOM.R_fo) ** 2
        sl = lame_thermoelastic_slice(r, T, 0.0, 0.0, MAT.E_fuel, MAT.nu_fuel,
                                      MAT.alpha_fuel)
        assert sl.sigma_theta[0] < 0.0 < sl.sigma_theta[-1]

    def test_parabolic_profile_closed_form(self):
        # T = T0 - D (r/b)^2 has sigma_r = -KD/4 (1 - r^2/b^2),
        # sigma_theta = KD/4 (3 r^2/b^2 - 1), sigma_z = KD (r^2/b^2 - 1/2);
        # the trapezoid error on 200 points is 2.53e-5 (sigma_r) and
        # 5.05e-5 (sigma_theta, sigma_z) of KD/4, tolerances are 10x that
        b, D = GEOM.R_fo, 400.0
        r = np.linspace(0.0, b, 200)
        sl = lame_thermoelastic_slice(r, 1200.0 - D * (r / b) ** 2, 0.0, 0.0,
                                      MAT.E_fuel, MAT.nu_fuel, MAT.alpha_fuel)
        K = MAT.alpha_fuel * MAT.E_fuel / (1.0 - MAT.nu_fuel)
        q = K * D / 4.0
        x = (r / b) ** 2
        np.testing.assert_allclose(sl.sigma_r, -q * (1.0 - x), rtol=0,
                                   atol=2.6e-4 * q)
        np.testing.assert_allclose(sl.sigma_theta, q * (3.0 * x - 1.0), rtol=0,
                                   atol=5.1e-4 * q)
        np.testing.assert_allclose(sl.sigma_z, 4.0 * q * (x - 0.5), rtol=0,
                                   atol=5.1e-4 * q)


class TestCreep:
    def test_zero_duration_gives_zero(self):
        assert thermal_creep_increment(50e6, 615.0, 0.0, MAT) == 0.0

    def test_zero_stress_gives_zero(self):
        assert thermal_creep_increment(0.0, 615.0, 3.47e7, MAT) == 0.0

    def test_sign_follows_stress(self):
        assert thermal_creep_increment(50e6, 615.0, 3.47e7, MAT) > 0.0
        assert thermal_creep_increment(-50e6, 615.0, 3.47e7, MAT) < 0.0

    def test_calibrated_magnitude_at_reference_conditions(self):
        # hydrostatic coolant-pressure stress at the reference cladding
        # temperature over the nominal irradiation time
        eps = thermal_creep_increment(-15.51e6, 615.0, 3.47e7, MAT)
        assert 1e-5 < abs(eps) < 3e-4
        assert abs(eps) == pytest.approx(5.48e-5, rel=0.25)

    def test_negative_duration_rejected(self):
        with pytest.raises(DomainError):
            thermal_creep_increment(50e6, 615.0, -1.0, MAT)


class TestHoopStrainSummary:
    def test_components_sum_exactly(self, coupled20):
        rep = hoop_strain_summary(coupled20.field, MAT, 3.47e7)
        total = rep.thermal + rep.creep + rep.elastic + rep.irradiation_growth
        assert rep.total == pytest.approx(total, abs=1e-12)
        assert rep.irradiation_growth == 0.0

    def test_reference_case_total(self, coupled20):
        rep = hoop_strain_summary(coupled20.field, MAT, 3.47e7)
        assert rep.total == pytest.approx(0.0022347, rel=0.25)

    def test_component_ordering(self, coupled20):
        rep = hoop_strain_summary(coupled20.field, MAT, 3.47e7)
        assert rep.thermal > abs(rep.creep)
        assert rep.thermal > abs(rep.elastic)

    def test_evaluated_at_outer_surface(self, coupled20):
        rep = hoop_strain_summary(coupled20.field, MAT, 3.47e7)
        assert rep.location[0] == pytest.approx(GEOM.R_co)
        assert 0.0 < rep.location[1] < GEOM.L_fr

    def test_uniform_reference_field_is_strain_free(self):
        field = _uniform_field(MAT.T_ref)
        rep = hoop_strain_summary(field, MAT, 3.47e7)
        assert rep.total == pytest.approx(0.0, abs=1e-12)

    def test_thermal_at_reference_cladding_temperature(self):
        rep = hoop_strain_summary(_uniform_field(615.0), MAT, 3.47e7)
        expected = 6.7e-6 * (615.0 - 295.15)
        assert rep.thermal == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.0021429, rel=0.01)

    def test_cold_field_rejected(self):
        with pytest.raises(DomainError):
            hoop_strain_summary(_uniform_field(200.0), MAT, 3.47e7)


class TestHoopStrainRows:
    def test_summary_reads_the_hottest_outer_node(self, coupled20):
        field = coupled20.field
        rows = hoop_strain_rows(field.mesh.r_clad, field.T_clad, MAT, 3.47e7)
        rep = hoop_strain_summary(field, MAT, 3.47e7)
        j = int(np.argmax(field.T_clad.max(axis=1)))
        for name in ("thermal", "creep", "elastic", "total"):
            assert getattr(rep, name) == pytest.approx(
                getattr(rows, name)[j, -1], rel=1e-12, abs=0.0), name

    def test_rows_match_the_slice(self, coupled20):
        # relative to the largest value of the field: rows with a nearly
        # uniform temperature carry roundoff-sized stresses
        field = coupled20.field
        T = field.T_clad
        rows = hoop_strain_rows(field.mesh.r_clad, T, MAT, 3.47e7)
        assert rows.total.shape == T.shape
        sl = lame_thermoelastic_slice(field.mesh.r_clad, T, 0.0, 0.0,
                                      MAT.E_clad, MAT.nu_clad, MAT.alpha_theta)
        assert _rel_err(rows.elastic, sl.eps_theta_elastic) <= 1e-12
        assert _rel_err(rows.creep, thermal_creep_increment(
            sl.sigma_theta, T, 3.47e7, MAT)) <= 1e-12
        np.testing.assert_array_equal(rows.thermal,
                                      MAT.alpha_theta * (T - MAT.T_ref))


class TestStressField:
    def test_warm_call_runs_no_slice(self, coupled20, monkeypatch):
        stress_field(coupled20.field, 2e6, 15.51e6, MAT)
        hoop_strain_summary(coupled20.field, MAT, 3.47e7)
        calls = []
        monkeypatch.setattr(thermomech, "lame_thermoelastic_slice",
                            lambda *a: calls.append(a))
        stress_field(coupled20.field, 2e6, 15.51e6, MAT)
        hoop_strain_summary(coupled20.field, MAT, 3.47e7)
        assert calls == []

    def test_operator_is_cached_and_read_only(self, coupled20):
        r = coupled20.field.mesh.r_clad
        K, b = thermomech._slice_operator(r.tobytes(), 2e6, 15.51e6,
                                          MAT.E_clad, MAT.nu_clad,
                                          MAT.alpha_theta)
        assert (K.shape, b.shape) == ((r.size, 4 * r.size), (4 * r.size,))
        assert thermomech._slice_operator(r.tobytes(), 2e6, 15.51e6,
                                          MAT.E_clad, MAT.nu_clad,
                                          MAT.alpha_theta)[0] is K
        for a in (K, b):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_rows_must_match_grid(self, coupled20):
        f = coupled20.field
        bad = TemperatureField(mesh=f.mesh, T_fuel=f.T_fuel,
                               T_clad=f.T_clad[:, :-1])
        with pytest.raises(ConfigurationError):
            stress_field(bad, 2e6, 15.51e6, MAT)

    def test_traction_boundaries(self, coupled20):
        sf = stress_field(coupled20.field, 2e6, 15.51e6, MAT)
        np.testing.assert_allclose(sf.clad_sigma_r[:, 0], -2e6, rtol=1e-9)
        np.testing.assert_allclose(sf.clad_sigma_r[:, -1], -15.51e6, rtol=1e-9)
        np.testing.assert_allclose(sf.fuel_sigma_r[:, -1], -2e6, rtol=1e-9)

    def test_hottest_slice_near_largest_surface_hoop_stress(self, coupled20):
        # the surface hoop stress peaks at the peak-flux slice; the hottest
        # cladding slice sits slightly downstream because the coolant heats
        # up, so it carries within a few percent of the maximum
        sf = stress_field(coupled20.field, 0.0, 0.0, MAT)
        mesh = coupled20.field.mesh
        j_hot = int(np.argmax(coupled20.field.T_clad.max(axis=1)))
        j_max = int(np.argmax(np.abs(sf.clad_sigma_theta[:, -1])))
        surf = np.abs(sf.clad_sigma_theta[:, -1])
        assert surf[j_hot] >= 0.9 * surf.max()
        assert mesh.jf0 <= j_max <= mesh.jf1
        assert mesh.jf0 <= j_hot <= mesh.jf1

    def test_shapes_match_mesh(self, coupled20):
        sf = stress_field(coupled20.field, 2e6, 15.51e6, MAT)
        mesh = coupled20.field.mesh
        assert sf.fuel_sigma_theta.shape == (mesh.nz_fuel, mesh.nr_fuel)
        assert sf.clad_sigma_theta.shape == (mesh.nz, mesh.nr_clad)


def _scipy_slice(r, T, P_in, P_out, E, nu, alpha):
    """lame_thermoelastic_slice with its two radial integrals taken by
    scipy.integrate: the reference that the numpy trapezoids must equal bit
    for bit."""
    r, T = np.asarray(r, float), np.asarray(T, float)
    a, b = float(r[0]), float(r[-1])
    r2 = r * r
    denom = b * b - a * a
    K = alpha * E / (1.0 - nu)
    I = cumulative_trapezoid(T * r, r, axis=-1, initial=0.0)
    Ib = I[..., -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        J = (a * a * Ib / denom + I) / r2
    if a == 0.0:
        J[..., 0] = 0.5 * T[..., 0]
    lam_A = (P_in * a * a - P_out * b * b) / denom
    lam_B_r2 = (P_in - P_out) * a * a * b * b / denom / r2 if a > 0.0 else 0.0
    sig_r = K * (Ib / denom - J) + lam_A - lam_B_r2
    sig_t = K * (Ib / denom + J - T) + lam_A + lam_B_r2
    sig_z = K * (2.0 * Ib / denom - T)
    c = 2.0 * trapezoid(sig_z * r, r, axis=-1)[..., None] / denom
    sig_z = sig_z - c + lam_A
    eps_t = (sig_t - nu * (sig_r + sig_z)) / E
    return thermomech.SliceStress(sig_r, sig_t, sig_z, eps_t)


_SLICE_FIELDS = ("sigma_r", "sigma_theta", "sigma_z", "eps_theta_elastic")
_STRESS_FIELDS = ("fuel_sigma_r", "fuel_sigma_theta", "fuel_sigma_z",
                  "clad_sigma_r", "clad_sigma_theta", "clad_sigma_z")


def _rel_err(got, ref) -> float:
    """Largest difference over the largest reference magnitude."""
    got, ref = np.asarray(got, float), np.asarray(ref, float)
    assert got.shape == ref.shape
    return float(np.abs(got - ref).max() / np.abs(ref).max())


def _reference_outputs(field, slice_fn, P_gap, P_cool, duration):
    """The six stress_field arrays and the hottest outer-node (thermal,
    creep, elastic) hoop strain, each from one slice_fn call per region."""
    mesh = field.mesh
    fuel = slice_fn(mesh.r_fuel, field.T_fuel, 0.0, P_gap, MAT.E_fuel,
                    MAT.nu_fuel, MAT.alpha_fuel)
    clad = slice_fn(mesh.r_clad, field.T_clad, P_gap, P_cool, MAT.E_clad,
                    MAT.nu_clad, MAT.alpha_theta)
    stresses = [getattr(sl, f) for sl in (fuel, clad)
                for f in ("sigma_r", "sigma_theta", "sigma_z")]
    j = int(np.argmax(field.T_clad.max(axis=1)))
    T = field.T_clad[j]
    free = slice_fn(mesh.r_clad, T, 0.0, 0.0, MAT.E_clad, MAT.nu_clad,
                    MAT.alpha_theta)
    strain = (MAT.alpha_theta * (T[-1] - MAT.T_ref),
              thermal_creep_increment(free.sigma_theta[-1], T[-1], duration,
                                      MAT),
              free.eps_theta_elastic[-1])
    return stresses, strain


class TestScipyReference:
    """The radial integrals are numpy trapezoids written as scipy.integrate
    writes them, so the slice is bit-identical to scipy's; stress_field and
    the hoop strain apply the slice as a cached affine operator and agree
    with it to 1e-12 relative."""

    @pytest.mark.parametrize("grid", ["annulus", "solid", "random-annulus",
                                      "random-solid"])
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)],
                             ids=["1-D", "2-D", "3-D"])
    def test_slice_equals_scipy_reference(self, grid, shape, rng):
        a = 0.0 if grid.endswith("solid") else GEOM.R_ci
        n = int(rng.integers(2, 30))
        if grid.startswith("random"):
            r = np.concatenate([[a], a + np.cumsum(rng.uniform(1e-5, 1e-3, n))])
        else:
            r = np.linspace(a, GEOM.R_co, n)
        T = 500.0 + 900.0 * rng.random((*shape, r.size))
        args = (r, T, *rng.uniform(0.0, 2e7, 2), MAT.E_clad, MAT.nu_clad,
                MAT.alpha_theta)
        got, ref = lame_thermoelastic_slice(*args), _scipy_slice(*args)
        for f in _SLICE_FIELDS:
            assert np.array_equal(getattr(got, f), getattr(ref, f)), f

    @pytest.mark.parametrize("noise_k", [0.0, 5.0])
    def test_stress_field_and_hoop_strain_equal_scipy_reference(
            self, coupled20, noise_k, rng):
        f = coupled20.field
        field = TemperatureField(
            mesh=f.mesh, T_fuel=f.T_fuel + rng.normal(0.0, noise_k, f.T_fuel.shape),
            T_clad=f.T_clad + rng.normal(0.0, noise_k, f.T_clad.shape))
        sf = stress_field(field, 2e6, 15.51e6, MAT)
        strain = hoop_strain_summary(field, MAT, 3.47e7)
        got = ([getattr(sf, name) for name in _STRESS_FIELDS],
               (strain.thermal, strain.creep, strain.elastic))
        for slice_fn in (lame_thermoelastic_slice, _scipy_slice):
            ref = _reference_outputs(field, slice_fn, 2e6, 15.51e6, 3.47e7)
            for name, a, b in zip(_STRESS_FIELDS, got[0], ref[0]):
                assert _rel_err(a, b) <= 1e-12, name
            for a, b in zip(got[1], ref[1]):
                assert a == pytest.approx(b, rel=1e-12, abs=0.0)
        assert strain.total == strain.thermal + strain.creep + strain.elastic

    @pytest.mark.parametrize("module", ["scipy.integrate", "scipy.sparse"])
    def test_package_does_not_import(self, module):
        src = str(Path(rodtwin.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, rodtwin.cli, rodtwin.thermomech, rodtwin.metrics; "
                f"assert {module!r} not in sys.modules, "
                f"sorted(m for m in sys.modules if m.startswith({module!r}))")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
