"""Simplified thermomechanical post-processing of a rod temperature field.

Per-axial-row generalized plane strain from one thick-walled-cylinder
thermoelastic closed form (the pellet is its solid case a = 0), Norton
secondary thermal creep, and anisotropic cladding thermal expansion.
Irradiation effects are deliberately zero.

The closed form is affine in each radial temperature row, and its grid,
moduli and pressures do not depend on z. So ``lame_thermoelastic_slice``
builds, once per (grid, moduli, pressures), a matrix K and a row b with
concat(sigma_r, sigma_theta, sigma_z, eps_theta_elastic) = T_row @ K + b;
``stress_field`` and the hoop strain apply them to every row at once. The
slice stays the readable reference of that product.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import lru_cache

import numpy as np

from .conduction import TemperatureField
from .core import MaterialParams
from .errors import ConfigurationError, DomainError


@dataclass(frozen=True)
class SliceStress:
    sigma_r: np.ndarray
    sigma_theta: np.ndarray
    sigma_z: np.ndarray
    eps_theta_elastic: np.ndarray


@dataclass(frozen=True)
class HoopStrain:
    """Cladding hoop-strain components [-] on rows of cladding nodes, each
    shaped as the temperature rows given."""

    thermal: np.ndarray    # thermal expansion
    elastic: np.ndarray    # elastic, from the pressure-free slice stresses
    creep: np.ndarray      # Norton thermal creep increment

    @property
    def total(self) -> np.ndarray:
        return self.thermal + self.creep + self.elastic


@dataclass(frozen=True)
class StrainReport:
    """Cladding hoop-strain components at the hottest axial location."""

    thermal: float         # thermal expansion hoop strain [-]
    creep: float           # thermal creep hoop strain [-]
    elastic: float         # elastic hoop strain [-]
    irradiation_growth: float  # always 0 in the simplified model [-]
    total: float
    location: tuple        # (r, z) of evaluation [m]


@dataclass(frozen=True)
class StressField:
    """Stress components on the rod mesh (compressive negative)."""

    mesh: object
    fuel_sigma_r: np.ndarray      # (nz_fuel, nr_fuel)
    fuel_sigma_theta: np.ndarray
    fuel_sigma_z: np.ndarray
    clad_sigma_r: np.ndarray      # (nz, nr_clad)
    clad_sigma_theta: np.ndarray
    clad_sigma_z: np.ndarray


def _trapezoids(y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Trapezoid areas of rows y (..., n) over the n - 1 grid spacings d.

    This is scipy.integrate's own expression, so the sum and the cumulative
    sum of these areas are bit-identical to its trapezoid and
    cumulative_trapezoid, without their per-call overhead and import."""
    return d * (y[..., 1:] + y[..., :-1]) / 2.0


def lame_thermoelastic_slice(r: np.ndarray, T: np.ndarray, P_in: float,
                             P_out: float, E: float, nu: float,
                             alpha: float) -> SliceStress:
    """Thick-walled cylinder a <= r <= b under radial temperature rows and pressures.

    T is one row (nr,) or a stack of rows (..., nr), all solved at once;
    r[0] = 0 is the solid cylinder, where P_in has no effect. Generalized
    plane strain with zero net axial force; closed-end pressure contribution
    to sigma_z. Thermal integrals by trapezoid on the given grid.
    """
    r = np.asarray(r, float)
    T = np.asarray(T, float)
    if r.ndim != 1 or r.size < 2 or r[0] < 0.0 or np.any(np.diff(r) <= 0.0):
        raise ConfigurationError("radial grid needs >= 2 strictly increasing "
                                 "points from r >= 0")
    if T.shape[-1:] != r.shape:
        raise ConfigurationError(f"temperature rows of shape {T.shape} do not "
                                 f"match the {r.size}-point radial grid")
    a, b = float(r[0]), float(r[-1])
    r2 = r * r
    denom = b * b - a * a
    K = alpha * E / (1.0 - nu)
    d = np.diff(r)
    I = np.zeros(T.shape)  # int_a^r T r dr
    np.cumsum(_trapezoids(T * r, d), axis=-1, out=I[..., 1:])
    Ib = I[..., -1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        J = (a * a * Ib / denom + I) / r2
    if a == 0.0:
        J[..., 0] = 0.5 * T[..., 0]  # axis limit of I / r^2

    lam_A = (P_in * a * a - P_out * b * b) / denom
    # zero without an inner radius, where it would be 0/0 on the axis
    lam_B_r2 = (P_in - P_out) * a * a * b * b / denom / r2 if a > 0.0 else 0.0
    sig_r = K * (Ib / denom - J) + lam_A - lam_B_r2
    sig_t = K * (Ib / denom + J - T) + lam_A + lam_B_r2
    sig_z = K * (2.0 * Ib / denom - T)
    # sigma_z is defined up to the uniform GPS constant; zero net axial force
    # over the cross-section fixes it. lam_A is the closed-end axial force
    c = 2.0 * _trapezoids(sig_z * r, d).sum(axis=-1)[..., None] / denom
    sig_z = sig_z - c + lam_A

    eps_t = (sig_t - nu * (sig_r + sig_z)) / E
    return SliceStress(sigma_r=sig_r, sigma_theta=sig_t, sigma_z=sig_z,
                       eps_theta_elastic=eps_t)


@lru_cache(maxsize=16)   # one per (radial grid, moduli, pressures)
def _slice_operator(r_bytes: bytes, P_in: float, P_out: float, E: float,
                    nu: float, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """lame_thermoelastic_slice on the float64 grid r_bytes as read-only
    (K, b), K (nr, 4 nr) and b (4 nr,), so that a row T gives
    concat(sigma_r, sigma_theta, sigma_z, eps_theta_elastic) = T @ K + b.

    K is the slice of the identity rows without pressures (the slice is
    linear in T there) and b the slice of a zero row with them."""
    r = np.frombuffer(r_bytes)
    parts = (lame_thermoelastic_slice(r, np.eye(r.size), 0.0, 0.0, E, nu, alpha),
             lame_thermoelastic_slice(r, np.zeros(r.size), P_in, P_out, E, nu,
                                      alpha))
    K, b = (np.concatenate(astuple(p), axis=-1) for p in parts)
    K.flags.writeable = b.flags.writeable = False
    return K, b


def _apply_slice(r: np.ndarray, T: np.ndarray, P_in: float, P_out: float,
                 E: float, nu: float, alpha: float) -> SliceStress:
    """lame_thermoelastic_slice(r, T, ...) through the cached operator: one
    matrix product over every row of T (..., nr)."""
    r, T = np.asarray(r, float), np.asarray(T, float)
    if T.shape[-1:] != r.shape:
        raise ConfigurationError(f"temperature rows of shape {T.shape} do not "
                                 f"match the {r.size}-point radial grid")
    K, b = _slice_operator(r.tobytes(), P_in, P_out, E, nu, alpha)
    out = T @ K + b
    n = r.size
    return SliceStress(*(out[..., i:i + n] for i in range(0, 4 * n, n)))


def thermal_creep_increment(sigma_theta, T, duration: float,
                            m: MaterialParams):
    """Single-increment Norton secondary creep hoop strain, elementwise over
    hoop stresses sigma_theta [Pa] and temperatures T [K]."""
    if duration < 0.0:
        raise DomainError("duration must be >= 0")
    return (m.creep_A * abs(sigma_theta) ** m.creep_n * np.sign(sigma_theta)
            * np.exp(-m.creep_QR / T) * duration)


def hoop_strain_rows(r_clad: np.ndarray, T_rows: np.ndarray,
                     m: MaterialParams, duration: float) -> HoopStrain:
    """Hoop-strain components at every node of cladding rows T_rows
    (..., nr_clad) on the grid r_clad.

    Elastic and creep use the pressure-free (temperature-induced) slice
    stresses so each component isolates a thermal mechanism, mirroring the
    simplified-model decomposition."""
    sl = _apply_slice(r_clad, T_rows, 0.0, 0.0, m.E_clad, m.nu_clad,
                      m.alpha_theta)
    return HoopStrain(thermal=m.alpha_theta * (T_rows - m.T_ref),
                      elastic=sl.eps_theta_elastic,
                      creep=thermal_creep_increment(sl.sigma_theta, T_rows,
                                                    duration, m))


def hoop_strain_summary(field: TemperatureField, m: MaterialParams,
                        duration: float) -> StrainReport:
    """Cladding hoop-strain component breakdown at the hottest axial slice.

    hoop_strain_rows at the cladding outer surface of the axial node with
    the highest cladding temperature; only that row is evaluated.
    """
    mesh = field.mesh
    # the first maximum in row-major order lies in the first hottest row
    j = int(np.argmax(field.T_clad)) // mesh.nr_clad
    T_slice = field.T_clad[j]
    floor = m.T_ref - 50.0
    if T_slice.min() < floor:
        raise DomainError(f"temperature below T_ref - 50 K = {floor} K")

    hs = hoop_strain_rows(mesh.r_clad, T_slice, m, duration)
    thermal, elastic, creep = (float(a[-1]) for a in
                               (hs.thermal, hs.elastic, hs.creep))
    total = thermal + creep + elastic
    return StrainReport(thermal=thermal, creep=creep, elastic=elastic,
                        irradiation_growth=0.0, total=total,
                        location=(float(mesh.r_clad[-1]), float(mesh.z[j])))


def stress_field(field: TemperatureField, P_gap: float, P_cool: float,
                 m: MaterialParams) -> StressField:
    """Stress on the whole rod mesh: one matrix product over the pellet
    rows and one over the cladding rows."""
    mesh = field.mesh
    fuel = _apply_slice(mesh.r_fuel, field.T_fuel, 0.0, P_gap, m.E_fuel,
                        m.nu_fuel, m.alpha_fuel)
    clad = _apply_slice(mesh.r_clad, field.T_clad, P_gap, P_cool, m.E_clad,
                        m.nu_clad, m.alpha_theta)
    return StressField(mesh, fuel.sigma_r, fuel.sigma_theta, fuel.sigma_z,
                       clad.sigma_r, clad.sigma_theta, clad.sigma_z)
