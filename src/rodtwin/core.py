"""Domain types, material correlations, water properties and the axial power law.

Units are SI throughout (m, s, K, W, Pa, kg). Burnup is in MWd/kgU.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

# Stress-free reference temperature for thermal strain [K]
T_REF_DEFAULT = 295.15

STANDARD_GRAVITY = 9.80665  # m/s^2


@dataclass(frozen=True)
class RodGeometry:
    """Axisymmetric fuel rod geometry (defaults: 17x17 PWR full-length rod)."""

    L_fr: float = 3.876      # rod length [m]
    L_f: float = 3.658       # fuel column length [m]
    R_fo: float = 0.004096   # pellet outer radius [m]
    R_ci: float = 0.0041786  # cladding inner radius [m]
    R_co: float = 0.0047506  # cladding outer radius [m]
    z_pb: float = 0.109      # fuel bottom axial coordinate [m], z = 0 at cladding bottom

    def __post_init__(self):
        if not (0.0 < self.R_fo < self.R_ci < self.R_co):
            raise ConfigurationError(
                f"radii must satisfy 0 < R_fo < R_ci < R_co, got "
                f"{self.R_fo}, {self.R_ci}, {self.R_co}")
        if not (0.0 < self.L_f <= self.L_fr):
            raise ConfigurationError(f"need 0 < L_f <= L_fr, got L_f={self.L_f}, L_fr={self.L_fr}")
        if not (0.0 <= self.z_pb <= self.L_fr - self.L_f + 1e-12):
            raise ConfigurationError(f"z_pb={self.z_pb} incompatible with L_fr - L_f")

    @property
    def z_pt(self) -> float:
        """Fuel top axial coordinate [m]."""
        return self.z_pb + self.L_f


@dataclass(frozen=True)
class MaterialParams:
    """Simplified material closures for UO2 fuel and Zircaloy-4 cladding.

    Fuel conductivity: k = 1 / (A + B*T) / (1 + c_bu * Bu). The A, B pair gives
    ~3.4 W/m.K at 1000 K, within the usual unirradiated UO2 band; c_bu is a
    documented degradation slope, not a licensed correlation.
    Cladding conductivity: k = k_clad_a + k_clad_b * T (Zircaloy-4 band).
    """

    fuel_k_A: float = 0.0452       # [m.K/W]
    fuel_k_B: float = 2.46e-4      # [m/W]
    fuel_k_bu: float = 0.005       # burnup degradation slope [1/(MWd/kgU)]
    clad_k_a: float = 12.6         # [W/m.K]
    clad_k_b: float = 0.0118       # [W/m.K^2]
    alpha_fuel: float = 10.0e-6    # fuel isotropic thermal expansion [1/K]
    alpha_theta: float = 6.7e-6    # cladding hoop thermal expansion [1/K]
    alpha_z: float = 5.5e-6        # cladding axial thermal expansion [1/K]
    E_clad: float = 8.0e10         # cladding Young's modulus [Pa]
    nu_clad: float = 0.34          # cladding Poisson ratio [-]
    E_fuel: float = 2.0e11         # fuel Young's modulus [Pa]
    nu_fuel: float = 0.32          # fuel Poisson ratio [-]
    h_gap: float = 5000.0          # pellet-cladding gap conductance [W/m^2.K]
    creep_A: float = 8.6e-13       # Norton creep coefficient [1/(s.Pa^n)]
    creep_n: float = 2.0           # Norton stress exponent [-]
    creep_QR: float = 20000.0      # activation temperature Q/R [K]
    T_ref: float = T_REF_DEFAULT   # stress-free temperature [K]

    def __post_init__(self):
        if not (0.0 < self.nu_clad < 0.5 and 0.0 < self.nu_fuel < 0.5):
            raise ConfigurationError(f"nu_clad={self.nu_clad} and nu_fuel="
                                     f"{self.nu_fuel} must both lie in (0, 0.5)")
        if not (self.h_gap > 0.0 and self.E_clad > 0.0 and self.E_fuel > 0.0):
            raise ConfigurationError("h_gap, E_clad and E_fuel must be positive")


@dataclass(frozen=True)
class ChannelBoundary:
    """Interior-subchannel coolant boundary conditions (defaults: 17x17 PWR).

    flow_area and D_h default to the values implied by pitch and R_co; if given
    explicitly they must be consistent with them.
    """

    T_in: float = 583.15        # inlet temperature [K]
    P_out: float = 15.51e6      # outlet pressure [Pa]
    G: float = 3244.04          # mass flux [kg/s.m^2]
    pitch: float = 0.0126       # rod pitch [m]
    R_co: float = 0.0047506     # cladding outer radius used for areas [m]
    flow_area: float = field(default=None)  # [m^2]
    D_h: float = field(default=None)        # [m]

    def __post_init__(self):
        if self.T_in <= 273.15:
            raise ConfigurationError("T_in must exceed 273.15 K")
        if self.P_out <= 0.0 or self.G <= 0.0:
            raise ConfigurationError("P_out and G must be positive")
        area = self.pitch ** 2 - np.pi * self.R_co ** 2
        if area <= 0.0:
            raise ConfigurationError("pitch too small for rod radius")
        dh = 4.0 * area / (2.0 * np.pi * self.R_co)
        if self.flow_area is None:
            object.__setattr__(self, "flow_area", area)
        elif abs(self.flow_area - area) > 1e-6 * area:
            raise ConfigurationError("flow_area inconsistent with pitch and R_co")
        if self.D_h is None:
            object.__setattr__(self, "D_h", dh)
        elif abs(self.D_h - dh) > 1e-6 * dh:
            raise ConfigurationError("D_h inconsistent with pitch and R_co")

    @property
    def heated_perimeter(self) -> float:
        return 2.0 * np.pi * self.R_co


@dataclass(frozen=True)
class HeatSource:
    """Chopped-sine axial linear heat rate.

    The extrapolated length L_e = L_f + 2*delta_e; the sine argument is measured
    from delta_e below the fuel bottom so the profile is nonzero at both fuel ends.
    """

    q0: float = 20000.0      # peak linear heat rate [W/m]
    delta_e: float = 0.08    # extrapolation length [m]

    def __post_init__(self):
        if self.q0 < 0.0:
            raise ConfigurationError("q0 must be >= 0")
        if self.delta_e < 0.0:
            raise ConfigurationError("delta_e must be >= 0")

    def L_e(self, geom: RodGeometry) -> float:
        return geom.L_f + 2.0 * self.delta_e


@dataclass(frozen=True)
class WaterProps:
    rho: float   # density [kg/m^3]
    cp: float    # specific heat [J/kg.K]
    mu: float    # dynamic viscosity [Pa.s]
    k: float     # thermal conductivity [W/m.K]
    Pr: float    # Prandtl number [-]


# ---------------------------------------------------------------------------
# Embedded compressed-liquid water property table at 15.51 MPa.
#
# Nodes every 5 K over 560-630 K. Values are rounded engineering steam-table
# numbers for compressed liquid at 15.5 MPa (saturation at this pressure is
# ~618 K; the last three rows are a smooth liquid-like continuation kept only
# so hot-channel excursions fail gracefully instead of mid-table). Pr is
# computed from mu*cp/k so the properties are self-consistent.
# ---------------------------------------------------------------------------
_WATER_T = np.arange(560.0, 630.0 + 2.5, 5.0)
_WATER_RHO = np.array([743.0, 735.0, 726.0, 717.0, 707.0, 697.0, 686.0, 675.0,
                       663.0, 650.0, 636.0, 620.0, 603.0, 583.0, 559.0])
_WATER_CP = np.array([5310.0, 5450.0, 5600.0, 5780.0, 5980.0, 6200.0, 6500.0,
                      6800.0, 7200.0, 7700.0, 8400.0, 9300.0, 10700.0,
                      12800.0, 16000.0])
_WATER_MU = np.array([9.5e-5, 9.2e-5, 9.0e-5, 8.7e-5, 8.5e-5, 8.2e-5, 8.0e-5,
                      7.8e-5, 7.5e-5, 7.3e-5, 7.0e-5, 6.8e-5, 6.5e-5,
                      6.2e-5, 5.9e-5])
_WATER_K = np.array([0.582, 0.573, 0.563, 0.553, 0.542, 0.530, 0.518, 0.506,
                     0.493, 0.479, 0.464, 0.448, 0.431, 0.413, 0.394])

WATER_T_MIN = float(_WATER_T[0])
WATER_T_MAX = float(_WATER_T[-1])


def water_properties(T) -> WaterProps:
    """Linear interpolation of the embedded 15.51 MPa liquid water table.

    A scalar gives float fields, a numpy array array fields. No
    extrapolation: any T outside [560, 630] K raises DomainError.
    """
    array = isinstance(T, np.ndarray)
    T = T.astype(float, copy=False) if array else float(T)
    lo, hi = (float(T.min()), float(T.max())) if array else (T, T)
    if not (WATER_T_MIN <= lo and hi <= WATER_T_MAX):  # NaN fails it too
        raise DomainError(f"water table covers {WATER_T_MIN}-{WATER_T_MAX} K, "
                          f"got T in [{lo}, {hi}]")
    rho = np.interp(T, _WATER_T, _WATER_RHO)
    cp = np.interp(T, _WATER_T, _WATER_CP)
    mu = np.interp(T, _WATER_T, _WATER_MU)
    k = np.interp(T, _WATER_T, _WATER_K)
    if not array:
        rho, cp, mu, k = float(rho), float(cp), float(mu), float(k)
    return WaterProps(rho=rho, cp=cp, mu=mu, k=k, Pr=mu * cp / k)


# cp is linear between the table nodes, so the enthalpy H(T) = int cp dT
# from WATER_T_MIN is quadratic between them; these are its node values.
_WATER_CP_SLOPE = np.diff(_WATER_CP) / np.diff(_WATER_T)
_WATER_H = np.append(0.0, np.cumsum(0.5 * (_WATER_CP[:-1] + _WATER_CP[1:])
                                     * np.diff(_WATER_T)))
WATER_H_MAX = float(_WATER_H[-1])


def water_enthalpy(T) -> np.ndarray:
    """Specific enthalpy above WATER_T_MIN [J/kg], exact for the table's
    piecewise-linear cp. DomainError outside [560, 630] K."""
    T = np.asarray(T, dtype=float)
    if not np.all((WATER_T_MIN <= T) & (T <= WATER_T_MAX)):
        raise DomainError(f"water table covers {WATER_T_MIN}-{WATER_T_MAX} K")
    j = np.minimum(np.searchsorted(_WATER_T, T, side="right") - 1, _WATER_T.size - 2)
    t = T - _WATER_T[j]
    return _WATER_H[j] + t * (_WATER_CP[j] + 0.5 * _WATER_CP_SLOPE[j] * t)


def water_temperature(H) -> np.ndarray:
    """Inverse of water_enthalpy. DomainError outside [0, WATER_H_MAX]."""
    H = np.asarray(H, dtype=float)
    if not np.all((0.0 <= H) & (H <= WATER_H_MAX)):
        raise DomainError(f"water table covers enthalpies 0-{WATER_H_MAX} J/kg")
    j = np.minimum(np.searchsorted(_WATER_H, H, side="right") - 1, _WATER_H.size - 2)
    dH, cp = H - _WATER_H[j], _WATER_CP[j]
    # the root of dH = t * (cp + slope * t / 2) that cancels nothing
    t = 2.0 * dH / (cp + np.sqrt(cp * cp + 2.0 * _WATER_CP_SLOPE[j] * dH))
    # rounding must not carry T past the interval's upper node
    return np.minimum(_WATER_T[j] + t, _WATER_T[j + 1])


def linear_heat_rate(z, src: HeatSource, geom: RodGeometry):
    """Chopped-sine linear heat rate q'(z) [W/m].

    Zero outside the fuel span [z_pb, z_pb + L_f]; DomainError outside the rod.
    Accepts scalars or arrays.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr < -1e-12) or np.any(z_arr > geom.L_fr + 1e-12):
        raise DomainError(f"axial coordinate outside rod [0, {geom.L_fr}]")
    Le = src.L_e(geom)
    in_fuel = (z_arr >= geom.z_pb) & (z_arr <= geom.z_pt)
    q = np.where(in_fuel,
                 src.q0 * np.sin(np.pi * (z_arr - geom.z_pb + src.delta_e) / Le),
                 0.0)
    if np.ndim(z) == 0:
        return float(q)
    return q


def integrated_rod_power(src: HeatSource, geom: RodGeometry) -> float:
    """Closed-form integral of the chopped sine over the fuel span [W]."""
    Le = src.L_e(geom)
    d = src.delta_e
    return src.q0 * (Le / np.pi) * (np.cos(np.pi * d / Le)
                                    - np.cos(np.pi * (d + geom.L_f) / Le))


def fuel_conductivity(T, burnup: float, m: MaterialParams):
    """UO2 conductivity with multiplicative burnup degradation [W/m.K]."""
    T_arr = np.asarray(T, dtype=float)
    if np.any(T_arr < 300.0) or np.any(T_arr > 3000.0):
        raise DomainError(f"fuel conductivity valid 300-3000 K, got extremes "
                          f"[{T_arr.min()}, {T_arr.max()}]")
    if burnup < 0.0:
        raise DomainError("burnup must be >= 0")
    k = 1.0 / (m.fuel_k_A + m.fuel_k_B * T_arr) / (1.0 + m.fuel_k_bu * burnup)
    if np.ndim(T) == 0:
        return float(k)
    return k


def clad_conductivity(T, m: MaterialParams):
    """Zircaloy-4 conductivity, linear in T [W/m.K]."""
    T_arr = np.asarray(T, dtype=float)
    if np.any(T_arr < 300.0) or np.any(T_arr > 1500.0):
        raise DomainError(f"cladding conductivity valid 300-1500 K, got extremes "
                          f"[{T_arr.min()}, {T_arr.max()}]")
    k = m.clad_k_a + m.clad_k_b * T_arr
    if np.ndim(T) == 0:
        return float(k)
    return k
