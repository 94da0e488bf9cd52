"""Steady single-phase 1D coolant channel: energy march, pressure march, HTC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (STANDARD_GRAVITY, WATER_H_MAX, WATER_T_MAX, WATER_T_MIN,
                   ChannelBoundary, WaterProps, water_enthalpy,
                   water_properties, water_temperature)
from .errors import CorrelationRangeError, DomainError, SolverError

# Cheng-Todreas turbulent friction constant for an interior subchannel of a
# square bare-rod bundle: f = C_T / Re^0.18 with C_T quadratic in (P/D - 1).
CT_POLY = (0.1339, 0.09059, -0.09926)
CT_RE_EXP = 0.18


@dataclass(frozen=True)
class ChannelState:
    """Converged coolant solution along the channel."""

    z: np.ndarray       # axial nodes [m]
    T_cool: np.ndarray  # coolant temperature [K]
    h: np.ndarray       # convective HTC [W/m^2.K]
    P: np.ndarray       # pressure [Pa]
    U: np.ndarray       # bulk velocity [m/s]
    Re: np.ndarray      # Reynolds number [-]
    Pr: np.ndarray      # Prandtl number [-]

    def interp_T(self, z):
        return np.interp(z, self.z, self.T_cool)

    def interp_h(self, z):
        return np.interp(z, self.z, self.h)


def dittus_boelter_htc(props: WaterProps, G: float, D_h: float):
    """h = 0.023 Re^0.8 Pr^0.4 k / D_h for turbulent liquid flow (all points)."""
    Re = G * D_h / props.mu
    Re_min = float(np.min(Re))
    if Re_min <= 1e4:
        raise CorrelationRangeError(f"Dittus-Boelter needs Re > 1e4, got {Re_min:.3g}")
    Pr_min, Pr_max = float(np.min(props.Pr)), float(np.max(props.Pr))
    if not (0.6 < Pr_min and Pr_max < 160.0):
        raise CorrelationRangeError(
            f"Dittus-Boelter needs 0.6 < Pr < 160, got [{Pr_min:.3g}, {Pr_max:.3g}]")
    return 0.023 * Re ** 0.8 * props.Pr ** 0.4 * props.k / D_h


def cheng_todreas_friction(Re, pitch_to_diameter: float):
    """Turbulent interior-subchannel Darcy friction factor (scalar or array Re)."""
    Re_min = float(np.min(Re))
    if Re_min <= 1e4:
        raise CorrelationRangeError(
            f"Cheng-Todreas turbulent fit needs Re > 1e4, got {Re_min:.3g}")
    if not (1.0 < pitch_to_diameter <= 1.5):
        raise CorrelationRangeError(
            f"Cheng-Todreas interior fit needs 1 < P/D <= 1.5, got {pitch_to_diameter:.4g}")
    x = pitch_to_diameter - 1.0
    a, b1, b2 = CT_POLY
    ct = a + b1 * x + b2 * x * x
    return ct / Re ** CT_RE_EXP


def solve_channel(z: np.ndarray, wall_flux: np.ndarray,
                  bc: ChannelBoundary) -> ChannelState:
    """Steady energy/pressure march along the heated channel.

    Energy: the enthalpy rise is the trapezoidal wall heat input summed
    upward from T_in, and T follows from the exact inverse of the table's
    H(T), so the march is exact for a wall flux linear between nodes.
    Pressure: downward march from P_out with Cheng-Todreas friction plus
    gravity (vertical upflow). HTC from Dittus-Boelter at local properties.
    """
    z = np.asarray(z, dtype=float)
    q = np.asarray(wall_flux, dtype=float)
    if z.shape != q.shape or z.ndim != 1 or z.size < 2:
        raise DomainError("wall_flux must be defined on the channel axial nodes")
    dq = 0.5 * (q[:-1] + q[1:]) * bc.heated_perimeter * np.diff(z)
    # an inlet off the table is NaN here and fails the range test at node 0
    H_in = water_enthalpy(bc.T_in) if WATER_T_MIN <= bc.T_in <= WATER_T_MAX else np.nan
    H = H_in + np.concatenate([[0.0], np.cumsum(dq)]) / (bc.G * bc.flow_area)
    off = ~((0.0 <= H) & (H <= WATER_H_MAX))
    if off.any():
        at = int(np.argmax(off))
        raise SolverError(f"coolant left the property table at z={z[at]:.4f} m",
                          z=float(z[at]))
    T = water_temperature(H)
    props = water_properties(T)

    Re = bc.G * bc.D_h / props.mu
    h = dittus_boelter_htc(props, bc.G, bc.D_h)

    # downward pressure march from P_out, summed in march order
    rho_m = 0.5 * (props.rho[:-1] + props.rho[1:])
    f = cheng_todreas_friction(0.5 * (Re[:-1] + Re[1:]), bc.pitch / (2.0 * bc.R_co))
    dp = (f * bc.G ** 2 / (2.0 * rho_m * bc.D_h) + rho_m * STANDARD_GRAVITY) * np.diff(z)
    P = np.cumsum(np.concatenate([[bc.P_out], dp[::-1]]))[::-1]

    return ChannelState(z=z, T_cool=T, h=h, P=P, U=bc.G / props.rho, Re=Re,
                        Pr=props.Pr)


def uniform_channel_state(z: np.ndarray, bc: ChannelBoundary) -> ChannelState:
    """Adiabatic channel state used to seed the rod-channel coupling."""
    return solve_channel(np.asarray(z, float), np.zeros(len(z)), bc)
