"""Steady single-phase 1D coolant channel: energy march, pressure march, HTC."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (STANDARD_GRAVITY, ChannelBoundary, WaterProps,
                   water_properties)
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


def dittus_boelter_htc(props: WaterProps, G: float, D_h: float) -> float:
    """h = 0.023 Re^0.8 Pr^0.4 k / D_h for turbulent liquid flow."""
    Re = G * D_h / props.mu
    if Re <= 1e4:
        raise CorrelationRangeError(f"Dittus-Boelter needs Re > 1e4, got {Re:.3g}")
    if not (0.6 < props.Pr < 160.0):
        raise CorrelationRangeError(f"Dittus-Boelter needs 0.6 < Pr < 160, got {props.Pr:.3g}")
    return 0.023 * Re ** 0.8 * props.Pr ** 0.4 * props.k / D_h


def cheng_todreas_friction(Re: float, pitch_to_diameter: float) -> float:
    """Turbulent interior-subchannel Darcy friction factor."""
    if Re <= 1e4:
        raise CorrelationRangeError(f"Cheng-Todreas turbulent fit needs Re > 1e4, got {Re:.3g}")
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

    Energy: upward march from T_in using trapezoidal wall heat input per
    segment and local cp. Pressure: downward march from P_out with
    Cheng-Todreas friction plus gravity (vertical upflow). HTC from
    Dittus-Boelter at local properties.
    """
    z = np.asarray(z, dtype=float)
    q = np.asarray(wall_flux, dtype=float)
    if z.shape != q.shape or z.ndim != 1 or z.size < 2:
        raise DomainError("wall_flux must be defined on the channel axial nodes")
    n = z.size
    GA = bc.G * bc.flow_area
    Ph = bc.heated_perimeter

    T = np.empty(n)
    T[0] = bc.T_in
    for j in range(n - 1):
        dz = z[j + 1] - z[j]
        try:
            cp = water_properties(T[j]).cp
        except DomainError as e:
            raise SolverError(f"coolant left the property table at z={z[j]:.4f} m",
                              z=float(z[j])) from e
        dq = 0.5 * (q[j] + q[j + 1]) * Ph * dz
        # Heun step on cp(T) keeps the march second order
        T_star = T[j] + dq / (GA * cp)
        try:
            cp_star = water_properties(T_star).cp
        except DomainError as e:
            raise SolverError(f"coolant left the property table at z={z[j + 1]:.4f} m",
                              z=float(z[j + 1])) from e
        T[j + 1] = T[j] + dq / (GA * 0.5 * (cp + cp_star))

    rho = np.empty(n)
    h = np.empty(n)
    Re = np.empty(n)
    Pr = np.empty(n)
    for j in range(n):
        try:
            props = water_properties(T[j])
        except DomainError as e:
            raise SolverError(f"coolant left the property table at z={z[j]:.4f} m",
                              z=float(z[j])) from e
        rho[j] = props.rho
        Re[j] = bc.G * bc.D_h / props.mu
        Pr[j] = props.Pr
        h[j] = dittus_boelter_htc(props, bc.G, bc.D_h)

    p2d = bc.pitch / (2.0 * bc.R_co)
    P = np.empty(n)
    P[-1] = bc.P_out
    for j in range(n - 2, -1, -1):
        dz = z[j + 1] - z[j]
        rho_m = 0.5 * (rho[j] + rho[j + 1])
        Re_m = 0.5 * (Re[j] + Re[j + 1])
        f = cheng_todreas_friction(Re_m, p2d)
        dp = (f * bc.G ** 2 / (2.0 * rho_m * bc.D_h) + rho_m * STANDARD_GRAVITY) * dz
        P[j] = P[j + 1] + dp

    return ChannelState(z=z, T_cool=T, h=h, P=P, U=bc.G / rho, Re=Re, Pr=Pr)


def uniform_channel_state(z: np.ndarray, bc: ChannelBoundary) -> ChannelState:
    """Adiabatic channel state used to seed the rod-channel coupling."""
    return solve_channel(np.asarray(z, float), np.zeros(len(z)), bc)
