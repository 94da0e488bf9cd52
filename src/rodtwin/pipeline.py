"""Rod-channel coupled cases, case sweeps, dataset assembly and sensor
extraction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState, uniform_channel_state
from .conduction import (TemperatureField, VolumetricSource,
                         assemble_and_solve_conduction)
from .config import TwinConfig
from .core import HeatSource
from .errors import ConfigurationError, DomainError, SolverError
from .mesh import build_rod_mesh

SPLITS = ("train", "validate", "test")

Q0_MIN, Q0_MAX = 5e3, 45e3  # admissible peak LHGR band [W/m]

# Floor on the min-max temperature half-range so degenerate (constant-field)
# datasets still normalize.
MIN_T_SCALE = 1e-6


@dataclass(frozen=True)
class CaseSpec:
    case_id: str
    q0: float       # peak linear heat rate [W/m]
    burnup: float   # [MWd/kgU]
    split: str      # train | validate | test

    def __post_init__(self):
        if self.split not in SPLITS:
            raise ConfigurationError(f"split must be one of {SPLITS}, got {self.split!r}")
        # q0 = 0 is the degenerate unpowered case; powered cases stay in band
        if self.q0 != 0.0 and not (Q0_MIN <= self.q0 <= Q0_MAX):
            raise ConfigurationError(
                f"q0={self.q0} W/m outside the admissible [{Q0_MIN}, {Q0_MAX}] band")
        if self.burnup < 0.0:
            raise ConfigurationError("burnup must be >= 0")


@dataclass(frozen=True)
class CoupledSolution:
    field: TemperatureField
    channel: ChannelState
    iterations: int
    residual: float
    residual_trace: tuple = ()


@dataclass(frozen=True)
class SensorSet:
    """Sparse cladding-surface measurements driving the reconstruction."""

    z: np.ndarray       # sensor elevations [m]
    r: np.ndarray       # sensor radii (all R_co) [m]
    T: np.ndarray       # measured temperatures [K]
    T_inf: np.ndarray   # coolant reference temperature per sensor [K]
    dhat: np.ndarray    # cooling-law surrogate normal derivative, -eta*(T - T_inf)
    w: np.ndarray       # boundary quadrature weights (Voronoi segment lengths) [m]
    eta: float


@dataclass(frozen=True)
class NormConstants:
    """Min-max [-1, 1] scalings computed from training cases only.

    Radial coordinates are handled in the 100x-stretched frame that makes the
    rod aspect ratio plottable."""

    r_center: float
    r_scale: float
    z_center: float
    z_scale: float
    T_center: float
    T_scale: float

    def norm_T(self, T):
        return (np.asarray(T, float) - self.T_center) / self.T_scale

    def denorm_T(self, t):
        return np.asarray(t, float) * self.T_scale + self.T_center

    def norm_d(self, d):
        # derivative-like signal: scale only, no offset
        return np.asarray(d, float) / self.T_scale


@dataclass(frozen=True)
class CaseResult:
    spec: CaseSpec
    solution: CoupledSolution | None  # None when reloaded from disk
    sensors: SensorSet
    r: np.ndarray        # interior sample radial coordinates [m]
    z: np.ndarray        # interior sample axial coordinates [m]
    region: list         # region tag per sample
    T: np.ndarray        # ground-truth temperature per sample [K]


@dataclass(frozen=True)
class Dataset:
    cases: list
    norm: NormConstants
    config: TwinConfig
    seed: int | None = None

    def split(self, name: str) -> list:
        if name not in SPLITS:
            raise ConfigurationError(f"unknown split {name!r}")
        return [c for c in self.cases if c.spec.split == name]


def couple_rod_channel(spec: CaseSpec, cfg: TwinConfig) -> CoupledSolution:
    """Rod conduction and channel march converged in one Picard loop.

    See ``assemble_and_solve_conduction``; ``iterations``, ``residual`` and
    ``residual_trace`` are that loop's (max |dT| over the field < 0.01 K).
    """
    geom, bc = cfg.geometry, cfg.channel
    mesh = build_rod_mesh(geom, cfg.mesh.nr_fuel, cfg.mesh.nz, cfg.mesh.nr_clad)
    src = HeatSource(q0=spec.q0, delta_e=cfg.delta_e)
    vs = VolumetricSource.from_heat_source(src, geom, mesh)
    field = assemble_and_solve_conduction(mesh, cfg.materials, vs,
                                          uniform_channel_state(mesh.z, bc),
                                          spec.burnup, channel=bc)
    return CoupledSolution(field=field, channel=field.coolant,
                           iterations=field.picard_iterations,
                           residual=field.picard_residuals[-1],
                           residual_trace=field.picard_residuals)


def extract_sensors(solution: CoupledSolution, z_locations, eta: float,
                    tinf_policy: str = "inlet") -> SensorSet:
    """Sample the cladding outer surface and form the cooling-law surrogate.

    T_inf is the channel inlet temperature by default ("inlet" policy: the
    reconstruction must run from sensor readings alone); "local" uses the
    coolant temperature at each sensor elevation. Weights are the Voronoi
    segment lengths of the sensor elevations over the heated span.
    """
    mesh = solution.field.mesh
    geom = mesh.geom
    zs = np.sort(np.asarray(z_locations, dtype=float))
    if zs.size < 2:
        raise DomainError("need at least 2 sensors")
    if np.any(zs < 0.0) or np.any(zs > geom.L_fr):
        raise DomainError("sensor elevation outside the rod span")

    T = np.interp(zs, mesh.z, solution.field.wall)
    if tinf_policy == "inlet":
        T_inf = np.full_like(zs, float(solution.channel.T_cool[0]))
    elif tinf_policy == "local":
        T_inf = solution.channel.interp_T(zs)
    else:
        raise ConfigurationError(f"unknown tinf_policy {tinf_policy!r}")
    dhat = -eta * (T - T_inf)

    edges = np.concatenate([[geom.z_pb], 0.5 * (zs[:-1] + zs[1:]), [geom.z_pt]])
    w = np.diff(edges)
    r = np.full_like(zs, geom.R_co)
    return SensorSet(z=zs, r=r, T=T, T_inf=T_inf, dhat=dhat, w=w, eta=eta)


def _run_case(spec: CaseSpec, cfg: TwinConfig) -> CaseResult:
    try:
        sol = couple_rod_channel(spec, cfg)
    except SolverError as e:
        raise SolverError(f"case {spec.case_id!r} failed: {e}",
                          residuals=e.residuals) from e
    sens = extract_sensors(sol, np.asarray(cfg.sensors.z_fracs) * cfg.geometry.L_fr,
                           cfg.sensors.eta, cfg.sensors.tinf_policy)
    r, z, region = sol.field.mesh.node_table()
    return CaseResult(spec=spec, solution=sol, sensors=sens,
                      r=r, z=z, region=region, T=sol.field.flatten())


def _normalization(cases: list, cfg: TwinConfig) -> NormConstants:
    train = [c for c in cases if c.spec.split == "train"] or cases
    r100 = np.concatenate([100.0 * c.r for c in train])
    z = np.concatenate([c.z for c in train])
    T = np.concatenate([c.T for c in train])

    def center_scale(x, floor=1e-9):
        lo, hi = float(x.min()), float(x.max())
        return 0.5 * (lo + hi), max(0.5 * (hi - lo), floor)

    rc, rs = center_scale(r100)
    zc, zs = center_scale(z)
    tc, ts = center_scale(T, floor=MIN_T_SCALE)
    return NormConstants(r_center=rc, r_scale=rs, z_center=zc, z_scale=zs,
                         T_center=tc, T_scale=ts)


def roster_specs(cfg: TwinConfig, burnup: float = 0.0) -> list[CaseSpec]:
    """Default case roster: the printed q0 lists for the three splits."""
    specs = []
    validate = cfg.roster_validate
    if cfg.dedupe_validation:
        validate = tuple(q for q in validate if q not in cfg.roster_train)
    for split, q0s in (("train", cfg.roster_train), ("validate", validate),
                       ("test", cfg.roster_test)):
        for q0 in q0s:
            specs.append(CaseSpec(case_id=f"{split}_q{q0 / 1e3:g}", q0=float(q0),
                                  burnup=burnup, split=split))
    return specs


def generate_dataset(specs: list[CaseSpec], cfg: TwinConfig,
                     seed: int | None = None) -> Dataset:
    """Run every case and assemble the dataset; any failed case aborts."""
    if not specs:
        raise ConfigurationError("empty case roster")
    if not any(s.split == "test" for s in specs):
        raise ConfigurationError("roster needs at least one test case")
    ids = [s.case_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigurationError("duplicate case ids in roster")
    cases = [_run_case(s, cfg) for s in sorted(specs, key=lambda s: s.case_id)]
    return Dataset(cases=cases, norm=_normalization(cases, cfg), config=cfg,
                   seed=seed)


def burnup_sweep(n_cases: int, burnup_range: tuple, rng_seed: int,
                 cfg: TwinConfig) -> Dataset:
    """Uniformly sampled burnup (and q0) cases with random 60/20/20 splits."""
    if n_cases < 10:
        raise ConfigurationError("burnup sweep needs n_cases >= 10")
    lo, hi = burnup_range
    if lo < 0.0 or hi <= lo:
        raise ConfigurationError(f"bad burnup range {burnup_range}")
    q_lo, q_hi = cfg.sweep_q0_range
    if not (Q0_MIN <= q_lo < q_hi <= Q0_MAX):
        raise ConfigurationError(f"bad sweep q0 range {cfg.sweep_q0_range}")

    rng = np.random.default_rng(rng_seed)
    burnups = rng.uniform(lo, hi, n_cases)
    q0s = rng.uniform(q_lo, q_hi, n_cases)
    n_val = round(0.2 * n_cases)
    n_test = round(0.2 * n_cases)
    order = rng.permutation(n_cases)
    split = np.empty(n_cases, dtype=object)
    split[order[:n_val]] = "validate"
    split[order[n_val:n_val + n_test]] = "test"
    split[order[n_val + n_test:]] = "train"

    specs = [CaseSpec(case_id=f"bu{i:03d}", q0=float(q0s[i]),
                      burnup=float(burnups[i]), split=str(split[i]))
             for i in range(n_cases)]
    return generate_dataset(specs, cfg, seed=rng_seed)
