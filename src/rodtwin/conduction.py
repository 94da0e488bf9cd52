"""2D axisymmetric steady heat conduction: pellet + gap link + cladding.

Vertex-centred finite volumes in RZ coordinates; the temperature dependence of
the conductivities is resolved by Picard iteration with a direct sparse solve
per sweep. Boundaries: centerline/ends adiabatic, cladding outer surface Robin
against the coolant, pellet surface coupled to the cladding inner surface by a
gap conductance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .channel import ChannelState
from .core import MaterialParams, clad_conductivity, fuel_conductivity, linear_heat_rate
from .errors import SolverError
from .mesh import RodMesh

PICARD_TOL = 0.01      # max |dT| between sweeps [K]
PICARD_MAX_ITER = 200


@dataclass(frozen=True)
class VolumetricSource:
    """Volumetric heating per fuel axial row [W/m^3], uniform radially."""

    qppp: np.ndarray  # (nz_fuel,)

    @classmethod
    def from_heat_source(cls, src, geom, mesh: RodMesh) -> "VolumetricSource":
        qp = linear_heat_rate(mesh.z_fuel, src, geom)
        return cls(qppp=qp / (np.pi * geom.R_fo ** 2))


@dataclass(frozen=True)
class TemperatureField:
    mesh: RodMesh
    T_fuel: np.ndarray  # (nz_fuel, nr_fuel)
    T_clad: np.ndarray  # (nz, nr_clad)
    picard_iterations: int = 0
    picard_residuals: tuple = ()

    def flatten(self) -> np.ndarray:
        """Node temperatures in the mesh's canonical node order."""
        return np.concatenate([self.T_fuel.ravel(), self.T_clad.ravel()])

    @classmethod
    def from_flat(cls, mesh: RodMesh, T: np.ndarray) -> "TemperatureField":
        """Inverse of flatten: node temperatures in canonical order."""
        nf = mesh.n_fuel_nodes
        return cls(mesh=mesh, T_fuel=T[:nf].reshape(mesh.nz_fuel, mesh.nr_fuel),
                   T_clad=T[nf:].reshape(mesh.nz, mesh.nr_clad))

    @property
    def wall(self) -> np.ndarray:
        """Cladding outer-surface temperature per axial node."""
        return self.T_clad[:, -1]

    def max_fuel_T(self) -> float:
        return float(self.T_fuel.max())


def _cv_widths(x: np.ndarray) -> np.ndarray:
    """Control-volume widths of a vertex-centred 1D grid (half cells at ends)."""
    w = np.empty_like(x)
    w[1:-1] = 0.5 * (x[2:] - x[:-2])
    w[0] = 0.5 * (x[1] - x[0])
    w[-1] = 0.5 * (x[-1] - x[-2])
    return w


def _radial_cv_bounds(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r_in = np.empty_like(r)
    r_out = np.empty_like(r)
    r_in[0] = r[0]
    r_in[1:] = 0.5 * (r[:-1] + r[1:])
    r_out[:-1] = r_in[1:]
    r_out[-1] = r[-1]
    return r_in, r_out


class _RegionGeom:
    """Precomputed FV geometry for one structured region."""

    def __init__(self, r: np.ndarray, z: np.ndarray):
        self.r, self.z = r, z
        self.nr, self.nz = r.size, z.size
        self.dz_cv = _cv_widths(z)
        self.r_in, self.r_out = _radial_cv_bounds(r)
        self.cv_cross = np.pi * (self.r_out ** 2 - self.r_in ** 2)   # (nr,)
        self.r_face = 0.5 * (r[:-1] + r[1:])                          # (nr-1,)
        self.dr = np.diff(r)
        self.dz = np.diff(z)


def _harmonic(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return 2.0 * a * b / (a + b)


def _region_entries(g: _RegionGeom, k_nodes: np.ndarray, offset: int,
                    rows, cols, vals):
    """Append interior-face conductance entries for one region.

    k_nodes has shape (nz, nr); node index = offset + j*nr + i.
    """
    nr, nz = g.nr, g.nz
    idx = offset + np.arange(nz * nr).reshape(nz, nr)

    # radial faces between (i, j) and (i+1, j)
    k_face = _harmonic(k_nodes[:, :-1], k_nodes[:, 1:])               # (nz, nr-1)
    area = 2.0 * np.pi * g.r_face[None, :] * g.dz_cv[:, None]          # (nz, nr-1)
    cond = k_face * area / g.dr[None, :]
    p, q = idx[:, :-1].ravel(), idx[:, 1:].ravel()
    _push(rows, cols, vals, p, q, cond.ravel())

    # axial faces between (i, j) and (i, j+1)
    k_face = _harmonic(k_nodes[:-1, :], k_nodes[1:, :])                # (nz-1, nr)
    cond = k_face * g.cv_cross[None, :] / g.dz[:, None]
    p, q = idx[:-1, :].ravel(), idx[1:, :].ravel()
    _push(rows, cols, vals, p, q, cond.ravel())


def _push(rows, cols, vals, p, q, g):
    rows.extend((p, q, p, q))
    cols.extend((p, q, q, p))
    vals.extend((g, g, -g, -g))


def assemble_and_solve_conduction(mesh: RodMesh, m: MaterialParams,
                                  src: VolumetricSource, coolant: ChannelState,
                                  burnup: float = 0.0) -> TemperatureField:
    """Solve div(k grad T) + q''' = 0 over pellet and cladding.

    Picard-iterates the conductivity nonlinearity to max|dT| < 0.01 K
    (<= 200 sweeps) with a direct sparse factorization per sweep.
    """
    geom = mesh.geom
    gf = _RegionGeom(mesh.r_fuel, mesh.z_fuel)
    gc = _RegionGeom(mesh.r_clad, mesh.z)
    nf = mesh.n_fuel_nodes
    n = nf + mesh.n_clad_nodes

    T_cool = coolant.interp_T(mesh.z)
    h_conv = coolant.interp_h(mesh.z)

    # T-independent pieces: source vector, Robin conductances, gap areas
    b0 = np.zeros(n)
    b0[:nf] = (src.qppp[:, None] * gf.cv_cross[None, :] * gf.dz_cv[:, None]).ravel()

    g_rob = h_conv * 2.0 * np.pi * geom.R_co * gc.dz_cv                # (nz,)
    rob_idx = nf + np.arange(mesh.nz) * mesh.nr_clad + (mesh.nr_clad - 1)
    b0[rob_idx] += g_rob * T_cool

    r_gap = 0.5 * (geom.R_fo + geom.R_ci)
    g_gap = m.h_gap * 2.0 * np.pi * r_gap * gf.dz_cv                   # (nz_fuel,)
    gap_fuel = np.arange(mesh.nz_fuel) * mesh.nr_fuel + (mesh.nr_fuel - 1)
    gap_clad = nf + (mesh.jf0 + np.arange(mesh.nz_fuel)) * mesh.nr_clad

    T_fuel = np.full((mesh.nz_fuel, mesh.nr_fuel), coolant.interp_T(mesh.z_fuel)[:, None])
    T_clad = np.full((mesh.nz, mesh.nr_clad), T_cool[:, None])

    residuals = []
    for it in range(PICARD_MAX_ITER):
        kf = fuel_conductivity(T_fuel, burnup, m)
        kc = clad_conductivity(T_clad, m)

        rows, cols, vals = [], [], []
        _region_entries(gf, kf, 0, rows, cols, vals)
        _region_entries(gc, kc, nf, rows, cols, vals)
        _push(rows, cols, vals, gap_fuel, gap_clad, g_gap)

        rows.append(rob_idx)
        cols.append(rob_idx)
        vals.append(g_rob)

        A = sp.coo_matrix((np.concatenate(vals),
                           (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n)).tocsc()
        try:
            T_new = spla.spsolve(A, b0)
        except RuntimeError as e:  # pragma: no cover - singular only if misconfigured
            raise SolverError(f"conduction system factorization failed: {e}") from e
        if not np.all(np.isfinite(T_new)):
            raise SolverError("conduction solve produced non-finite temperatures")

        Tf_new = T_new[:nf].reshape(mesh.nz_fuel, mesh.nr_fuel)
        Tc_new = T_new[nf:].reshape(mesh.nz, mesh.nr_clad)
        resid = max(float(np.abs(Tf_new - T_fuel).max()),
                    float(np.abs(Tc_new - T_clad).max()))
        residuals.append(resid)
        T_fuel, T_clad = Tf_new, Tc_new
        if resid < PICARD_TOL:
            return TemperatureField(mesh=mesh, T_fuel=T_fuel, T_clad=T_clad,
                                    picard_iterations=it + 1,
                                    picard_residuals=tuple(residuals))

    raise SolverError(f"Picard iteration did not reach {PICARD_TOL} K in "
                      f"{PICARD_MAX_ITER} sweeps", residuals=residuals)


def wall_heat_flux(field: TemperatureField, coolant: ChannelState) -> np.ndarray:
    """Robin boundary heat flux h(z) * (T_wall - T_cool) on the mesh axial nodes."""
    z = field.mesh.z
    return coolant.interp_h(z) * (field.wall - coolant.interp_T(z))
