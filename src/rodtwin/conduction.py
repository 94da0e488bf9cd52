"""2D axisymmetric steady heat conduction: pellet + gap link + cladding.

Vertex-centred finite volumes in RZ coordinates; the temperature dependence of
the conductivities is resolved by Picard iteration with a banded Cholesky
solve per sweep. Boundaries: centerline/ends adiabatic, cladding outer surface
Robin against the coolant (re-marched every sweep when the channel is solved
too), pellet surface coupled to the cladding inner surface by a gap
conductance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg as sla
from scipy.sparse import csgraph, csr_array

from .channel import ChannelState, solve_channel
from .core import (ChannelBoundary, MaterialParams, clad_conductivity,
                   fuel_conductivity, linear_heat_rate)
from .errors import SolverError
from .mesh import RodMesh

PICARD_TOL = 0.01      # max |dT| between sweeps [K]
PICARD_MAX_ITER = 200
COOLANT_RELAX = 0.7    # under-relaxation on the re-marched T_cool


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
    coolant: ChannelState | None = None  # Robin boundary of the last solve

    def flatten(self) -> np.ndarray:
        """Node temperatures in the mesh's canonical node order."""
        return np.concatenate([self.T_fuel.ravel(), self.T_clad.ravel()])

    @classmethod
    def from_flat(cls, mesh: RodMesh, T: np.ndarray, **fields) -> "TemperatureField":
        """Inverse of flatten; the other fields are passed by keyword."""
        nf = mesh.n_fuel_nodes
        return cls(mesh=mesh, T_fuel=T[:nf].reshape(mesh.nz_fuel, mesh.nr_fuel),
                   T_clad=T[nf:].reshape(mesh.nz, mesh.nr_clad), **fields)

    @property
    def wall(self) -> np.ndarray:
        """Cladding outer-surface temperature per axial node."""
        return self.T_clad[:, -1]


def _cv_edges(x: np.ndarray) -> np.ndarray:
    """Control-volume bounds of a vertex-centred 1D grid (half cells at ends)."""
    return np.concatenate([x[:1], 0.5 * (x[:-1] + x[1:]), x[-1:]])


def _region_faces(r: np.ndarray, z: np.ndarray, offset: int):
    """Node pairs and area/length factors of one region's interior faces:
    radial faces, then axial faces. Node index = offset + j*nr + i."""
    idx = offset + np.arange(z.size * r.size).reshape(z.size, r.size)
    # radial: 2 pi r_face dz_cv / dr; axial: control-volume annulus / dz
    radial = np.outer(np.diff(_cv_edges(z)), np.pi * (r[:-1] + r[1:]) / np.diff(r))
    axial = np.outer(1.0 / np.diff(z), np.pi * np.diff(_cv_edges(r) ** 2))
    return (np.concatenate([idx[:, :-1].ravel(), idx[:-1, :].ravel()]),
            np.concatenate([idx[:, 1:].ravel(), idx[1:, :].ravel()]),
            np.concatenate([radial.ravel(), axial.ravel()]))


class _FaceTable:
    """Every conductance link of one mesh and its slot in a banded matrix.

    Links are (p, q, factor) triples: the fuel and cladding faces, whose
    conductance is factor times the harmonic-mean k of p and q, then the gap
    links, whose factor is their fixed conductance. The system matrix is
    the weighted graph Laplacian of the links plus the Robin conductances
    on the cladding outer nodes. It is symmetric positive definite; in the
    reverse Cuthill-McKee order of the nodes it is banded, and it is
    written in the upper form ``scipy.linalg.solveh_banded`` takes."""

    def __init__(self, mesh: RodMesh, h_gap: float):
        nf, n = mesh.n_fuel_nodes, mesh.n_nodes
        pf, qf, gf = _region_faces(mesh.r_fuel, mesh.z_fuel, 0)
        pc, qc, gc = _region_faces(mesh.r_clad, mesh.z, nf)
        rows = np.arange(mesh.nz_fuel)
        r_gap = 0.5 * (mesh.geom.R_fo + mesh.geom.R_ci)
        self.n_k = pf.size + pc.size
        self.p = np.concatenate([pf, pc, rows * mesh.nr_fuel + mesh.nr_fuel - 1])
        self.q = np.concatenate([qf, qc, nf + (mesh.jf0 + rows) * mesh.nr_clad])
        self.factor = np.concatenate(
            [gf, gc, h_gap * 2.0 * np.pi * r_gap * np.diff(_cv_edges(mesh.z_fuel))])
        self.robin = nf + np.arange(mesh.nz) * mesh.nr_clad + (mesh.nr_clad - 1)

        links = np.concatenate([self.p, self.q]), np.concatenate([self.q, self.p])
        graph = csr_array((np.ones(links[0].size), links), shape=(n, n))
        self.perm = csgraph.reverse_cuthill_mckee(graph, symmetric_mode=True)
        rank = np.empty(n, dtype=np.intp)
        rank[self.perm] = np.arange(n)
        lo = np.minimum(rank[self.p], rank[self.q])
        hi = np.maximum(rank[self.p], rank[self.q])
        self.bw = int((hi - lo).max())
        # flat indices into the (bw + 1, n) band: a[i, j] sits at [bw + i - j, j]
        self.link_slot = (self.bw - (hi - lo)) * n + hi
        self.diag_slot = self.bw * n + rank

    def solve(self, k: np.ndarray, g_robin: np.ndarray,
              b: np.ndarray) -> np.ndarray:
        """T for node conductivities k, Robin conductances and load b."""
        n = b.size
        kp, kq = k[self.p[:self.n_k]], k[self.q[:self.n_k]]
        c = self.factor.copy()
        c[:self.n_k] *= 2.0 * kp * kq / (kp + kq)
        diag = np.bincount(self.p, c, n) + np.bincount(self.q, c, n)
        diag[self.robin] += g_robin
        band = np.zeros((self.bw + 1, n))
        band.flat[self.link_slot] = -c
        band.flat[self.diag_slot] = diag
        try:
            x = sla.solveh_banded(band, b[self.perm], check_finite=False)
        except sla.LinAlgError as e:
            raise SolverError(f"conduction system factorization failed: {e}") from e
        T = np.empty(n)
        T[self.perm] = x
        return T


def assemble_and_solve_conduction(mesh: RodMesh, m: MaterialParams,
                                  src: VolumetricSource, coolant: ChannelState,
                                  burnup: float = 0.0,
                                  channel: ChannelBoundary | None = None
                                  ) -> TemperatureField:
    """Solve div(k grad T) + q''' = 0 over pellet and cladding.

    Picard-iterates the conductivity nonlinearity to max|dT| < 0.01 K
    (<= 200 sweeps) with a banded Cholesky factorization per sweep. Given
    ``channel``, each sweep then re-marches the coolant from the new wall
    heat flux, under-relaxed, so the loop is also the rod-channel fixed
    point; the field keeps the coolant of its last solve.
    """
    faces = _FaceTable(mesh, m.h_gap)
    nf = mesh.n_fuel_nodes
    b_src = np.zeros(mesh.n_nodes)
    b_src[:nf] = np.outer(src.qppp * np.diff(_cv_edges(mesh.z_fuel)),
                          np.pi * np.diff(_cv_edges(mesh.r_fuel) ** 2)).ravel()
    robin_area = 2.0 * np.pi * mesh.geom.R_co * np.diff(_cv_edges(mesh.z))

    T = np.concatenate([np.repeat(coolant.interp_T(mesh.z_fuel), mesh.nr_fuel),
                        np.repeat(coolant.interp_T(mesh.z), mesh.nr_clad)])
    residuals = []
    for it in range(PICARD_MAX_ITER):
        # Robin conductances and right-hand side from the current coolant
        T_cool = coolant.interp_T(mesh.z)
        h_conv = coolant.interp_h(mesh.z)
        g_robin = h_conv * robin_area
        b = b_src.copy()
        b[faces.robin] += g_robin * T_cool

        k = np.concatenate([fuel_conductivity(T[:nf], burnup, m),
                            clad_conductivity(T[nf:], m)])
        T_new = faces.solve(k, g_robin, b)
        if not np.all(np.isfinite(T_new)):
            raise SolverError("conduction solve produced non-finite temperatures")

        residuals.append(float(np.abs(T_new - T).max()))
        T = T_new
        if residuals[-1] < PICARD_TOL:
            return TemperatureField.from_flat(
                mesh, T, picard_iterations=it + 1,
                picard_residuals=tuple(residuals), coolant=coolant)
        if channel is not None:
            fresh = solve_channel(mesh.z, h_conv * (T[faces.robin] - T_cool), channel)
            coolant = replace(fresh, T_cool=COOLANT_RELAX * fresh.T_cool
                              + (1.0 - COOLANT_RELAX) * coolant.T_cool)

    raise SolverError(f"Picard iteration did not reach {PICARD_TOL} K in "
                      f"{PICARD_MAX_ITER} sweeps", residuals=residuals)


def wall_heat_flux(field: TemperatureField, coolant: ChannelState) -> np.ndarray:
    """Robin boundary heat flux h(z) * (T_wall - T_cool) on the mesh axial nodes."""
    z = field.mesh.z
    return coolant.interp_h(z) * (field.wall - coolant.interp_T(z))
