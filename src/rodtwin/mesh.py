"""Axisymmetric node lattice over the pellet and cladding regions."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import RodGeometry
from .errors import ConfigurationError

FUEL = "fuel"
CLAD = "cladding"


def _axial_nodes(geom: RodGeometry, nz: int) -> tuple[np.ndarray, int, int]:
    """Axial node row coordinates with the fuel ends forced onto nodes.

    The rod is split at z_pb and z_pb + L_f; intervals are distributed across
    the three segments proportionally to length (at least one per nonempty
    segment), uniform within each segment. Returns (z, jf0, jf1) where
    z[jf0:jf1+1] spans the fuel column.
    """
    breaks = [0.0, geom.z_pb, geom.z_pt, geom.L_fr]
    seg_len = np.diff(breaks)
    nonempty = seg_len > 1e-12
    n_int = nz - 1
    counts = np.zeros(3, dtype=int)
    counts[nonempty] = 1
    spare = n_int - counts.sum()
    if spare < 0:
        raise ConfigurationError(f"nz={nz} too small for the axial segmentation")
    # hand out remaining intervals largest-remainder style
    quota = seg_len / geom.L_fr * spare
    extra = np.floor(quota).astype(int)
    counts += extra
    rem = quota - extra
    for _ in range(spare - int(extra.sum())):
        i = int(np.argmax(np.where(nonempty, rem, -1.0)))
        counts[i] += 1
        rem[i] = -1.0
    pieces = []
    for i in range(3):
        if not nonempty[i]:
            continue
        seg = np.linspace(breaks[i], breaks[i + 1], counts[i] + 1)
        pieces.append(seg if not pieces else seg[1:])
    z = np.concatenate(pieces)
    jf0 = int(np.argmin(np.abs(z - geom.z_pb)))
    jf1 = int(np.argmin(np.abs(z - geom.z_pt)))
    return z, jf0, jf1


@dataclass(frozen=True)
class RodMesh:
    """Structured node lattice: fuel disk [0, R_fo] x fuel span, cladding
    annulus [R_ci, R_co] x full rod. Node ordering for flattened exports is
    fuel first, axial-major, radial-minor, then cladding."""

    geom: RodGeometry
    r_fuel: np.ndarray   # (nr_fuel,) strictly increasing, starts at 0
    r_clad: np.ndarray   # (nr_clad,) strictly increasing, R_ci..R_co
    z: np.ndarray        # (nz,) strictly increasing, 0..L_fr
    jf0: int             # first axial row of the fuel column
    jf1: int             # last axial row of the fuel column (inclusive)

    @property
    def nr_fuel(self) -> int:
        return self.r_fuel.size

    @property
    def nr_clad(self) -> int:
        return self.r_clad.size

    @property
    def nz(self) -> int:
        return self.z.size

    @property
    def nz_fuel(self) -> int:
        return self.jf1 - self.jf0 + 1

    @property
    def z_fuel(self) -> np.ndarray:
        return self.z[self.jf0:self.jf1 + 1]

    @property
    def n_fuel_nodes(self) -> int:
        return self.nr_fuel * self.nz_fuel

    @property
    def n_clad_nodes(self) -> int:
        return self.nr_clad * self.nz

    @property
    def n_nodes(self) -> int:
        return self.n_fuel_nodes + self.n_clad_nodes

    def node_table(self) -> tuple[np.ndarray, np.ndarray, tuple[str, ...]]:
        """Flattened (r, z, region) for every node in canonical order.

        Built on the first call and shared by every later one, so r and z
        are read-only and region is a tuple."""
        return self._node_table

    @cached_property
    def _node_table(self):
        rf, zf = np.meshgrid(self.r_fuel, self.z_fuel)   # axial-major
        rc, zc = np.meshgrid(self.r_clad, self.z)
        r = np.concatenate([rf.ravel(), rc.ravel()])
        z = np.concatenate([zf.ravel(), zc.ravel()])
        r.flags.writeable = z.flags.writeable = False
        return r, z, (FUEL,) * self.n_fuel_nodes + (CLAD,) * self.n_clad_nodes


def build_rod_mesh(geom: RodGeometry, nr_fuel: int = 11, nz: int = 100,
                   nr_clad: int = 4) -> RodMesh:
    """Uniform-per-region node lattice (defaults mirror the reference resolution)."""
    if nr_fuel < 3:
        raise ConfigurationError(f"nr_fuel must be >= 3, got {nr_fuel}")
    if nr_clad < 2:
        raise ConfigurationError(f"nr_clad must be >= 2, got {nr_clad}")
    if nz < 10:
        raise ConfigurationError(f"nz must be >= 10, got {nz}")
    r_fuel = np.linspace(0.0, geom.R_fo, nr_fuel)
    r_clad = np.linspace(geom.R_ci, geom.R_co, nr_clad)
    z, jf0, jf1 = _axial_nodes(geom, nz)
    return RodMesh(geom=geom, r_fuel=r_fuel, r_clad=r_clad, z=z, jf0=jf0, jf1=jf1)
