"""File formats: dataset directories, field/channel/sensor CSVs, model
checkpoints, training history, reports.

All numeric CSV/JSON output uses full round-trip decimal representation so
write-then-read is bit exact.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .channel import ChannelState
from .conduction import TemperatureField
from .config import TwinConfig, config_from_dict
from .errors import ConfigurationError
from .khnet import LAYER_SIZES, KhModel, TrainHistory
from .mesh import RodMesh, build_rod_mesh
from .pipeline import (CaseResult, CaseSpec, Dataset, NormConstants, SensorSet)


SENSOR_COLUMNS = ("z", "r", "T", "T_inf", "dhat", "w", "eta")
NODE_TOL = 1e-9  # [m] field-file node coordinates match the mesh to this


def _fmt(x) -> str:
    return repr(float(x))


def _write_csv(path, header, columns):
    rows = zip(*columns)
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(header)
        for row in rows:
            wr.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def _read_csv(path, required):
    """Columns by header name. Raises ConfigurationError on undecodable
    text or a CSV syntax error, a missing required column, no data rows, or
    a row of the wrong length."""
    try:
        with open(path, newline="") as f:
            rows = [row for row in csv.reader(f) if row]
    except (UnicodeDecodeError, csv.Error) as e:
        raise ConfigurationError(f"{path}: {type(e).__name__}: {e}") from e
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    missing = [h for h in required if h not in header]
    if missing:
        raise ConfigurationError(f"{path}: missing column(s) {', '.join(missing)}")
    if not body:
        raise ConfigurationError(f"{path}: no data rows")
    if any(len(row) != len(header) for row in body):
        raise ConfigurationError(f"{path}: rows must have {len(header)} values")
    return {h: [row[i] for row in body] for i, h in enumerate(header)}


def _floats(path, cols, name) -> np.ndarray:
    """Column name of cols as floats; ConfigurationError on a value that is
    not a number or not finite."""
    try:
        out = np.array([float(v) for v in cols[name]])
    except ValueError as e:
        raise ConfigurationError(f"{path}: column {name}: {e}") from e
    bad = ~np.isfinite(out)
    if bad.any():
        k = int(np.argmax(bad))
        raise ConfigurationError(f"{path}: column {name}, data row {k + 1}: "
                                 f"non-finite value {cols[name][k]!r}")
    return out


# ---------------------------------------------------------------------------
# temperature fields
# ---------------------------------------------------------------------------

def _field_rows_to_csv(path, r, z, region, T) -> None:
    _write_csv(path, ["r", "z", "region", "T"], [r, z, region, T])


def field_to_csv(field: TemperatureField, path) -> None:
    _field_rows_to_csv(path, *field.mesh.node_table(), field.flatten())


def field_arrays_from_csv(path):
    cols = _read_csv(path, ("r", "z", "region", "T"))
    return (_floats(path, cols, "r"), _floats(path, cols, "z"), cols["region"],
            _floats(path, cols, "T"))


def require_same_nodes(path, r, z, r_ref, z_ref, ref_name: str) -> None:
    """ConfigurationError unless the (r, z) nodes of a field file are those of
    the reference, in the same order (to 1 nm)."""
    if r.size != r_ref.size:
        raise ConfigurationError(
            f"{path} has {r.size} nodes but {ref_name} has {r_ref.size}")
    bad = ~((np.abs(r - r_ref) <= NODE_TOL) & (np.abs(z - z_ref) <= NODE_TOL))
    if bad.any():
        k = int(np.argmax(bad))
        raise ConfigurationError(
            f"{path}: node {k} is at (r, z) = ({r[k]}, {z[k]}) but {ref_name} "
            f"has ({r_ref[k]}, {z_ref[k]}); nodes must be in mesh order")


def field_from_csv(path, mesh: RodMesh) -> TemperatureField:
    r, z, _, T = field_arrays_from_csv(path)
    r_mesh, z_mesh, _ = mesh.node_table()
    require_same_nodes(path, r, z, r_mesh, z_mesh, "the mesh")
    return TemperatureField.from_flat(mesh, T)


def channel_to_csv(state: ChannelState, path) -> None:
    _write_csv(path, ["z", "T_cool", "h", "P", "Re"],
               [state.z, state.T_cool, state.h, state.P, state.Re])


def sensors_to_csv(sensors: SensorSet, path) -> None:
    n = sensors.z.size
    _write_csv(path, SENSOR_COLUMNS,
               [sensors.z, sensors.r, sensors.T, sensors.T_inf, sensors.dhat,
                sensors.w, np.full(n, sensors.eta)])


def sensors_from_csv(path) -> SensorSet:
    cols = _read_csv(path, SENSOR_COLUMNS)
    arr = {k: _floats(path, cols, k) for k in SENSOR_COLUMNS}
    return SensorSet(z=arr["z"], r=arr["r"], T=arr["T"], T_inf=arr["T_inf"],
                     dhat=arr["dhat"], w=arr["w"], eta=float(arr["eta"][0]))


# ---------------------------------------------------------------------------
# datasets
# ---------------------------------------------------------------------------

def save_dataset(ds: Dataset, outdir) -> None:
    """Directory layout: cases/<id>/{field,channel,sensors}.csv + manifest.json."""
    outdir = Path(outdir)
    (outdir / "cases").mkdir(parents=True, exist_ok=True)
    manifest = {
        "splits": {c.spec.case_id: c.spec.split for c in ds.cases},
        "cases": {c.spec.case_id: {"q0": c.spec.q0, "burnup": c.spec.burnup}
                  for c in ds.cases},
        "normalization": ds.norm.__dict__,
        "seed": ds.seed,
        "config_hash": ds.config.config_hash(),
        "config": ds.config.to_dict(),
    }
    for c in ds.cases:
        d = outdir / "cases" / c.spec.case_id
        d.mkdir(parents=True, exist_ok=True)
        # from the case's own arrays: a loaded dataset has no solution
        _field_rows_to_csv(d / "field.csv", c.r, c.z, c.region, c.T)
        if c.solution is not None:
            channel_to_csv(c.solution.channel, d / "channel.csv")
        sensors_to_csv(c.sensors, d / "sensors.csv")
    with open(outdir / "manifest.json", "w") as f:
        json.dump(manifest, f, indent=2)


def load_dataset(outdir) -> Dataset:
    """Rebuild a Dataset from disk (coupled solutions are not reloaded).

    Raises ConfigurationError on bad manifest JSON or a missing manifest key
    (named in the message), and on a case CSV without a required column."""
    outdir = Path(outdir)
    path = outdir / "manifest.json"
    try:
        with open(path) as f:
            manifest = json.load(f)
        cfg = config_from_dict(manifest["config"])
        norm = NormConstants(**manifest["normalization"])
        specs = [CaseSpec(case_id=cid, q0=manifest["cases"][cid]["q0"],
                          burnup=manifest["cases"][cid]["burnup"], split=split)
                 for cid, split in sorted(manifest["splits"].items())]
        seed = manifest["seed"]
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        # ValueError covers bad JSON
        raise ConfigurationError(
            f"malformed manifest {path}: {type(e).__name__}: {e}") from e
    cases = []
    for spec in specs:
        d = outdir / "cases" / spec.case_id
        r, z, region, T = field_arrays_from_csv(d / "field.csv")
        sensors = sensors_from_csv(d / "sensors.csv")
        cases.append(CaseResult(spec=spec, solution=None, sensors=sensors,
                                r=r, z=z, region=region, T=T))
    return Dataset(cases=cases, norm=norm, config=cfg, seed=seed)


def mesh_from_config(cfg: TwinConfig) -> RodMesh:
    return build_rod_mesh(cfg.geometry, cfg.mesh.nr_fuel, cfg.mesh.nz,
                          cfg.mesh.nr_clad)


# ---------------------------------------------------------------------------
# model checkpoints and training history
# ---------------------------------------------------------------------------

def save_checkpoint(model: KhModel, path) -> None:
    """Single-JSON checkpoint: architecture, normalization, eta, weights."""
    blob = {
        "architecture": {"layer_sizes": list(LAYER_SIZES),
                         "activation": "tanh", "stacks": ["G", "dG"]},
        "normalization": model.norm.__dict__,
        "eta": model.eta,
        "stacks": {
            "G": {k: v.tolist() for k, v in model.G_stack.items()},
            "dG": {k: v.tolist() for k, v in model.dG_stack.items()},
        },
    }
    with open(path, "w") as f:
        json.dump(blob, f)


def load_checkpoint(path) -> KhModel:
    """Raises ConfigurationError on bad JSON, a missing key or a layer shape
    that does not match LAYER_SIZES."""
    try:
        with open(path) as f:
            blob = json.load(f)
        sizes = tuple(blob["architecture"]["layer_sizes"])
        if sizes != LAYER_SIZES:
            raise ConfigurationError(f"unsupported layer sizes {sizes}")
        stacks = {name: {k: np.array(v, float)
                         for k, v in blob["stacks"][name].items()}
                  for name in ("G", "dG")}
        return KhModel(G_stack=stacks["G"], dG_stack=stacks["dG"],
                       norm=NormConstants(**blob["normalization"]),
                       eta=blob["eta"])
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as e:
        # ValueError covers bad JSON and the ShapeError of a wrong layer shape
        raise ConfigurationError(
            f"malformed checkpoint {path}: {type(e).__name__}: {e}") from e


def history_to_csv(history: TrainHistory, path) -> None:
    epochs = np.arange(len(history.train_mse))
    _write_csv(path, ["epoch", "train_mse", "val_mse", "lr"],
               [epochs, history.train_mse, history.val_mse, history.lr])


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def strain_report_to_json(report, path) -> None:
    blob = {"thermal_expansion_hoop_strain": report.thermal,
            "creep_hoop_strain": report.creep,
            "elastic_hoop_strain": report.elastic,
            "irradiation_growth_hoop_strain": report.irradiation_growth,
            "total_hoop_strain": report.total,
            "location": {"r": report.location[0], "z": report.location[1]},
            "run_time_s": report.run_time}
    with open(path, "w") as f:
        json.dump(blob, f, indent=2)


def stress_field_to_csv(sf, path) -> None:
    mesh = sf.mesh
    r, z, _ = mesh.node_table()
    sig_r = np.concatenate([sf.fuel_sigma_r.ravel(), sf.clad_sigma_r.ravel()])
    sig_z = np.concatenate([sf.fuel_sigma_z.ravel(), sf.clad_sigma_z.ravel()])
    sig_t = np.concatenate([sf.fuel_sigma_theta.ravel(),
                            sf.clad_sigma_theta.ravel()])
    _write_csv(path, ["r", "z", "sigma_r", "sigma_z", "sigma_theta"],
               [r, z, sig_r, sig_z, sig_t])


def metrics_to_json(report, path) -> None:
    with open(path, "w") as f:
        json.dump(report.to_dict(), f, indent=2)
