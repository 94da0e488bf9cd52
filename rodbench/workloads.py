"""The benchmark workloads, each driven only through the public rodtwin API.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. A workload provides

- ``setup(j)``: the j-th of ``Scale.setups`` identical set-ups; the last one's
  state is used;
- ``warmups()``: untimed, checked operations run before timing starts;
- ``prepare(i)``: the inputs of timed operation i, made from the seed and
  not timed;
- ``run(inputs)``: the timed operation; returns ``(items, work_s, outputs)``
  where ``work_s`` is the time the items are counted against (None: the
  whole operation);
- ``check(inputs, outputs)``: a list of failed checks, empty when correct.
"""

from __future__ import annotations

import dataclasses
import shutil
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rodtwin import core, io, khnet, metrics, pipeline, thermomech
from rodtwin.config import MeshConfig, TwinConfig

COUPLING_TOL_K = 0.1          # coupling tolerance every sweep case must meet
ENERGY_BALANCE_REL = 5e-3     # acceptance criterion 2: outlet within 0.5%
SWEEP_BURNUP = (2.4, 59.7)    # MWd/kgU; q0 comes from sweep_q0_range
SENSOR_NOISE_K = 0.5          # thermocouple noise in monitor snapshots


@dataclass(frozen=True)
class Scale:
    """Problem size and check floors of one benchmark configuration."""

    mesh: MeshConfig
    setups: int               # set-ups per run; setup_s is their median
    train_epochs: int         # epochs per roster_train operation
    train_r2_floor: float     # held-out 20 kW/m R2 after train_epochs
    sweep_cases: int          # cases per burnup_sweep call
    monitor_epochs: int       # training epochs in the monitor set-up
    monitor_r2_floor: float   # per-snapshot R2 of the monitor model


NOMINAL = Scale(mesh=MeshConfig(), setups=3, train_epochs=8,
                train_r2_floor=0.9, sweep_cases=30, monitor_epochs=4,
                monitor_r2_floor=0.7)

# Tiny configuration for the self-test only: coarse mesh, one training
# epoch. The floors sit below the R2 such models reach (0.71-0.78 held out
# after one epoch, 0.12-0.92 per roster case after five), so they catch
# corrupted fields, not model quality.
TINY = Scale(mesh=MeshConfig(nr_fuel=4, nr_clad=2, nz=40), setups=1,
             train_epochs=1, train_r2_floor=0.5, sweep_cases=10,
             monitor_epochs=5, monitor_r2_floor=0.0)


def derived_seed(seed: int, index: int) -> int:
    """Independent 32-bit seed for item ``index`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def tree_bytes(path: Path) -> int:
    if path.is_file():
        return path.stat().st_size
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _same_stacks(a, b) -> bool:
    return all(a[k].shape == b[k].shape and np.array_equal(a[k], b[k])
               for k in a) and set(a) == set(b)


class Workload:
    name = ""
    why = ""
    item = ""        # what items_per_s counts
    operation = ""   # what one timed operation does
    rate_name = ""   # the name items_per_s is also printed under

    def __init__(self, scale: Scale, seed: int, workdir: Path):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.cfg = TwinConfig(mesh=scale.mesh)
        self.io_bytes: dict[str, list[int]] = {}
        self.notes: dict[str, object] = {}

    def warmups(self):
        return []

    def _record_bytes(self, key: str, path: Path) -> None:
        self.io_bytes.setdefault(key, []).append(tree_bytes(path))


class RosterTrain(Workload):
    """Train on the nominal 11-case roster, round-trip the checkpoint and
    reconstruct the held-out case; the dataset is generated in set-up."""

    name = "roster_train"
    why = ("khnet training dominates the paper's workflow; the solver does "
           "no timed work")
    item = "training sample x epoch, against train() wall time"
    operation = "train + checkpoint round trip + held-out reconstruction"
    rate_name = "train_samples_per_s"

    def setup(self, j: int) -> None:
        cfg = self.cfg
        self.ds = pipeline.generate_dataset(pipeline.roster_specs(cfg), cfg,
                                            seed=0)
        self.mesh = io.mesh_from_config(cfg)
        self.test = self.ds.split("test")[0]
        self.n_samples = sum(c.T.size for c in self.ds.split("train"))

    def prepare(self, i: int):
        settings = dataclasses.replace(self.cfg.training,
                                       epochs=self.scale.train_epochs,
                                       seed=derived_seed(self.seed, i))
        return settings, self.workdir / f"checkpoint_{i}.json"

    def run(self, inputs):
        settings, path = inputs
        t0 = time.perf_counter()
        model, history = khnet.train(self.ds, settings)
        train_s = time.perf_counter() - t0
        io.save_checkpoint(model, path)
        loaded = io.load_checkpoint(path)
        rec = khnet.reconstruct_field(loaded, self.test.sensors, self.mesh)
        report = metrics.compute_metrics(rec.flatten(), self.test.T,
                                         self.test.region)
        return (self.n_samples * settings.epochs, train_s,
                (model, history, loaded, report))

    def check(self, inputs, outputs) -> list[str]:
        settings, path = inputs
        model, history, loaded, report = outputs
        self._record_bytes("io.checkpoint_bytes", path)
        path.unlink()
        problems = []
        losses = np.asarray(history.train_mse + history.val_mse, float)
        if len(history.train_mse) != settings.epochs \
                or not np.all(np.isfinite(losses)):
            problems.append("loss history is not finite over every epoch")
        if not (report.r_squared >= self.scale.train_r2_floor):
            problems.append(f"held-out R2 {report.r_squared:.4f} below "
                            f"{self.scale.train_r2_floor}")
        if not (_same_stacks(model.G_stack, loaded.G_stack)
                and _same_stacks(model.dG_stack, loaded.dG_stack)):
            problems.append("checkpoint round trip changed the weights")
        return problems


class SweepGenerate(Workload):
    """Seeded burnup/q0 sweeps through burnup_sweep, saved and loaded."""

    name = "sweep_generate"
    why = ("solver-heavy: conduction, channel, water properties and "
           "coupling do the work, khnet none; io writes next to reads")
    item = "coupled case, against burnup_sweep + save + load time"
    operation = "burnup_sweep + save_dataset + load_dataset"
    rate_name = "sweep_cases_per_s"

    def __init__(self, scale, seed, workdir):
        super().__init__(scale, seed, workdir)
        bc = self.cfg.channel
        T = np.arange(bc.T_in, core.WATER_T_MAX, 0.01)
        cp = np.array([core.water_properties(float(t)).cp for t in T])
        H = np.concatenate([[0.0], np.cumsum(0.5 * (cp[1:] + cp[:-1])
                                             * np.diff(T))])
        self._enthalpy = (H, T)

    def _outlet_rise(self, q0: float) -> float:
        """Closed-form outlet temperature rise from the rod power."""
        cfg = self.cfg
        power = core.integrated_rod_power(
            core.HeatSource(q0=q0, delta_e=cfg.delta_e), cfg.geometry)
        H, T = self._enthalpy
        target = power / (cfg.channel.G * cfg.channel.flow_area)
        return float(np.interp(target, H, T)) - cfg.channel.T_in

    def setup(self, j: int) -> None:
        # one coupled case warms the sparse solver and property paths
        spec = pipeline.CaseSpec(case_id="warm", q0=20e3, burnup=0.0,
                                 split="test")
        pipeline.couple_rod_channel(spec, self.cfg)

    def prepare(self, i: int):
        return derived_seed(self.seed, i), self.workdir / f"sweep_{i}"

    def run(self, inputs):
        sweep_seed, path = inputs
        ds = pipeline.burnup_sweep(self.scale.sweep_cases, SWEEP_BURNUP,
                                   sweep_seed, self.cfg)
        io.save_dataset(ds, path)
        loaded = io.load_dataset(path)
        return len(ds.cases), None, (ds, loaded)

    def check(self, inputs, outputs) -> list[str]:
        _, path = inputs
        ds, loaded = outputs
        self._record_bytes("io.dataset_bytes", path)
        shutil.rmtree(path)
        problems = []
        if len(ds.cases) != self.scale.sweep_cases:
            problems.append(f"sweep returned {len(ds.cases)} cases")
        for c in ds.cases:
            sol = c.solution
            if not (sol.residual < COUPLING_TOL_K):
                problems.append(f"{c.spec.case_id}: coupling residual "
                                f"{sol.residual} K")
            expected = self._outlet_rise(c.spec.q0)
            got = float(sol.channel.T_cool[-1]) - self.cfg.channel.T_in
            if not abs(got - expected) <= ENERGY_BALANCE_REL * expected:
                problems.append(f"{c.spec.case_id}: outlet rise {got:.4f} K "
                                f"vs closed form {expected:.4f} K")
        problems += _dataset_mismatches(ds, loaded)
        return problems


def _dataset_mismatches(ds, loaded) -> list[str]:
    """Differences between a dataset and its reloaded copy (bit exact)."""
    if [c.spec for c in ds.cases] != [c.spec for c in loaded.cases]:
        return ["reloaded dataset has different case specs"]
    problems = []
    if loaded.norm != ds.norm:
        problems.append("reloaded normalization differs")
    for a, b in zip(ds.cases, loaded.cases):
        arrays = [(a.T, b.T), (a.r, b.r), (a.z, b.z)]
        arrays += [(getattr(a.sensors, k), getattr(b.sensors, k))
                   for k in ("z", "r", "T", "T_inf", "dhat", "w")]
        if not all(x.shape == y.shape and np.array_equal(x, y)
                   for x, y in arrays) or a.sensors.eta != b.sensors.eta:
            problems.append(f"{a.spec.case_id}: reloaded arrays differ")
    return problems


class MonitorStream(Workload):
    """The deployed twin: noisy sensor snapshots, one at a time, through
    reconstruction, metrics against the truth, hoop strain and stress."""

    name = "monitor_stream"
    why = ("khnet inference and thermomech dominate; every snapshot shares "
           "one sensor layout and seeded noise makes each input distinct")
    item = "sensor snapshot"
    operation = "reconstruct + metrics + hoop strain + stress field"
    rate_name = "snapshots_per_s"

    def setup(self, j: int) -> None:
        cfg = self.cfg
        self.ds = pipeline.generate_dataset(pipeline.roster_specs(cfg), cfg,
                                            seed=0)
        settings = dataclasses.replace(cfg.training,
                                       epochs=self.scale.monitor_epochs,
                                       seed=j)
        self.model, _ = khnet.train(self.ds, settings)
        self.mesh = io.mesh_from_config(cfg)
        self.rng = np.random.default_rng(self.seed)
        layouts = Counter((c.sensors.z.tobytes(), c.sensors.w.tobytes())
                          for c in self.ds.cases)
        self.notes["shared_sensor_layout_frac"] = (
            max(layouts.values()) / len(self.ds.cases))

    def warmups(self):
        """One noise-free snapshot per roster case."""
        return [(c, c.sensors) for c in self.ds.cases]

    def prepare(self, i: int):
        case = self.ds.cases[i % len(self.ds.cases)]
        s = case.sensors
        T = s.T + self.rng.normal(0.0, SENSOR_NOISE_K, s.T.shape)
        return case, dataclasses.replace(s, T=T, dhat=-s.eta * (T - s.T_inf))

    def run(self, inputs):
        case, sensors = inputs
        tm = self.cfg.thermomech
        rec = khnet.reconstruct_field(self.model, sensors, self.mesh)
        report = metrics.compute_metrics(rec.flatten(), case.T, case.region)
        strain = thermomech.hoop_strain_summary(rec, self.cfg.materials,
                                                tm.creep_duration)
        stress = thermomech.stress_field(rec, tm.P_gap, tm.P_cool,
                                         self.cfg.materials)
        return 1, None, (rec, report, strain, stress)

    def check(self, inputs, outputs) -> list[str]:
        case, _ = inputs
        rec, report, strain, stress = outputs
        problems = []
        if not np.all(np.isfinite(rec.flatten())):
            problems.append(f"{case.spec.case_id}: non-finite field")
        parts = (stress.fuel_sigma_r, stress.fuel_sigma_theta,
                 stress.fuel_sigma_z, stress.clad_sigma_r,
                 stress.clad_sigma_theta, stress.clad_sigma_z)
        if not all(np.all(np.isfinite(p)) for p in parts) \
                or not np.isfinite(strain.total):
            problems.append(f"{case.spec.case_id}: non-finite stress/strain")
        if not (report.r_squared >= self.scale.monitor_r2_floor):
            problems.append(f"{case.spec.case_id}: R2 {report.r_squared:.4f} "
                            f"below {self.scale.monitor_r2_floor}")
        return problems


WORKLOADS = {w.name: w for w in (RosterTrain, SweepGenerate, MonitorStream)}
