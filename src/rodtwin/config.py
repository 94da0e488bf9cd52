"""Single JSON case-file schema: geometry, materials, channel, source, mesh,
sensors, rosters, thermomech and training settings, all SI."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from .core import ChannelBoundary, MaterialParams, RodGeometry
from .errors import ConfigurationError

# Fixed roster of peak linear heat rates [W/m]
ROSTER_TRAIN = (10e3, 12e3, 16e3, 18e3, 22e3, 24e3, 30e3, 36e3)
ROSTER_VALIDATE = (14e3, 16e3)
ROSTER_TEST = (20e3,)


@dataclass(frozen=True)
class SensorConfig:
    z_fracs: tuple = (0.2, 0.4, 0.6, 0.8)  # sensor elevations as fractions of L_fr
    eta: float = 1.0                        # cooling-law surrogate scale [-]
    tinf_policy: str = "inlet"              # "inlet" or "local"

    def __post_init__(self):
        if self.tinf_policy not in ("inlet", "local"):
            raise ConfigurationError(f"unknown tinf_policy {self.tinf_policy!r}")


def _require_ints(obj, names) -> None:
    """ConfigurationError unless each named field is an int (bool is not)."""
    for name in names:
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigurationError(f"{name} must be an integer, got {v!r}")


@dataclass(frozen=True)
class MeshConfig:
    nr_fuel: int = 11
    nr_clad: int = 4
    nz: int = 100

    def __post_init__(self):
        _require_ints(self, ("nr_fuel", "nr_clad", "nz"))


@dataclass(frozen=True)
class TrainSettings:
    """Optimizer/schedule settings; fixed_lr overrides the staged schedule."""

    epochs: int = 1100
    batch_size: int = 32
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    seed: int = 0
    fixed_lr: float | None = None
    # lr applies while epoch < threshold; clamps at the last rate beyond
    schedule: tuple = ((300, 1e-3), (600, 1e-4), (900, 1e-5), (1200, 1e-6))

    def __post_init__(self):
        _require_ints(self, ("epochs", "batch_size", "seed"))
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        thresholds = [t for t, _ in self.schedule]
        if thresholds != sorted(set(thresholds)):
            raise ConfigurationError("schedule thresholds must be strictly increasing")


@dataclass(frozen=True)
class ThermomechConfig:
    P_gap: float = 2.0e6        # pellet-cladding gap gas pressure [Pa]
    P_cool: float = 15.51e6     # coolant pressure on the outer surface [Pa]
    creep_duration: float = 3.47e7  # irradiation time for the creep increment [s]


@dataclass(frozen=True)
class TwinConfig:
    geometry: RodGeometry = field(default_factory=RodGeometry)
    materials: MaterialParams = field(default_factory=MaterialParams)
    channel: ChannelBoundary = field(default_factory=ChannelBoundary)
    mesh: MeshConfig = field(default_factory=MeshConfig)
    sensors: SensorConfig = field(default_factory=SensorConfig)
    training: TrainSettings = field(default_factory=TrainSettings)
    thermomech: ThermomechConfig = field(default_factory=ThermomechConfig)
    q0: float = 20e3            # peak linear heat rate for single-case runs [W/m]
    delta_e: float = 0.08       # sine extrapolation length [m]
    burnup: float = 0.0         # burnup for single-case runs [MWd/kgU]
    roster_train: tuple = ROSTER_TRAIN
    roster_validate: tuple = ROSTER_VALIDATE
    roster_test: tuple = ROSTER_TEST
    dedupe_validation: bool = False  # drop validation q0 values that repeat a training one
    sweep_q0_range: tuple = (12e3, 30e3)  # q0 sampling range for burnup sweeps [W/m]

    def __post_init__(self):  # one surface for conduction and the channel
        if self.channel.R_co != self.geometry.R_co:
            raise ConfigurationError(f"channel R_co={self.channel.R_co} differs "
                                     f"from geometry R_co={self.geometry.R_co}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        return _tuples_to_lists(d)

    def to_json(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.to_dict(), f, indent=2)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _tuples_to_lists(obj):
    if isinstance(obj, dict):
        return {k: _tuples_to_lists(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_tuples_to_lists(v) for v in obj]
    return obj


def _build(cls, data: dict, name: str):
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown keys in {name!r} section: {sorted(unknown)}")
    coerced = {}
    for f in dataclasses.fields(cls):
        if f.name not in data:
            continue
        v = data[f.name]
        if isinstance(v, list):
            v = tuple(tuple(x) if isinstance(x, list) else x for x in v)
        coerced[f.name] = v
    try:
        return cls(**coerced)
    except (TypeError, ValueError) as e:
        if isinstance(e, ConfigurationError):
            raise
        raise ConfigurationError(f"bad {name!r} section: {e}") from e


def config_from_dict(data: dict) -> TwinConfig:
    sections = {
        "geometry": RodGeometry, "materials": MaterialParams,
        "channel": ChannelBoundary, "mesh": MeshConfig,
        "sensors": SensorConfig, "training": TrainSettings,
        "thermomech": ThermomechConfig,
    }
    kwargs = {}
    data = dict(data)
    src = data.pop("source", None)
    if src is not None:
        extra = set(src) - {"q0", "delta_e", "burnup"}
        if extra:
            raise ConfigurationError(f"unknown keys in 'source' section: {sorted(extra)}")
        kwargs.update(src)
    for key, cls in sections.items():
        if key in data:
            kwargs[key] = _build(cls, data.pop(key), key)
    top = {f.name for f in dataclasses.fields(TwinConfig)}
    unknown = set(data) - top
    if unknown:
        raise ConfigurationError(f"unknown top-level config keys: {sorted(unknown)}")
    for k, v in data.items():
        if isinstance(v, list):
            v = tuple(v)
        kwargs[k] = v
    return _build(TwinConfig, kwargs, "config")


def load_config(path) -> TwinConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"malformed config JSON {path}: {e}") from e
    return config_from_dict(data)
