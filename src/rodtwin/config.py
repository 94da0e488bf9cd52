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


@dataclass(frozen=True)
class MeshConfig:
    nr_fuel: int = 11
    nr_clad: int = 4
    nz: int = 100


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


def _is_number(v, default=None) -> bool:  # finite; JSON true and false are ints
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) < float("inf")


def _is_numbers(v, default) -> bool:  # a tuple nested as its default is
    check = _is_numbers if isinstance(default[0], tuple) else _is_number
    return isinstance(v, tuple) and all(check(x, default[0]) for x in v)


# checks by declared type, given the default; section fields are built already
_TYPE_CHECKS = {"int": (lambda v, _: _is_number(v) and isinstance(v, int), "an integer"),
                "float": (_is_number, "a finite number"),
                "tuple": (_is_numbers, "a list of finite numbers nested as the default"),
                "bool": (lambda v, _: isinstance(v, bool), "true or false")}


def _section(data, name: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigurationError(f"{name!r} section must be a JSON object")
    return data


def _build(cls, data: dict, name: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(_section(data, name)) - set(fields)
    if unknown:
        raise ConfigurationError(f"unknown keys in {name!r} section: {sorted(unknown)}")
    coerced = {}
    for key, v in data.items():
        f = fields[key]
        if isinstance(v, list):
            v = tuple(tuple(x) if isinstance(x, list) else x for x in v)
        check, what = _TYPE_CHECKS.get(f.type.removesuffix(" | None"), (None, ""))
        if check and not (check(v, f.default) or v is None and f.default is None):
            raise ConfigurationError(f"{name}.{key} must be {what}, got {v!r}")
        coerced[key] = v
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
    data = dict(_section(data, "config"))
    src = data.pop("source", None)
    if src is not None:
        extra = set(_section(src, "source")) - {"q0", "delta_e", "burnup"}
        if extra:
            raise ConfigurationError(f"unknown keys in 'source' section: {sorted(extra)}")
        kwargs.update(src)
    for key, cls in sections.items():
        if key in data:
            kwargs[key] = _build(cls, data.pop(key), key)
    kwargs.update(data)
    return _build(TwinConfig, kwargs, "config")


def load_config(path) -> TwinConfig:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigurationError(f"malformed config JSON {path}: {e}") from e
    return config_from_dict(data)
