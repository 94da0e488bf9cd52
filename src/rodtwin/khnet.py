"""Learned boundary-integral reconstruction network.

Two small dense stacks (128/64/1, tanh) play the roles of the boundary kernel
and its normal derivative. For an interior point i and boundary sensor j the
physical layer forms phi_ij = u_j * dG_ij - G_ij * dhat_j and the integration
layer contracts it with fixed boundary quadrature weights to give the
normalized temperature estimate at i. Training is plain minibatch Adam on MSE
with hand-written reverse-mode gradients; no autodiff framework.

Both stacks live in one flat vector ``KhModel.theta`` with named per-layer
views; gradients share its layout, so Adam is a few vector operations.
Checkpoints stay per-layer JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .config import TrainSettings
from .conduction import TemperatureField
from .errors import (ConfigurationError, DomainError, ShapeError,
                     TrainingError)
from .mesh import RodMesh
from .pipeline import Dataset, NormConstants, SensorSet

LAYER_SIZES = (5, 128, 64, 1)
# one stack's parameters in theta order
PARAM_SHAPES = {f"{kind}{li + 1}": shape
                for li, (fan_in, fan_out) in enumerate(zip(LAYER_SIZES,
                                                           LAYER_SIZES[1:]))
                for kind, shape in (("W", (fan_in, fan_out)), ("b", (fan_out,)))}
PARAM_KEYS = tuple(PARAM_SHAPES)
_BOUNDS = list(accumulate((math.prod(s) for s in PARAM_SHAPES.values()),
                          initial=0))
STACK_SIZE = _BOUNDS[-1]
N_PARAMS = 2 * STACK_SIZE

DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 50


# ---------------------------------------------------------------------------
# dense stacks
# ---------------------------------------------------------------------------

def init_stack(rng: np.random.Generator) -> dict:
    """Uniform +-1/sqrt(fan_in) weights and zero biases for one dense stack."""
    return {k: np.zeros(shape) if k[0] == "b" else
            rng.uniform(-1.0 / np.sqrt(shape[0]), 1.0 / np.sqrt(shape[0]),
                        size=shape) for k, shape in PARAM_SHAPES.items()}


def stack_views(flat: np.ndarray) -> tuple[dict, dict]:
    """(G, dG) dicts of named per-layer views into a vector in theta's layout."""
    return tuple({k: flat[o + lo:o + hi].reshape(shape)
                  for (k, shape), lo, hi in zip(PARAM_SHAPES.items(), _BOUNDS,
                                                _BOUNDS[1:])}
                 for o in (0, STACK_SIZE))


def _check_stack(params: dict, name: str = "stack") -> None:
    """Raise ShapeError unless params has exactly the LAYER_SIZES layers."""
    shapes = ({k: np.shape(v) for k, v in params.items()}
              if isinstance(params, dict) else type(params).__name__)
    if shapes != PARAM_SHAPES:
        raise ShapeError(f"{name} shapes {shapes}, expected {PARAM_SHAPES}")


def dense_forward(params: dict, x) -> np.ndarray:
    """y = W3.tanh(W2.tanh(W1 x + b1) + b2) + b3 (linear output)."""
    x = np.atleast_2d(np.asarray(x, float))
    _check_stack(params)
    if x.shape[1] != LAYER_SIZES[0]:
        raise ShapeError(f"expected {LAYER_SIZES[0]} features, got {x.shape[1]}")
    return _dense_forward_cache(params, x)[0]


def _dense_forward_cache(params: dict, x: np.ndarray):
    acts = [x]
    for li in (1, 2, 3):
        z = acts[-1] @ params[f"W{li}"]
        z += params[f"b{li}"]
        acts.append(np.tanh(z, out=z) if li < 3 else z)
    return acts.pop().ravel(), acts


def _dense_backward(params: dict, acts, dy: np.ndarray, grads: dict) -> None:
    """Write the stack's gradients into the views grads; overwrites acts."""
    dz = dy[:, None]
    for li in (3, 2, 1):
        a = acts[li - 1]
        np.matmul(a.T, dz, out=grads[f"W{li}"])
        dz.sum(axis=0, out=grads[f"b{li}"])
        if li > 1:
            w_t = params[f"W{li}"].T     # one column: outer product, no GEMM
            dz = dz * w_t if dz.shape[1] == 1 else dz @ w_t
            np.multiply(a, a, out=a)     # tanh' = 1 - a^2, in place
            np.subtract(1.0, a, out=a)
            dz *= a


# ---------------------------------------------------------------------------
# physical + integration layers
# ---------------------------------------------------------------------------

def kh_physical_layer(u, dhat, G, dG):
    """Boundary integrand phi = u * dG - G * dhat (elementwise)."""
    return np.asarray(u) * np.asarray(dG) - np.asarray(G) * np.asarray(dhat)


def kh_integrate(phi, w):
    """Weighted boundary sum T_hat_i = sum_j w_j phi_ij; weights are fixed."""
    return np.asarray(phi) @ np.asarray(w) if np.ndim(phi) == 2 \
        else float(np.dot(phi, w))


def boundary_features(points: np.ndarray, sensors_rz: np.ndarray,
                      norm: NormConstants) -> np.ndarray:
    """Normalized kernel inputs for every (interior point, sensor) pair.

    points: (N, 2) of (r, z) [m]; sensors_rz: (M, 2). Output (N, M, 5):
    [r', z', z_j', dz', rho] with coordinates min-max scaled (radius in the
    100x-stretched frame), dz' over the full axial range and rho the scaled
    Euclidean distance over the scaled-frame diagonal.
    """
    pts = np.atleast_2d(np.asarray(points, float))
    sns = np.atleast_2d(np.asarray(sensors_rz, float))
    r100 = 100.0 * pts[:, 0]
    z = pts[:, 1]
    rj100 = 100.0 * sns[:, 0]
    zj = sns[:, 1]

    rn = (r100 - norm.r_center) / norm.r_scale
    zn = (z - norm.z_center) / norm.z_scale
    zjn = (zj - norm.z_center) / norm.z_scale
    dzn = (z[:, None] - zj[None, :]) / (2.0 * norm.z_scale)
    diag = np.hypot(2.0 * norm.r_scale, 2.0 * norm.z_scale)
    rho = np.hypot(r100[:, None] - rj100[None, :], z[:, None] - zj[None, :]) / diag

    return np.stack(np.broadcast_arrays(rn[:, None], zn[:, None], zjn[None, :],
                                        dzn, rho), axis=-1)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass
class KhModel:
    """The given G/dG stacks are copied into theta and replaced by views."""
    G_stack: dict
    dG_stack: dict
    norm: NormConstants
    eta: float
    theta: np.ndarray = field(init=False, repr=False, compare=False)
    # (key, (G, dG)) of the last layout_kernels call; see there
    _layout: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        self.theta = np.empty(N_PARAMS)
        views = stack_views(self.theta)
        for name, given, view in zip(("G", "dG"), (self.G_stack, self.dG_stack),
                                     views):
            _check_stack(given, name)
            for k in PARAM_KEYS:
                view[k][...] = given[k]
        self.G_stack, self.dG_stack = views

    def kernels(self, feats):
        """G and dG at every (point, sensor) pair; feats (N, M, 5) -> (N, M)."""
        flat = feats.reshape(-1, feats.shape[2])
        return tuple(dense_forward(s, flat).reshape(feats.shape[:2])
                     for s in (self.G_stack, self.dG_stack))

    def layout_kernels(self, points, sensors_rz):
        """kernels(boundary_features(points, sensors_rz, norm)), kept for the
        last layout: reused while theta and the float64 point (N, 2) and
        sensor (M, 2) arrays are the same bytes and norm compares equal.
        Sensor readings are no input, so a stream of snapshots from fixed
        thermocouples runs the dense stacks once. The arrays returned are
        read-only."""
        points = np.asarray(points, float)
        sensors_rz = np.asarray(sensors_rz, float)
        key = (self.theta.tobytes(), self.norm, points.tobytes(),
               sensors_rz.tobytes())
        if self._layout is None or self._layout[0] != key:
            kernels = self.kernels(boundary_features(points, sensors_rz,
                                                     self.norm))
            for k in kernels:
                k.flags.writeable = False   # shared by every later hit
            self._layout = (key, kernels)
        return self._layout[1]


def mse_loss(predictions, truths) -> float:
    p = np.asarray(predictions, float).ravel()
    t = np.asarray(truths, float).ravel()
    if p.size == 0 or p.size != t.size:
        raise DomainError("mse_loss needs equal nonempty vectors")
    d = p - t
    return float(d @ d / p.size)


def lr_schedule(epoch: int, schedule=TrainSettings().schedule) -> float:
    """Staged decaying learning rate; clamps at the final stage."""
    if epoch < 0:
        raise DomainError("epoch must be >= 0")
    for threshold, lr in schedule:
        if epoch < threshold:
            return lr
    return schedule[-1][1]


# ---------------------------------------------------------------------------
# gradients + Adam
# ---------------------------------------------------------------------------

def loss_and_gradients(model: KhModel, feats, u_n, dhat_n, w, y):
    """MSE loss and exact reverse-mode gradients for both stacks.

    feats (B, M, 5); u_n/dhat_n/w (B, M) per-sample sensor vectors; y (B,).
    grad is a fresh vector in theta's layout; stack_views(grad) names it.
    """
    b, mcount, nf = feats.shape
    if b == 0:
        raise DomainError("empty batch")
    flat = feats.reshape(b * mcount, nf)
    g, cache_g = _dense_forward_cache(model.G_stack, flat)
    dg, cache_d = _dense_forward_cache(model.dG_stack, flat)
    phi = u_n * dg.reshape(b, mcount) - g.reshape(b, mcount) * dhat_n
    yhat = np.einsum("bm,bm->b", w, phi)

    resid = yhat - y
    loss = float(resid @ resid / b)
    dyhat = 2.0 * resid / b
    dphi = dyhat[:, None] * w

    grad = np.empty(N_PARAMS)
    grads_g, grads_d = stack_views(grad)
    _dense_backward(model.G_stack, cache_g, (-dphi * dhat_n).ravel(), grads_g)
    _dense_backward(model.dG_stack, cache_d, (dphi * u_n).ravel(), grads_d)
    if not np.isfinite(grad).all():
        raise TrainingError("non-finite gradient encountered")
    return loss, grad


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_model(cls, model: KhModel) -> "AdamState":
        return cls(m=np.zeros_like(model.theta), v=np.zeros_like(model.theta))


def adam_step(model: KhModel, state: AdamState, grad: np.ndarray,
              alpha: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> None:
    """In-place Adam update of model.theta with bias correction."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    step = m / bc1
    step *= alpha
    denom = v / bc2
    np.sqrt(denom, out=denom)
    denom += eps
    step /= denom
    model.theta -= step


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainHistory:
    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    lr: list = field(default_factory=list)
    best_epoch: int = -1


class _Samples:
    """Every (case, node) sample of a split, case-major: sample i is node
    i % N of case i // N. feats (N, M, 5) is shared by the cases; u, d, w
    (C, M) are the per-case sensor vectors; y (C * N,) the targets."""

    def __init__(self, dataset: Dataset, split: str):
        cases = dataset.split(split)
        if len({tuple(a.tobytes() for a in (c.r, c.z, c.sensors.r, c.sensors.z))
                for c in cases}) > 1:
            raise ConfigurationError(f"{split} cases differ in node/sensor layout")
        c0, norm = cases[0], dataset.norm
        self.feats = boundary_features(np.column_stack([c0.r, c0.z]),
                                       np.column_stack([c0.sensors.r,
                                                        c0.sensors.z]), norm)
        self.u = np.stack([norm.norm_T(c.sensors.T) for c in cases])
        self.d = np.stack([norm.norm_d(c.sensors.dhat) for c in cases])
        self.w = np.stack([c.sensors.w for c in cases])
        self.y = np.concatenate([norm.norm_T(c.T) for c in cases])

    def take(self, sel):
        """(feats, u, d, w, y) of the samples sel for loss_and_gradients."""
        cs, rows = np.divmod(sel, self.feats.shape[0])
        return (self.feats.take(rows, axis=0), self.u.take(cs, axis=0),
                self.d.take(cs, axis=0), self.w.take(cs, axis=0),
                self.y.take(sel))

    def mse(self, model: KhModel) -> float:
        """MSE over every sample; each stack runs once on the node table."""
        g, dg = model.kernels(self.feats)
        phi = kh_physical_layer(self.u[:, None], self.d[:, None], g, dg)
        return mse_loss(np.einsum("cm,cnm->cn", self.w, phi), self.y)


def train(dataset: Dataset, settings: TrainSettings | None = None
          ) -> tuple[KhModel, TrainHistory]:
    """Minibatch Adam over all training samples with per-epoch validation.

    Deterministic under a fixed seed; retains the best-validation checkpoint.
    """
    settings = settings or dataset.config.training
    for split in ("train", "validate", "test"):
        if not dataset.split(split):
            raise ConfigurationError(f"dataset is missing the {split!r} split")

    tr = _Samples(dataset, "train")
    va = _Samples(dataset, "validate")
    batch_starts = range(0, tr.y.size, settings.batch_size)

    rng = np.random.default_rng(settings.seed)
    model = KhModel(G_stack=init_stack(rng), dG_stack=init_stack(rng),
                    norm=dataset.norm, eta=dataset.config.sensors.eta)
    state = AdamState.for_model(model)

    history = TrainHistory()
    best_val = np.inf
    best = None
    bad_epochs = 0

    for epoch in range(settings.epochs):
        alpha = settings.fixed_lr if settings.fixed_lr is not None \
            else lr_schedule(epoch, settings.schedule)
        perm = rng.permutation(tr.y.size)
        losses = 0.0
        for start in batch_starts:
            loss, grad = loss_and_gradients(
                model, *tr.take(perm[start:start + settings.batch_size]))
            adam_step(model, state, grad, alpha, settings.beta1,
                      settings.beta2, settings.eps)
            losses += loss
        train_mse = losses / len(batch_starts)
        val_mse = va.mse(model)
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)
        history.lr.append(alpha)

        if train_mse > DIVERGENCE_FACTOR * history.train_mse[0]:
            bad_epochs += 1
            if bad_epochs >= DIVERGENCE_PATIENCE:
                raise TrainingError(
                    f"training diverged: MSE > {DIVERGENCE_FACTOR}x initial for "
                    f"{DIVERGENCE_PATIENCE} consecutive epochs")
        else:
            bad_epochs = 0

        if val_mse < best_val:
            best_val = val_mse
            best = model.theta.copy()
            history.best_epoch = epoch

    if best is not None:
        model.theta[...] = best
    return model, history


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def reconstruct_field(model: KhModel, sensors: SensorSet,
                      mesh: RodMesh) -> TemperatureField:
    """Evaluate the forward pipeline at every mesh node and denormalize.

    Rejects sensor arrays of unequal length, sensor temperatures that are
    not finite or normalize beyond 3, and a non-finite dhat, z, r or w. The
    kernels come from model.layout_kernels, so consecutive calls with one
    mesh and sensor layout run the dense stacks once."""
    shapes = {np.shape(a) for a in (sensors.z, sensors.r, sensors.T,
                                    sensors.dhat, sensors.w)}
    if len(shapes) != 1 or len(shapes.pop()) != 1:
        raise ConfigurationError("sensor z, r, T, dhat and w must be 1-D "
                                 "arrays of one length")
    if not np.all(np.isfinite(np.concatenate([sensors.z, sensors.r, sensors.w]))):
        raise ConfigurationError("non-finite sensor z, r or w")
    u_n = model.norm.norm_T(sensors.T)
    if not np.all(np.abs(u_n) <= 3.0):
        raise ConfigurationError(
            "sensor temperatures non-finite or far outside the model's "
            "normalization range; model/sensor mismatch?")
    d_n = model.norm.norm_d(sensors.dhat)
    if not np.all(np.isfinite(d_n)):
        raise ConfigurationError("non-finite sensor dhat")
    r, z, _ = mesh.node_table()
    g, dg = model.layout_kernels(np.column_stack([r, z]),
                                 np.column_stack([sensors.r, sensors.z]))
    t_hat = kh_integrate(kh_physical_layer(u_n, d_n, g, dg), sensors.w)
    return TemperatureField.from_flat(mesh, model.norm.denorm_T(t_hat))
