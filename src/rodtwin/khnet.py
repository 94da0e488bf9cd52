"""Learned boundary-integral reconstruction network.

Two small dense stacks (128/64/1, tanh) play the roles of the boundary kernel
and its normal derivative. For an interior point i and boundary sensor j the
physical layer forms phi_ij = u_j * dG_ij - G_ij * dhat_j and the integration
layer contracts it with fixed boundary quadrature weights to give the
normalized temperature estimate at i. Training is plain minibatch Adam on MSE
with hand-written reverse-mode gradients; no autodiff framework.

``KhModel.theta`` holds both stacks layer by layer, each layer one (2, fan_in,
fan_out) weight and one (2, fan_out) bias ([0] G, [1] dG), so one stacked pass
runs both; gradients share its layout, so Adam is a few vector operations.

Training is mixed precision (Micikevicius et al. 2018): the stacks' forward
and backward passes run in float32 on a per-step copy of theta, while theta,
Adam, validation, checkpoints and reconstruction stay float64.
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
# one stack's parameters in theta order; theta holds each one for both stacks
PARAM_SHAPES = {f"{kind}{li + 1}": shape
                for li, (fan_in, fan_out) in enumerate(zip(LAYER_SIZES,
                                                           LAYER_SIZES[1:]))
                for kind, shape in (("W", (fan_in, fan_out)), ("b", (fan_out,)))}
PARAM_KEYS = tuple(PARAM_SHAPES)
_BOUNDS = list(accumulate((2 * math.prod(s) for s in PARAM_SHAPES.values()),
                          initial=0))
N_PARAMS = _BOUNDS[-1]

TRAIN_DTYPE = np.float32   # compute precision of the stacks in train()
FORWARD_ROWS = 2048   # rows per dense_forward pass: bounds its peak memory

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


def stack_views(flat: np.ndarray) -> dict:
    """Named per-layer (2, ...) views into a vector in theta's layout; [0] of
    each is the G stack's array and [1] the dG stack's."""
    return {k: flat[lo:hi].reshape(2, *shape)
            for (k, shape), lo, hi in zip(PARAM_SHAPES.items(), _BOUNDS,
                                          _BOUNDS[1:])}


def _check_stack(params: dict, name: str = "stack", lead=()) -> None:
    """Raise ShapeError unless params has exactly the LAYER_SIZES layers, each
    with the leading stack shape lead (None: the one of W1)."""
    shapes = ({k: np.shape(v) for k, v in params.items()}
              if isinstance(params, dict) else {})
    if lead is None:
        lead = shapes.get("W1", ())[:-2]
    expected = {k: lead + shape for k, shape in PARAM_SHAPES.items()}
    if shapes != expected:
        raise ShapeError(f"{name} shapes {shapes}, expected {expected}")


def dense_forward(params: dict, x) -> np.ndarray:
    """y = W3.tanh(W2.tanh(W1 x + b1) + b2) + b3 (linear output), for one
    stack or for a stacked block: x (n, 5) -> (..., n)."""
    x = np.atleast_2d(np.asarray(x, float))
    _check_stack(params, lead=None)
    if x.shape[1] != LAYER_SIZES[0]:
        raise ShapeError(f"expected {LAYER_SIZES[0]} features, got {x.shape[1]}")
    return np.concatenate([_dense_forward_cache(params, x[i:i + FORWARD_ROWS])[0]
                           for i in range(0, max(len(x), 1), FORWARD_ROWS)], -1)


def _dense_forward_cache(params: dict, x: np.ndarray):
    acts = [x]
    for li in (1, 2, 3):
        z = acts[-1] @ params[f"W{li}"]
        z += params[f"b{li}"][..., None, :]
        acts.append(np.tanh(z, out=z) if li < 3 else z)
    return acts.pop()[..., 0], acts


def _dense_backward(params: dict, acts, dy: np.ndarray, grads: dict) -> None:
    """Write the gradients of params, one stack or a stacked block with the
    leading axes of dy (..., n), into the views grads; overwrites acts."""
    dz = dy[..., None]
    for li in (3, 2, 1):
        a = acts[li - 1]
        np.matmul(a.swapaxes(-1, -2), dz, out=grads[f"W{li}"])
        dz.sum(axis=-2, out=grads[f"b{li}"])
        if li > 1:
            w_t = params[f"W{li}"].swapaxes(-1, -2)  # one column: no GEMM
            dz = dz * w_t if dz.shape[-1] == 1 else dz @ w_t
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
    # (key, kernels) of the last layout_kernels call; see there
    _layout: tuple | None = field(default=None, init=False, repr=False,
                                  compare=False)

    def __post_init__(self):
        _check_stack(self.G_stack, "G")
        _check_stack(self.dG_stack, "dG")
        self.theta = np.empty(N_PARAMS)
        stacks = stack_views(self.theta)
        for k, view in stacks.items():
            view[...] = (self.G_stack[k], self.dG_stack[k])
        if not np.isfinite(self.theta).all():
            raise ConfigurationError("non-finite G or dG stack weight")
        self.G_stack = {k: v[0] for k, v in stacks.items()}
        self.dG_stack = {k: v[1] for k, v in stacks.items()}

    def kernels(self, feats):
        """G and dG at every (point, sensor) pair: feats (N, M, 5) ->
        (2, N, M), [0] G and [1] dG, from one stacked dense pass."""
        flat = feats.reshape(-1, feats.shape[2])
        return dense_forward(stack_views(self.theta), flat).reshape(
            2, *feats.shape[:2])

    def layout_kernels(self, points, sensors_rz):
        """kernels(boundary_features(points, sensors_rz, norm)), kept for the
        last layout: reused while theta and the float64 point (N, 2) and
        sensor (M, 2) arrays are the same bytes and norm compares equal.
        Sensor readings are no input, so a stream of snapshots from fixed
        thermocouples runs the dense stacks once. The (2, N, M) array
        returned is read-only."""
        points = np.asarray(points, float)
        sensors_rz = np.asarray(sensors_rz, float)
        key = (self.theta.tobytes(), self.norm, points.tobytes(),
               sensors_rz.tobytes())
        if self._layout is None or self._layout[0] != key:
            kernels = self.kernels(boundary_features(points, sensors_rz,
                                                     self.norm))
            kernels.flags.writeable = False   # shared by every later hit
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

class StepBuffers:
    """A copy of theta and a gradient vector in one compute dtype, each with
    its per-layer views built once, for repeated loss_and_gradients calls."""

    def __init__(self, dtype):
        self.theta = np.empty(N_PARAMS, dtype)
        self.grad = np.empty(N_PARAMS, dtype)
        self.stacks = stack_views(self.theta)
        self.grads = stack_views(self.grad)


def loss_and_gradients(model: KhModel, feats, u_n, dhat_n, w, y, *,
                       buffers: StepBuffers | None = None):
    """MSE loss and exact reverse-mode gradients for both stacks.

    feats (B, M, 5); u_n/dhat_n/w (B, M) per-sample sensor vectors; y (B,).
    theta is copied into buffers, whose dtype is the compute precision: the
    inputs are cast to it. Without buffers, new float64 StepBuffers are
    made. grad is a fresh float64 vector in theta's layout; stack_views(grad)
    names it. theta is not changed.
    """
    if buffers is None:
        buffers = StepBuffers(np.float64)
    np.copyto(buffers.theta, model.theta)
    feats, u_n, dhat_n, w, y = (np.asarray(a, buffers.theta.dtype)
                                for a in (feats, u_n, dhat_n, w, y))
    b, mcount, nf = feats.shape
    if b == 0:
        raise DomainError("empty batch")
    kernels, cache = _dense_forward_cache(buffers.stacks,
                                          feats.reshape(b * mcount, nf))
    g, dg = kernels.reshape(2, b, mcount)
    resid = np.einsum("bm,bm->b", w, u_n * dg - g * dhat_n) - y
    loss = float(resid @ resid / b)
    dphi = (2.0 * resid / b)[:, None] * w
    dy = np.stack([-dphi * dhat_n, dphi * u_n]).reshape(2, b * mcount)
    _dense_backward(buffers.stacks, cache, dy, buffers.grads)
    # buffers are overwritten by the next call: the caller gets a copy
    grad = buffers.grad.astype(np.float64)
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
    (C, M) are the per-case sensor vectors; y (C * N,) the targets. All five
    are computed in float64 and then held in dtype."""

    def __init__(self, dataset: Dataset, split: str, dtype=np.float64):
        cases = dataset.split(split)
        if len({tuple(a.tobytes() for a in (c.r, c.z, c.sensors.r, c.sensors.z))
                for c in cases}) > 1:
            raise ConfigurationError(f"{split} cases differ in node/sensor layout")
        c0, norm = cases[0], dataset.norm
        arrays = (boundary_features(np.column_stack([c0.r, c0.z]),
                                    np.column_stack([c0.sensors.r,
                                                     c0.sensors.z]), norm),
                  np.stack([norm.norm_T(c.sensors.T) for c in cases]),
                  np.stack([norm.norm_d(c.sensors.dhat) for c in cases]),
                  np.stack([c.sensors.w for c in cases]),
                  np.concatenate([norm.norm_T(c.T) for c in cases]))
        self.feats, self.u, self.d, self.w, self.y = (
            a.astype(dtype, copy=False) for a in arrays)

    def take(self, sel):
        """(feats, u, d, w, y) of the samples sel for loss_and_gradients."""
        cs, rows = np.divmod(sel, self.feats.shape[0])
        return (self.feats.take(rows, axis=0), self.u.take(cs, axis=0),
                self.d.take(cs, axis=0), self.w.take(cs, axis=0),
                self.y.take(sel))

    def mse(self, model: KhModel) -> float:
        """MSE over every sample; the stacks run once on the node table."""
        phi = kh_physical_layer(self.u[:, None], self.d[:, None],
                                *model.kernels(self.feats))
        return mse_loss(np.einsum("cm,cnm->cn", self.w, phi), self.y)


def train(dataset: Dataset, settings: TrainSettings | None = None
          ) -> tuple[KhModel, TrainHistory]:
    """Minibatch Adam over all training samples with per-epoch validation.

    Deterministic under a fixed seed; retains the best-validation checkpoint.
    The steps run the stacks in TRAIN_DTYPE on a training split and step
    buffers made once; theta, Adam and the float64 validation MSE keep full
    precision.
    """
    settings = settings or dataset.config.training
    for split in ("train", "validate", "test"):
        if not dataset.split(split):
            raise ConfigurationError(f"dataset is missing the {split!r} split")

    tr = _Samples(dataset, "train", TRAIN_DTYPE)
    va = _Samples(dataset, "validate")
    batch_starts = range(0, tr.y.size, settings.batch_size)

    rng = np.random.default_rng(settings.seed)
    model = KhModel(G_stack=init_stack(rng), dG_stack=init_stack(rng),
                    norm=dataset.norm, eta=dataset.config.sensors.eta)
    state = AdamState.for_model(model)
    buffers = StepBuffers(TRAIN_DTYPE)

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
                model, *tr.take(perm[start:start + settings.batch_size]),
                buffers=buffers)
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
