"""Single-threaded training loop: Adam-style updates with warmup and decay.

The optimizer is adaptive moment estimation (beta1 0.9, beta2 0.999, eps
1e-8). The learning rate warms up linearly over the first warmup_ratio of
steps, then multiplies by lr_decay after every completed pass over the
dataset. Everything is deterministic for a fixed config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import TrainConfig
from ..errors import ConfigError, InputError
from ..fusion import PipelineSample, forward, init_model_params
from ..numerics import ParamStore
from ..semantics import ReferenceEncoder
from .checkpoint import Checkpoint, rng_state_of


class Adam:
    def __init__(self, params: ParamStore, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {name: np.zeros_like(arr) for name, arr in params.items()}
        self.v = {name: np.zeros_like(arr) for name, arr in params.items()}

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for name, arr in self.params.items():
            g = self.params.grad(name)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            arr -= lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)


def lr_at_step(step: int, config: TrainConfig, steps_per_epoch: int) -> float:
    """Linear warmup to the base rate, then per-epoch multiplicative decay."""
    warmup = int(round(config.warmup_ratio * config.steps))
    if warmup > 0 and step < warmup:
        return config.learning_rate * (step + 1) / warmup
    epochs_done = (step - warmup) // max(1, steps_per_epoch)
    return config.learning_rate * config.lr_decay**epochs_done


@dataclass
class TrainResult:
    checkpoint: Checkpoint
    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    aborted: bool = False
    steps_done: int = 0


def train(
    config: TrainConfig,
    samples: list[PipelineSample],
    encoder: ReferenceEncoder,
) -> TrainResult:
    """Minibatch training over in-memory samples; see TrainResult for the curve.

    A non-finite loss aborts immediately and returns the parameters from
    before the failed step as the last-good checkpoint.
    """
    config.validate()
    if not samples:
        raise InputError("training requires a nonempty dataset")
    for s in samples:
        if s.grid.num_cells != samples[0].grid.num_cells:
            raise ConfigError(
                f"sample {s.sample_id!r} has {s.grid.num_cells} grid cells, "
                f"sample {samples[0].sample_id!r} has {samples[0].grid.num_cells}; a batch needs one grid shape"
            )
        if s.grid.dim != config.d:
            raise ConfigError(f"sample {s.sample_id!r} dim {s.grid.dim} != config d {config.d}")
        if s.grid.num_frames != config.frames:
            raise ConfigError(
                f"sample {s.sample_id!r} has {s.grid.num_frames} frames, config expects {config.frames}"
            )
        if s.labels is None or s.labels.shape != (config.num_classes,):
            raise ConfigError(f"sample {s.sample_id!r} labels do not match num_classes")

    params = init_model_params(config)
    rng = np.random.default_rng(config.seed)
    optimizer = Adam(params)
    steps_per_epoch = max(1, math.ceil(len(samples) / config.batch))

    result = TrainResult(checkpoint=Checkpoint(config, params, 0, rng_state_of(rng)))
    order: list[int] = []

    for step in range(config.steps):
        if not order:
            order = list(rng.permutation(len(samples)))
        batch_idx = [order.pop() for _ in range(min(config.batch, len(order)))]
        if len(batch_idx) < config.batch and len(samples) >= config.batch:
            # refill so every step sees a full batch
            order = list(rng.permutation(len(samples)))
            while len(batch_idx) < config.batch:
                batch_idx.append(order.pop())

        pv = params.as_vars()
        total = forward([samples[i] for i in batch_idx], params, config, encoder, param_vars=pv).loss
        loss_value = float(total.value)
        if not math.isfinite(loss_value):
            result.aborted = True
            break

        params.zero_grads()
        total.backward()
        params.accumulate_grads(pv)

        lr = lr_at_step(step, config, steps_per_epoch)
        optimizer.step(lr)

        result.losses.append(loss_value)
        result.lrs.append(lr)
        result.steps_done = step + 1

    result.checkpoint = Checkpoint(
        config=config, params=params, step=result.steps_done, rng_state=rng_state_of(rng)
    )
    return result


def write_loss_curve(path, result: TrainResult) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,lr,loss\n")
        for i, (lr, loss) in enumerate(zip(result.lrs, result.losses)):
            fh.write(f"{i},{lr!r},{loss!r}\n")
