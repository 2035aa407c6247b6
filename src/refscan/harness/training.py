"""Single-threaded training loop: Adam-style updates with warmup and decay.

The optimizer is adaptive moment estimation (beta1 0.9, beta2 0.999, eps
1e-8), applied once to the parameter store's flat value vector. The
learning rate warms up linearly over the first warmup_ratio of steps, then
multiplies by lr_decay after every completed pass over the dataset. A
sample's keyword retrieval and pooled inputs are worked out by the sample
the first time a step draws it and kept: both read only the sample, which
no step changes. Scene-attribute picks read the fixed projection of the
store's seed, and are built with the inputs of every batch with a
confident detection. The store's leaves hold views of its flat
gradient vector as their ``grad``, so after the store's gradients are
zeroed each backward adds every gradient straight into the vector the
optimizer reads.
Everything is deterministic for a fixed config seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..config import TrainConfig
from ..errors import ConfigError, InputError
from ..fusion import PipelineSample, check_sample, forward, init_model_params
from ..numerics.params import ParamStore
from ..semantics import ReferenceEncoder
from .checkpoint import Checkpoint, rng_state_of


class Adam:
    """One update over the store's flat value vector; build it once the store is complete.

    The update is ``m = b1 m + (1 - b1) g``, ``v = b2 v + (1 - b2) g g`` and
    ``x -= lr (m / c1) / (sqrt(v / c2) + eps)`` with the bias corrections
    ``c = 1 - b**t``, evaluated in that order into two preallocated flat
    buffers, so a step allocates no temporary of the flat vector.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: ParamStore):
        self.params = params
        self.t = 0
        self.m = np.zeros_like(params.flat_values)
        self.v = np.zeros_like(params.flat_values)
        self._a = np.empty_like(params.flat_values)
        self._b = np.empty_like(params.flat_values)

    def step(self, lr: float) -> None:
        self.t += 1
        b1c = 1.0 - self.BETA1**self.t
        b2c = 1.0 - self.BETA2**self.t
        g, m, v, a, b = self.params.flat_grads, self.m, self.v, self._a, self._b
        m *= self.BETA1
        m += np.multiply(1.0 - self.BETA1, g, out=a)
        v *= self.BETA2
        v += np.multiply(np.multiply(1.0 - self.BETA2, g, out=a), g, out=a)
        np.multiply(lr, np.divide(m, b1c, out=a), out=a)
        np.add(np.sqrt(np.divide(v, b2c, out=b), out=b), self.EPS, out=b)
        self.params.flat_values -= np.divide(a, b, out=a)


def lr_at_step(step: int, config: TrainConfig, steps_per_epoch: int) -> float:
    """Linear warmup to the base rate, then per-epoch multiplicative decay."""
    warmup = int(round(config.warmup_ratio * config.steps))
    if warmup > 0 and step < warmup:
        return config.learning_rate * (step + 1) / warmup
    epochs_done = (step - warmup) // max(1, steps_per_epoch)
    return config.learning_rate * config.lr_decay**epochs_done


@dataclass
class TrainResult:
    """The last checkpoint and the curve. An aborted step's loss names the
    stage and key of the first unit of its forward whose output is not
    finite; a finite loss with non-finite gradients names the first
    parameter, in store order, whose gradient is not finite."""

    checkpoint: Checkpoint
    losses: list[float] = field(default_factory=list)
    lrs: list[float] = field(default_factory=list)
    aborted: bool = False
    steps_done: int = 0
    abort_stage: str | None = None
    abort_unit: str | None = None
    abort_param: str | None = None

    def abort_cause(self) -> str:
        """Where the aborted step first went non-finite, for a message."""
        if self.abort_param is not None:
            return f"non-finite gradient of parameter {self.abort_param!r}"
        return f"non-finite loss, first in stage {self.abort_stage!r} unit {self.abort_unit!r}"


def train(
    config: TrainConfig,
    samples: list[PipelineSample],
    encoder: ReferenceEncoder,
) -> TrainResult:
    """Minibatch training over in-memory samples; see TrainResult for the curve.

    A non-finite loss or gradient aborts immediately and returns the
    parameters from before the failed step as the last-good checkpoint,
    with the cause named in the result.
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
        check_sample(s, config)

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

        params.zero_grads()
        res = forward([samples[i] for i in batch_idx], params, config, encoder)
        total = res.loss
        loss_value = float(total.value)
        if not math.isfinite(loss_value):
            unit = res.first_nonfinite()
            result.aborted, result.abort_stage, result.abort_unit = True, unit.stage, unit.key
            break
        del res  # so backward's peak memory holds no copy of the flat values

        total.backward()
        if not np.isfinite(params.flat_grads).all():
            result.aborted = True
            result.abort_param = next(n for n in params.names() if not np.isfinite(params.grad(n)).all())
            break

        lr = lr_at_step(step, config, steps_per_epoch)
        optimizer.step(lr)
        del total  # so the next forward and backward do not hold this step's tape

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
