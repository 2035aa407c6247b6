"""Randomized equivalence suites and the full-model gradient check.

These back the ``oracle`` and ``gradcheck`` CLI subcommands and the
acceptance tests; each returns a small result dict with the observed worst
case so callers can print one line and compare against the gate.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import TrainConfig
from ..errors import MetricError
from ..fusion import forward
from ..metrics import (
    EvalRecord,
    auroc,
    auroc_oracle,
    multilabel_map,
    multilabel_map_oracle,
)
from ..numerics import GradCheckReport, grad_check
from ..semantics import SyntheticEncoder
from ..ssm import SsmLayerParams, ssm_scan, ssm_scan_oracle
from .fixtures import GenConfig, synth_samples


def random_scan_case(rng: np.random.Generator, max_len=32, max_d=8, max_n=8):
    steps = int(rng.integers(1, max_len + 1))
    d = int(rng.integers(1, max_d + 1))
    d_s = int(rng.integers(1, max_d + 1))
    n = int(rng.integers(1, max_n + 1))
    a = rng.standard_normal((n, n))
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    if radius > 0:
        # keep dynamics near-stable so 32-step values stay O(1..10)
        a *= rng.uniform(0.0, 1.05) / radius
    params = SsmLayerParams(
        in_proj=rng.standard_normal((d, d_s)) / np.sqrt(d),
        A=a,
        B=rng.standard_normal((n, d_s)) / np.sqrt(d_s),
        C=rng.standard_normal((d_s, n)) / np.sqrt(n),
    )
    x = rng.standard_normal((steps, d))
    return x, params


def run_scan_suite(cases: int = 1000, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    max_diff = 0.0
    for _ in range(cases):
        x, params = random_scan_case(rng)
        fast = ssm_scan(x, params)
        slow = ssm_scan_oracle(x, params)
        max_diff = max(
            max_diff,
            float(np.max(np.abs(fast.outputs - slow.outputs))),
            float(np.max(np.abs(fast.final_state - slow.final_state))),
        )
    return {"suite": "scan", "cases": cases, "max_abs_diff": max_diff, "seconds": time.perf_counter() - start}


def _random_records(rng: np.random.Generator, need_neg: bool) -> list[EvalRecord]:
    """<= 6 samples x <= 3 classes with at least one scorable class."""
    while True:
        n = int(rng.integers(1, 7))
        n_classes = int(rng.integers(1, 4))
        labels = (rng.random((n, n_classes)) < 0.5).astype(np.float64)
        # quantized scores half the time so ties get exercised
        if rng.random() < 0.5:
            scores = rng.integers(0, 4, size=(n, n_classes)) / 3.0
        else:
            scores = rng.random((n, n_classes))
        has_pos = (labels.sum(axis=0) > 0).any()
        has_both = ((labels.sum(axis=0) > 0) & (labels.sum(axis=0) < n)).any()
        if has_pos and (has_both or not need_neg):
            break
    box = np.array([0.0, 0.0, 1.0, 1.0])
    return [
        EvalRecord(f"s{i}", box, box, labels[i], scores[i])
        for i in range(n)
    ]


def run_map_suite(cases: int = 200, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    max_diff = 0.0
    for _ in range(cases):
        records = _random_records(rng, need_neg=False)
        max_diff = max(max_diff, abs(multilabel_map(records) - multilabel_map_oracle(records)))
    return {"suite": "map", "cases": cases, "max_abs_diff": max_diff, "seconds": time.perf_counter() - start}


def run_auroc_suite(cases: int = 200, seed: int = 0) -> dict:
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    max_diff = 0.0
    for _ in range(cases):
        records = _random_records(rng, need_neg=True)
        try:
            max_diff = max(max_diff, abs(auroc(records) - auroc_oracle(records)))
        except MetricError:
            continue
    return {"suite": "auroc", "cases": cases, "max_abs_diff": max_diff, "seconds": time.perf_counter() - start}


GRADCHECK_CONFIG = TrainConfig(
    d=16, d_s=8, d_a=8, n=4, n_prompts=2, frames=4, num_classes=5, batch=2, steps=0
)

GRADCHECK_GEN = GenConfig(
    num_samples=2, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5
)


def model_loss_fn(samples, params, config, encoder):
    """Batch-mean training loss with the retrieval-selection signature.

    The first evaluation, the unperturbed one ``grad_check``
    differentiates, runs the whole forward and is kept; each later one is
    its ``rerun``, which runs again only the layer instances whose read
    parameters differ from that evaluation's and what consumes them: one
    head and the loss for a ``head.*`` scalar, one attention, its branch's
    pooling, heads and loss for ``attn.*``, and one scan and the attentions
    it feeds for ``ssm.*``. Retrieval and pooling read no parameter: the
    first evaluation builds the batch inputs, the picks among them, and
    every rerun keeps them. Losses and signatures are bitwise a full
    forward's.
    """
    baseline = None

    def fn(pv):
        nonlocal baseline
        if baseline is None:
            res = baseline = forward(samples, params, config, encoder, param_vars=pv)
        else:
            res = baseline.rerun(pv)
        return res.loss, res.selection_signature

    return fn


def run_model_gradcheck(
    config: TrainConfig | None = None,
    gen: GenConfig | None = None,
    seed: int = 0,
    eps: float = 1e-5,
) -> GradCheckReport:
    """Finite-difference check of the full forward at the desk config."""
    from ..fusion import init_model_params

    config = (config or GRADCHECK_CONFIG).validate()
    gen = gen or GRADCHECK_GEN
    gen = GenConfig(**{**gen.to_dict(), "seed": seed})
    samples = synth_samples(gen)
    encoder = SyntheticEncoder(gen.dim, gen.seed)
    params = init_model_params(config, seed=seed)
    return grad_check(model_loss_fn(samples, params, config, encoder), params, eps)
