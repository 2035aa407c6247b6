"""The stages of ``forward``: error tags, and reruns from a prior run.

``forward`` runs ``fusion.STAGES`` in order. Given a prior result it reruns
only from the first stage that reads a parameter whose value changed, and
the gradient check relies on that for every perturbed scalar. A stale
reuse of ``scene_proj`` would pass the gradient check silently (its
analytic gradient is 0), so the guard below compares cached and uncached
evaluations bitwise, one perturbed scalar per parameter name.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from refscan import fusion
from refscan.config import TrainConfig
from refscan.errors import InputError, PipelineError
from refscan.fusion import forward, init_model_params
from refscan.harness import suites
from refscan.harness.fixtures import GenConfig, synth_samples
from refscan.numerics.tape import Var
from refscan.semantics import SyntheticEncoder

# at this seed a perturbation of 0.5 moves the loss or the signature for every
# parameter the configs below read, scene_proj included (it flips a retrieval)
SEED = 5
DELTA = 0.5
CONFIGS = {
    "gradcheck": {},
    "no cross-attention": {"use_mhs_ca": False},
    "no prompts, aux loss": {"n_prompts": 0, "aux_branch_loss": True},
}


def setup(overrides: dict):
    config = TrainConfig(**{**suites.GRADCHECK_CONFIG.to_dict(), **overrides}).validate()
    gen = GenConfig(**{**suites.GRADCHECK_GEN.to_dict(), "seed": SEED})
    encoder = SyntheticEncoder(gen.dim, SEED)
    return config, synth_samples(gen), encoder, init_model_params(config, seed=SEED)


def unread(config: TrainConfig, names: list[str]) -> set[str]:
    """Names no output depends on: without cross-attention the attention
    weights and the keyword and scene-attribute scans feed nothing."""
    if config.use_mhs_ca:
        return set()
    return {n for n in names if n.startswith(("attn.", "ssm.keyword.", "ssm.scene."))}


def evaluation(loss: Var, signature: tuple) -> tuple[bytes, tuple]:
    return np.asarray(loss.value).tobytes(), signature


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_evaluation_is_bitwise_the_uncached_one(name):
    config, samples, encoder, params = setup(CONFIGS[name])
    fn = suites.model_loss_fn(samples, params, config, encoder)
    pv = params.as_vars()
    loss, signature = fn(pv)
    base = evaluation(loss, signature)
    loss.backward()  # the kept evaluation is a cold run, so it differentiates
    moved = set()
    for pname, arr in params.items():
        flat = arr.reshape(-1)
        if not flat.size:
            continue
        grad = pv[pname].grad
        i = 0 if grad is None else int(np.argmax(np.abs(grad.reshape(-1))))
        orig = flat[i]
        flat[i] = orig + DELTA
        try:
            cached = evaluation(*fn(params.as_vars()))
            full = forward(samples, params, config, encoder)
        finally:
            flat[i] = orig
        assert cached == evaluation(full.loss, full.selection_signature), pname
        if cached != base:
            moved.add(pname)
    names = [n for n, a in params.items() if a.size]
    # every perturbation a reused stale output would hide did move the evaluation
    assert moved == set(names) - unread(config, names)
    assert evaluation(*fn(params.as_vars())) == base


RERUNS = {
    "scene_proj.b": ["semantics", "retrieval", "ssm", "fusion", "heads", "loss"],
    "ssm.holistic_spatial.B": ["ssm", "fusion", "heads", "loss"],
    "attn.kwv.temporal.w_v": ["fusion", "heads", "loss"],
    "head.spatial.cls.b2": ["heads", "loss"],
}


@pytest.mark.parametrize("pname", sorted(RERUNS))
def test_rerun_starts_at_the_first_stage_reading_the_change(pname, monkeypatch):
    config, samples, encoder, params = setup({})
    ran = []

    def counted(stage):
        def run(*args):
            ran.append(stage.name)
            return stage.run(*args)

        return dataclasses.replace(stage, run=run)

    monkeypatch.setattr(fusion, "STAGES", tuple(counted(s) for s in fusion.STAGES))
    fn = suites.model_loss_fn(samples, params, config, encoder)
    fn(params.as_vars())
    assert ran == [s.name for s in fusion.STAGES]
    del ran[:]
    fn(params.as_vars())
    assert ran == []  # nothing changed: every output is reused
    params[pname].reshape(-1)[0] += 1e-5
    fn(params.as_vars())
    assert ran == RERUNS[pname]


def test_backward_through_a_reused_output_raises():
    config, samples, encoder, params = setup({})
    first = params.as_vars()
    cold = forward(samples, params, config, encoder, param_vars=first)
    params["head.temporal.reg.b2"][0] += 0.1
    warm = forward(samples, params, config, encoder, param_vars=params.as_vars(), prior=cold)
    with pytest.raises(InputError, match="'fusion' output reused from a prior forward"):
        warm.loss.backward()
    assert all(v.grad is None for v in first.values())  # nothing reached the prior run's leaves
    again = params.as_vars()
    forward(samples, params, config, encoder, param_vars=again).loss.backward()
    assert again["head.temporal.reg.b2"].grad is not None


def test_prior_of_another_batch_is_rejected():
    config, samples, encoder, params = setup({})
    prior = forward(samples, params, config, encoder)
    with pytest.raises(InputError, match="prior"):
        forward(samples[:1], params, config, encoder, prior=prior)
    with pytest.raises(InputError, match="prior"):
        forward(samples, params, config, SyntheticEncoder(encoder.dim, SEED), prior=prior)
    other = TrainConfig(**{**config.to_dict(), "lambda_box": 2.0}).validate()
    with pytest.raises(InputError, match="prior"):
        forward(samples, params, other, encoder, prior=prior)


@pytest.mark.parametrize(
    "pname, stage",
    [
        ("scene_proj.w", "semantics"),
        ("ssm.keyword.in_proj", "ssm"),
        ("attn.bv.spatial.w_q", "fusion"),
        ("head.spatial.cls.w1", "heads"),
    ],
)
def test_parameter_shape_mismatch_is_tagged_with_its_stage(pname, stage):
    config, samples, encoder, params = setup({})
    pv = params.as_vars()
    pv[pname] = Var(np.zeros((3, 3)))
    with pytest.raises(PipelineError) as info:
        forward(samples, params, config, encoder, param_vars=pv)
    assert info.value.stage == stage


def test_target_shape_mismatch_is_tagged_loss():
    config, samples, encoder, params = setup({})
    samples[1] = dataclasses.replace(samples[1], gt_bbox=np.zeros(5))
    with pytest.raises(PipelineError) as info:
        forward(samples, params, config, encoder)
    assert info.value.stage == "loss"
