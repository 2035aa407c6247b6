"""The units of ``forward``: error tags, and reruns from a prior run.

``forward`` runs one unit per layer instance: scene tokens, scene-attribute
retrieval, each scan, each (hierarchy, branch) cross-attention, each
branch's pooling, each head and the loss. Given a prior result it reruns
only the units whose read parameters or consumed outputs changed, and the
gradient check relies on that for every perturbed scalar. A stale reuse of
``scene_proj`` would pass the gradient check silently (its analytic
gradient is 0), so the guard below compares cached and uncached
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
    "temporal only": {"use_spatial": False},
    "no holistic": {"use_holistic": False},
    "no attribute": {"use_attribute": False},
}


def setup(overrides: dict):
    config = TrainConfig(**{**suites.GRADCHECK_CONFIG.to_dict(), **overrides}).validate()
    gen = GenConfig(**{**suites.GRADCHECK_GEN.to_dict(), "seed": SEED})
    encoder = SyntheticEncoder(gen.dim, SEED)
    return config, synth_samples(gen), encoder, init_model_params(config, seed=SEED)


def unread(config: TrainConfig, names: list[str]) -> set[str]:
    """Names no output depends on. Without cross-attention the attention
    weights, the keyword and scene-attribute scans and the scene tokens feed
    nothing; without the attribute hierarchy its scan, attentions and the
    scene tokens feed nothing (every sample here has a holistic query); a
    disabled hierarchy or branch reads none of its weights."""
    dead = []
    if not config.use_mhs_ca:
        dead += ["attn.", "ssm.keyword.", "ssm.scene.", "scene_proj."]
    if not config.use_attribute:
        dead += ["attn.bv.", "ssm.scene.", "scene_proj."]
    if not config.use_holistic:
        dead += ["attn.rv."]
    for branch, on in (("temporal", config.use_temporal), ("spatial", config.use_spatial)):
        if not on:
            dead += [f"ssm.holistic_{branch}.", f"head.{branch}."]
            dead += [f"attn.{tag}.{branch}." for tag in fusion.HIERARCHIES]
    return {n for n in names if n.startswith(tuple(dead))}


def evaluation(loss: Var, signature: tuple) -> tuple[bytes, tuple]:
    return np.asarray(loss.value).tobytes(), signature


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_evaluation_is_bitwise_the_uncached_one(name):
    """Per parameter, the scalar with the largest gradient, and the first and
    last scalar, where a read mask shifted by one would miss a change."""
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
        top = 0 if grad is None else int(np.argmax(np.abs(grad.reshape(-1))))
        for i in (top, 0, flat.size - 1):
            orig = flat[i]
            flat[i] = orig + DELTA
            try:
                cached = evaluation(*fn(params.as_vars()))
                full = forward(samples, params, config, encoder)
            finally:
                flat[i] = orig
            assert cached == evaluation(full.loss, full.selection_signature), (pname, i)
            if i == top and cached != base:
                moved.add(pname)
    names = [n for n, a in params.items() if a.size]
    # every perturbation a reused stale output would hide did move the evaluation
    assert moved == set(names) - unread(config, names)
    assert evaluation(*fn(params.as_vars())) == base


HEADS_LOSS = ["head.temporal.reg", "head.temporal.cls", "head.spatial.reg", "head.spatial.cls", "loss"]
TEMPORAL_HEADS_LOSS = ["head.temporal.reg", "head.temporal.cls", "loss"]
SPATIAL_HEADS_LOSS = ["head.spatial.reg", "head.spatial.cls", "loss"]

# a perturbation of 1e-5 reruns exactly these units, in run order; at SEED it
# flips no scene-attribute pick, so a scene_proj rerun stops at retrieval
RERUNS = {
    "scene_proj.b": ["semantics", "retrieval"],
    "ssm.keyword.C": [
        "ssm.keyword", "attn.kwv.temporal", "pool.temporal", "attn.kwv.spatial", "pool.spatial", *HEADS_LOSS,
    ],
    "ssm.scene.A": ["ssm.scene", "attn.bv.temporal", "pool.temporal", "attn.bv.spatial", "pool.spatial", *HEADS_LOSS],
    "ssm.holistic_spatial.B": [
        "ssm.holistic_spatial", "attn.rv.spatial", "attn.kwv.spatial", "attn.bv.spatial", "pool.spatial",
        *SPATIAL_HEADS_LOSS,
    ],
    "attn.kwv.temporal.w_v": ["attn.kwv.temporal", "pool.temporal", *TEMPORAL_HEADS_LOSS],
    "attn.rv.spatial.prompts": ["attn.rv.spatial", "pool.spatial", *SPATIAL_HEADS_LOSS],
    "head.spatial.cls.b2": ["head.spatial.cls", "loss"],
}


def reruns(monkeypatch, pname: str, step: float) -> tuple[list[str], bool]:
    """The units one perturbed gradcheck evaluation reruns, and whether its
    signature moved."""
    config, samples, encoder, params = setup({})
    every = [u.key for u in forward(samples, params, config, encoder).inputs.units]
    ran = []

    def counted(unit):
        def run(*args):
            ran.append(unit.key)
            return unit.run(*args)

        return dataclasses.replace(unit, run=run)

    units = fusion._units
    monkeypatch.setattr(fusion, "_units", lambda *args, **kw: tuple(counted(u) for u in units(*args, **kw)))
    fn = suites.model_loss_fn(samples, params, config, encoder)
    _, base = fn(params.as_vars())
    assert ran == every
    del ran[:]
    fn(params.as_vars())
    assert ran == []  # nothing changed: every output is reused
    params[pname].reshape(-1)[0] += step
    _, signature = fn(params.as_vars())
    return ran, signature != base


@pytest.mark.parametrize("pname", sorted(RERUNS))
def test_rerun_starts_at_the_first_stage_reading_the_change(pname, monkeypatch):
    """The units reading the changed scalar rerun, and what consumes them."""
    assert reruns(monkeypatch, pname, 1e-5) == (RERUNS[pname], False)


def test_a_flipped_scene_pick_reruns_what_the_picks_feed(monkeypatch):
    ran, moved = reruns(monkeypatch, "scene_proj.b", DELTA)
    assert moved
    assert ran == [
        "semantics", "retrieval", "ssm.scene",
        "attn.bv.temporal", "pool.temporal", "attn.bv.spatial", "pool.spatial", *HEADS_LOSS,
    ]


def test_gradcheck_reruns_only_the_changed_layer_instances(monkeypatch):
    """One attention per perturbed attn.* scalar, the attentions of the
    changed scan's query or context per ssm.* scalar, none for scene_proj
    when no pick flips (none does at seed 3); a plan that reruns more than
    the changed units and their consumers moves these counts."""
    calls = {"cross_attention_var": 0, "scan_var": 0, "head_var": 0, "pool_hierarchies_var": 0, "loss_var": 0}
    for name in calls:
        real = getattr(fusion, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fusion, name, counted)
    report = suites.run_model_gradcheck(seed=3)
    assert sum(r.checked for r in report.rows) == 2994
    # baseline 6 attentions + 832 ssm.keyword/ssm.scene evaluations x 2 + 832
    # holistic evaluations x 3 + 2,752 attn.* evaluations x 1; heads: 4 + 832 x 4
    # + 832 x 2 + 2,752 x 2 + 900 head.* evaluations x 1; pooling: 2 + 832 x 2
    # + 832 + 2,752; loss: 1 + 832 + 832 + 2,752 + 900 (no scene_proj one)
    assert calls == {
        "cross_attention_var": 6918,
        "scan_var": 1668,
        "head_var": 11400,
        "pool_hierarchies_var": 5250,
        "loss_var": 5317,
    }


def test_backward_through_a_reused_output_raises():
    config, samples, encoder, params = setup({})
    first = params.as_vars()
    cold = forward(samples, params, config, encoder, param_vars=first)
    params["head.temporal.reg.b2"][0] += 0.1
    warm = forward(samples, params, config, encoder, param_vars=params.as_vars(), prior=cold)
    with pytest.raises(InputError, match="'pool.temporal' output reused from a prior forward"):
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


def test_prior_needs_leaves_viewing_its_own_store():
    """Change detection compares the store's flat vector, so it sees only
    the values of leaves that view the store's arrays, in both runs."""
    config, samples, encoder, params = setup({})
    copies = {name: Var(arr.copy()) for name, arr in params.items()}
    detached = forward(samples, params, config, encoder, param_vars=copies)
    with pytest.raises(InputError, match="same parameter store"):
        forward(samples, params, config, encoder, prior=detached)
    prior = forward(samples, params, config, encoder)
    with pytest.raises(InputError, match="same parameter store"):
        forward(samples, params, config, encoder, param_vars=copies, prior=prior)
    other = init_model_params(config, seed=SEED)
    with pytest.raises(InputError, match="same parameter store"):
        forward(samples, other, config, encoder, prior=prior)
    again = forward(samples, params, config, encoder, prior=prior)
    assert evaluation(again.loss, again.selection_signature) == evaluation(prior.loss, prior.selection_signature)


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


@pytest.mark.parametrize(
    "overrides",
    [{}, {"use_mhs_ca": False}, {"use_attribute": False}, {"use_mhs_ca": False, "use_attribute": False}],
)
def test_a_sample_no_hierarchy_serves_is_rejected(overrides):
    """With the holistic query off, a sample needs keywords or a retrieved
    scene attribute, whichever units the config builds."""
    config, samples, encoder, params = setup({"use_holistic": False, **overrides})
    no_keywords = fusion.prepare_reference("of the in a", encoder)
    cases = {
        "keywords only": dataclasses.replace(samples[0], detections=[]),
        "detections only": dataclasses.replace(samples[0], reference=no_keywords),
        "neither": dataclasses.replace(samples[0], reference=no_keywords, detections=[]),
    }
    for name, sample in cases.items():
        if name == "neither" or (name == "detections only" and not config.use_attribute):
            with pytest.raises(PipelineError, match="all hierarchies disabled") as info:
                forward([samples[1], sample], params, config, encoder)
            assert info.value.stage == "retrieval"
        else:
            assert forward([samples[1], sample], params, config, encoder).loss is not None


def test_target_shape_mismatch_is_tagged_loss():
    config, samples, encoder, params = setup({})
    samples[1] = dataclasses.replace(samples[1], gt_bbox=np.zeros(5))
    with pytest.raises(PipelineError) as info:
        forward(samples, params, config, encoder)
    assert info.value.stage == "loss"
