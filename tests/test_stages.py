"""The units of ``forward``: error tags, and reruns of a result.

``forward`` builds a batch's inputs (the keyword and scene-attribute
picks among them), then runs one unit per layer instance: each scan, each
(hierarchy, branch) cross-attention, each branch's pooling, each head and
the loss. A result's ``rerun`` runs again only the units whose read
parameters or consumed outputs changed, and the gradient check relies on
that for every perturbed scalar. A stale reuse could pass the gradient
check silently wherever the analytic gradient is small, so the guard below
compares cached and uncached evaluations bitwise, one perturbed scalar per
parameter name.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from refscan import fusion
from refscan.config import TrainConfig
from refscan.errors import ConfigError, InputError, PipelineError
from refscan.fusion import forward, init_model_params
from refscan.harness import suites
from refscan.harness.fixtures import GenConfig, synth_samples
from refscan.numerics.params import ParamStore
from refscan.numerics.tape import Var
from refscan.semantics import SyntheticEncoder

# at this seed a perturbation of 0.5 moves the loss or the signature for every
# parameter the configs below read
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
    weights and the keyword and scene-attribute scans feed nothing; without
    the attribute hierarchy its scan and attentions feed nothing (every
    sample here has a holistic query); a disabled hierarchy or branch reads
    none of its weights."""
    dead = []
    if not config.use_mhs_ca:
        dead += ["attn.", "ssm.keyword.", "ssm.scene."]
    if not config.use_attribute:
        dead += ["attn.bv.", "ssm.scene."]
    if not config.use_holistic:
        dead += ["attn.rv."]
    for branch, on in (("temporal", config.use_temporal), ("spatial", config.use_spatial)):
        if not on:
            dead += [f"ssm.holistic_{branch}.", f"head.{branch}."]
            dead += [f"attn.{tag}.{branch}." for tag in fusion.HIERARCHIES]
    return {n for n in names if n.startswith(tuple(dead))}


def evaluation(loss: Var, signature: tuple) -> tuple[bytes, tuple]:
    return np.asarray(loss.value).tobytes(), signature


def bits(res: fusion.ForwardResult) -> tuple:
    """A result's loss, signatures and per-sample fused outputs, as bytes."""
    outputs = [(o.bbox.tobytes(), o.class_probs.tobytes()) for o in res.outputs]
    return evaluation(res.loss, res.selection_signature), outputs


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cached_evaluation_is_bitwise_the_uncached_one(name):
    """Per parameter, the scalar with the largest gradient, and the first and
    last scalar, where a read mask shifted by one would miss a change."""
    config, samples, encoder, params = setup(CONFIGS[name])
    fn = suites.model_loss_fn(samples, params, config, encoder)
    loss, signature = fn(params.leaves)
    base = evaluation(loss, signature)
    loss.backward()  # the kept evaluation is a cold run, so it differentiates
    moved = set()
    for pname, arr in params.items():
        flat = arr.reshape(-1)
        if not flat.size:
            continue
        top = int(np.argmax(np.abs(params.grad(pname).reshape(-1))))
        for i in (top, 0, flat.size - 1):
            orig = flat[i]
            flat[i] = orig + DELTA
            try:
                cached = evaluation(*fn(params.leaves))
                full = forward(samples, params, config, encoder)
            finally:
                flat[i] = orig
            assert cached == evaluation(full.loss, full.selection_signature), (pname, i)
            if i == top and cached != base:
                moved.add(pname)
    names = [n for n, a in params.items() if a.size]
    # every perturbation a reused stale output would hide did move the evaluation
    assert moved == set(names) - unread(config, names)
    assert evaluation(*fn(params.leaves)) == base


HEADS_LOSS = ["head.temporal.reg", "head.temporal.cls", "head.spatial.reg", "head.spatial.cls", "loss"]
TEMPORAL_HEADS_LOSS = ["head.temporal.reg", "head.temporal.cls", "loss"]
SPATIAL_HEADS_LOSS = ["head.spatial.reg", "head.spatial.cls", "loss"]

# a perturbation of 1e-5 reruns exactly these units, in run order
RERUNS = {
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


def count_units(monkeypatch) -> list[str]:
    """The keys of the units run from now on, in order, appended as they run."""
    ran = []

    def counted(unit):
        def run(*args):
            ran.append(unit.key)
            return unit.run(*args)

        return dataclasses.replace(unit, run=run)

    units = fusion._units
    monkeypatch.setattr(fusion, "_units", lambda *args, **kw: tuple(counted(u) for u in units(*args, **kw)))
    return ran


def reruns(monkeypatch, pname: str, step: float) -> tuple[list[str], bool]:
    """The units one perturbed gradcheck evaluation reruns, and whether its
    signature moved."""
    config, samples, encoder, params = setup({})
    every = [u.key for u in forward(samples, params, config, encoder).inputs.units]
    ran = count_units(monkeypatch)
    fn = suites.model_loss_fn(samples, params, config, encoder)
    _, base = fn(params.leaves)
    assert ran == every
    del ran[:]
    fn(params.leaves)
    assert ran == []  # nothing changed: every output is reused
    params[pname].reshape(-1)[0] += step
    _, signature = fn(params.leaves)
    return ran, signature != base


@pytest.mark.parametrize("pname", sorted(RERUNS))
def test_rerun_starts_at_the_first_stage_reading_the_change(pname, monkeypatch):
    """The units reading the changed scalar rerun, and what consumes them."""
    assert reruns(monkeypatch, pname, 1e-5) == (RERUNS[pname], False)


def count_unit_calls(monkeypatch) -> dict[str, int]:
    calls = {"cross_attention_var": 0, "scan_var": 0, "head_var": 0, "pool_hierarchies_var": 0, "loss_var": 0}
    for name in calls:
        real = getattr(fusion, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(fusion, name, counted)
    return calls


def test_gradcheck_reruns_only_the_changed_layer_instances(monkeypatch, use_cpus):
    """One attention per perturbed attn.* scalar, the attentions of the
    changed scan's query or context per ssm.* scalar; a plan that reruns
    more than the changed units and their consumers moves these counts.
    One usable CPU, so every evaluation runs in this process."""
    use_cpus(1)
    calls = count_unit_calls(monkeypatch)
    report = suites.run_model_gradcheck(seed=3)
    assert sum(r.checked for r in report.rows) == 2658
    # baseline 6 attentions + 832 ssm.keyword/ssm.scene evaluations x 2 + 832
    # holistic evaluations x 3 + 2,752 attn.* evaluations x 1; heads: 4 + 832 x 4
    # + 832 x 2 + 2,752 x 2 + 900 head.* evaluations x 1; pooling: 2 + 832 x 2
    # + 832 + 2,752; loss: 1 + 832 + 832 + 2,752 + 900
    assert calls == {
        "cross_attention_var": 6918,
        "scan_var": 1668,
        "head_var": 11400,
        "pool_hierarchies_var": 5250,
        "loss_var": 5317,
    }


def test_gradcheck_on_two_cpus_evaluates_its_half_here(monkeypatch, use_cpus, forks):
    """With two usable CPUs this process probes every other scalar of the
    2,658 (the forked worker's evaluations are not counted here) and the
    report is the one-CPU report."""
    use_cpus(1)
    alone = suites.run_model_gradcheck(seed=3)
    use_cpus(2)
    calls = count_unit_calls(monkeypatch)
    report = suites.run_model_gradcheck(seed=3)
    assert calls["loss_var"] == 1 + 2 * 1329 and len(forks) == 1
    assert [vars(r) for r in report.rows] == [vars(r) for r in alone.rows]
    assert (report.max_rel_err, report.aborted) == (alone.max_rel_err, alone.aborted)


def test_two_moved_units_rerun_the_union_of_their_plans(monkeypatch):
    """A scene-scan scalar and a spatial holistic-attention scalar moved
    together: each unit of either plan runs once, in run order (the
    attention runs between the scene scan's two attentions), and the
    result is bitwise a full forward's."""
    config, samples, encoder, params = setup({})
    ran = count_units(monkeypatch)
    first = forward(samples, params, config, encoder)
    every = list(ran)
    del ran[:]
    moved = ("ssm.scene.A", "attn.rv.spatial.prompts")
    for pname in moved:
        params[pname].reshape(-1)[0] += 1e-5
    res = first.rerun()
    assert ran == [k for k in every if k in {*RERUNS[moved[0]], *RERUNS[moved[1]]}]
    assert ran.index("attn.rv.spatial") < ran.index("attn.bv.spatial")
    assert bits(res) == bits(forward(samples, params, config, encoder))


def test_a_rerun_of_a_rerun_is_bitwise_a_full_forward():
    """Each rerun compares with, and reuses, the run it is a method of, so
    a head moved after a scan reuses the attentions the scan's rerun made."""
    config, samples, encoder, params = setup({})
    res = forward(samples, params, config, encoder)
    for pname in ("ssm.keyword.C", "head.temporal.reg.b2", "attn.bv.spatial.w_q"):
        params[pname].reshape(-1)[0] += DELTA
        res = res.rerun()
        assert bits(res) == bits(forward(samples, params, config, encoder)), pname


def test_backward_through_a_reused_output_raises():
    config, samples, encoder, params = setup({})
    cold = forward(samples, params, config, encoder)
    params["head.temporal.reg.b2"][0] += 0.1
    warm = cold.rerun()
    with pytest.raises(InputError, match="'pool.temporal' output a rerun reused"):
        warm.loss.backward()
    assert not params.flat_grads.any()  # refused before any vjp added into the store
    forward(samples, params, config, encoder).loss.backward()
    assert params.grad("head.temporal.reg.b2").any()


@pytest.mark.parametrize(
    "pname, stage",
    [
        ("ssm.keyword.in_proj", "ssm"),
        ("attn.bv.spatial.w_q", "fusion"),
        ("head.spatial.cls.w1", "heads"),
    ],
)
def test_parameter_shape_mismatch_is_tagged_with_its_stage(pname, stage):
    config, samples, encoder, params = setup({})
    wrong = ParamStore({**dict(params.items()), pname: np.zeros((3, 3))}, seed=params.seed)
    with pytest.raises(PipelineError) as info:
        forward(samples, wrong, config, encoder)
    assert info.value.stage == stage


def test_an_encoder_of_another_dim_is_tagged_semantics():
    """The scene tokens are the one place the encoder meets the fixed
    projection; an encoder of another dim fails there, before any unit."""
    config, samples, encoder, params = setup({})
    with pytest.raises(PipelineError) as info:
        forward(samples, params, config, SyntheticEncoder(encoder.dim + 1, SEED))
    assert info.value.stage == "semantics" and isinstance(info.value.cause, ConfigError)
    assert "scene projection expects input dim 21" in str(info.value.cause)


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


def test_forward_without_targets_runs_no_loss_and_keeps_the_outputs():
    """Samples without targets build no loss unit; the pooled vectors, the
    heads and the per-sample outputs keep their bits."""
    config, samples, encoder, params = setup({})
    bare = [dataclasses.replace(s, gt_bbox=None, labels=None) for s in samples]
    full, unlabeled = (forward(batch, params, config, encoder) for batch in (samples, bare))
    assert full.loss is not None and unlabeled.loss is None
    assert [u.key for u in unlabeled.inputs.units] == [u.key for u in full.inputs.units if u.key != "loss"]

    def kept(res):
        return {
            u.key: run[0].value.tobytes()
            for u, run in zip(res.inputs.units, res.runs)
            if u.key.startswith(("head.", "pool."))
        }

    assert len(kept(full)) == 6 and kept(unlabeled) == kept(full)
    for a, b in zip(unlabeled.outputs, full.outputs):
        assert a.bbox.tobytes() == b.bbox.tobytes() and a.class_probs.tobytes() == b.class_probs.tobytes()
