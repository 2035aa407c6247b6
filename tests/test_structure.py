"""A batch's hierarchy structure, settled before its units run.

Which hierarchies a batch has queries in depends on its samples' keyword
and confident-detection counts alone, so ``forward`` builds only units
with queries to work on. The digests pin the numbers that structure must
not move: loss, per-sample outputs, selection signature and gradients,
for eight configs over three batches. They were recorded with numpy 2.4.6
on CPython 3.11 (x86-64), on the code as it stood while the scene
projection was still a parameter and scene-attribute picks were part of
the selection signature: the signature with those picks left out, and the
gradients with the ``scene_proj`` entries left out.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref

import numpy as np
import pytest

from refscan import fusion
from refscan.errors import DimensionError, PipelineError
from refscan.fusion import forward, prepare_reference
from refscan.harness import training
from refscan.harness.training import train
from refscan.numerics.tape import Var
from refscan.semantics import SyntheticEncoder

from cases import BATCHES, MODELS, OUTPUT_FIELDS, PINNED, case, keyword_retrievals, train_setup

SCENE_UNITS = ("ssm.scene", "attn.bv.")


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little") + blob)
    return h.hexdigest()[:16]


def case_digests(config_name: str, batch_name: str) -> tuple[str, str, str, str]:
    """Digests of one case's loss, per-sample outputs, selection signature
    and gradients in store order (zeros for a leaf backward did not reach)."""
    config, samples, encoder, params = case(config_name, batch_name)
    params.zero_grads()
    res = forward(samples, params, config, encoder)
    res.loss.backward()
    outputs = [
        b"-" if getattr(out, name) is None else np.asarray(getattr(out, name)).tobytes()
        for out in res.outputs
        for name in OUTPUT_FIELDS
    ]
    grads = [params.grad(name).tobytes() for name in params.names()]
    return (
        _sha(np.asarray(res.loss.value).tobytes()),
        _sha(*outputs),
        _sha(repr(res.selection_signature).encode()),
        _sha(*grads),
    )


DIGESTS = {
    ('gradcheck', 'plain'): ('a2229e9607598df1', '0fe57cab42b5e4c7', '8ca2a08cefb9be27', '1f6ad6b87e87184b'),
    ('gradcheck', 'no confident detection'): ('4b99188af8c6de65', '97a3a06ebbf46fbc', '57fb73f57ab59d1c', '90bcd574fb55c502'),
    ('gradcheck', 'mixed'): ('208ad989c0abc13e', 'c33f6138cdd71b50', 'dbc6fd97ff1553ba', '5f8593161a999c88'),
    ('no attribute', 'plain'): ('4b99188af8c6de65', '97a3a06ebbf46fbc', '57fb73f57ab59d1c', '90bcd574fb55c502'),
    ('no attribute', 'no confident detection'): ('4b99188af8c6de65', '97a3a06ebbf46fbc', '57fb73f57ab59d1c', '90bcd574fb55c502'),
    ('no attribute', 'mixed'): ('8abb6af242baf9d9', '944b502e1a3e2ad9', '555ddda720d45d5d', '38073c7c5e4dddce'),
    ('no cross-attention', 'plain'): ('3130c155d8ee6495', 'b7a678329050c03f', 'd49aa58368251d82', 'ac50c6b32566f24b'),
    ('no cross-attention', 'no confident detection'): ('3130c155d8ee6495', 'b7a678329050c03f', 'd49aa58368251d82', 'ac50c6b32566f24b'),
    ('no cross-attention', 'mixed'): ('4dab64f7ffc86aa9', 'f2c402e3a7c986cb', '2e0670383b7ebba6', 'b4680b71147ea94d'),
    ('no holistic', 'plain'): ('19a6775aab5b1bd6', 'a226058b0b12510d', 'aa2d7deaff374972', '1a55e980e325376b'),
    ('no holistic', 'no confident detection'): ('e7b403be1c01438e', '890467ffd54dfe56', '395a73131a1c8f07', '5530c028d27f746a'),
    ('no holistic', 'mixed'): ('e355d95d4825ff02', '2578e91db0e76276', '5a4695cc4be6a022', 'a16dac511d5c0eff'),
    ('no holistic, no cross-attention', 'plain'): ('3130c155d8ee6495', 'b7a678329050c03f', 'd49aa58368251d82', 'ac50c6b32566f24b'),
    ('no holistic, no cross-attention', 'no confident detection'): ('3130c155d8ee6495', 'b7a678329050c03f', 'd49aa58368251d82', 'ac50c6b32566f24b'),
    ('no holistic, no cross-attention', 'mixed'): ('6f018bb4a7db8615', 'e2f5ea154014b2cd', '8434be8883dde788', 'c036169e621f994a'),
    ('no keyword', 'plain'): ('9b1bf9cdb73fec30', 'f87bc61df05d2971', 'b65e51eb4ef4b724', 'e6f7c5d31adc6de0'),
    ('no keyword', 'no confident detection'): ('c1574f772f833fe9', 'e9509f5c449686e1', '7c976af4a632df5b', '71cf9638db0ae45f'),
    ('no keyword', 'mixed'): ('889677e9e0835551', 'd8b3ae83b448278e', 'aadfc227d75c9746', '7246481d1c19af3b'),
    ('no prompts, aux loss', 'plain'): ('5d9b241ca27ba315', '6244dc7b918e2dc0', '23cd9261495611bb', 'c12f3bb3ce877cb4'),
    ('no prompts, aux loss', 'no confident detection'): ('332073c26d78edac', '3fcf22bfcbec5d7c', '516325b4709d4ff4', 'dcc1c3a335b6cd59'),
    ('no prompts, aux loss', 'mixed'): ('6b9418c0b131eaf0', 'e46bb05155899171', 'feabf99908b886ba', '0480608bf488e571'),
    ('temporal only', 'plain'): ('47048da598e6afda', '7b88dd115c39fd49', '45890e7c4740db25', '2e9e7810c0b63645'),
    ('temporal only', 'no confident detection'): ('f4162fa554c4ced1', '1fbaede020b5908d', '1eb9c05ef1a3c3a9', '2bccfcedd4ae8334'),
    ('temporal only', 'mixed'): ('1358761f7e1e6c52', 'f6a9bb3d7744ba2a', '97dcd6458b158b32', '6cedef851c3d393a'),
}


@pytest.mark.parametrize("batch_name", BATCHES)
@pytest.mark.parametrize("config_name", PINNED)
def test_numbers_are_the_recorded_ones(config_name, batch_name):
    assert case_digests(config_name, batch_name) == DIGESTS[config_name, batch_name]


@pytest.mark.parametrize("overrides", [MODELS["no cross-attention"], MODELS["no keyword"]])
def test_no_keyword_retrieval_where_no_keyword_scan_is_built(overrides, monkeypatch):
    """Every sample has keywords and confident detections. Without
    cross-attention no hierarchy is queried: no scene-attribute token is
    built either, and each branch pools its enhanced tokens alone."""
    config, samples, encoder, params = case(overrides)
    assert all(len(s.reference.keywords) for s in samples)
    grids = keyword_retrievals(monkeypatch)
    built = []
    real = fusion.build_scene_attribute_tokens
    monkeypatch.setattr(fusion, "build_scene_attribute_tokens", lambda *a, **kw: built.append(1) or real(*a, **kw))
    res = forward(samples, params, config, encoder)
    assert res.inputs.scene_counts.all()
    keys = [u.key for u in res.inputs.units]
    assert "ssm.keyword" not in keys
    assert grids == []
    if not config.use_mhs_ca:
        assert not [k for k in keys if k.startswith(("attn.", "ssm.keyword", "ssm.scene"))]
        pools = [u for u in res.inputs.units if u.key.startswith("pool.")]
        assert [[keys[i] for i in u.consumes] for u in pools] == [["ssm.holistic_temporal"], ["ssm.holistic_spatial"]]
        assert built == []


@pytest.mark.parametrize("batch_name", BATCHES)
@pytest.mark.parametrize("config_name", PINNED)
def test_a_unit_run_is_its_var_and_its_kink_masks(config_name, batch_name):
    """What ``first_nonfinite`` and the selection signature read: each
    output is a ``Var``; the heads and the loss keep lists of (B, ...) bool
    masks, and every other unit None."""
    config, samples, encoder, params = case(config_name, batch_name)
    res = forward(samples, params, config, encoder)
    assert len(res.runs) == len(res.inputs.units)
    for unit, (out, masks) in zip(res.inputs.units, res.runs):
        assert isinstance(out, Var), unit.key
        if not unit.key.startswith(("head.", "loss")):
            assert masks is None, unit.key
            continue
        assert isinstance(masks, list) and masks, unit.key
        for mask in masks:
            assert mask.dtype == bool and mask.shape[0] == len(samples), unit.key


def test_a_batch_without_confident_detections_builds_no_scene_unit(monkeypatch):
    config, samples, encoder, params = case("gradcheck", "no confident detection")
    built = []
    real = fusion.build_scene_attribute_tokens
    monkeypatch.setattr(fusion, "build_scene_attribute_tokens", lambda *a, **kw: built.append(1) or real(*a, **kw))
    keys = [u.key for u in forward(samples, params, config, encoder).inputs.units]
    assert len(keys) == 14 and not [k for k in keys if k.startswith(SCENE_UNITS)]
    assert built == []
    plain = [u.key for u in forward(case("gradcheck")[1], params, config, encoder).inputs.units]
    assert len(plain) == 17 and len([k for k in plain if k.startswith(SCENE_UNITS)]) == 3
    assert built


@pytest.mark.parametrize("config_name", PINNED)
def test_a_reference_that_does_not_fit_the_grid_fails_at_retrieval(config_name):
    """Whether or not any unit reads the reference, in every config: wider
    than the grid, with keywords or without, or not 2-D."""
    config, samples, encoder, params = case(config_name)
    wider = SyntheticEncoder(encoder.dim + 1, encoder.seed)
    ref = samples[1].reference
    references = [
        prepare_reference("red hat left", wider),
        prepare_reference("of the in a", wider),
        dataclasses.replace(ref, holistic=ref.holistic[0]),
        dataclasses.replace(ref, keyword_embeddings=ref.keyword_embeddings[0]),
    ]
    for reference in references:
        bad = dataclasses.replace(samples[1], reference=reference)
        with pytest.raises(PipelineError) as info:
            forward([samples[0], bad], params, config, encoder)
        assert info.value.stage == "retrieval" and isinstance(info.value.cause, DimensionError)


def test_the_hierarchy_check_runs_before_any_unit(monkeypatch):
    """A sample no hierarchy serves is rejected before the scene tokens are
    built, here with an encoder whose dim would fail them, and before any
    unit runs."""
    config, samples, encoder, params = case("no holistic")
    served_by_none = dataclasses.replace(
        samples[1], reference=prepare_reference("of the in a", encoder), detections=samples[1].detections[1:2]
    )
    assert served_by_none.detections[0].confidence < config.conf_threshold
    ran = []
    units = fusion._units
    monkeypatch.setattr(
        fusion,
        "_units",
        lambda *args, **kw: tuple(
            dataclasses.replace(u, run=lambda *a, u=u: ran.append(u.key) or u.run(*a)) for u in units(*args, **kw)
        ),
    )
    built = []
    real = fusion.build_scene_attribute_tokens
    monkeypatch.setattr(fusion, "build_scene_attribute_tokens", lambda *a, **kw: built.append(1) or real(*a, **kw))
    wider = SyntheticEncoder(encoder.dim + 1, encoder.seed)
    with pytest.raises(PipelineError, match="all hierarchies disabled") as info:
        forward([samples[0], served_by_none], params, config, wider)
    assert info.value.stage == "retrieval" and ran == [] and built == []


def test_a_training_step_drops_its_tape_before_the_next_forward(monkeypatch):
    """When step k+1's forward starts, step k's loss, and with it the tape,
    is gone. ``Var`` takes no weakref; the loss's value array is held by
    the loss alone, so it dies with it."""
    config, samples, encoder = train_setup()
    losses, alive = [], []
    real = training.forward

    def forward_counting(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in losses))
        res = real(*args, **kwargs)
        losses.append(weakref.ref(res.loss.value))
        return res

    monkeypatch.setattr(training, "forward", forward_counting)
    assert train(config, samples, encoder).steps_done == config.steps
    assert alive == [0] * config.steps
