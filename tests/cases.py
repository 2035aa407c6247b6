"""The model cases the tests share: one table of model variants, three
batches, one builder of ``(config, samples, encoder, params)``, and the
probes and training setup more than one test module reads.

Every variant overrides ``GRADCHECK_CONFIG``. The "plain" batch is the
gradcheck fixtures drawn at a seed; "no confident detection" is that batch
with each confident detection dropped; "mixed" is a six-sample batch whose
references and detections give every hierarchy from none to four queries.
"""

from __future__ import annotations

import dataclasses

from refscan import fusion
from refscan.config import TrainConfig
from refscan.fusion import ModelOutput, init_model_params, prepare_reference
from refscan.harness.fixtures import GenConfig, default_train_config, synth_samples
from refscan.harness.suites import GRADCHECK_CONFIG, GRADCHECK_GEN
from refscan.semantics import Detection, SyntheticEncoder

SEED = 5
MODELS = {
    "gradcheck": {},
    "aux loss": {"aux_branch_loss": True, "lambda_box": 4.0},
    "no attribute": {"use_attribute": False},
    "no cross-attention": {"use_mhs_ca": False},
    "no holistic": {"use_holistic": False},
    "no holistic, no cross-attention": {"use_holistic": False, "use_mhs_ca": False},
    "no keyword": {"use_keyword": False},
    "no prompts": {"n_prompts": 0},
    "no prompts, aux loss": {"n_prompts": 0, "aux_branch_loss": True},
    "one prompt": {"n_prompts": 1},
    "one prompt, aux loss": {"n_prompts": 1, "aux_branch_loss": True},
    "temporal only": {"use_spatial": False},
}
# the variants whose numbers test_structure.py pins and test_referee.py referees
PINNED = [
    "gradcheck", "no attribute", "no cross-attention", "no holistic", "no holistic, no cross-attention",
    "no keyword", "no prompts, aux loss", "temporal only",
]
BATCHES = ("plain", "no confident detection", "mixed")
OUTPUT_FIELDS = [f.name for f in dataclasses.fields(ModelOutput)]

GEN = GenConfig(num_samples=6, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=3)
# (reference, number of confident detections kept from the fixture, or None for all)
VARIANTS = [
    ("the person", 0),  # one keyword, no scene tokens
    ("of the in a", 1),  # only stop words: no keywords
    (None, None),  # fixture reference (four keywords) and detections
    ("red hat left", 3),
    ("girl shirt", None),
    ("the", 0),  # nothing but the holistic query
]


def mixed_batch(encoder):
    samples = synth_samples(GEN)
    out = []
    for s, (text, n_det) in zip(samples, VARIANTS):
        reference = s.reference if text is None else prepare_reference(text, encoder)
        detections = s.detections if n_det is None else [
            Detection((0.1, 0.1, 0.5, 0.6), cat, 0.9) for cat in ("cup", "dog", "car")[:n_det]
        ]
        out.append(dataclasses.replace(s, reference=reference, detections=detections))
    return out


def case(model: str | dict, batch: str = "plain", seed: int = SEED, params_seed: int = SEED):
    """(config, samples, encoder, params) for one of ``BATCHES`` under one
    model variant, named in ``MODELS`` or given as its overrides. ``seed``
    draws the plain batch and its encoder, ``params_seed`` the parameters."""
    overrides = MODELS[model] if isinstance(model, str) else model
    config = TrainConfig(**{**GRADCHECK_CONFIG.to_dict(), **overrides}).validate()
    if batch == "mixed":
        encoder = SyntheticEncoder(GEN.dim, GEN.seed)
        samples = mixed_batch(encoder)
        if not config.use_holistic:  # forward rejects a sample no enabled hierarchy serves
            samples = [s for s in samples if len(s.reference.keywords) or s.detections]
    else:
        gen = GenConfig(**{**GRADCHECK_GEN.to_dict(), "seed": seed})
        encoder, samples = SyntheticEncoder(gen.dim, seed), synth_samples(gen)
    if batch == "no confident detection":
        samples = [
            dataclasses.replace(s, detections=[d for d in s.detections if d.confidence < config.conf_threshold])
            for s in samples
        ]
        assert all(s.detections for s in samples)
    return config, samples, encoder, init_model_params(config, seed=params_seed)


def head_and_pool_values(res, b: int) -> dict:
    """Each head's and each branch pooling's output for batch entry ``b``."""
    units = zip(res.inputs.units, res.runs)
    return {u.key: run[0].value[b] for u, run in units if u.key.startswith(("head.", "pool."))}


def keyword_retrievals(monkeypatch):
    """The grid of each keyword ``fusion.build_trajectory_set`` call, recorded from now on."""
    grids = []
    real = fusion.build_trajectory_set

    def counting(queries, grid, hierarchy):
        if hierarchy == "keyword":
            grids.append(grid)
        return real(queries, grid, hierarchy)

    monkeypatch.setattr(fusion, "build_trajectory_set", counting)
    return grids


TRAIN_GEN = GenConfig(num_samples=6, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=9)


def train_setup():
    """(config, samples, encoder) of a six-step training run whose samples recur."""
    config = default_train_config(
        TRAIN_GEN, d_s=8, d_a=8, n=4, n_prompts=2, batch=4, steps=6, learning_rate=5e-3, aux_branch_loss=True
    )
    return config, synth_samples(TRAIN_GEN), SyntheticEncoder(TRAIN_GEN.dim, TRAIN_GEN.seed)
