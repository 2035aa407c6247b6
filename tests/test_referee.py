"""An independent referee for the whole forward, every hierarchy included.

``referee`` computes one sample alone in straight-line numpy: picks with
``nearest_token`` one frame at a time, each trajectory through
``ssm_scan_oracle``, scene tokens from the encoder's category vector and
the box, cross-attention with the prompt rows appended, row means per
hierarchy and their mean, the heads, the branch average and the loss. It
reads parameters by name and takes from ``fusion`` only the function under
test and the parameter constructor, so it shares no layer code with the
batched ``forward`` it checks.
"""

from __future__ import annotations

import numpy as np
import pytest

from refscan.fusion import forward
from refscan.retrieval import nearest_token
from refscan.ssm import SsmLayerParams, ssm_scan_oracle

from cases import BATCHES, PINNED, case

SEEDS = (0, 1)
TOL = 1e-12


def scan(params, name: str, x: np.ndarray) -> np.ndarray:
    """(T, d_s) per-step outputs of the named scan layer over (T, d) ``x``."""
    layer = SsmLayerParams(*(params[f"ssm.{name}.{k}"] for k in ("in_proj", "A", "B", "C")))
    return ssm_scan_oracle(x, layer).outputs


def trajectory(tokens: np.ndarray, query: np.ndarray) -> np.ndarray:
    """(T, d): the query's nearest token in each frame."""
    return np.stack([nearest_token(query, frame)[1] for frame in tokens])


def scene_queries(sample, params, config, encoder) -> np.ndarray:
    """(T, d_s): the mean over the confident detections' trajectory scans;
    (0, d_s) when the sample has none."""
    kept = [det for det in sample.detections if det.confidence >= config.conf_threshold]
    kept = sorted(kept, key=lambda det: -det.confidence)[: config.max_detections]
    scans = []
    for det in kept:
        feature = np.concatenate([encoder.encode_word(det.category), det.bbox])
        scale = 1.0 / np.sqrt(config.d + 4)  # the projection is the first draw of the store's init rng
        token = feature @ np.random.default_rng(params.seed).uniform(-scale, scale, (config.d + 4, config.d))
        scans.append(scan(params, "scene", trajectory(sample.grid.tokens, token)))
    return np.mean(scans, axis=0) if scans else np.zeros((0, config.d_s))


def attend(queries: np.ndarray, enhanced: np.ndarray, params, prefix: str) -> np.ndarray:
    """The mean over the query rows and the prompt rows of one attention's readout."""
    q = np.concatenate([queries @ params[prefix + "w_q"], params[prefix + "prompts"]])
    keys, values = enhanced @ params[prefix + "w_k"], enhanced @ params[prefix + "w_v"]
    scores = q @ keys.T / np.sqrt(keys.shape[1])
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    return (weights @ values).mean(axis=0)


def head(z: np.ndarray, params, prefix: str) -> np.ndarray:
    hidden = np.maximum(z @ params[prefix + "w1"] + params[prefix + "b1"], 0.0)
    return 1.0 / (1.0 + np.exp(-(hidden @ params[prefix + "w2"] + params[prefix + "b2"])))


def row_loss(box: np.ndarray, probs: np.ndarray, sample, config) -> float:
    p = np.clip(probs, 1e-7, 1.0 - 1e-7)
    y = sample.labels
    bce = -np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    return bce + config.lambda_box * np.sum((box - sample.gt_bbox) ** 2)


def referee(sample, params, config, encoder) -> tuple[dict, float]:
    """One sample's outputs, by ``ModelOutput`` field, and its loss."""
    tokens = sample.grid.tokens
    keywords = sample.reference.keyword_embeddings
    queries = {
        "rv": sample.reference.holistic if config.use_holistic else None,
        "kwv": np.stack([scan(params, "keyword", trajectory(tokens, k))[-1] for k in keywords])
        if config.use_keyword and len(keywords) else None,
        "bv": scene_queries(sample, params, config, encoder) if config.use_attribute else None,
    }
    queries = {tag: q for tag, q in queries.items() if q is not None and len(q)}
    pooled = {"temporal": tokens.mean(axis=1), "spatial": tokens.mean(axis=0)}
    branches = [b for b, on in (("temporal", config.use_temporal), ("spatial", config.use_spatial)) if on]
    boxes, probs, zs = {}, {}, {}
    for branch in branches:
        enhanced = scan(params, f"holistic_{branch}", pooled[branch])
        if config.use_mhs_ca:
            z = np.mean([attend(q, enhanced, params, f"attn.{tag}.{branch}.") for tag, q in queries.items()], axis=0)
        else:
            z = enhanced.mean(axis=0)
        zs[branch] = z
        boxes[branch] = head(z, params, f"head.{branch}.reg.")
        probs[branch] = head(z, params, f"head.{branch}.cls.")
    box = np.mean([boxes[b] for b in branches], axis=0)
    prob = np.mean([probs[b] for b in branches], axis=0)
    loss = row_loss(box, prob, sample, config)
    if config.aux_branch_loss:
        loss += np.mean([row_loss(boxes[b], probs[b], sample, config) for b in branches])
    outputs = {
        "bbox": box,
        "class_probs": prob,
        "bbox_temporal": boxes.get("temporal"),
        "bbox_spatial": boxes.get("spatial"),
        "z_temporal": zs.get("temporal"),
    }
    return outputs, loss


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("batch_name", BATCHES)
@pytest.mark.parametrize("config_name", PINNED)
def test_batched_forward_is_the_referee(config_name, batch_name, seed):
    config, samples, encoder, params = case(config_name, batch_name, params_seed=seed)
    result = forward(samples, params, config, encoder)
    losses = []
    for sample, out in zip(samples, result.outputs):
        expected, loss = referee(sample, params, config, encoder)
        losses.append(loss)
        for name, want in expected.items():
            got = getattr(out, name)
            assert (got is None) == (want is None), name
            if want is not None:
                np.testing.assert_allclose(got, want, rtol=0, atol=TOL, err_msg=f"{sample.sample_id} {name}")
    assert abs(float(result.loss.value) - np.mean(losses)) <= TOL
