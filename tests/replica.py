"""Straight-line numpy rebuild of the holistic-only pipeline.

Used by wiring tests as an independent twin: pooled branch -> enhancement
scan -> sentence-query cross-attention -> heads -> branch average, mirroring
the production op order exactly so outputs must match bitwise.
"""

from __future__ import annotations

import numpy as np

from refscan.fusion import pool_spatial, pool_temporal
from refscan.numerics.linalg import softmax
from refscan.ssm import SsmLayerParams, ssm_scan


def _scan_params(params, name):
    return SsmLayerParams(
        in_proj=params[f"ssm.{name}.in_proj"],
        A=params[f"ssm.{name}.A"],
        B=params[f"ssm.{name}.B"],
        C=params[f"ssm.{name}.C"],
    )


def _branch(sample, params, cfg, pooled, which):
    enhanced = ssm_scan(pooled, _scan_params(params, f"holistic_{which}")).outputs
    q = sample.reference.holistic @ params[f"attn.rv.{which}.w_q"]
    q = np.concatenate([q, params[f"attn.rv.{which}.prompts"]], axis=0)
    keys = enhanced @ params[f"attn.rv.{which}.w_k"]
    values = enhanced @ params[f"attn.rv.{which}.w_v"]
    scores = (q @ keys.T) * (1.0 / np.sqrt(cfg.d_a))
    attn = np.stack([softmax(row) for row in scores])
    z = (attn @ values).mean(axis=0, keepdims=True)
    out = {}
    for head in ("reg", "cls"):
        h = z @ params[f"head.{which}.{head}.w1"] + params[f"head.{which}.{head}.b1"]
        h = h * (h > 0)
        o = h @ params[f"head.{which}.{head}.w2"] + params[f"head.{which}.{head}.b2"]
        out[head] = 1.0 / (1.0 + np.exp(-o))
    return out


def holistic_only_forward(sample, params, cfg):
    """Fused (bbox, probs) of the holistic-only two-branch pipeline."""
    t = _branch(sample, params, cfg, pool_spatial(sample.grid), "temporal")
    s = _branch(sample, params, cfg, pool_temporal(sample.grid), "spatial")
    return ((t["reg"] + s["reg"]) / 2.0)[0], ((t["cls"] + s["cls"]) / 2.0)[0]
