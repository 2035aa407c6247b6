"""Cross-attention fusion, prediction heads, losses, and the full forward.

Per branch (temporal = spatially pooled frames, spatial = temporally pooled
cells) the pooled sequence is enhanced by a scan layer; each enabled
hierarchy queries those enhanced tokens through its own cross-attention
(with learnable prompt rows appended to the projected queries), the
per-hierarchy outputs are mean-pooled and averaged into the branch vector
z, and small MLP heads regress the box and score the action classes. The
two branch predictions are averaged.

``forward`` takes one sample or a list of them and always runs a batch:
every tensor carries a leading batch axis, and a single sample is a batch
of one. Keyword and scene trajectories are zero-padded to the batch
maximum and masked; each scan layer runs once per batch over time-major
``(T, rows, d)`` input, and the attention and heads run once per branch
and hierarchy. All products are stacked per slice, so each sample's
outputs are bitwise those of the same sample run alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, DimensionError, InputError, PipelineError
from .numerics import ParamStore, uniform_init
from .numerics import tape
from .numerics.tape import Var
from .retrieval import VisualTokenGrid, build_trajectory_set
from .semantics import (
    Detection,
    ReferenceBundle,
    ReferenceEncoder,
    build_scene_attribute_tokens,
    default_stopwords,
    embed_reference,
)
from .ssm import SsmParamVars, scan_var

HIERARCHIES = ("rv", "kwv", "bv")  # holistic / keyword / scene-attribute
BRANCHES = ("temporal", "spatial")


# -- pooling ----------------------------------------------------------------


def pool_spatial(grid: VisualTokenGrid) -> np.ndarray:
    """Temporal-branch input: per-frame mean over spatial cells, (T, d)."""
    return grid.tokens.mean(axis=1)


def pool_temporal(grid: VisualTokenGrid) -> np.ndarray:
    """Spatial-branch input: per-cell mean over frames, (S, d)."""
    return grid.tokens.mean(axis=0)


# -- cross-attention ----------------------------------------------------------


@dataclass
class HierarchyAttnParams:
    """Projections and learnable prompt rows for one (hierarchy, branch)."""

    w_q: np.ndarray  # (d_q, d_a)
    w_k: np.ndarray  # (d_s, d_a)
    w_v: np.ndarray  # (d_s, d_a)
    prompts: np.ndarray  # (N_p, d_a)


@dataclass
class AttnParamVars:
    w_q: Var
    w_k: Var
    w_v: Var
    prompts: Var


def cross_attention_var(
    queries: Var, context: Var, p: AttnParamVars, rows: np.ndarray | None = None
) -> Var:
    """(..., Q + N_p, d_a) readout; the prompt rows follow the query rows.

    Leading axes are the batch. ``rows`` counts the real (unpadded) query
    rows of each batch entry; see ``tape.matmul``.
    """
    if context.value.shape[-2] < 1:
        raise DimensionError("cross_attention: empty context")
    d_a = p.w_q.value.shape[1]
    n_p = p.prompts.value.shape[0]
    q_proj = tape.matmul(queries, p.w_q, rows)
    q_full = tape.concat_rows([q_proj, p.prompts]) if n_p > 0 else q_proj
    full_rows = None if rows is None else np.asarray(rows) + n_p
    keys = tape.matmul(context, p.w_k)
    values = tape.matmul(context, p.w_v)
    scores = tape.scale(tape.matmul(q_full, tape.transpose(keys), full_rows), 1.0 / np.sqrt(d_a))
    return tape.matmul(tape.softmax_rows(scores), values, full_rows)


def cross_attention(
    queries: np.ndarray, context: np.ndarray, params: HierarchyAttnParams
) -> np.ndarray:
    """(Q + N_p) x d_a attention readout over the enhanced context tokens."""
    pv = AttnParamVars(Var(params.w_q), Var(params.w_k), Var(params.w_v), Var(params.prompts))
    return cross_attention_var(Var(np.asarray(queries)), Var(np.asarray(context)), pv).value


def mhs_ca_branch(
    enhanced: np.ndarray,
    hierarchy_queries: list[tuple[str, np.ndarray]],
    params_per_hierarchy: dict[str, HierarchyAttnParams],
) -> np.ndarray:
    """Mean over hierarchies of the row-pooled per-hierarchy attention output."""
    if not hierarchy_queries:
        raise ConfigError("mhs_ca_branch: no hierarchy enabled")
    pooled = []
    for tag, queries in hierarchy_queries:
        out = cross_attention(queries, enhanced, params_per_hierarchy[tag])
        pooled.append(out.mean(axis=0))
    return np.mean(pooled, axis=0)


# -- heads and losses ---------------------------------------------------------


@dataclass
class HeadParamVars:
    w1: Var
    b1: Var
    w2: Var
    b2: Var


def _head_var(z: Var, p: HeadParamVars) -> tuple[Var, np.ndarray]:
    """MLP output and the hidden ReLU mask (where the output has kinks)."""
    pre = tape.add_rowvec(tape.matmul(z, p.w1), p.b1)
    out = tape.sigmoid(tape.add_rowvec(tape.matmul(tape.relu(pre), p.w2), p.b2))
    return out, pre.value > 0.0


def heads(
    z: np.ndarray, reg: tuple[np.ndarray, ...], cls: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the two d_a -> d_a -> out MLPs (ReLU hidden, sigmoid output)."""
    zv = Var(np.asarray(z, dtype=np.float64).reshape(1, -1))
    bbox, _ = _head_var(zv, HeadParamVars(*[Var(a) for a in reg]))
    probs, _ = _head_var(zv, HeadParamVars(*[Var(a) for a in cls]))
    return bbox.value[0], probs.value[0]


def fuse_predictions(
    temporal: tuple[np.ndarray, np.ndarray], spatial: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Average the branch box and class predictions."""
    bbox = (np.asarray(temporal[0]) + np.asarray(spatial[0])) / 2.0
    probs = (np.asarray(temporal[1]) + np.asarray(spatial[1])) / 2.0
    return bbox, probs


PROB_EPS = 1e-7


def bce_loss(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Mean binary cross entropy over classes, predictions clamped away from {0,1}."""
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise DimensionError(f"bce_loss: {y.shape} vs {y_hat.shape}")
    p = np.clip(y_hat, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)))


def mse_loss(b: np.ndarray, b_hat: np.ndarray) -> float:
    """Sum of squared errors over the four box coordinates."""
    b = np.asarray(b, dtype=np.float64)
    b_hat = np.asarray(b_hat, dtype=np.float64)
    if b.shape != (4,) or b_hat.shape != (4,):
        raise DimensionError(f"mse_loss: need length-4 boxes, got {b.shape} and {b_hat.shape}")
    return float(np.sum((b - b_hat) ** 2))


def _bce_var(y: np.ndarray, probs: Var) -> Var:
    """Per-row BCE: ``y`` and ``probs`` are (..., C); the result drops C."""
    n_c = probs.value.shape[-1]
    yv = Var(np.asarray(y, dtype=np.float64).reshape(probs.value.shape))
    ones = Var(np.ones_like(yv.value))
    p = tape.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    term = tape.add(
        tape.mul(yv, tape.log(p)),
        tape.mul(tape.add(ones, tape.scale(yv, -1.0)), tape.log(tape.add(ones, tape.scale(p, -1.0)))),
    )
    return tape.scale(tape.sum_axis(term, -1), -1.0 / n_c)


def _mse_var(b: np.ndarray, bbox: Var) -> Var:
    """Per-row squared box error; ``b`` and ``bbox`` are (..., 4)."""
    diff = tape.add(bbox, Var(-np.asarray(b, dtype=np.float64).reshape(bbox.value.shape)))
    return tape.sum_axis(tape.mul(diff, diff), -1)


def _clip_band(probs: Var) -> np.ndarray:
    """Where the BCE clamp passes gradient; its edges are kinks of the loss."""
    return (probs.value >= PROB_EPS) & (probs.value <= 1.0 - PROB_EPS)


# -- parameter construction ----------------------------------------------------


def init_model_params(config: TrainConfig, seed: int | None = None) -> ParamStore:
    """Build every learnable tensor; toggles never change what exists.

    Creation order is fixed so a given seed always produces the same store,
    which keeps ablated variants initialized identically to the full model.
    """
    config.validate()
    seed = config.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    params = ParamStore(seed=seed)

    params.add("scene_proj.w", uniform_init(rng, config.d + 4, (config.d + 4, config.d)))
    params.add("scene_proj.b", np.zeros(config.d))

    def add_ssm(name: str, in_dim: int):
        params.add(f"ssm.{name}.in_proj", uniform_init(rng, in_dim, (in_dim, config.d_s)))
        params.add(f"ssm.{name}.A", np.diag(rng.uniform(0.5, 0.95, size=config.n)))
        params.add(f"ssm.{name}.B", uniform_init(rng, config.d_s, (config.n, config.d_s)))
        params.add(f"ssm.{name}.C", uniform_init(rng, config.n, (config.d_s, config.n)))

    add_ssm("keyword", config.d)
    add_ssm("scene", config.d)
    add_ssm("holistic_temporal", config.d)
    add_ssm("holistic_spatial", config.d)

    query_dims = {"rv": config.d, "kwv": config.d_s, "bv": config.d_s}
    for tag in HIERARCHIES:
        for branch in BRANCHES:
            base = f"attn.{tag}.{branch}"
            params.add(f"{base}.w_q", uniform_init(rng, query_dims[tag], (query_dims[tag], config.d_a)))
            params.add(f"{base}.w_k", uniform_init(rng, config.d_s, (config.d_s, config.d_a)))
            params.add(f"{base}.w_v", uniform_init(rng, config.d_s, (config.d_s, config.d_a)))
            params.add(f"{base}.prompts", uniform_init(rng, config.d_a, (config.n_prompts, config.d_a)))

    for branch in BRANCHES:
        for head, out_dim in (("reg", 4), ("cls", config.num_classes)):
            base = f"head.{branch}.{head}"
            params.add(f"{base}.w1", uniform_init(rng, config.d_a, (config.d_a, config.d_a)))
            params.add(f"{base}.b1", np.zeros(config.d_a))
            params.add(f"{base}.w2", uniform_init(rng, config.d_a, (config.d_a, out_dim)))
            params.add(f"{base}.b2", np.zeros(out_dim))

    return params


def _ssm_vars(pv: dict[str, Var], name: str) -> SsmParamVars:
    return SsmParamVars(
        in_proj=pv[f"ssm.{name}.in_proj"],
        A=pv[f"ssm.{name}.A"],
        B=pv[f"ssm.{name}.B"],
        C=pv[f"ssm.{name}.C"],
    )


def _attn_vars(pv: dict[str, Var], tag: str, branch: str) -> AttnParamVars:
    base = f"attn.{tag}.{branch}"
    return AttnParamVars(pv[f"{base}.w_q"], pv[f"{base}.w_k"], pv[f"{base}.w_v"], pv[f"{base}.prompts"])


def _head_vars(pv: dict[str, Var], branch: str, head: str) -> HeadParamVars:
    base = f"head.{branch}.{head}"
    return HeadParamVars(pv[f"{base}.w1"], pv[f"{base}.b1"], pv[f"{base}.w2"], pv[f"{base}.b2"])


# -- full forward ---------------------------------------------------------------


@dataclass
class PipelineSample:
    """One model input: token grid, reference, keyframe detections, targets."""

    grid: VisualTokenGrid
    reference: ReferenceBundle
    detections: list[Detection]
    gt_bbox: np.ndarray | None = None
    labels: np.ndarray | None = None  # multi-hot (num_classes,)
    sample_id: str = ""


@dataclass
class ModelOutput:
    bbox: np.ndarray  # (4,) fused, in (0,1)
    class_probs: np.ndarray  # (num_classes,) fused
    bbox_temporal: np.ndarray | None
    probs_temporal: np.ndarray | None
    bbox_spatial: np.ndarray | None
    probs_spatial: np.ndarray | None
    z_temporal: np.ndarray | None
    z_spatial: np.ndarray | None


@dataclass
class ForwardResult:
    """One batch: per-sample outputs and signatures, and the batch-mean loss.

    Each sample's selection signature records its retrieval picks and the
    ReLU and BCE-clamp masks: a perturbation that changes it crosses a kink
    of the loss, where a finite difference is not the gradient.
    """

    outputs: list[ModelOutput]
    loss: Var | None
    selection_signature: tuple

    @property
    def output(self) -> ModelOutput:
        """The output of a batch of one."""
        if len(self.outputs) != 1:
            raise InputError(f"batch of {len(self.outputs)} samples has no single output")
        return self.outputs[0]


def prepare_reference(text: str, encoder: ReferenceEncoder, stop_set=None) -> ReferenceBundle:
    return embed_reference(text, default_stopwords() if stop_set is None else stop_set, encoder)


def _pad_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """Stack (n_b, ...) blocks into zeros of shape (B, max n_b, ...)."""
    out = np.zeros((len(blocks), max(b.shape[0] for b in blocks), *blocks[0].shape[1:]))
    for i, block in enumerate(blocks):
        out[i, : block.shape[0]] = block
    return out


def _trajectory_input(sets, counts: np.ndarray, grid_shape) -> np.ndarray:
    """Time-major scan input (T, B * max count, d); padded rows are zero."""
    frames, _, dim = grid_shape
    x = np.zeros((frames, len(sets), int(counts.max()), dim))
    for b, traj_set in enumerate(sets):
        for k, traj in enumerate(traj_set.trajectories):
            x[:, b, k] = traj.tokens
    return x.reshape(frames, -1, dim)


def _row_mask(counts: np.ndarray, width: int, n_prompts: int) -> np.ndarray | None:
    """(B, width + n_prompts) mask of real query rows and prompt rows."""
    if np.all(counts == width):
        return None
    real = np.arange(width)[None, :] < counts[:, None]
    return np.concatenate([real, np.ones((len(counts), n_prompts), dtype=bool)], axis=1)


def _mean_hierarchies(parts: list[tuple[Var, np.ndarray]]) -> Var:
    """Per-sample mean of the pooled hierarchy outputs that sample uses.

    Unused parts are zeroed and skipped in the count, so each sample sums
    its own parts in order and scales by 1/count, as ``tape.mean_of`` does.
    """
    total = None
    count = np.zeros(len(parts[0][1]))
    for pooled, used in parts:
        term = pooled if used.all() else tape.scale(pooled, used[:, None, None])
        total = term if total is None else tape.add(total, term)
        count += used
    return tape.scale(total, (1.0 / count)[:, None, None])


def forward(
    samples: PipelineSample | list[PipelineSample],
    params: ParamStore,
    config: TrainConfig,
    encoder: ReferenceEncoder,
    param_vars: dict[str, Var] | None = None,
) -> ForwardResult:
    """Run semantics, retrieval, scans, fusion, heads, and (optionally) the loss.

    ``samples`` is one sample or a batch; the grids of a batch must share
    one shape. The loss, present when every sample has targets, is the
    batch mean. ``param_vars`` lets the caller keep the leaf Vars whose
    gradients one backward pass accumulates.
    """
    batch = [samples] if isinstance(samples, PipelineSample) else list(samples)
    if not batch:
        raise InputError("forward: empty batch")
    grid_shape = batch[0].grid.tokens.shape
    for s in batch:
        if s.grid.tokens.shape != grid_shape:
            raise DimensionError(
                f"sample {s.sample_id!r} grid {s.grid.tokens.shape} differs from the batch's {grid_shape}"
            )
    pv = params.as_vars() if param_vars is None else param_vars
    n_b = len(batch)
    frames = grid_shape[0]

    try:
        scene_tokens = [
            build_scene_attribute_tokens(
                s.detections,
                encoder,
                params["scene_proj.w"],
                params["scene_proj.b"],
                conf_threshold=config.conf_threshold,
                max_count=config.max_detections,
            )
            for s in batch
        ]
    except Exception as exc:
        raise PipelineError("semantics", exc) from exc

    try:
        kw_sets, bs_sets = [], []
        for s, tokens in zip(batch, scene_tokens):
            kw_sets.append(build_trajectory_set(s.reference.keyword_embeddings, s.grid, "keyword"))
            scene_queries = (
                np.stack([t.vector for t in tokens]) if tokens else np.zeros((0, s.grid.dim))
            )
            bs_sets.append(build_trajectory_set(scene_queries, s.grid, "scene-attribute"))
    except Exception as exc:
        raise PipelineError("retrieval", exc) from exc

    kw_counts = np.array([len(t) for t in kw_sets])
    bs_counts = np.array([len(t) for t in bs_sets])
    use_kw = config.use_keyword & (kw_counts > 0)
    use_bv = config.use_attribute & (bs_counts > 0)
    use_rv = config.use_holistic
    for b, s in enumerate(batch):
        if not (use_rv or use_kw[b] or use_bv[b]):
            raise ConfigError(f"all hierarchies disabled for sample {s.sample_id!r}")

    try:
        t_kw = h_bs = None
        if use_kw.any():
            x = _trajectory_input(kw_sets, kw_counts, grid_shape)
            finals = tape.take_row(scan_var(Var(x), _ssm_vars(pv, "keyword")), frames - 1)
            t_kw = tape.reshape(finals, (n_b, int(kw_counts.max()), -1))
        if use_bv.any():
            x = _trajectory_input(bs_sets, bs_counts, grid_shape)
            scans = scan_var(Var(x), _ssm_vars(pv, "scene"))
            total = tape.sum_axis(tape.reshape(scans, (frames, n_b, int(bs_counts.max()), -1)), 2)
            mean = tape.scale(total, (1.0 / np.maximum(bs_counts, 1))[None, :, None])
            h_bs = tape.transpose(mean, (1, 0, 2))
    except Exception as exc:
        raise PipelineError("ssm", exc) from exc

    branch_outputs: dict[str, tuple[Var, Var, Var]] = {}
    kinks: list[np.ndarray] = []
    try:
        for branch, pool in (("temporal", pool_spatial), ("spatial", pool_temporal)):
            if branch == "temporal" and not config.use_temporal:
                continue
            if branch == "spatial" and not config.use_spatial:
                continue
            pooled = np.stack([pool(s.grid) for s in batch], axis=1)
            enhanced = tape.transpose(
                scan_var(Var(pooled), _ssm_vars(pv, f"holistic_{branch}")), (1, 0, 2)
            )
            if config.use_mhs_ca:
                n_p = config.n_prompts
                queries: list[tuple[str, Var, np.ndarray | None, np.ndarray]] = []
                if use_rv:
                    holistic = [s.reference.holistic for s in batch]
                    counts = np.array([h.shape[0] for h in holistic])
                    queries.append(("rv", Var(_pad_rows(holistic)), counts, np.ones(n_b, dtype=bool)))
                if t_kw is not None:
                    queries.append(("kwv", t_kw, kw_counts, use_kw))
                if h_bs is not None:
                    queries.append(("bv", h_bs, None, use_bv))
                parts = []
                for tag, q, counts, used in queries:
                    out = cross_attention_var(q, enhanced, _attn_vars(pv, tag, branch), counts)
                    mask = None if counts is None else _row_mask(counts, q.value.shape[1], n_p)
                    parts.append((tape.mean_rows(out, mask), used))
                z = _mean_hierarchies(parts)
            else:
                z = tape.mean_rows(enhanced)
            bbox, reg_kinks = _head_var(z, _head_vars(pv, branch, "reg"))
            probs, cls_kinks = _head_var(z, _head_vars(pv, branch, "cls"))
            kinks += [reg_kinks, cls_kinks]
            branch_outputs[branch] = (z, bbox, probs)
    except Exception as exc:
        raise PipelineError("fusion", exc) from exc

    bbox_var = tape.mean_of([branch_outputs[b][1] for b in branch_outputs])
    probs_var = tape.mean_of([branch_outputs[b][2] for b in branch_outputs])

    loss = None
    if all(s.gt_bbox is not None and s.labels is not None for s in batch):
        try:
            gt = np.stack([np.asarray(s.gt_bbox, dtype=np.float64).reshape(1, -1) for s in batch])
            labels = np.stack([np.asarray(s.labels, dtype=np.float64).reshape(1, -1) for s in batch])
            per_sample = tape.add(
                _bce_var(labels, probs_var),
                tape.scale(_mse_var(gt, bbox_var), config.lambda_box),
            )
            kinks.append(_clip_band(probs_var))
            if config.aux_branch_loss:
                per_branch = []
                for _, bbox, probs in branch_outputs.values():
                    per_branch.append(
                        tape.add(
                            _bce_var(labels, probs),
                            tape.scale(_mse_var(gt, bbox), config.lambda_box),
                        )
                    )
                    kinks.append(_clip_band(probs))
                per_sample = tape.add(per_sample, tape.mean_of(per_branch))
            loss = tape.scale(tape.sum_all(per_sample), 1.0 / n_b)
        except Exception as exc:
            raise PipelineError("loss", exc) from exc

    def _branch(branch: str, slot: int, b: int):
        return branch_outputs[branch][slot].value[b, 0] if branch in branch_outputs else None

    outputs = [
        ModelOutput(
            bbox=bbox_var.value[b, 0].copy(),
            class_probs=probs_var.value[b, 0].copy(),
            bbox_temporal=_branch("temporal", 1, b),
            probs_temporal=_branch("temporal", 2, b),
            bbox_spatial=_branch("spatial", 1, b),
            probs_spatial=_branch("spatial", 2, b),
            z_temporal=_branch("temporal", 0, b),
            z_spatial=_branch("spatial", 0, b),
        )
        for b in range(n_b)
    ]
    signature = tuple(
        (
            kw_sets[b].indices_signature(),
            bs_sets[b].indices_signature(),
            tuple(mask[b].tobytes() for mask in kinks),
        )
        for b in range(n_b)
    )
    return ForwardResult(outputs=outputs, loss=loss, selection_signature=signature)
