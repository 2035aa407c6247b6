"""Cross-attention fusion, prediction heads, losses, and the full forward.

Per branch (temporal = spatially pooled frames, spatial = temporally pooled
cells) the pooled sequence is enhanced by a scan layer; each enabled
hierarchy queries those enhanced tokens through its own cross-attention
(with learnable prompt rows appended to the projected queries), the
per-hierarchy outputs are mean-pooled and averaged into the branch vector
z, and small MLP heads regress the box and score the action classes. The
two branch predictions are averaged.

Each layer is one tape node with a hand-derived vjp, as ``ssm.scan_var``
is: ``keyword_tokens_var`` and ``scene_tokens_var`` aggregate the
trajectory scans, ``cross_attention_var`` is one hierarchy's attention
with its prompt rows, ``pool_hierarchies_var`` pools the hierarchy
outputs into z, ``head_var`` is one two-layer head, and ``loss_var``
averages the branches and takes the batch-mean loss, aux term included. A
training step at batch 8 builds about 20 such nodes over about 60 leaves.
Their forward values are bitwise those of the composed elementwise ops
they replaced, which ``tests/composed.py`` keeps as their reference.

``forward`` takes one sample or a list of them and always runs a batch:
every tensor carries a leading batch axis, and a single sample is a batch
of one. Keyword and scene trajectories are zero-padded to the batch
maximum and masked; each scan layer runs once per batch over time-major
``(T, rows, d)`` input, and the attention and heads run once per branch
and hierarchy. All products are stacked per slice, so each sample's
outputs are bitwise those of the same sample run alone.

``prepare_sample`` does the per-sample work that depends on no trainable
value: keyword retrieval (kept as ``(K, T)`` cell indices), its selection
signature and the pooled branch inputs. Scene tokens and their retrieval
read ``scene_proj``, a parameter, so ``forward`` builds them on every call.
``forward`` accepts raw or prepared samples and prepares raw ones on the
spot, so a training loop can prepare each sample once while evaluation,
which sees each sample once, passes raw samples.

``forward`` is an ordered list of named stages, ``STAGES``, each with the
parameter-name prefixes it reads: ``semantics`` (scene tokens,
``scene_proj.``), ``retrieval`` (scene-attribute picks), ``ssm`` (the four
scans, ``ssm.``), ``fusion`` (cross-attention and hierarchy pooling,
``attn.``), ``heads`` (``head.``) and ``loss``. One driver runs them: it
tags a stage's error as ``PipelineError(stage)`` and keeps each stage's
outputs with its part of the selection signature and the bytes of the
parameter values it read. Given such a prior run of the same batch,
``forward`` starts at the first stage whose read values differ bitwise, and
reuses the outputs of the stages before it. The gradient check perturbs
one scalar at a time and so reruns only the heads and loss for a
``head.*`` scalar; training and evaluation pass no prior and run every
stage.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, DimensionError, InputError, PipelineError
from .numerics import ParamStore, uniform_init
from .numerics import tape
from .numerics.tape import Var, stacked_matmul, weight_grad
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

    One tape node. Leading axes are the batch; ``rows`` counts the real
    (unpadded) query rows of each batch entry, and the query projection,
    the scores and the readout keep each entry's bits through
    ``tape.stacked_matmul``. The backward is the chain through the
    readout, the row softmax, the scaled scores and the three
    projections; the prompt rows' gradient is summed over the batch.
    ``context`` is a parent twice, once through the keys and once through
    the values, so its gradient sums the two terms one at a time, as the
    composed ops did, and training stays bitwise.
    """
    xq, ctx = queries.value, context.value
    w_q, w_k, w_v, prompts = p.w_q.value, p.w_k.value, p.w_v.value, p.prompts.value
    if ctx.shape[-2] < 1:
        raise DimensionError("cross_attention: empty context")
    if xq.shape[-1] != w_q.shape[0] or ctx.shape[-1] != w_k.shape[0] or xq.shape[:-2] != ctx.shape[:-2]:
        raise DimensionError(
            f"cross_attention: queries {xq.shape}, context {ctx.shape} and w_q {w_q.shape}, "
            f"w_k {w_k.shape} do not conform"
        )
    n_q, (n_p, d_a) = xq.shape[-2], prompts.shape
    q_full = stacked_matmul(xq, w_q, rows)
    if n_p > 0:
        lead = q_full.shape[:-2]
        q_full = np.concatenate([q_full, np.broadcast_to(prompts, (*lead, n_p, d_a))], axis=-2)
    full_rows = None if rows is None else np.asarray(rows) + n_p
    keys = ctx @ w_k
    values = ctx @ w_v
    c = float(1.0 / np.sqrt(d_a))
    scores = stacked_matmul(q_full, np.swapaxes(keys, -1, -2), full_rows) * c
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = e / e.sum(axis=-1, keepdims=True)

    def vjp(g: np.ndarray):
        d_attn = g @ np.swapaxes(values, -1, -2)
        d_values = np.swapaxes(attn, -1, -2) @ g
        d_scores = (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True)) * attn * c
        d_q = d_scores @ keys
        d_keys = np.swapaxes(d_scores, -1, -2) @ q_full
        d_proj = d_q[..., :n_q, :]
        grads = [
            d_proj @ w_q.T,
            d_keys @ w_k.T,
            d_values @ w_v.T,
            weight_grad(xq, d_proj),
            weight_grad(ctx, d_keys),
            weight_grad(ctx, d_values),
        ]
        if n_p > 0:  # the prompt rows are shared across the batch
            grads.append(d_q[..., n_q:, :].reshape(-1, n_p, d_a).sum(axis=0))
        return grads

    parents = (queries, context, context, p.w_q, p.w_k, p.w_v) + ((p.prompts,) if n_p > 0 else ())
    return Var(stacked_matmul(attn, values, full_rows), parents, vjp)


def cross_attention(
    queries: np.ndarray, context: np.ndarray, params: HierarchyAttnParams
) -> np.ndarray:
    """(Q + N_p) x d_a attention readout over the enhanced context tokens."""
    pv = AttnParamVars(Var(params.w_q), Var(params.w_k), Var(params.w_v), Var(params.prompts))
    return cross_attention_var(Var(np.asarray(queries)), Var(np.asarray(context)), pv).value


def pool_hierarchies_var(parts: list[tuple[Var, np.ndarray | None, np.ndarray]]) -> Var:
    """(B, 1, d_a) branch vector z: per sample, the mean over the hierarchies
    it uses of each hierarchy output's mean over its real rows. One tape node.

    Each part is ``(out, mask, used)``: ``out`` is (B, rows, d_a); ``mask``
    (B, rows) leaves padded rows out of the row mean (None: every row
    counts, and a slice with no row left averages to zero); ``used`` (B,)
    leaves the hierarchy out of a sample's mean. Both means sum then
    divide, in the order the parts come, so a lone part keeps the bits of
    a plain row mean.
    """
    if not parts:
        raise ConfigError("no hierarchy enabled")
    total = None
    count = np.zeros(len(parts[0][2]))
    backs = []
    for out, mask, used in parts:
        a = out.value
        if a.ndim < 2 or a.shape[-2] == 0:
            raise DimensionError(f"pool_hierarchies: no rows in {a.shape}")
        if mask is None:
            pooled, w, rows = a.mean(axis=-2, keepdims=True), None, a.shape[-2]
        else:
            w = np.asarray(mask, dtype=np.float64)[..., None]
            rows = np.maximum(w.sum(axis=-2, keepdims=True), 1.0)
            pooled = (a * w).sum(axis=-2, keepdims=True) / rows
        keep = None if used.all() else np.asarray(used, dtype=np.float64)[:, None, None]
        term = pooled if keep is None else pooled * keep
        total = term if total is None else total + term
        count += used
        backs.append((a.shape, w, rows, keep))
    inv = (1.0 / count)[:, None, None]

    def vjp(g: np.ndarray):
        g = g * inv
        grads = []
        for shape, w, rows, keep in backs:
            gt = g if keep is None else g * keep
            grads.append(np.broadcast_to(gt / rows, shape) if w is None else gt * w / rows)
        return tuple(grads)

    return Var(total * inv, [out for out, _, _ in parts], vjp)


# -- heads and losses ---------------------------------------------------------


@dataclass
class HeadParamVars:
    w1: Var
    b1: Var
    w2: Var
    b2: Var


def head_var(z: Var, p: HeadParamVars) -> tuple[Var, np.ndarray]:
    """sigmoid(relu(z W1 + b1) W2 + b2) as one tape node, and the hidden
    ReLU mask, where the output has kinks."""
    zv, w1, b1, w2, b2 = z.value, p.w1.value, p.b1.value, p.w2.value, p.b2.value
    if zv.shape[-1] != w1.shape[0] or b1.shape != (w1.shape[1],) or b2.shape != (w2.shape[1],):
        raise DimensionError(f"head: input {zv.shape} does not conform to {w1.shape}, {w2.shape}")
    pre = zv @ w1 + b1
    mask = pre > 0.0
    hidden = pre * mask
    with np.errstate(over="ignore"):  # exp overflow saturates cleanly to 0
        y = 1.0 / (1.0 + np.exp(-(hidden @ w2 + b2)))

    def vjp(g: np.ndarray):
        d_out = g * y * (1.0 - y)
        d_pre = (d_out @ w2.T) * mask
        return (
            d_pre @ w1.T,
            weight_grad(zv, d_pre),
            d_pre.reshape(-1, w1.shape[1]).sum(axis=0),
            weight_grad(hidden, d_out),
            d_out.reshape(-1, w2.shape[1]).sum(axis=0),
        )

    return Var(y, (z, p.w1, p.b1, p.w2, p.b2), vjp), mask


def _mean_of(values: list[np.ndarray]) -> np.ndarray:
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total * (1.0 / len(values))


def fuse_predictions(*branches: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Average (box, class) predictions over the branches: sum in branch
    order, then scale."""
    return _mean_of([np.asarray(b[0]) for b in branches]), _mean_of([np.asarray(b[1]) for b in branches])


PROB_EPS = 1e-7


def _row_loss(y: np.ndarray, probs: np.ndarray, b: np.ndarray, bbox: np.ndarray, lambda_box: float):
    """Per-row BCE plus ``lambda_box`` times the squared box error, (..., 1),
    with a vjp to (bbox, probs) and the clamp band, whose edges are kinks.

    Probabilities are clamped away from {0, 1}; the BCE is the mean over
    classes, summed then multiplied by -1/n_c."""
    n_c = probs.shape[-1]
    band = (probs >= PROB_EPS) & (probs <= 1.0 - PROB_EPS)
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    q = 1.0 + (-p)
    not_y = 1.0 + (-y)
    diff = bbox + (-b)
    bce = (y * np.log(p) + not_y * np.log(q)).sum(axis=-1) * (-1.0 / n_c)
    value = bce + (diff * diff).sum(axis=-1) * lambda_box

    def vjp(g: np.ndarray):
        d_term = (g * (-1.0 / n_c))[..., None]
        d_box = (g * lambda_box)[..., None] * diff
        return d_box + d_box, (d_term * y / p - d_term * not_y / q) * band

    return value, vjp, band


def loss_var(
    bbox: list[Var],
    probs: list[Var],
    gt: np.ndarray,
    labels: np.ndarray,
    lambda_box: float,
    aux: bool,
) -> tuple[Var, list[np.ndarray]]:
    """Batch-mean training loss over the branch predictions, one tape node.

    ``bbox`` and ``probs`` hold each branch's (B, 1, 4) and (B, 1, C)
    predictions; ``gt`` and ``labels`` have the same shapes. Each sample's
    loss is the row loss of the branch-averaged prediction plus, with
    ``aux``, the mean over branches of each branch's own row loss. Also
    returns the clamp bands: the averaged prediction's first, then each
    branch's with ``aux``.
    """
    shapes = {b.shape for b in bbox}, {p.shape for p in probs}
    if shapes != ({gt.shape}, {labels.shape}):
        raise DimensionError(
            f"loss: predictions {shapes[0]}, {shapes[1]} vs targets {gt.shape}, {labels.shape}"
        )
    n_br = len(bbox)
    mean_bbox, mean_probs = fuse_predictions(*[(b.value, p.value) for b, p in zip(bbox, probs)])
    rows = [_row_loss(labels, mean_probs, gt, mean_bbox, lambda_box)]
    if aux:
        rows += [_row_loss(labels, p.value, gt, b.value, lambda_box) for b, p in zip(bbox, probs)]
    per_sample = rows[0][0]
    if aux:
        per_sample = per_sample + _mean_of([r[0] for r in rows[1:]])
    c = 1.0 / per_sample.shape[0]

    def vjp(g: np.ndarray):
        d_rows = np.full_like(per_sample, float(g * c))
        d_bbox, d_probs = rows[0][1](d_rows)
        d_bbox, d_probs = d_bbox * (1.0 / n_br), d_probs * (1.0 / n_br)
        grads_bbox, grads_probs = [d_bbox] * n_br, [d_probs] * n_br
        if aux:
            for k, (_, row_vjp, _) in enumerate(rows[1:]):
                db, dp = row_vjp(d_rows * (1.0 / n_br))
                grads_bbox[k] = grads_bbox[k] + db
                grads_probs[k] = grads_probs[k] + dp
        return (*grads_bbox, *grads_probs)

    loss = Var(np.asarray(per_sample.sum()) * c, (*bbox, *probs), vjp)
    return loss, [r[2] for r in rows]


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
    """One batch: per-sample outputs and signatures, the batch-mean loss, and
    the inputs and stage runs that a later call can take as its ``prior``.

    Each sample's selection signature records its retrieval picks and the
    ReLU and BCE-clamp masks: a perturbation that changes it crosses a kink
    of the loss, where a finite difference is not the gradient.
    """

    outputs: list[ModelOutput]
    loss: Var | None
    selection_signature: tuple
    inputs: BatchInputs = field(repr=False)
    stages: list[StageRun] = field(repr=False)

    @property
    def output(self) -> ModelOutput:
        """The output of a batch of one."""
        if len(self.outputs) != 1:
            raise InputError(f"batch of {len(self.outputs)} samples has no single output")
        return self.outputs[0]


def prepare_reference(text: str, encoder: ReferenceEncoder, stop_set=None) -> ReferenceBundle:
    return embed_reference(text, default_stopwords() if stop_set is None else stop_set, encoder)


@dataclass
class PreparedSample:
    """A sample plus the inputs ``forward`` derives from it that no parameter reaches.

    Keyword retrieval is a hard argmin of fixed reference embeddings over a
    fixed grid, and the pooled branch inputs read only the grid, so both
    hold for as long as the config does. Picks are kept as indices, not
    tokens; ``forward`` gathers the tokens from the grid.
    """

    sample: PipelineSample
    kw_indices: np.ndarray  # (K_kw, T) intp, nearest cell per keyword and frame
    kw_signature: tuple
    pooled: dict[str, np.ndarray]  # per enabled branch: (T, d) frames or (S, d) cells


def _pick_indices(traj_set, frames: int) -> np.ndarray:
    if not len(traj_set):
        return np.zeros((0, frames), dtype=np.intp)
    return np.array([t.spatial_indices for t in traj_set.trajectories], dtype=np.intp)


def prepare_sample(sample: PipelineSample, config: TrainConfig) -> PreparedSample:
    """Keyword retrieval, its signature and the pooled branch inputs."""
    grid = sample.grid
    try:
        kw_set = build_trajectory_set(sample.reference.keyword_embeddings, grid, "keyword")
    except Exception as exc:
        raise PipelineError("retrieval", exc) from exc

    pooled = {}
    if config.use_temporal:
        pooled["temporal"] = pool_spatial(grid)
    if config.use_spatial:
        pooled["spatial"] = pool_temporal(grid)
    return PreparedSample(
        sample=sample,
        kw_indices=_pick_indices(kw_set, grid.num_frames),
        kw_signature=kw_set.indices_signature(),
        pooled=pooled,
    )


def _pad_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """Stack (n_b, ...) blocks into zeros of shape (B, max n_b, ...)."""
    out = np.zeros((len(blocks), max(b.shape[0] for b in blocks), *blocks[0].shape[1:]))
    for i, block in enumerate(blocks):
        out[i, : block.shape[0]] = block
    return out


def _trajectory_input(grids, indices, counts: np.ndarray, grid_shape) -> np.ndarray:
    """Time-major scan input (T, B * max count, d) gathered from each grid's
    picks; padded rows are zero."""
    frames, _, dim = grid_shape
    x = np.zeros((frames, len(grids), int(counts.max()), dim))
    steps = np.arange(frames)
    for b, (grid, idx) in enumerate(zip(grids, indices)):
        x[:, b, : len(idx)] = grid.tokens[steps, idx].transpose(1, 0, 2)
    return x.reshape(frames, -1, dim)


def _row_mask(counts: np.ndarray, width: int, n_prompts: int) -> np.ndarray | None:
    """(B, width + n_prompts) mask of real query rows and prompt rows."""
    if np.all(counts == width):
        return None
    real = np.arange(width)[None, :] < counts[:, None]
    return np.concatenate([real, np.ones((len(counts), n_prompts), dtype=bool)], axis=1)


def keyword_tokens_var(x: Var, p: SsmParamVars, n_b: int) -> Var:
    """(B, K, d_s) keyword tokens: the final-step readout of each trajectory's
    scan. ``x`` is the time-major scan input (T, B * K, d); the scan is one
    node and the final-step pick another."""
    scans = scan_var(x, p)
    shape = scans.value.shape

    def vjp(g: np.ndarray):
        d_scans = np.zeros(shape)
        d_scans[-1] = g.reshape(shape[1:])
        return (d_scans,)

    return Var(scans.value[-1].reshape(n_b, -1, shape[-1]), (scans,), vjp)


def scene_tokens_var(x: Var, p: SsmParamVars, counts: np.ndarray) -> Var:
    """(B, T, d_s) scene-attribute sequence: per sample, the mean of its
    trajectories' per-step scan outputs, zero for a sample with none.

    ``x`` is the time-major scan input (T, B * max count, d) with padded
    rows zero, so their outputs are zero too and the mean sums every row
    and scales by 1/count. The scan is one node and the mean another.
    """
    scans = scan_var(x, p)
    steps, _, d_s = scans.value.shape
    blocks = (steps, len(counts), int(counts.max()), d_s)
    inv = (1.0 / np.maximum(counts, 1))[None, :, None]

    def vjp(g: np.ndarray):
        d_total = g.transpose(1, 0, 2) * inv
        return (np.broadcast_to(d_total[:, :, None], blocks).reshape(steps, -1, d_s),)

    mean = scans.value.reshape(blocks).sum(axis=2) * inv
    return Var(mean.transpose(1, 0, 2), (scans,), vjp)


# -- the stages of the forward --------------------------------------------------


@dataclass
class BatchInputs:
    """What the stages of ``forward`` read besides the parameters.

    Built once per call from the batch as passed (``items``), or taken from
    the prior run: everything here depends on the samples and the config
    alone, so no parameter change invalidates it.
    """

    items: list  # the samples as passed, raw or prepared
    samples: list[PipelineSample]
    prepared: list[PreparedSample]
    config: TrainConfig
    encoder: ReferenceEncoder
    grid_shape: tuple
    branches: list[str]  # the enabled branches, in BRANCHES order
    kw_counts: np.ndarray  # (B,) keyword trajectories per sample
    use_kw: np.ndarray  # (B,) bool
    kw_input: np.ndarray | None  # keyword scan input, (T, B * max K, d)
    kw_mask: np.ndarray | None  # real keyword and prompt query rows (None: all)
    holistic: np.ndarray  # (B, max words, d) padded holistic query rows
    holistic_counts: np.ndarray  # (B,) real holistic rows
    holistic_mask: np.ndarray | None
    pooled: dict[str, np.ndarray]  # per branch: time-major (steps, B, d) scan input


def _batch_inputs(items: list, config: TrainConfig, encoder: ReferenceEncoder) -> BatchInputs:
    if not items:
        raise InputError("forward: empty batch")
    samples = [s.sample if isinstance(s, PreparedSample) else s for s in items]
    grid_shape = samples[0].grid.tokens.shape
    for s in samples:
        if s.grid.tokens.shape != grid_shape:
            raise DimensionError(
                f"sample {s.sample_id!r} grid {s.grid.tokens.shape} differs from the batch's {grid_shape}"
            )
    prepared = [s if isinstance(s, PreparedSample) else prepare_sample(s, config) for s in items]
    branches = [b for b, on in zip(BRANCHES, (config.use_temporal, config.use_spatial)) if on]
    kw_counts = np.array([len(p.kw_indices) for p in prepared])
    use_kw = config.use_keyword & (kw_counts > 0)
    kw_input = kw_mask = None
    if use_kw.any():
        kw_input = _trajectory_input(
            [s.grid for s in samples], [p.kw_indices for p in prepared], kw_counts, grid_shape
        )
        kw_mask = _row_mask(kw_counts, int(kw_counts.max()), config.n_prompts)
    holistic = _pad_rows([s.reference.holistic for s in samples])
    holistic_counts = np.array([s.reference.holistic.shape[0] for s in samples])
    return BatchInputs(
        items=items,
        samples=samples,
        prepared=prepared,
        config=config,
        encoder=encoder,
        grid_shape=grid_shape,
        branches=branches,
        kw_counts=kw_counts,
        use_kw=use_kw,
        kw_input=kw_input,
        kw_mask=kw_mask,
        holistic=holistic,
        holistic_counts=holistic_counts,
        holistic_mask=_row_mask(holistic_counts, holistic.shape[1], config.n_prompts),
        pooled={b: np.stack([p.pooled[b] for p in prepared], axis=1) for b in branches},
    )


def _mask_signature(masks: list[np.ndarray], n_b: int) -> list[tuple]:
    return [tuple(mask[b].tobytes() for mask in masks) for b in range(n_b)]


def _semantics(x: BatchInputs, pv: dict[str, Var], state: dict):
    """Scene-attribute token vectors, (K_bs, d), of each sample's detections."""
    w, b = pv["scene_proj.w"].value, pv["scene_proj.b"].value
    queries = []
    for s in x.samples:
        tokens = build_scene_attribute_tokens(
            s.detections,
            x.encoder,
            w,
            b,
            conf_threshold=x.config.conf_threshold,
            max_count=x.config.max_detections,
        )
        queries.append(np.stack([t.vector for t in tokens]) if tokens else np.zeros((0, s.grid.dim)))
    return {"scene_queries": queries}, None


def _retrieval(x: BatchInputs, pv: dict[str, Var], state: dict):
    """Scene-attribute retrieval (keyword picks come prepared); the signature
    part is both hierarchies' picks."""
    sets = [
        build_trajectory_set(q, s.grid, "scene-attribute")
        for q, s in zip(state["scene_queries"], x.samples)
    ]
    bs_counts = np.array([len(t) for t in sets])
    use_bv = x.config.use_attribute & (bs_counts > 0)
    for b, s in enumerate(x.samples):
        if not (x.config.use_holistic or x.use_kw[b] or use_bv[b]):
            raise ConfigError(f"all hierarchies disabled for sample {s.sample_id!r}")
    outputs = {
        "bs_indices": [_pick_indices(t, x.grid_shape[0]) for t in sets],
        "bs_counts": bs_counts,
        "use_bv": use_bv,
    }
    return outputs, [(p.kw_signature, t.indices_signature()) for p, t in zip(x.prepared, sets)]


def _ssm(x: BatchInputs, pv: dict[str, Var], state: dict):
    """The keyword and scene-attribute trajectory scans, then each branch's
    holistic scan, whose (B, steps, d_s) output the fusion attends over."""
    t_kw = h_bs = None
    if x.kw_input is not None:
        t_kw = keyword_tokens_var(Var(x.kw_input), _ssm_vars(pv, "keyword"), len(x.samples))
    if state["use_bv"].any():
        grids = [s.grid for s in x.samples]
        bs_input = _trajectory_input(grids, state["bs_indices"], state["bs_counts"], x.grid_shape)
        h_bs = scene_tokens_var(Var(bs_input), _ssm_vars(pv, "scene"), state["bs_counts"])
    enhanced = {}
    for branch in x.branches:
        scans = scan_var(Var(x.pooled[branch]), _ssm_vars(pv, f"holistic_{branch}"))
        enhanced[branch] = tape.transpose(scans, (1, 0, 2))
    return {"t_kw": t_kw, "h_bs": h_bs, "enhanced": enhanced}, None


def _fusion(x: BatchInputs, pv: dict[str, Var], state: dict):
    """Each branch's (B, 1, d_a) vector z: every used hierarchy's
    cross-attention over the enhanced tokens, pooled (with cross-attention
    off, the enhanced tokens pooled)."""
    every = np.ones(len(x.samples), dtype=bool)
    queries: list[tuple[str, Var, np.ndarray | None, np.ndarray | None, np.ndarray]] = []
    if x.config.use_holistic:
        queries.append(("rv", Var(x.holistic), x.holistic_counts, x.holistic_mask, every))
    if state["t_kw"] is not None:
        queries.append(("kwv", state["t_kw"], x.kw_counts, x.kw_mask, x.use_kw))
    if state["h_bs"] is not None:
        queries.append(("bv", state["h_bs"], None, None, state["use_bv"]))
    z = {}
    for branch, enhanced in state["enhanced"].items():
        if x.config.use_mhs_ca:
            parts = []
            for tag, q, counts, mask, used in queries:
                out = cross_attention_var(q, enhanced, _attn_vars(pv, tag, branch), counts)
                parts.append((out, mask, used))
        else:
            parts = [(enhanced, None, every)]
        z[branch] = pool_hierarchies_var(parts)
    return {"z": z}, None


def _heads(x: BatchInputs, pv: dict[str, Var], state: dict):
    """Each branch's box and class heads; the signature part is their ReLU masks."""
    bbox, probs, kinks = {}, {}, []
    for branch, z in state["z"].items():
        bbox[branch], reg_kinks = head_var(z, _head_vars(pv, branch, "reg"))
        probs[branch], cls_kinks = head_var(z, _head_vars(pv, branch, "cls"))
        kinks += [reg_kinks, cls_kinks]
    return {"bbox": bbox, "probs": probs}, _mask_signature(kinks, len(x.samples))


def _loss(x: BatchInputs, pv: dict[str, Var], state: dict):
    """The batch-mean loss when every sample has targets; the signature part
    is its clamp bands."""
    if not all(s.gt_bbox is not None and s.labels is not None for s in x.samples):
        return {"loss": None}, None
    gt = np.stack([np.asarray(s.gt_bbox, dtype=np.float64).reshape(1, -1) for s in x.samples])
    labels = np.stack([np.asarray(s.labels, dtype=np.float64).reshape(1, -1) for s in x.samples])
    loss, bands = loss_var(
        list(state["bbox"].values()),
        list(state["probs"].values()),
        gt,
        labels,
        x.config.lambda_box,
        x.config.aux_branch_loss,
    )
    return {"loss": loss}, _mask_signature(bands, len(x.samples))


@dataclass(frozen=True)
class Stage:
    """One named step of ``forward`` and the parameter-name prefixes it reads.

    ``run(inputs, param_vars, state)`` returns the stage's outputs, which the
    stages after it find in ``state``, and its per-sample part of the
    selection signature (None for no part). A stage reads parameters only
    through the declared prefixes; the outputs of the stages before it
    carry everything else it depends on.
    """

    name: str  # a PipelineError stage name
    reads: tuple[str, ...]
    run: Callable[[BatchInputs, dict[str, Var], dict], tuple[dict, list[tuple] | None]]


STAGES = (
    Stage("semantics", ("scene_proj.",), _semantics),
    Stage("retrieval", (), _retrieval),
    Stage("ssm", ("ssm.",), _ssm),
    Stage("fusion", ("attn.",), _fusion),
    Stage("heads", ("head.",), _heads),
    Stage("loss", (), _loss),
)


@dataclass
class StageRun:
    """One stage's outputs and signature part, with the bytes of the
    parameter values it read: a later call whose values match reuses them."""

    stage: str
    read_bytes: bytes
    outputs: dict
    signature: list[tuple] | None


@functools.lru_cache(maxsize=16)
def _names_read(
    reads: tuple[tuple[str, ...], ...], names: tuple[str, ...]
) -> tuple[tuple[str, ...], ...]:
    """Per stage's prefixes in ``reads``, the parameter names among ``names`` it reads."""
    return tuple(tuple(n for n in names if n.startswith(prefixes)) for prefixes in reads)


def _reused(value, stage: str):
    """``value`` with each Var swapped for a leaf of the same value whose
    backward raises: its graph, and its parameter leaves, belong to the run
    that made it."""
    if isinstance(value, Var):

        def refuse(g: np.ndarray):
            raise InputError(
                f"backward reached a {stage!r} output reused from a prior forward; "
                "differentiate a forward run without prior"
            )

        return Var(value.value, (), refuse)
    if isinstance(value, dict):
        return {k: _reused(v, stage) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_reused(v, stage) for v in value)
    return value


def _run_stages(
    inputs: BatchInputs, pv: dict[str, Var], prior: list[StageRun] | None
) -> tuple[dict, list[StageRun]]:
    """Run the stages in order; a stage's error becomes ``PipelineError(stage)``.

    With ``prior``, the stage runs of an earlier call on the same inputs,
    each stage before the first whose read parameter values differ bitwise
    from that run's reuses its prior outputs instead of running.
    """
    state: dict = {}
    runs: list[StageRun] = []
    reuse = prior is not None
    stages = STAGES
    groups = _names_read(tuple(s.reads for s in stages), tuple(pv))
    for k, (stage, names) in enumerate(zip(stages, groups)):
        read = b"".join([pv[name].value.tobytes() for name in names])
        reuse = reuse and prior[k].read_bytes == read
        if reuse:
            state.update(_reused(prior[k].outputs, stage.name))
            runs.append(prior[k])
            continue
        try:
            outputs, signature = stage.run(inputs, pv, state)
        except Exception as exc:
            raise PipelineError(stage.name, exc) from exc
        state.update(outputs)
        runs.append(StageRun(stage.name, read, outputs, signature))
    return state, runs


# -- full forward ---------------------------------------------------------------


def forward(
    samples: PipelineSample | PreparedSample | list[PipelineSample | PreparedSample],
    params: ParamStore,
    config: TrainConfig,
    encoder: ReferenceEncoder,
    param_vars: dict[str, Var] | None = None,
    prior: ForwardResult | None = None,
) -> ForwardResult:
    """Run the stages (``STAGES``) over one sample or a batch.

    ``samples`` is raw or prepared; a raw sample is prepared on the spot.
    The grids of a batch must share one shape. The loss, present when every
    sample has targets, is the batch mean. ``param_vars`` lets the caller
    keep the leaf Vars whose gradients one backward pass accumulates.

    ``prior`` is the result of an earlier call on the same batch objects,
    config and encoder. The stages before the first one that reads a
    parameter whose value changed since then are not run again: their
    outputs are reused, so outputs, loss and signatures come out bitwise as
    a full run's. Backward through a reused output raises; differentiate a
    run made without prior.
    """
    items = [samples] if isinstance(samples, (PipelineSample, PreparedSample)) else list(samples)
    if prior is None:
        inputs = _batch_inputs(items, config, encoder)
    else:
        inputs = prior.inputs
        same = len(items) == len(inputs.items) and all(a is b for a, b in zip(items, inputs.items))
        if not same or encoder is not inputs.encoder or config != inputs.config:
            raise InputError("forward: prior comes from another batch, config or encoder")
    pv = params.as_vars() if param_vars is None else param_vars
    state, runs = _run_stages(inputs, pv, None if prior is None else prior.stages)

    heads = [(state["bbox"][b].value, state["probs"][b].value) for b in inputs.branches]
    bbox, probs = fuse_predictions(*heads)

    def _value(parts: dict[str, Var], branch: str, b: int):
        return parts[branch].value[b, 0] if branch in parts else None

    outputs = [
        ModelOutput(
            bbox=bbox[b, 0].copy(),
            class_probs=probs[b, 0].copy(),
            bbox_temporal=_value(state["bbox"], "temporal", b),
            probs_temporal=_value(state["probs"], "temporal", b),
            bbox_spatial=_value(state["bbox"], "spatial", b),
            probs_spatial=_value(state["probs"], "spatial", b),
            z_temporal=_value(state["z"], "temporal", b),
            z_spatial=_value(state["z"], "spatial", b),
        )
        for b in range(len(items))
    ]
    signature = tuple(
        sum((run.signature[b] for run in runs if run.signature is not None), ())
        for b in range(len(items))
    )
    return ForwardResult(outputs, state["loss"], signature, inputs, runs)
