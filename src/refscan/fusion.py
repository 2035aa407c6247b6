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

A ``PipelineSample`` works out the inputs that depend on no trainable
value on first read and keeps them: its keyword picks (``(K, T)`` cell
indices), their selection signature and each enabled branch's pooled
input. A training loop that draws a sample again, or a gradient check that
evaluates it again, reuses them. Scene tokens and their retrieval read
``scene_proj``, a parameter, so ``forward`` builds them on every call.

``forward`` runs one ``Unit`` per layer instance: scene tokens
(``scene_proj.``), scene-attribute retrieval, each scan (``ssm.keyword.``,
``ssm.scene.``, ``ssm.holistic_<branch>.``), each (hierarchy, branch)
cross-attention (``attn.<hierarchy>.<branch>.``), each branch's hierarchy
pooling, each head (``head.<branch>.<head>.``) and, when every sample
has targets, the loss; evaluation passes samples without targets and so
builds no loss unit. Each declares the parameter prefix it reads and the
units it consumes; a unit no output consumes is not built. What the units
read besides the parameters (query row counts and their one-row slices,
pooling weights, loss targets) is computed once per batch in
``BatchInputs``. One driver runs the units,
tags a unit's error as ``PipelineError(stage)`` with the stage names
``semantics``, ``retrieval``, ``ssm``, ``fusion``, ``heads`` and ``loss``,
and keeps each unit's output with its part of the selection signature,
plus one copy of the store's flat value vector. Given such a prior run of
the same batch and store, ``forward`` compares the flat vector bitwise
with the prior's copy, maps the moved scalars to the units reading them
through a read mask (units x scalars), and visits only those units and
the units consuming them, a plan cached per batch for each set of
directly changed units; scene-attribute picks equal to the prior's stop a
``scene_proj`` rerun at retrieval. The gradient check perturbs one scalar
at a time, so a ``head.*`` scalar reruns one head and the loss. Training
and evaluation pass no prior, and the same loop runs every unit; the
per-sample ``ModelOutput``s are built only when read.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .config import TrainConfig
from .errors import ConfigError, DimensionError, InputError, PipelineError
from .numerics import ParamStore, uniform_init
from .numerics import tape
from .numerics.tape import Var, one_row_slices, stacked_matmul, weight_grad
from .retrieval import TrajectorySet, VisualTokenGrid, build_trajectory_set
from .semantics import (
    Detection,
    ReferenceBundle,
    ReferenceEncoder,
    build_scene_attribute_tokens,
    default_stopwords,
    embed_reference,
)
from .ssm import scan_var

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


class QueryRows:
    """The real (unpadded) query rows of each batch entry, fixed per batch,
    and the one-row slices ``tape.stacked_matmul`` recomputes: of the
    queries alone, and of the queries with the ``n_prompts`` prompt rows
    after them."""

    __slots__ = ("counts", "n_prompts", "single", "single_full")

    def __init__(self, counts: np.ndarray, n_prompts: int):
        self.counts = np.asarray(counts)  # (B,)
        self.n_prompts = n_prompts
        self.single = one_row_slices(self.counts)
        self.single_full = one_row_slices(self.counts + n_prompts)


def cross_attention_var(
    queries: Var, context: Var, pv: dict[str, Var], prefix: str, rows: QueryRows | None = None
) -> Var:
    """(..., Q + N_p, d_a) readout; the prompt rows follow the query rows.

    One tape node over the leaves ``pv[prefix + name]`` for ``w_q``,
    ``w_k``, ``w_v`` and ``prompts``. Leading axes are the batch; ``rows``
    holds the real query rows of each batch entry (None: every row is
    real), and the query projection, the scores and the readout keep each
    entry's bits through ``tape.stacked_matmul``. The backward is the chain
    through the readout, the row softmax, the scaled scores and the three
    projections; the prompt rows' gradient is summed over the batch.
    ``context`` is a parent twice, once through the keys and once through
    the values, so its gradient sums the two terms one at a time, as the
    composed ops did, and training stays bitwise.
    """
    leaves = tuple(pv[prefix + name] for name in ("w_q", "w_k", "w_v", "prompts"))
    xq, ctx = queries.value, context.value
    w_q, w_k, w_v, prompts = (leaf.value for leaf in leaves)
    if ctx.shape[-2] < 1:
        raise DimensionError("cross_attention: empty context")
    if xq.shape[-1] != w_q.shape[0] or ctx.shape[-1] != w_k.shape[0] or xq.shape[:-2] != ctx.shape[:-2]:
        raise DimensionError(
            f"cross_attention: queries {xq.shape}, context {ctx.shape} and w_q {w_q.shape}, "
            f"w_k {w_k.shape} do not conform"
        )
    n_q, (n_p, d_a) = xq.shape[-2], prompts.shape
    if rows is not None and rows.n_prompts != n_p:
        raise DimensionError(f"cross_attention: rows counted for {rows.n_prompts} prompt rows, not {n_p}")
    single, single_full = (None, None) if rows is None else (rows.single, rows.single_full)
    q_full = stacked_matmul(xq, w_q, single)
    if n_p > 0:
        proj, q_full = q_full, np.empty((*q_full.shape[:-2], n_q + n_p, d_a))
        q_full[..., :n_q, :] = proj
        q_full[..., n_q:, :] = prompts
    keys = ctx @ w_k
    values = ctx @ w_v
    c = 1.0 / math.sqrt(d_a)
    scores = stacked_matmul(q_full, np.swapaxes(keys, -1, -2), single_full) * c
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

    parents = (queries, context, context, *leaves[: 4 if n_p > 0 else 3])  # prompts only when present
    return Var(stacked_matmul(attn, values, single_full), parents, vjp)


def cross_attention(
    queries: np.ndarray, context: np.ndarray, params: HierarchyAttnParams
) -> np.ndarray:
    """(Q + N_p) x d_a attention readout over the enhanced context tokens."""
    pv = {name: Var(v) for name, v in vars(params).items()}
    return cross_attention_var(Var(np.asarray(queries)), Var(np.asarray(context)), pv, "").value


class PoolPart:
    """How one hierarchy's (B, rows, d_a) output enters the branch vector z,
    fixed per batch: ``mask`` (B, rows) leaves padded rows out of the row
    mean (None: every row counts), and ``used`` (B,) leaves the hierarchy
    out of a sample's mean. The row weights, row counts and keep vector
    that ``pool_hierarchies_var`` applies are derived once here; a slice
    with no row left averages to zero."""

    __slots__ = ("mask", "used", "w", "rows", "keep")

    def __init__(self, mask: np.ndarray | None, used: np.ndarray):
        self.mask, self.used = mask, used
        self.w = self.rows = None
        if mask is not None:
            self.w = np.asarray(mask, dtype=np.float64)[..., None]
            self.rows = np.maximum(self.w.sum(axis=-2, keepdims=True), 1.0)
        self.keep = None if used.all() else np.asarray(used, dtype=np.float64)[:, None, None]


def pool_hierarchies_var(parts: list[tuple[Var, PoolPart]]) -> Var:
    """(B, 1, d_a) branch vector z: per sample, the mean over the hierarchies
    it uses of each hierarchy output's mean over its real rows. One tape node.

    Each part is ``(out, part)``: ``out`` is (B, rows, d_a) and ``part``
    says which of its rows and samples count. Both means sum then divide,
    in the order the parts come, so a lone part keeps the bits of a plain
    row mean.
    """
    if not parts:
        raise ConfigError("no hierarchy enabled")
    total = None
    count = np.zeros(len(parts[0][1].used))
    backs = []
    for out, part in parts:
        a = out.value
        if a.ndim < 2 or a.shape[-2] == 0:
            raise DimensionError(f"pool_hierarchies: no rows in {a.shape}")
        w, keep = part.w, part.keep
        if w is None:  # the bits of a.mean, without its Python-level overhead
            rows = a.shape[-2]
            pooled = a.sum(axis=-2, keepdims=True) / rows
        else:
            rows = part.rows
            pooled = (a * w).sum(axis=-2, keepdims=True) / rows
        term = pooled if keep is None else pooled * keep
        total = term if total is None else total + term
        count += part.used
        backs.append((a.shape, w, rows, keep))
    inv = (1.0 / count)[:, None, None]

    def vjp(g: np.ndarray):
        g = g * inv
        grads = []
        for shape, w, rows, keep in backs:
            gt = g if keep is None else g * keep
            grads.append(np.broadcast_to(gt / rows, shape) if w is None else gt * w / rows)
        return tuple(grads)

    return Var(total * inv, [out for out, _ in parts], vjp)


# -- heads and losses ---------------------------------------------------------


def head_var(z: Var, pv: dict[str, Var], prefix: str) -> tuple[Var, np.ndarray]:
    """sigmoid(relu(z W1 + b1) W2 + b2) as one tape node over the leaves
    ``pv[prefix + name]`` for ``w1``, ``b1``, ``w2`` and ``b2``, and the
    hidden ReLU mask, where the output has kinks."""
    leaves = tuple(pv[prefix + name] for name in ("w1", "b1", "w2", "b2"))
    zv = z.value
    w1, b1, w2, b2 = (leaf.value for leaf in leaves)
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

    return Var(y, (z, *leaves), vjp), mask


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


# -- full forward ---------------------------------------------------------------


@dataclass
class PipelineSample:
    """One model input: token grid, reference, keyframe detections, targets.

    What ``forward`` derives from the sample alone is worked out on first
    read and kept: the keyword picks (a hard argmin of the fixed keyword
    embeddings over the grid), their signature, and each branch's pooled
    input, pooled only once a branch asks for it. So ``grid`` and
    ``reference`` must not change after the first ``forward``; a changed
    sample is a new one (``dataclasses.replace``), which starts with
    nothing kept.
    """

    grid: VisualTokenGrid
    reference: ReferenceBundle
    detections: list[Detection]
    gt_bbox: np.ndarray | None = None
    labels: np.ndarray | None = None  # multi-hot (num_classes,)
    sample_id: str = ""
    _kept: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def without_targets(self) -> PipelineSample:
        """The sample with no box or labels, sharing what this one keeps and
        will keep: the same inputs, so the same kept values."""
        copy = PipelineSample(self.grid, self.reference, self.detections, sample_id=self.sample_id)
        copy._kept = self._kept
        return copy

    @property
    def kw_picks(self) -> TrajectorySet:
        if "kw_picks" not in self._kept:
            self._kept["kw_picks"] = build_trajectory_set(self.reference.keyword_embeddings, self.grid, "keyword")
        return self._kept["kw_picks"]

    @property
    def kw_indices(self) -> np.ndarray:
        """(K_kw, T) intp: the nearest cell per keyword and frame."""
        return self.kw_picks.indices

    @property
    def kw_signature(self) -> tuple:
        if "kw_signature" not in self._kept:
            self._kept["kw_signature"] = self.kw_picks.indices_signature()
        return self._kept["kw_signature"]

    def pooled(self, branch: str) -> np.ndarray:
        """The branch's scan input: (T, d) frames for "temporal", (S, d) cells for "spatial"."""
        if branch not in self._kept:
            self._kept[branch] = (pool_spatial if branch == "temporal" else pool_temporal)(self.grid)
        return self._kept[branch]


@dataclass
class ModelOutput:
    bbox: np.ndarray  # (4,) fused, in (0,1)
    class_probs: np.ndarray  # (num_classes,) fused
    bbox_temporal: np.ndarray | None
    bbox_spatial: np.ndarray | None
    z_temporal: np.ndarray | None


@dataclass
class ForwardResult:
    """One batch: the batch-mean loss, per-sample signatures and outputs, and
    the inputs and unit runs that a later call can take as its ``prior``.

    Each sample's selection signature records its retrieval picks and the
    ReLU and BCE-clamp masks: a perturbation that changes it crosses a kink
    of the loss, where a finite difference is not the gradient. ``values``
    is one copy of the store's flat value vector as the run read it, or
    None when the leaves did not view the store's arrays; such a run cannot
    be a prior. The per-sample ``outputs`` are built on first access.
    """

    loss: Var | None
    selection_signature: tuple
    inputs: BatchInputs = field(repr=False)
    runs: list[UnitRun] = field(repr=False)
    store: ParamStore = field(repr=False)
    names: list[str] = field(repr=False)  # the store's names at the run
    values: np.ndarray | None = field(repr=False)

    @functools.cached_property
    def outputs(self) -> list[ModelOutput]:
        out = {unit.key: run.output for unit, run in zip(self.inputs.units, self.runs)}
        heads = [(out[f"head.{b}.reg"].value, out[f"head.{b}.cls"].value) for b in self.inputs.branches]
        bbox, probs = fuse_predictions(*heads)

        def _value(key: str, b: int):
            return out[key].value[b, 0] if key in out else None

        return [
            ModelOutput(
                bbox=bbox[b, 0].copy(),
                class_probs=probs[b, 0].copy(),
                bbox_temporal=_value("head.temporal.reg", b),
                bbox_spatial=_value("head.spatial.reg", b),
                z_temporal=_value("pool.temporal", b),
            )
            for b in range(len(self.inputs.samples))
        ]

    @functools.cached_property
    def reused(self) -> list:
        """Each unit's output as leaves whose backward raises, for the calls
        that take this run as their prior: its graph, and its parameter
        leaves, belong to this run."""
        return [_refusing(run.output, unit.key) for unit, run in zip(self.inputs.units, self.runs)]

    def first_nonfinite(self) -> Unit | None:
        """The first unit, in run order, whose output holds a non-finite value."""
        return next((u for u, run in zip(self.inputs.units, self.runs) if not _finite(run.output)), None)

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


def keyword_tokens_var(x: Var, pv: dict[str, Var], prefix: str, n_b: int) -> Var:
    """(B, K, d_s) keyword tokens: the final-step readout of each trajectory's
    scan through the layer at ``prefix``. ``x`` is the time-major scan input
    (T, B * K, d); the scan is one node and the final-step pick another."""
    scans = scan_var(x, pv, prefix)
    shape = scans.value.shape

    def vjp(g: np.ndarray):
        d_scans = np.zeros(shape)
        d_scans[-1] = g.reshape(shape[1:])
        return (d_scans,)

    return Var(scans.value[-1].reshape(n_b, -1, shape[-1]), (scans,), vjp)


def scene_tokens_var(x: Var, pv: dict[str, Var], prefix: str, counts: np.ndarray) -> Var:
    """(B, T, d_s) scene-attribute sequence: per sample, the mean of its
    trajectories' per-step scan outputs through the layer at ``prefix``,
    zero for a sample with none.

    ``x`` is the time-major scan input (T, B * max count, d) with padded
    rows zero, so their outputs are zero too and the mean sums every row
    and scales by 1/count. The scan is one node and the mean another.
    """
    scans = scan_var(x, pv, prefix)
    steps, _, d_s = scans.value.shape
    blocks = (steps, len(counts), int(counts.max()), d_s)
    inv = (1.0 / np.maximum(counts, 1))[None, :, None]

    def vjp(g: np.ndarray):
        d_total = g.transpose(1, 0, 2) * inv
        return (np.broadcast_to(d_total[:, :, None], blocks).reshape(steps, -1, d_s),)

    mean = scans.value.reshape(blocks).sum(axis=2) * inv
    return Var(mean.transpose(1, 0, 2), (scans,), vjp)


# -- the layer instances of the forward -----------------------------------------


@dataclass(frozen=True)
class Unit:
    """One layer instance of ``forward``, the unit a prior run lets it reuse.

    ``run(inputs, param_vars, *consumed)`` takes the outputs of the earlier
    units at the indices in ``consumes``, in that order, and returns the
    unit's output and its per-sample part of the selection signature (None
    for no part). A unit reads parameters only under the prefixes in
    ``reads``, and nothing else but the batch inputs and what it consumes.
    ``stage`` is its ``PipelineError`` tag. A ``settles`` unit's output is
    fixed by its signature part, so a rerun whose part equals the prior's
    changes nothing downstream.
    """

    key: str
    stage: str
    reads: tuple[str, ...]
    consumes: tuple[int, ...]
    run: Callable[..., tuple[object, list[tuple] | None]]
    settles: bool = False


@dataclass
class BatchInputs:
    """What the units of ``forward`` read besides the parameters, and the units.

    Built once per call from the batch, or taken from the prior run:
    everything here depends on the samples and the config alone, so no
    parameter change invalidates it. The read mask and the rerun plans are
    filled in by the calls that take a prior.
    """

    samples: list[PipelineSample]
    config: TrainConfig
    encoder: ReferenceEncoder
    grid_shape: tuple
    branches: list[str]  # the enabled branches, in BRANCHES order
    use_kw: np.ndarray  # (B,) bool
    kw_input: np.ndarray | None  # keyword scan input, (T, B * max K, d); None: no keyword scan
    kw_query: tuple | None  # the keyword query's QueryRows and PoolPart
    kw_signature: list[tuple]  # per sample: its keyword picks, when they feed an output
    holistic: tuple  # the holistic query: (B, max words, d) leaf, QueryRows, PoolPart
    whole: PoolPart  # every row of every sample counts
    pooled: dict[str, np.ndarray]  # per branch: time-major (steps, B, d) scan input
    targets: tuple | None  # (B, 1, 4) boxes and (B, 1, C) labels; None: a sample has no targets
    units: tuple[Unit, ...]
    reads: np.ndarray | None = None  # (units, scalars) bool: the store scalars each unit reads
    plans: dict = field(default_factory=dict)  # directly changed units -> rerun plan


def _targets(samples: list[PipelineSample]) -> tuple | None:
    if not all(s.gt_bbox is not None and s.labels is not None for s in samples):
        return None
    try:
        gt = np.stack([np.asarray(s.gt_bbox, dtype=np.float64).reshape(1, -1) for s in samples])
        labels = np.stack([np.asarray(s.labels, dtype=np.float64).reshape(1, -1) for s in samples])
    except ValueError as exc:  # the loss is where mismatched targets meet
        raise PipelineError("loss", exc) from exc
    return gt, labels


def _batch_inputs(samples: list[PipelineSample], config: TrainConfig, encoder: ReferenceEncoder) -> BatchInputs:
    if not samples:
        raise InputError("forward: empty batch")
    grid_shape = samples[0].grid.tokens.shape
    for s in samples:
        if s.grid.tokens.shape != grid_shape:
            raise DimensionError(
                f"sample {s.sample_id!r} grid {s.grid.tokens.shape} differs from the batch's {grid_shape}"
            )
    try:
        kw_indices = [s.kw_indices for s in samples]
    except Exception as exc:
        raise PipelineError("retrieval", exc) from exc
    branches = [b for b, on in zip(BRANCHES, (config.use_temporal, config.use_spatial)) if on]
    n_p = config.n_prompts
    kw_counts = np.array([len(idx) for idx in kw_indices])
    use_kw = config.use_keyword & (kw_counts > 0)
    kw_input = kw_query = None
    if config.use_mhs_ca and use_kw.any():
        kw_input = _trajectory_input([s.grid for s in samples], kw_indices, kw_counts, grid_shape)
        kw_mask = _row_mask(kw_counts, int(kw_counts.max()), n_p)
        kw_query = (QueryRows(kw_counts, n_p), PoolPart(kw_mask, use_kw))
    picks_used = config.use_mhs_ca and config.use_keyword
    holistic = _pad_rows([s.reference.holistic for s in samples])
    holistic_counts = np.array([s.reference.holistic.shape[0] for s in samples])
    every = np.ones(len(samples), dtype=bool)
    targets = _targets(samples)
    return BatchInputs(
        samples=samples,
        config=config,
        encoder=encoder,
        grid_shape=grid_shape,
        branches=branches,
        use_kw=use_kw,
        kw_input=kw_input,
        kw_query=kw_query,
        kw_signature=[(s.kw_signature,) if picks_used else () for s in samples],
        holistic=(
            Var(holistic),
            QueryRows(holistic_counts, n_p),
            PoolPart(_row_mask(holistic_counts, holistic.shape[1], n_p), every),
        ),
        whole=PoolPart(None, every),
        pooled={b: np.stack([s.pooled(b) for s in samples], axis=1) for b in branches},
        targets=targets,
        units=_units(
            tuple(branches),
            attend=config.use_mhs_ca,
            holistic=config.use_holistic,
            keyword=kw_input is not None,
            scene=config.use_attribute and config.use_mhs_ca,
            check=not (config.use_holistic or use_kw.all()),
            loss=targets is not None,
        ),
    )


def _mask_signature(masks: list[np.ndarray]) -> list[tuple]:
    """Per sample, the bytes of its slice of each (B, ...) mask."""
    return list(zip(*[[m.tobytes() for m in mask] for mask in masks]))


def _scene_tokens(prefix: str, x: BatchInputs, pv: dict[str, Var]):
    """Scene-attribute token vectors, (K_bs, d), of each sample's detections."""
    w, b = pv[prefix + "w"].value, pv[prefix + "b"].value
    queries = [
        build_scene_attribute_tokens(
            s.detections,
            x.encoder,
            w,
            b,
            conf_threshold=x.config.conf_threshold,
            max_count=x.config.max_detections,
        )
        for s in x.samples
    ]
    return queries, None


def _scene_retrieval(signed: bool, x: BatchInputs, pv: dict[str, Var], queries: list[np.ndarray]):
    """Scene-attribute picks, and with ``signed`` (they feed the scene scan)
    the picks as the signature part. Also rejects a sample no hierarchy serves."""
    sets = [build_trajectory_set(q, s.grid, "scene-attribute") for q, s in zip(queries, x.samples)]
    bs_counts = np.array([len(t) for t in sets])
    use_bv = x.config.use_attribute & (bs_counts > 0)
    for b, s in enumerate(x.samples):
        if not (x.config.use_holistic or x.use_kw[b] or use_bv[b]):
            raise ConfigError(f"all hierarchies disabled for sample {s.sample_id!r}")
    picks = {
        "bs_indices": [t.indices for t in sets],
        "bs_counts": bs_counts,
        "part": PoolPart(None, use_bv),
    }
    return picks, [(t.indices_signature(),) for t in sets] if signed else None


def _keyword_scan(prefix: str, x: BatchInputs, pv: dict[str, Var]):
    """The keyword query: (B, K, d_s) tokens, QueryRows, PoolPart."""
    t_kw = keyword_tokens_var(Var(x.kw_input), pv, prefix, len(x.samples))
    return (t_kw, *x.kw_query), None


def _scene_scan(prefix: str, x: BatchInputs, pv: dict[str, Var], picks: dict):
    """The scene-attribute query, (B, T, d_s) tokens with every row real;
    None when no sample has one."""
    part = picks["part"]
    if not part.used.any():
        return None, None
    grids = [s.grid for s in x.samples]
    bs_input = _trajectory_input(grids, picks["bs_indices"], picks["bs_counts"], x.grid_shape)
    h_bs = scene_tokens_var(Var(bs_input), pv, prefix, picks["bs_counts"])
    return (h_bs, None, part), None


def _holistic_scan(branch: str, prefix: str, x: BatchInputs, pv: dict[str, Var]):
    """The branch's (B, steps, d_s) enhanced tokens, which the attentions attend over."""
    scans = scan_var(Var(x.pooled[branch]), pv, prefix)
    return tape.transpose(scans, (1, 0, 2)), None


def _attention(tag: str, prefix: str, x: BatchInputs, pv: dict[str, Var], enhanced: Var, query=None):
    """One hierarchy's cross-attention over the enhanced tokens, as a pooling
    part ``(out, part)``; None when no sample has the hierarchy."""
    q = x.holistic if tag == "rv" else query
    if q is None:
        return None, None
    queries, rows, part = q
    return (cross_attention_var(queries, enhanced, pv, prefix, rows), part), None


def _pool(x: BatchInputs, pv: dict[str, Var], *parts):
    """The branch's (B, 1, d_a) vector z: the used hierarchies' attention
    outputs pooled (with cross-attention off, the enhanced tokens pooled)."""
    if not x.config.use_mhs_ca:
        parts = ((parts[0], x.whole),)
    return pool_hierarchies_var([p for p in parts if p is not None]), None


def _head(prefix: str, x: BatchInputs, pv: dict[str, Var], z: Var):
    """One head's prediction; the signature part is its ReLU mask."""
    y, kinks = head_var(z, pv, prefix)
    return y, _mask_signature([kinks])


def _loss(x: BatchInputs, pv: dict[str, Var], *predictions: Var):
    """The batch-mean loss over each branch's (box, class) predictions; the
    signature part is its clamp bands."""
    loss, bands = loss_var(
        list(predictions[0::2]),
        list(predictions[1::2]),
        *x.targets,
        x.config.lambda_box,
        x.config.aux_branch_loss,
    )
    return loss, _mask_signature(bands)


@functools.lru_cache(maxsize=32)
def _units(
    branches: tuple[str, ...], attend: bool, holistic: bool, keyword: bool, scene: bool, check: bool, loss: bool
) -> tuple[Unit, ...]:
    """The units a batch runs, in order, each wired to the units it consumes;
    built once per batch structure and shared by every batch of it.

    ``attend``: cross-attention is on. ``holistic``: the holistic queries
    are. ``keyword``: keyword queries feed the attentions. ``scene``:
    scene-attribute queries do. ``check``: a sample has neither holistic nor
    keyword queries, so the hierarchy check needs its scene-attribute picks.
    ``loss``: every sample has targets, so the loss unit runs last. A unit
    no output consumes is left out: without cross-attention the
    keyword and scene-attribute scans and every attention; the scene tokens
    and their retrieval too, unless ``check`` needs them. Whether a
    scene-attribute attention has queries depends on the picks, so it is
    kept and returns None when no sample has any.
    """
    units: list[Unit] = []
    index: dict[str, int] = {}

    def add(key, stage, run, prefix=None, consumes=(), settles=False):
        """Register a unit; one that reads parameters gets its ``prefix`` as
        its first argument, the one prefix it declares in ``reads``."""
        reads = ()
        if prefix is not None:
            run, reads = functools.partial(run, prefix), (prefix,)
        index[key] = len(units)
        units.append(Unit(key, stage, reads, tuple(index[k] for k in consumes), run, settles))

    if scene or check:
        add("semantics", "semantics", _scene_tokens, prefix="scene_proj.")
        run = functools.partial(_scene_retrieval, scene)
        add("retrieval", "retrieval", run, consumes=("semantics",), settles=True)
    queries = [("rv", ())] if holistic else []
    if keyword:
        add("ssm.keyword", "ssm", _keyword_scan, prefix="ssm.keyword.")
        queries.append(("kwv", ("ssm.keyword",)))
    if scene:
        add("ssm.scene", "ssm", _scene_scan, prefix="ssm.scene.", consumes=("retrieval",))
        queries.append(("bv", ("ssm.scene",)))
    for branch in branches:
        key = f"ssm.holistic_{branch}"
        add(key, "ssm", functools.partial(_holistic_scan, branch), prefix=f"{key}.")
    heads = []
    for branch in branches:
        enhanced = f"ssm.holistic_{branch}"
        if attend:
            parts = [f"attn.{tag}.{branch}" for tag, _ in queries]
            for (tag, query), key in zip(queries, parts):
                run = functools.partial(_attention, tag)
                add(key, "fusion", run, prefix=f"{key}.", consumes=(enhanced, *query))
        else:
            parts = [enhanced]
        add(f"pool.{branch}", "fusion", _pool, consumes=parts)
    for branch in branches:
        for head in ("reg", "cls"):
            key = f"head.{branch}.{head}"
            add(key, "heads", _head, prefix=f"{key}.", consumes=(f"pool.{branch}",))
            heads.append(key)
    if loss:
        add("loss", "loss", _loss, consumes=heads)
    return tuple(units)


@dataclass(slots=True)
class UnitRun:
    """One unit's output and signature part, which a later call reuses while
    the unit's read values and consumed outputs stay as they were."""

    output: object
    signature: list[tuple] | None


def _refusing(value, key: str):
    """``value`` with each Var swapped for a leaf of the same value whose
    backward raises."""
    if isinstance(value, Var):

        def refuse(g: np.ndarray):
            raise InputError(
                f"backward reached the {key!r} output reused from a prior forward; "
                "differentiate a forward run without prior"
            )

        return Var(value.value, (), refuse)
    if isinstance(value, dict):
        return {k: _refusing(v, key) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_refusing(v, key) for v in value)
    return value


def _finite(value) -> bool:
    """Whether every float array in a unit output is finite."""
    if isinstance(value, Var):
        value = value.value
    if isinstance(value, np.ndarray):
        return value.dtype.kind != "f" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    return True


def _views_store(pv: dict[str, Var], params: ParamStore) -> bool:
    """Whether each leaf's value is the store's own array of its name, so the
    store's flat vector holds every value the units read."""
    try:
        return all([pv[name].value is arr for name, arr in params.items()])
    except KeyError:
        return False


def _rerun_plan(x: BatchInputs, params: ParamStore, moved: np.ndarray) -> tuple[tuple[int, ...], list[bool]]:
    """The units to visit when the scalars at ``moved`` changed, in run order,
    and which of the units read a moved scalar.

    The plan is those units plus every unit that consumes one of them; it
    is cached per set of directly changed units. The read mask is built
    from the store on the first call for a batch.
    """
    if x.reads is None:
        x.reads = np.zeros((len(x.units), params.num_scalars()), dtype=bool)
        for name, span in params.flat_slices():
            for k, unit in enumerate(x.units):
                if unit.reads and name.startswith(unit.reads):
                    x.reads[k, span] = True
    direct = x.reads[:, moved].any(axis=1)
    key = direct.tobytes()
    if key not in x.plans:
        hit = direct.tolist()
        for k, unit in enumerate(x.units):
            hit[k] = hit[k] or any(hit[i] for i in unit.consumes)
        x.plans[key] = (tuple(k for k, h in enumerate(hit) if h), direct.tolist())
    return x.plans[key]


def _run_units(
    x: BatchInputs, pv: dict[str, Var], params: ParamStore, prior: ForwardResult | None
) -> tuple[list, list[UnitRun]]:
    """Run the units in order; a unit's error becomes ``PipelineError(stage)``.

    Without ``prior`` every unit runs. With ``prior``, an earlier call on
    the same inputs and store, the scalars whose bits differ from that
    call's copy of the flat value vector select the units that read them,
    and only those and the units consuming them are visited. A visited
    unit runs if it reads a moved scalar or a unit it consumes changed; a
    unit that runs changes, unless it settles back to its prior signature
    part. Every other output is the prior's, as refusing leaves.
    """
    units = x.units
    if prior is None:
        plan, changed = range(len(units)), [True] * len(units)
        outputs, runs = [None] * len(units), [None] * len(units)
    else:
        moved = np.flatnonzero(params.flat_values.view(np.int64) != prior.values.view(np.int64))
        plan, direct = _rerun_plan(x, params, moved)
        changed = list(direct)
        outputs, runs = list(prior.reused), list(prior.runs)
    for k in plan:
        unit = units[k]
        if not (changed[k] or any(map(changed.__getitem__, unit.consumes))):
            continue
        try:
            output, signature = unit.run(x, pv, *[outputs[i] for i in unit.consumes])
        except Exception as exc:
            raise PipelineError(unit.stage, exc) from exc
        changed[k] = not (unit.settles and prior is not None and signature == prior.runs[k].signature)
        outputs[k] = output
        runs[k] = UnitRun(output, signature)
    return outputs, runs


# -- full forward ---------------------------------------------------------------


def forward(
    samples: PipelineSample | list[PipelineSample],
    params: ParamStore,
    config: TrainConfig,
    encoder: ReferenceEncoder,
    param_vars: dict[str, Var] | None = None,
    prior: ForwardResult | None = None,
) -> ForwardResult:
    """Run the units (one per layer instance) over one sample or a batch.

    The grids of a batch must share one shape. When every sample has
    targets the last unit is the loss, the batch mean; otherwise no loss
    unit is built and the result's ``loss`` is None, with every other
    output as it would be with targets. ``param_vars`` lets the caller
    keep the leaf Vars whose gradients one backward pass accumulates.

    ``prior`` is the result of an earlier call on the same batch objects,
    config, encoder and store, in which, as in this call, each leaf viewed
    the store's own array. A unit is run again only if a parameter it reads
    changed value since then or a unit it consumes changed its output;
    every other unit's output is reused, so outputs, loss and signatures
    come out bitwise as a full run's. Backward through a reused output
    raises; differentiate a run made without prior.
    """
    samples = list(samples) if isinstance(samples, (list, tuple)) else [samples]
    pv = params.as_vars() if param_vars is None else param_vars
    views = _views_store(pv, params)
    names = params.names()
    if prior is None:
        inputs = _batch_inputs(samples, config, encoder)
    else:
        inputs = prior.inputs
        same = len(samples) == len(inputs.samples) and all(a is b for a, b in zip(samples, inputs.samples))
        if not same or encoder is not inputs.encoder or config != inputs.config:
            raise InputError("forward: prior comes from another batch, config or encoder")
        if not (views and prior.values is not None and prior.store is params and prior.names == names):
            raise InputError(
                "forward: a prior needs the same parameter store, and leaves that view its arrays in both runs"
            )
    outputs, runs = _run_units(inputs, pv, params, prior)
    parts = [run.signature for run in runs if run.signature is not None]
    signature = tuple(
        sum((part[b] for part in parts), inputs.kw_signature[b]) for b in range(len(samples))
    )
    values = params.flat_values.copy() if views else None
    loss = outputs[-1] if inputs.targets is not None else None
    return ForwardResult(loss, signature, inputs, runs, params, names, values)
