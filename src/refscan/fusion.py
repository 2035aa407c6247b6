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

A batch's structure is settled before any unit runs, from facts no
parameter can change: each sample's keyword count and confident-detection
count decide which hierarchies some sample has queries in, and a sample
with none is rejected. The scan inputs are built with it: the keyword
picks a ``PipelineSample`` keeps, and the scene-attribute picks of its
confident detections under ``scene_projection``, a constant of the store's
seed (the picks are a hard argmin, so the projection could never learn).
With cross-attention off no hierarchy is queried. ``forward`` then runs
one ``Unit`` per layer instance that has work: each scan
(``ssm.keyword.``, ``ssm.scene.``, ``ssm.holistic_<branch>.``), each
(hierarchy, branch) cross-attention (``attn.<hierarchy>.<branch>.``), each
branch's hierarchy pooling, each head (``head.<branch>.<head>.``) and,
when every sample has targets, the loss. A unit's run is the ``Var`` its
layer built and its kink masks (the heads' ReLU masks, the loss's clamp
bands), from which a result builds its selection signature when read. An
error is a ``PipelineError`` tagged with its stage: ``semantics`` or
``retrieval`` while the batch inputs are built, then the unit's ``ssm``,
``fusion``, ``heads`` or ``loss``. A result's ``rerun`` runs again only
the units that read a moved scalar and the units consuming them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .config import TrainConfig, indexable_shape
from .errors import ConfigError, DimensionError, InputError, PipelineError
from .numerics import tape
from .numerics.linalg import uniform_init
from .numerics.params import ParamStore
from .numerics.tape import Var, one_row_slices, stacked_matmul, weight_grad
from .retrieval import VisualTokenGrid, build_trajectory_set
from .semantics import (
    Detection,
    ReferenceBundle,
    ReferenceEncoder,
    build_scene_attribute_tokens,
    confident_detections,
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


class Rows:
    """One query hierarchy's rows in a batch, read by its attentions and its
    pooling: ``counts`` (B,) real query rows per entry (None: every row is
    real), then ``n_prompts`` prompt rows; ``used`` (B,) marks the entries
    whose mean over hierarchies takes this one in.

    ``cross_attention_var`` reads the one-row slices ``tape.stacked_matmul``
    recomputes: ``single`` of the queries alone, ``single_full`` with the
    prompt rows. ``pool_hierarchies_var`` reads ``mask`` (B, max count +
    n_prompts), the real rows then the prompt rows (None when every count
    is equal), its row weights ``w`` and row counts ``rows``, and ``keep``,
    ``used`` as weights (None when every entry uses it); a slice with no
    row left averages to zero.
    """

    __slots__ = ("counts", "n_prompts", "used", "single", "single_full", "mask", "w", "rows", "keep")

    def __init__(self, counts: np.ndarray | None, n_prompts: int, used: np.ndarray):
        self.n_prompts, self.used = n_prompts, used
        self.counts = self.single = self.single_full = self.mask = self.w = self.rows = None
        if counts is not None:
            self.counts = counts = np.asarray(counts)
            self.single, self.single_full = one_row_slices(counts), one_row_slices(counts + n_prompts)
        if counts is not None and (counts != counts[0]).any():
            cols = np.arange(counts.max() + n_prompts)
            self.mask = (cols < counts[:, None]) | (cols >= counts.max())
            self.w = self.mask.astype(np.float64)[..., None]
            self.rows = np.maximum(self.w.sum(axis=-2, keepdims=True), 1.0)
        self.keep = None if used.all() else np.asarray(used, dtype=np.float64)[:, None, None]


def cross_attention_var(
    queries: Var, context: Var, pv: Mapping[str, Var], prefix: str, rows: Rows | None = None
) -> Var:
    """(..., Q + N_p, d_a) readout; the prompt rows follow the query rows.

    One tape node over the leaves ``pv[prefix + name]`` for ``w_q``,
    ``w_k``, ``w_v`` and ``prompts``. Leading axes are the batch; ``rows``
    is the hierarchy's ``Rows`` (None, or counts None: every row is real),
    whose ``single`` and ``single_full`` slices keep each entry's bits in
    the query projection, the scores and the readout through
    ``tape.stacked_matmul``; its ``n_prompts`` must match ``prompts``. The
    backward is the chain through the readout, the row softmax, the scaled
    scores and the three projections; the prompt rows' gradient is summed
    over the batch. ``context`` is a parent twice, once through the keys and
    once through the values, so its gradient sums the two terms one at a
    time, as the composed ops did, and training stays bitwise.
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


def pool_hierarchies_var(parts: list[tuple[Var, Rows]]) -> Var:
    """(B, 1, d_a) branch vector z: per sample, the mean over the hierarchies
    it uses of each hierarchy output's mean over its real rows. One tape node.

    Each part is ``(out, rows)``: ``out`` is (B, rows, d_a) and ``rows`` its
    hierarchy's ``Rows``, whose ``w``, ``rows`` and ``keep`` say which of its
    rows and samples count (counts None: every row). Both means sum then
    divide, in the order the parts come, so a lone part keeps the bits of a
    plain row mean.
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


def head_var(z: Var, pv: Mapping[str, Var], prefix: str) -> tuple[Var, np.ndarray]:
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
    p = np.minimum(np.maximum(probs, PROB_EPS), 1.0 - PROB_EPS)
    q = 1.0 - p
    not_y = 1.0 - y
    diff = bbox - b
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


@functools.lru_cache(maxsize=8)
def scene_projection(d: int, seed: int) -> np.ndarray:
    """The read-only (d + 4, d) projection of scene-attribute features for a
    store initialized from ``seed``: the first draw of its init rng. Its
    tokens feed only the hard argmin of retrieval, so no gradient reaches
    it; it is a constant, not a parameter."""
    w = uniform_init(np.random.default_rng(seed), d + 4, (d + 4, d))
    w.flags.writeable = False
    return w


def param_layout(config: TrainConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Each learnable tensor in the order ``init_model_params`` draws it: its
    name, its shape and its draw, the size field whose value is the fan-in of
    a uniform draw, "diag" (a state matrix's diagonal in [0.5, 0.95)) or
    "zeros". A shape numpy cannot index, the scene projection's among them,
    is a ``ConfigError``."""
    layout = []  # (name, sides: size fields or fixed sizes, draw)
    for scan in ("keyword", "scene", "holistic_temporal", "holistic_spatial"):
        base = f"ssm.{scan}."
        layout += [
            (base + "in_proj", ("d", "d_s"), "d"),
            (base + "A", ("n", "n"), "diag"),
            (base + "B", ("n", "d_s"), "d_s"),
            (base + "C", ("d_s", "n"), "n"),
        ]
    query_dims = {"rv": "d", "kwv": "d_s", "bv": "d_s"}
    for tag in HIERARCHIES:
        for branch in BRANCHES:
            base = f"attn.{tag}.{branch}."
            layout += [
                (base + "w_q", (query_dims[tag], "d_a"), query_dims[tag]),
                (base + "w_k", ("d_s", "d_a"), "d_s"),
                (base + "w_v", ("d_s", "d_a"), "d_s"),
                (base + "prompts", ("n_prompts", "d_a"), "d_a"),
            ]
    for branch in BRANCHES:
        for head, out_dim in (("reg", 4), ("cls", "num_classes")):
            base = f"head.{branch}.{head}."
            layout += [
                (base + "w1", ("d_a", "d_a"), "d_a"),
                (base + "b1", ("d_a",), "zeros"),
                (base + "w2", ("d_a", out_dim), "d_a"),
                (base + "b2", (out_dim,), "zeros"),
            ]
    indexable_shape(config, "the scene projection", (config.d + 4, "d"))
    return [(name, indexable_shape(config, f"parameter {name!r}", sides), draw) for name, sides, draw in layout]


def init_model_params(config: TrainConfig, seed: int | None = None) -> ParamStore:
    """Build every learnable tensor; toggles never change what exists.

    Creation order is fixed so a given seed always produces the same store,
    which keeps ablated variants initialized identically to the full model.
    """
    config.validate()
    seed = config.seed if seed is None else seed
    layout = param_layout(config)
    rng = np.random.default_rng(seed)
    uniform_init(rng, config.d + 4, (config.d + 4, config.d))  # scene_projection's draw, discarded here
    arrays = {}
    for name, shape, draw in layout:
        if draw == "zeros":
            arrays[name] = np.zeros(shape)
        elif draw == "diag":
            arrays[name] = np.diag(rng.uniform(0.5, 0.95, size=shape[0]))
        else:
            arrays[name] = uniform_init(rng, getattr(config, draw), shape)
    return ParamStore(arrays, seed=seed)


# -- full forward ---------------------------------------------------------------


@dataclass
class PipelineSample:
    """One model input: token grid, reference, keyframe detections, targets.

    What ``forward`` derives from the sample alone is worked out on first
    read and kept: its keyword picks (a hard argmin of the fixed keyword
    embeddings over the grid), read only when a batch builds the keyword
    scan, and each branch's pooled input. So ``grid`` and ``reference``
    must not change after the first ``forward``; a changed sample is a new
    one (``dataclasses.replace``), which starts with nothing kept.
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
    def kw_indices(self) -> np.ndarray:
        """(K_kw, T) intp: the nearest cell per keyword and frame."""
        if "kw_indices" not in self._kept:
            picks = build_trajectory_set(self.reference.keyword_embeddings, self.grid, "keyword")
            self._kept["kw_indices"] = picks.indices
        return self._kept["kw_indices"]

    def pooled(self, branch: str) -> np.ndarray:
        """The branch's scan input: (T, d) frames for "temporal", (S, d) cells for "spatial"."""
        if branch not in self._kept:
            self._kept[branch] = (pool_spatial if branch == "temporal" else pool_temporal)(self.grid)
        return self._kept[branch]


def check_sample(sample: PipelineSample, config: TrainConfig) -> None:
    """Reject a sample whose grid frames, grid dim or labels do not fit
    ``config``, or whose box is not 4 coordinates."""
    grid = sample.grid
    if (grid.num_frames, grid.dim) != (config.frames, config.d):
        raise ConfigError(
            f"sample {sample.sample_id!r} grid has {grid.num_frames} frames of dim {grid.dim}, "
            f"config expects {config.frames} frames of dim {config.d}"
        )
    if sample.labels is None or np.shape(sample.labels) != (config.num_classes,):
        raise ConfigError(f"sample {sample.sample_id!r} labels do not match num_classes {config.num_classes}")
    if sample.gt_bbox is None or np.shape(sample.gt_bbox) != (4,):
        raise ConfigError(f"sample {sample.sample_id!r} gt_bbox is not 4 coordinates")


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
    the inputs and unit runs that ``rerun`` reuses.

    Each sample's selection signature records its ReLU and BCE-clamp
    masks: a perturbation that changes it crosses a kink of the loss, where
    a finite difference is not the gradient. Its picks are left out: its
    text, detections, grid and the store's seed fix them, so no parameter
    can flip them. A sample's signature depends on no other sample of the
    batch. ``runs`` holds each unit's ``(output, masks)`` in run order;
    ``values`` is always a copy of the store's flat value vector as the run
    read it, which ``rerun`` compares the store with. The per-sample
    ``outputs`` and signatures are built on first read.
    """

    loss: Var | None
    inputs: BatchInputs = field(repr=False)
    runs: list[tuple[Var, list[np.ndarray] | None]] = field(repr=False)
    store: ParamStore = field(repr=False)
    values: np.ndarray = field(repr=False)

    def rerun(self) -> ForwardResult:
        """This batch again under the store's current values, read through
        its ``leaves``: only the units reading a scalar whose bits differ
        from ``values``, and the units consuming them, run again, so
        outputs, loss and signatures are bitwise a full forward's. When a
        unit is reused, the loss's backward raises before any vjp runs, so
        no gradient reaches the store. A rerun can be rerun."""
        params, units = self.store, self.inputs.units
        moved = np.flatnonzero(params.flat_values.view(np.int64) != self.values.view(np.int64))
        plan = _rerun_plan(self.inputs, params, moved)
        runs = list(self.runs)
        _run_units(self.inputs, params.leaves, plan, runs)
        result = _result(self.inputs, params, runs)
        if result.loss is not None and len(plan) < len(units):
            reran = set(plan)
            key = next((units[i].key for k in plan for i in units[k].consumes if i not in reran), units[-1].key)
            result.loss = _refusing(result.loss, key)
        return result

    @functools.cached_property
    def selection_signature(self) -> tuple:
        """Per sample, the bytes of its slice of each kept mask, in run order."""
        masks = [mask for _, kept in self.runs if kept is not None for mask in kept]
        return tuple(tuple(mask[b].tobytes() for mask in masks) for b in range(len(self.inputs.samples)))

    @functools.cached_property
    def outputs(self) -> list[ModelOutput]:
        out = {unit.key: run[0] for unit, run in zip(self.inputs.units, self.runs)}
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

    def first_nonfinite(self) -> Unit | None:
        """The first unit, in run order, whose output holds a non-finite value."""
        return next((u for u, (out, _) in zip(self.inputs.units, self.runs) if not np.isfinite(out.value).all()), None)

    @property
    def output(self) -> ModelOutput:
        """The output of a batch of one."""
        if len(self.outputs) != 1:
            raise InputError(f"batch of {len(self.outputs)} samples has no single output")
        return self.outputs[0]


def prepare_reference(text: str, encoder: ReferenceEncoder) -> ReferenceBundle:
    return embed_reference(text, default_stopwords(), encoder)


def _pad_rows(blocks: list[np.ndarray]) -> np.ndarray:
    """Stack (n_b, ...) blocks into zeros of shape (B, max n_b, ...)."""
    out = np.zeros((len(blocks), max(b.shape[0] for b in blocks), *blocks[0].shape[1:]))
    for i, block in enumerate(blocks):
        out[i, : block.shape[0]] = block
    return out


def _trajectory_input(grids: list[VisualTokenGrid], picks: list[np.ndarray]) -> np.ndarray:
    """Time-major scan input (T, B * max count, d): each grid's (count, T, d)
    tokens at its (count, T) picks, zero-padded by ``_pad_rows``."""
    steps = np.arange(grids[0].num_frames)
    x = _pad_rows([grid.tokens[steps, idx] for grid, idx in zip(grids, picks)])
    return x.transpose(2, 0, 1, 3).reshape(len(steps), -1, x.shape[-1])


def keyword_tokens_var(x: Var, pv: Mapping[str, Var], prefix: str, n_b: int) -> Var:
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


def scene_tokens_var(x: Var, pv: Mapping[str, Var], prefix: str, counts: np.ndarray) -> Var:
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
    """One layer instance of ``forward``, the unit a rerun reuses or runs again.

    ``run(inputs, leaves, *consumed)`` takes the output ``Var``s of the
    earlier units at the indices in ``consumes``, in that order, and returns
    the ``Var`` its layer built and its kink masks, a list of (B, ...) bool
    arrays that the selection signature records (None: no kink). A unit
    reads parameters only under its key's prefix, ``key + "."``, and nothing
    else but the batch inputs and what it consumes. ``stage`` is its
    ``PipelineError`` tag.
    """

    key: str
    stage: str
    consumes: tuple[int, ...]
    run: Callable[..., tuple[Var, list[np.ndarray] | None]]


@dataclass
class BatchInputs:
    """A batch's settled structure, what its units read besides the
    parameters, and the units.

    Built once per ``forward`` from the samples, the config and the store's
    seed alone, and kept by its reruns, so no parameter change invalidates
    it. ``rows`` maps each hierarchy tag the attentions query to its
    ``Rows``, which its attentions and its pooling read; when none is
    queried, None maps to the whole-rows ``Rows`` the pooling of the
    enhanced tokens reads. The read mask and the rerun plans are filled in
    by the reruns.
    """

    samples: list[PipelineSample]
    config: TrainConfig
    branches: list[str]  # the enabled branches, in BRANCHES order
    scene_counts: np.ndarray  # (B,) confident detections, so scene-attribute picks, per sample
    holistic: Var | None  # (B, max words, d) holistic queries; None: no holistic attention
    kw_input: np.ndarray | None  # keyword scan input, (T, B * max K, d); None: no keyword scan
    bs_input: np.ndarray | None  # scene-attribute scan input, (T, B * max count, d); None: no scene scan
    rows: dict[str | None, Rows]
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


def _scene_picks(samples: list[PipelineSample], kept: list[list], d: int, encoder: ReferenceEncoder, seed: int):
    """Each sample's (K_bs, T) scene-attribute picks: the tokens of its
    confident detections in ``kept`` under the seed's ``scene_projection``,
    retrieved over its grid."""
    proj = scene_projection(d, seed)
    try:
        queries = [build_scene_attribute_tokens(dets, encoder, proj) for dets in kept]
    except Exception as exc:
        raise PipelineError("semantics", exc) from exc
    try:
        return [build_trajectory_set(q, s.grid, "scene-attribute").indices for q, s in zip(queries, samples)]
    except Exception as exc:
        raise PipelineError("retrieval", exc) from exc


def _batch_inputs(
    samples: list[PipelineSample], config: TrainConfig, encoder: ReferenceEncoder, seed: int
) -> BatchInputs:
    if not samples:
        raise InputError("forward: empty batch")
    grid_shape = samples[0].grid.tokens.shape
    for s in samples:
        if s.grid.tokens.shape != grid_shape:
            raise DimensionError(
                f"sample {s.sample_id!r} grid {s.grid.tokens.shape} differs from the batch's {grid_shape}"
            )
        ref = s.reference
        if ref.holistic.shape[1:] != grid_shape[2:] or ref.keyword_embeddings.shape[1:] != grid_shape[2:]:
            shapes = f"{ref.holistic.shape} and {ref.keyword_embeddings.shape}"
            error = DimensionError(f"sample {s.sample_id!r} reference rows {shapes} vs grid dim {grid_shape[2]}")
            raise PipelineError("retrieval", error)
    kw_counts = np.array([s.reference.keyword_embeddings.shape[0] for s in samples])
    kept = [confident_detections(s.detections, config.conf_threshold, config.max_detections) for s in samples]
    scene_counts = np.array([len(dets) for dets in kept])
    used = {  # per hierarchy, (B,): which samples have its queries
        "rv": np.full(len(samples), config.use_holistic),
        "kwv": config.use_keyword & (kw_counts > 0),
        "bv": config.use_attribute & (scene_counts > 0),
    }
    served = used["rv"] | used["kwv"] | used["bv"]
    if not served.all():
        error = ConfigError(f"all hierarchies disabled for sample {samples[int(served.argmin())].sample_id!r}")
        raise PipelineError("retrieval", error)
    tags = tuple(tag for tag in HIERARCHIES if config.use_mhs_ca and used[tag].any())
    branches = [b for b, on in zip(BRANCHES, (config.use_temporal, config.use_spatial)) if on]
    n_p, holistic, kw_input, bs_input, rows = config.n_prompts, None, None, None, {}
    grids = [s.grid for s in samples]
    if not tags:  # the pooling takes the enhanced tokens, every row of every sample
        rows[None] = Rows(None, 0, np.ones(len(samples), dtype=bool))
    if "rv" in tags:
        holistic = Var(_pad_rows([s.reference.holistic for s in samples]))
        rows["rv"] = Rows([s.reference.holistic.shape[0] for s in samples], n_p, used["rv"])
    if "kwv" in tags:
        kw_input = _trajectory_input(grids, [s.kw_indices for s in samples])
        rows["kwv"] = Rows(kw_counts, n_p, used["kwv"])
    if "bv" in tags:
        bs_input = _trajectory_input(grids, _scene_picks(samples, kept, config.d, encoder, seed))
        rows["bv"] = Rows(None, n_p, used["bv"])
    targets = _targets(samples)
    return BatchInputs(
        samples=samples,
        config=config,
        branches=branches,
        scene_counts=scene_counts,
        holistic=holistic,
        kw_input=kw_input,
        bs_input=bs_input,
        rows=rows,
        pooled={b: np.stack([s.pooled(b) for s in samples], axis=1) for b in branches},
        targets=targets,
        units=_units(tuple(branches), tags, targets is not None),
    )


def _keyword_scan(prefix: str, x: BatchInputs, pv: Mapping[str, Var]):
    """The (B, K, d_s) keyword queries."""
    return keyword_tokens_var(Var(x.kw_input), pv, prefix, len(x.samples)), None


def _scene_scan(prefix: str, x: BatchInputs, pv: Mapping[str, Var]):
    """The (B, T, d_s) scene-attribute queries, every row real."""
    return scene_tokens_var(Var(x.bs_input), pv, prefix, x.scene_counts), None


def _holistic_scan(branch: str, prefix: str, x: BatchInputs, pv: Mapping[str, Var]):
    """The branch's (B, steps, d_s) enhanced tokens, which the attentions attend over."""
    scans = scan_var(Var(x.pooled[branch]), pv, prefix)
    return tape.transpose(scans, (1, 0, 2)), None


def _attention(tag: str, prefix: str, x: BatchInputs, pv: Mapping[str, Var], enhanced: Var, queries: Var | None = None):
    """One hierarchy's cross-attention over the enhanced tokens; the holistic
    queries are a batch input."""
    queries = x.holistic if queries is None else queries
    return cross_attention_var(queries, enhanced, pv, prefix, x.rows[tag]), None


def _pool(tags: tuple[str, ...], prefix: str, x: BatchInputs, pv: Mapping[str, Var], *outputs: Var):
    """The branch's (B, 1, d_a) vector z: each queried hierarchy's attention
    output pooled over its ``Rows``; with none queried, the enhanced tokens
    over the whole-rows one."""
    return pool_hierarchies_var([(out, x.rows[tag]) for out, tag in zip(outputs, tags or (None,))]), None


def _head(prefix: str, x: BatchInputs, pv: Mapping[str, Var], z: Var):
    """One head's prediction; its kinks are its ReLU mask."""
    y, kinks = head_var(z, pv, prefix)
    return y, [kinks]


def _loss(prefix: str, x: BatchInputs, pv: Mapping[str, Var], *predictions: Var):
    """The batch-mean loss over each branch's (box, class) predictions; its
    kinks are its clamp bands."""
    return loss_var(
        list(predictions[0::2]),
        list(predictions[1::2]),
        *x.targets,
        x.config.lambda_box,
        x.config.aux_branch_loss,
    )


@functools.lru_cache(maxsize=32)
def _units(branches: tuple[str, ...], tags: tuple[str, ...], loss: bool) -> tuple[Unit, ...]:
    """The units a batch runs, in order, each wired to the units it consumes;
    built once per batch structure and shared by every batch of it.

    ``tags`` are the hierarchies the batch queries: each gets one attention
    per branch, and the keyword and scene-attribute ones the scans that
    build their queries. With none (cross-attention off) the branch pooling
    takes the enhanced tokens. With ``loss`` every sample has targets, and
    the loss unit runs last.
    """
    units: list[Unit] = []
    index: dict[str, int] = {}

    def add(key, stage, run, consumes=()):
        """Register a unit; its run gets the unit's parameter prefix, ``key + "."``,
        as its first argument."""
        index[key] = len(units)
        units.append(Unit(key, stage, tuple(index[k] for k in consumes), functools.partial(run, key + ".")))

    if "kwv" in tags:
        add("ssm.keyword", "ssm", _keyword_scan)
    if "bv" in tags:
        add("ssm.scene", "ssm", _scene_scan)
    queries = {"rv": (), "kwv": ("ssm.keyword",), "bv": ("ssm.scene",)}
    for branch in branches:
        add(f"ssm.holistic_{branch}", "ssm", functools.partial(_holistic_scan, branch))
    heads = []
    for branch in branches:
        enhanced = f"ssm.holistic_{branch}"
        parts = [f"attn.{tag}.{branch}" for tag in tags] or [enhanced]
        for tag, key in zip(tags, parts):
            add(key, "fusion", functools.partial(_attention, tag), consumes=(enhanced, *queries[tag]))
        add(f"pool.{branch}", "fusion", functools.partial(_pool, tags), consumes=parts)
    for branch in branches:
        for head in ("reg", "cls"):
            key = f"head.{branch}.{head}"
            add(key, "heads", _head, consumes=(f"pool.{branch}",))
            heads.append(key)
    if loss:
        add("loss", "loss", _loss, consumes=heads)
    return tuple(units)


def _refusing(loss: Var, key: str) -> Var:
    """``loss`` as a leaf of the same value whose backward raises, naming
    ``key``, the first reused output that backward would reach."""

    def refuse(g: np.ndarray):
        raise InputError(f"backward would reach the {key!r} output a rerun reused; differentiate a forward run")

    return Var(loss.value, (), refuse)


def _rerun_plan(x: BatchInputs, params: ParamStore, moved: np.ndarray) -> tuple[int, ...]:
    """The units to rerun when the scalars at ``moved`` changed, in run order:
    the units that read a moved scalar, and every unit that consumes one of
    the plan. It is cached per set of directly changed units; the read mask
    is built from the store on the first call for a batch.
    """
    if x.reads is None:
        x.reads = np.zeros((len(x.units), params.num_scalars()), dtype=bool)
        for name, span in params.flat_slices():
            for k, unit in enumerate(x.units):
                if name.startswith(unit.key + "."):
                    x.reads[k, span] = True
    direct = x.reads[:, moved].any(axis=1)
    key = direct.tobytes()
    if key not in x.plans:
        hit = direct.tolist()
        for k, unit in enumerate(x.units):
            hit[k] = hit[k] or any(hit[i] for i in unit.consumes)
        x.plans[key] = tuple(k for k, h in enumerate(hit) if h)
    return x.plans[key]


def _run_units(x: BatchInputs, pv: Mapping[str, Var], plan, runs: list) -> None:
    """Run the units at the indices in ``plan``, in order, storing each one's
    ``(output, masks)`` in ``runs`` in place, where a later unit reads the
    output; a unit's error becomes ``PipelineError(stage)``."""
    for k in plan:
        unit = x.units[k]
        try:
            runs[k] = unit.run(x, pv, *[runs[i][0] for i in unit.consumes])
        except Exception as exc:
            raise PipelineError(unit.stage, exc) from exc


def _result(x: BatchInputs, params: ParamStore, runs: list) -> ForwardResult:
    """A run's loss, unit runs and the store's values it read."""
    loss = runs[-1][0] if x.targets is not None else None
    return ForwardResult(loss, x, runs, params, params.flat_values.copy())


# -- full forward ---------------------------------------------------------------


def forward(
    samples: PipelineSample | list[PipelineSample],
    params: ParamStore,
    config: TrainConfig,
    encoder: ReferenceEncoder,
) -> ForwardResult:
    """Run the units (one per layer instance) over one sample or a batch.

    The grids of a batch must share one shape. When every sample has
    targets the last unit is the loss, the batch mean; otherwise no loss
    unit is built and the result's ``loss`` is None, with every other
    output as it would be with targets. The units read the parameters
    through the store's ``leaves``, so a backward of the loss adds into the
    store's ``flat_grads``; zero them first for a fresh gradient. The
    result's ``rerun`` runs the batch again under changed parameters.
    """
    samples = list(samples) if isinstance(samples, (list, tuple)) else [samples]
    x = _batch_inputs(samples, config, encoder, params.seed)
    runs = [None] * len(x.units)
    _run_units(x, params.leaves, range(len(x.units)), runs)
    return _result(x, params, runs)
