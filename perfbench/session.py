"""One benchmark session: a fresh process that runs one refscan CLI command.

run.py starts it as ``python3 session.py <spec.json>`` with ``src`` on
PYTHONPATH. The spec names the workload, the mode, the CLI arguments and
where to write the result. Modes:

- ``plain``: no hook at all; only the process's wall time is known.
- ``timed``: one timestamp per item at the item boundary (the untraced run).
- ``traced``: item timestamps plus spans around every layer's public calls.
- ``probe``: item timestamps, stopping after the first item (a set-up sample).

Item boundaries: train-desk stamps when ``Adam`` is built (the first item
starts) and when ``Adam.step`` returns; eval-fresh around ``forward`` as the
evaluation module calls it; gradcheck-desk around the loss callable
``grad_check`` receives. Times are ``time.monotonic`` so that run.py can
subtract its own spawn time.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from pathlib import Path

from tracer import Patches, Tracer


class ProbeDone(Exception):
    """Stops a probe session once its first item has ended."""


class ItemClock:
    def __init__(self, probe: bool, tracer: Tracer | None):
        self.first_start: float | None = None
        self.ends: list[float] = []
        self.failed = 0
        self.probe = probe
        self.tracer = tracer

    def start(self) -> None:
        if self.first_start is None:
            self.first_start = time.monotonic()

    def end(self, ok: bool = True) -> None:
        self.ends.append(time.monotonic())
        self.failed += not ok
        if self.tracer is not None:
            self.tracer.item = len(self.ends)
        if self.probe:
            raise ProbeDone


def hook_train(patches: Patches, clock: ItemClock, tracer) -> None:
    from refscan.harness import training

    def make_init(init):
        def __init__(self, *args, **kwargs):
            init(self, *args, **kwargs)
            clock.start()

        return __init__

    def make_step(step):
        def step_and_stamp(self, lr):
            step(self, lr)
            clock.end()

        return step_and_stamp

    patches.wrap(training.Adam, "__init__", make_init)
    patches.wrap(training.Adam, "step", make_step)


def hook_eval(patches: Patches, clock: ItemClock, tracer) -> None:
    from refscan.harness import evaluation

    def make(forward):
        def timed_forward(*args, **kwargs):
            clock.start()
            try:
                result = forward(*args, **kwargs)
            except Exception:
                clock.end(ok=False)
                raise
            clock.end()
            return result

        return timed_forward

    patches.wrap(evaluation, "forward", make)


def hook_gradcheck(patches: Patches, clock: ItemClock, tracer) -> None:
    from refscan.harness import suites

    def make(model_loss_fn):
        def timed_model_loss_fn(*args, **kwargs):
            fn = model_loss_fn(*args, **kwargs)
            if tracer is not None:
                fn = tracer.span("numerics.gradcheck.loss", fn)

            def timed_loss(param_vars):
                clock.start()
                out = fn(param_vars)
                loss = out[0] if isinstance(out, tuple) else out
                clock.end(ok=math.isfinite(float(loss.value)))
                return out

            return timed_loss

        return timed_model_loss_fn

    patches.wrap(suites, "model_loss_fn", make)


ITEM_HOOKS = {"train-desk": hook_train, "eval-fresh": hook_eval, "gradcheck-desk": hook_gradcheck}


def install_tracing(patches: Patches, tracer: Tracer) -> None:
    """Wrap each layer's public calls where their callers look them up."""
    from refscan import fusion
    from refscan.harness import cli, evaluation, formats, suites, training
    from refscan.numerics import tape

    span, counts = tracer.span, tracer.counts

    def count_nodes(args, kwargs):
        root = args[0]
        seen = {id(root)}
        stack = [root]
        while stack:
            for parent in stack.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        counts["tape.nodes"] += len(seen)

    def scan_steps(args, kwargs):
        counts["ssm.steps"] += args[0].value.shape[0]

    def trace_scan_backward(node, args, kwargs):
        node._vjp = span("ssm.backward", node._vjp)

    previous: dict[tuple, tuple] = {}  # (grid id, hierarchy) -> (grid, last signature)

    def retrieval_outcome(result, args, kwargs):
        grid, hierarchy = args[1], args[2]
        counts["retrieval.trajectories"] += len(result)
        key = (id(grid), hierarchy)
        signature = result.indices_signature()
        if key in previous and previous[key][1] == signature:
            counts["retrieval.repeats"] += 1
        previous[key] = (grid, signature)  # holding the grid keeps its id unique

    def file_read(result, args, kwargs):
        counts["formats.bytes"] += os.path.getsize(args[0])

    def checkpoint_bytes(result, args, kwargs):
        counts["checkpoint.bytes"] += os.path.getsize(args[0])

    patches.wrap(tape.Var, "backward", lambda f: span("numerics.tape.backward", f, before=count_nodes))
    patches.wrap(fusion, "scan_var", lambda f: span("ssm.scan", f, before=scan_steps, after=trace_scan_backward))
    patches.wrap(fusion, "build_trajectory_set", lambda f: span("retrieval", f, after=retrieval_outcome))
    patches.wrap(fusion, "build_scene_attribute_tokens", lambda f: span("semantics.scene", f))
    patches.wrap(fusion, "prepare_reference", lambda f: span("semantics.embed", f))
    patches.wrap(fusion, "cross_attention_var", lambda f: span("fusion.attention", f))
    for module in (training, evaluation, suites):
        patches.wrap(module, "forward", lambda f: span("fusion.forward", f))
    patches.wrap(training.Adam, "step", lambda f: span("harness.training.optimizer", f))
    patches.wrap(cli, "train", lambda f: span("harness.training.train", f))
    for attr in ("read_tensor", "load_annotations"):
        patches.wrap(formats, attr, lambda f: span("harness.formats.read", f, after=file_read))
    patches.wrap(cli, "save_checkpoint", lambda f: span("harness.checkpoint.save", f, after=checkpoint_bytes))
    patches.wrap(cli, "load_checkpoint", lambda f: span("harness.checkpoint.load", f, after=checkpoint_bytes))
    for attr in ("mean_iou", "multilabel_map", "auroc"):
        patches.wrap(evaluation, attr, lambda f: span("metrics", f))
    patches.wrap(suites, "grad_check", lambda f: span("numerics.gradcheck", f))


def layer_totals(tracer: Tracer, items: int, gradcheck: dict | None) -> dict:
    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    rows = gradcheck["rows"] if gradcheck else []
    checked = sum(r["checked"] for r in rows)
    skipped = sum(r["skipped"] for r in rows)
    return {
        "numerics.tape.backward_s": s["numerics.tape.backward"],
        "numerics.tape.nodes_per_item": c["tape.nodes"] / max(items, 1),
        "ssm.calls": calls["ssm.scan"],
        "ssm.steps": c["ssm.steps"],
        "ssm.self_s": s["ssm.scan"],
        "ssm.backward_s": s["ssm.backward"],
        "retrieval.calls": calls["retrieval"],
        "retrieval.trajectories": c["retrieval.trajectories"],
        "retrieval.self_s": s["retrieval"],
        "retrieval.repeat_share": c["retrieval.repeats"] / calls["retrieval"] if calls["retrieval"] else 0.0,
        "semantics.scene_s": s["semantics.scene"],
        "semantics.embed_s": s["semantics.embed"],
        "fusion.attention.calls": calls["fusion.attention"],
        "fusion.attention.self_s": s["fusion.attention"],
        "fusion.forward.self_s": s["fusion.forward"],
        "harness.training.optimizer_s": s["harness.training.optimizer"],
        "harness.training.loop_self_s": s["harness.training.train"],
        "harness.formats.read_s": s["harness.formats.read"],
        "harness.formats.files_read": calls["harness.formats.read"],
        "harness.formats.bytes_read": c["formats.bytes"],
        "harness.checkpoint.save_s": s["harness.checkpoint.save"],
        "harness.checkpoint.load_s": s["harness.checkpoint.load"],
        "harness.checkpoint.bytes": c["checkpoint.bytes"],
        "metrics.self_s": s["metrics"],
        "numerics.gradcheck.loss_evals": calls["numerics.gradcheck.loss"],
        "numerics.gradcheck.checked": checked,
        "numerics.gradcheck.skipped": skipped,
        "numerics.gradcheck.useful_share": checked / (checked + skipped) if checked + skipped else 0.0,
        "numerics.gradcheck.self_s": s["numerics.gradcheck"],
        "trace.bookkeeping_s": s["trace.bookkeeping"],
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    mode, workload = spec["mode"], spec["workload"]
    from refscan.harness import cli

    tracer = Tracer() if mode == "traced" else None
    clock = ItemClock(probe=mode == "probe", tracer=tracer)
    patches = Patches()
    captured: dict = {}

    def capture_report(run):
        def run_and_keep(*args, **kwargs):
            captured["report"] = report = run(*args, **kwargs)
            return report

        return run_and_keep

    patches.wrap(cli, "run_model_gradcheck", capture_report)
    if tracer is not None:
        install_tracing(patches, tracer)
    if mode != "plain":
        ITEM_HOOKS[workload](patches, clock, tracer)
    try:
        rc = cli.main(spec["cli_args"])
    except ProbeDone:
        rc = 0
    t_end = time.monotonic()
    patches.restore()
    # an aborted training step (non-finite loss) never reaches Adam.step
    aborted = int(workload == "train-desk" and mode != "plain" and rc != 0)

    gradcheck = None
    if "report" in captured:
        report = captured["report"]
        gradcheck = {
            "aborted": report.aborted,
            "max_rel_err": report.max_rel_err,
            "rows": [vars(row) for row in report.rows],
        }
    result = {
        "rc": rc,
        "first_start": clock.first_start,
        "ends": clock.ends,
        "attempted": len(clock.ends) + aborted,
        "failed": clock.failed + aborted,
        "t_end": t_end,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "gradcheck": gradcheck,
    }
    if tracer is not None:
        result["layers"] = layer_totals(tracer, len(clock.ends), gradcheck)
        if spec.get("spans"):
            tracer.write_jsonl(spec["spans"])
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
