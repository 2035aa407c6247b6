"""Command-line entry points: gen / train / eval / gradcheck / oracle."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from ..config import TrainConfig
from ..errors import ConfigError, RefScanError
from ..fusion import param_layout
from .checkpoint import load_checkpoint, save_checkpoint
from .evaluation import evaluate, write_report
from .fixtures import GEOMETRY, GenConfig, generate_fixtures
from .formats import META_NAME, FixtureDataset, json_object
from .suites import GRADCHECK_CONFIG, GRADCHECK_GEN, run_auroc_suite, run_map_suite, run_model_gradcheck, run_scan_suite
from .training import train, write_loss_curve


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 4x4, got {text!r}") from exc


def _fields(path: str | None, **flags) -> dict:
    """The ``--config`` file's fields (none without a file), each flag that
    is set taking the place of its field."""
    base = json_object(Path(path).read_bytes(), path) if path else {}
    base.update({k: v for k, v in flags.items() if v is not None})
    return base


def _cmd_gen(args) -> int:
    rows, cols = args.grid or (None, None)
    base = _fields(args.config, num_samples=args.num, frames=args.frames, grid_rows=rows, grid_cols=cols,
                   dim=args.dim, num_classes=args.classes, seed=args.seed)
    cfg = GenConfig.from_dict(base)
    out = generate_fixtures(cfg, args.out)
    print(f"wrote {cfg.num_samples} samples to {out}")
    return 0


def _check_geometry(fields: dict, where: str, source, source_where: str) -> None:
    """Raise ``ConfigError`` naming both sides when a config's ``d``,
    ``frames`` or ``num_classes`` in ``fields`` differ from ``source``'s
    ``dim``, ``frames`` or ``num_classes``."""
    for field, key in GEOMETRY:
        found, expected = fields[field], getattr(source, key)
        if found != expected:
            raise ConfigError(f"{where}: field {field!r} is {found!r}, {source_where} has {key!r} {expected}")


def _config(path: str | None, source, source_where: str, **flags) -> TrainConfig:
    """The ``_fields`` of ``--config`` and the flags, with unset geometry
    taken from ``source`` (a dataset or the gradcheck fixtures); a set value
    that differs from ``source``'s is a ``ConfigError`` naming the file and
    the field, and so is a model that ``param_layout`` finds numpy cannot
    index, before any sample is read."""
    base = _fields(path, **flags)
    for field, key in GEOMETRY:
        base.setdefault(field, getattr(source, key))
    _check_geometry(base, f"--config {path}", source, source_where)
    config = TrainConfig.from_dict(base)
    param_layout(config)
    return config


def _check_output(flag: str, path: str, inputs: tuple = ()) -> None:
    """Reject, before any work, an output path that is a directory, in a
    missing one, or, resolved, one of the command's other paths: ``inputs``
    holds their ``(flag, path)`` pairs (a None path is unset), and a file
    already in a directory among them counts as that directory's."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise ConfigError(f"{flag} {path}: directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"{flag} {path}: is a directory")
    target = os.path.realpath(path)
    for other, source in inputs:
        if source is None:
            continue
        source = os.path.realpath(source)
        if target == source or (os.path.isfile(target) and target.startswith(source + os.sep)):
            raise ConfigError(f"{flag} {path}: would overwrite {other} {source}")


def _cmd_train(args) -> int:
    inputs = (("--data", args.data), ("--config", args.config))
    _check_output("--out-ckpt", args.out_ckpt, (("--log", args.log), *inputs))
    if args.log:
        _check_output("--log", args.log, inputs)
    dataset = FixtureDataset(args.data)
    config = _config(args.config, dataset, f"dataset {dataset.root / META_NAME}",
                     steps=args.steps, learning_rate=args.learning_rate, batch=args.batch, seed=args.seed)
    samples = dataset.load_samples()
    result = train(config, samples, dataset.default_encoder())
    save_checkpoint(args.out_ckpt, result.checkpoint)
    if args.log:
        write_loss_curve(args.log, result)
    if result.aborted:
        print(
            f"aborted: {result.abort_cause()} at step {result.steps_done}; "
            f"last-good checkpoint written to {args.out_ckpt}",
            file=sys.stderr,
        )
        return 1
    last = result.losses[-1] if result.losses else float("nan")
    print(f"trained {result.steps_done} steps, final loss {last:.6f}, checkpoint {args.out_ckpt}")
    return 0


def _cmd_eval(args) -> int:
    _check_output("--report", args.report, (("--ckpt", args.ckpt), ("--data", args.data)))
    ckpt = load_checkpoint(args.ckpt)
    dataset = FixtureDataset(args.data)
    _check_geometry(vars(ckpt.config), f"checkpoint {args.ckpt}", dataset, f"dataset {dataset.root / META_NAME}")
    encoder = dataset.default_encoder()
    report = evaluate(ckpt.params, ckpt.config, dataset, encoder)
    write_report(args.report, report)
    print(
        f"mIOU {report['miou']:.4f}  mAP {report['map']:.4f}  AUROC {report['auroc']:.4f}  "
        f"({report['num_samples']} samples) -> {args.report}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    if not 0 < args.tol < float("inf"):
        raise ConfigError(f"gradcheck: tol must be positive and finite, got {args.tol}")
    config = _config(args.config, GRADCHECK_GEN, "the gradcheck fixtures") if args.config else GRADCHECK_CONFIG
    seed = config.seed if args.seed is None else args.seed
    report = run_model_gradcheck(config=config, seed=seed, eps=args.eps)
    print(report.format_table())
    ok = report.passed(args.tol)
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {args.tol:g})")
    return 0 if ok else 1


_SUITES = {"scan": run_scan_suite, "map": run_map_suite, "auroc": run_auroc_suite}
_SUITE_TOL = {"scan": 1e-10, "map": 1e-9, "auroc": 1e-9}


def _cmd_oracle(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {args.seed}")
    result = _SUITES[args.suite](seed=args.seed)
    tol = _SUITE_TOL[args.suite]
    ok = result["max_abs_diff"] <= tol
    print(
        f"{args.suite}: {result['cases']} cases, max abs diff {result['max_abs_diff']:.3e} "
        f"(tolerance {tol:g}), {result['seconds']:.2f}s -> {'PASS' if ok else 'FAIL'}"
    )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refscan",
        description="Trajectory-retrieval grounding pipeline: fixtures, training, evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a planted-signal fixture dataset")
    p.add_argument("--num", type=int, default=None, help="number of samples")
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--grid", type=_parse_grid, default=None, metavar="RxC")
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--classes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="JSON file with generator fields")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("train", help="train on a fixture dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None, help="JSON file with TrainConfig fields")
    p.add_argument("--steps", type=int, default=None)
    p.add_argument("--learning-rate", type=float, default=None)
    p.add_argument("--batch", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-ckpt", required=True)
    p.add_argument("--log", default=None, help="CSV loss-curve path")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference check of the full model")
    p.add_argument("--config", default=None, help="JSON file with TrainConfig fields")
    p.add_argument("--seed", type=int, default=None, help="overrides the --config seed (default 0)")
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tol", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("oracle", help="run an oracle-equivalence suite")
    p.add_argument("--suite", choices=sorted(_SUITES), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy's warnings stay out of stderr: the stage checks name where a run went non-finite
        with np.errstate(all="ignore"):
            return args.func(args)
    except RefScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size no machine holds fails at allocation, before a page is touched
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
