"""Command-line entry points: gen / train / eval / gradcheck / oracle."""

from __future__ import annotations

import argparse
import json
import sys

from ..config import TrainConfig
from ..errors import ParseError, RefScanError
from .checkpoint import load_checkpoint, save_checkpoint
from .evaluation import evaluate, write_report
from .fixtures import GenConfig, generate_fixtures
from .formats import FixtureDataset
from .suites import run_auroc_suite, run_map_suite, run_model_gradcheck, run_scan_suite
from .training import train, write_loss_curve


def _load_json(path) -> dict:
    """A JSON object from ``path``; anything else is a ``ParseError`` naming the file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        data = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not a UTF-8 JSON document ({exc})") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: must hold a JSON object")
    return data


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        rows, cols = text.lower().split("x")
        return int(rows), int(cols)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"grid must look like 4x4, got {text!r}") from exc


def _cmd_gen(args) -> int:
    base = _load_json(args.config) if args.config else {}
    overrides = {
        "num_samples": args.num,
        "frames": args.frames,
        "dim": args.dim,
        "num_classes": args.classes,
        "seed": args.seed,
    }
    if args.grid is not None:
        overrides["grid_rows"], overrides["grid_cols"] = args.grid
    base.update({k: v for k, v in overrides.items() if v is not None})
    cfg = GenConfig.from_dict(base)
    out = generate_fixtures(cfg, args.out)
    print(f"wrote {cfg.num_samples} samples to {out}")
    return 0


def _train_config(args, dataset: FixtureDataset) -> TrainConfig:
    base = _load_json(args.config) if args.config else {}
    base.setdefault("d", dataset.dim)
    base.setdefault("frames", dataset.frames)
    base.setdefault("num_classes", dataset.num_classes)
    for key, value in (
        ("steps", args.steps),
        ("learning_rate", args.learning_rate),
        ("batch", args.batch),
        ("seed", args.seed),
    ):
        if value is not None:
            base[key] = value
    return TrainConfig.from_dict(base)


def _cmd_train(args) -> int:
    dataset = FixtureDataset(args.data)
    config = _train_config(args, dataset)
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
    ckpt = load_checkpoint(args.ckpt)
    dataset = FixtureDataset(args.data)
    encoder = dataset.default_encoder()
    report = evaluate(ckpt.params, ckpt.config, dataset.iter_samples(encoder), encoder)
    write_report(args.report, report)
    print(
        f"mIOU {report['miou']:.4f}  mAP {report['map']:.4f}  AUROC {report['auroc']:.4f}  "
        f"({report['num_samples']} samples) -> {args.report}"
    )
    return 0


def _cmd_gradcheck(args) -> int:
    config = TrainConfig.from_dict(_load_json(args.config)) if args.config else None
    report = run_model_gradcheck(config=config, seed=args.seed, eps=args.eps)
    print(report.format_table())
    ok = report.passed(args.tol)
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {args.tol:g})")
    return 0 if ok else 1


_SUITES = {"scan": run_scan_suite, "map": run_map_suite, "auroc": run_auroc_suite}
_SUITE_TOL = {"scan": 1e-10, "map": 1e-9, "auroc": 1e-9}


def _cmd_oracle(args) -> int:
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
    p.add_argument("--seed", type=int, default=0)
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
        return args.func(args)
    except RefScanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
