"""Evaluation streams the split: ``FixtureDataset.iter_samples`` reads one
chunk of records at a time, and ``refscan eval`` keeps no grid past its
chunk. The chunk size is shrunk here so that a small split spans several
chunks."""

from __future__ import annotations

import weakref

import pytest

from refscan.harness import evaluation, formats
from refscan.harness.checkpoint import load_checkpoint
from refscan.harness.cli import main
from refscan.harness.evaluation import evaluate, write_report
from refscan.harness.fixtures import GenConfig, generate_fixtures
from refscan.harness.formats import FixtureDataset, record_sample

CHUNK = 2
GEN = GenConfig(num_samples=9, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=13)
TRAIN = ["--steps", "1", "--batch", "2"]


@pytest.fixture()
def split(tmp_path, monkeypatch):
    """A 9-record split (5 chunks, the last one short) and a checkpoint trained on it."""
    monkeypatch.setattr(formats, "CHUNK_RECORDS", CHUNK)
    root = generate_fixtures(GEN, tmp_path / "data")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(root), "--out-ckpt", str(ckpt), *TRAIN]) == 0
    return root, ckpt


def sample_bytes(s) -> tuple:
    ref = s.reference
    return (
        s.sample_id,
        s.grid.tokens.tobytes(),
        ref.raw_text,
        ref.words,
        ref.keywords,
        ref.holistic.tobytes(),
        ref.keyword_embeddings.tobytes(),
        s.detections,
        s.gt_bbox.tobytes(),
        s.labels.tobytes(),
    )


def test_cli_eval_holds_at_most_two_chunks_of_grids(split, tmp_path, monkeypatch):
    root, ckpt = split
    alive: list[weakref.ref] = []
    most = 0
    real_load = FixtureDataset.load_grid

    def tracked_load(self, record):
        nonlocal most
        grid = real_load(self, record)
        alive.append(weakref.ref(grid))
        most = max(most, sum(ref() is not None for ref in alive))
        return grid

    monkeypatch.setattr(FixtureDataset, "load_grid", tracked_load)
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--report", str(tmp_path / "r.json")]) == 0
    assert len(alive) == GEN.num_samples
    assert CHUNK <= most <= 2 * CHUNK


def test_load_samples_is_bitwise_the_stream(split):
    ds = FixtureDataset(split[0])
    encoder = ds.default_encoder()
    streamed = [sample_bytes(s) for s in ds.iter_samples(encoder)]
    assert [sample_bytes(s) for s in ds.load_samples(encoder)] == streamed
    one_by_one = [record_sample(rec, ds.load_grid(rec), encoder, ds.num_classes) for rec in ds.records]
    assert [sample_bytes(s) for s in one_by_one] == streamed
    assert [s[0] for s in streamed] == [rec.video_id for rec in ds.records]


def test_cli_eval_report_is_the_in_memory_report(split, tmp_path):
    root, ckpt = split
    report = tmp_path / "r.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--report", str(report)]) == 0
    ds = FixtureDataset(root)
    loaded = load_checkpoint(ckpt)
    write_report(tmp_path / "mem.json", evaluate(loaded.params, loaded.config, ds.load_samples(), ds.default_encoder()))
    assert report.read_bytes() == (tmp_path / "mem.json").read_bytes()


def test_a_bad_tensor_in_the_third_chunk_fails_mid_run(split, tmp_path, monkeypatch, capsys):
    root, ckpt = split
    ds = FixtureDataset(root)
    victim = root / ds.records[2 * CHUNK].features_ref
    victim.write_bytes(victim.read_bytes()[:6])
    forwards = []
    real_forward = evaluation.forward
    monkeypatch.setattr(evaluation, "forward", lambda *a, **k: forwards.append(1) or real_forward(*a, **k))
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--report", str(report)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(victim) in err[0]
    assert len(forwards) == 2 * CHUNK  # the first two chunks ran before the read failed
    assert not report.exists()

