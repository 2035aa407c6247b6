"""Evaluation dealt over processes: chunk c of a split goes to process c mod W,
one per usable CPU, and the records, the report bytes and the first error
are those of one process. What ``fork.deal`` does with any task is tested in
tests/test_fork.py; these tests keep what evaluation adds to it. The chunk
size is shrunk so that a small split spans nine chunks, and the usable CPUs
are set whatever this host has."""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest

from refscan.errors import PipelineError
from refscan.harness import evaluation, formats
from refscan.harness.checkpoint import load_checkpoint
from refscan.harness.cli import main
from refscan.harness.evaluation import evaluate, predict_records, write_report
from refscan.harness.fixtures import GenConfig, generate_fixtures
from refscan.harness.formats import FixtureDataset
from refscan.retrieval import VisualTokenGrid

CHUNK = 2
GEN = GenConfig(num_samples=17, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=29)


@pytest.fixture()
def split(tmp_path, monkeypatch):
    """A 17-record split (9 chunks, the last one short), a checkpoint
    trained on it, and the split loaded whole."""
    monkeypatch.setattr(formats, "CHUNK_RECORDS", CHUNK)
    root = generate_fixtures(GEN, tmp_path / "data")
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(root), "--out-ckpt", str(ckpt), "--steps", "1", "--batch", "2"]) == 0
    ds = FixtureDataset(root)
    return root, load_checkpoint(ckpt), ckpt, ds.load_samples(), ds.default_encoder()


def cli_report(root, ckpt, path) -> bytes:
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--report", str(path)]) == 0
    return path.read_bytes()


def forwarded_here(monkeypatch, act=None) -> list[str]:
    """The ids of the samples this process forwards; ``act(sample_id)``,
    if given, runs in every process before each forward."""
    parent, here = os.getpid(), []
    real = evaluation.forward

    def forward(sample, *args, **kwargs):
        if act is not None:
            act(sample.sample_id)
        if os.getpid() == parent:
            here.append(sample.sample_id)
        return real(sample, *args, **kwargs)

    monkeypatch.setattr(evaluation, "forward", forward)
    return here


def test_reports_are_the_same_bytes_on_one_two_and_eight_cpus(split, tmp_path, monkeypatch, use_cpus):
    root, loaded, ckpt, samples, encoder = split
    cli, listed = [], []
    for cpus in (1, 2, 8):
        use_cpus(cpus)
        here = forwarded_here(monkeypatch)
        cli.append(cli_report(root, ckpt, tmp_path / f"cli{cpus}.json"))
        # chunk c is forwarded by process c mod W, this one being process 0
        workers = min(cpus, 9)
        assert here == [s.sample_id for i, s in enumerate(samples) if i // CHUNK % workers == 0]
        write_report(tmp_path / f"list{cpus}.json", evaluate(loaded.params, loaded.config, samples, encoder))
        listed.append((tmp_path / f"list{cpus}.json").read_bytes())
    assert cli[1] == cli[2] == cli[0] == listed[0] == listed[1] == listed[2]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_nonfinite_sample_in_a_workers_chunk_raises_as_in_one_process(split, use_cpus, forks):
    _, loaded, _, samples, encoder = split
    victim = CHUNK + 1  # the second sample of chunk 1, the worker's on two CPUs
    scaled = list(samples)
    scaled[victim] = dataclasses.replace(samples[victim], grid=VisualTokenGrid(samples[victim].grid.tokens * 1e200))
    raised = []
    for cpus in (1, 2):
        use_cpus(cpus)
        with pytest.raises(PipelineError) as info:
            predict_records(loaded.params, loaded.config, scaled, encoder)
        raised.append((info.value.stage, str(info.value)))
    assert len(forks) == 1
    assert raised[1] == raised[0]
    stage, text = raised[0]
    assert f"sample {samples[victim].sample_id!r}: non-finite '" in text and text.startswith(f"stage {stage!r}")


def test_a_worker_that_dies_mid_share_leaves_its_unfinished_chunks_here(split, tmp_path, monkeypatch, use_cpus, forks):
    root, _, ckpt, samples, _ = split
    use_cpus(1)
    alone = cli_report(root, ckpt, tmp_path / "alone.json")
    use_cpus(2)
    parent, worker_forwards = os.getpid(), []

    def die_on_third(sample_id):
        if os.getpid() != parent:
            worker_forwards.append(sample_id)
            if len(worker_forwards) == 3:  # chunk 1 done, chunk 3 begun
                os._exit(3)

    here = forwarded_here(monkeypatch, die_on_third)
    assert cli_report(root, ckpt, tmp_path / "dealt.json") == alone
    assert len(forks) == 1
    ids = [s.sample_id for s in samples]
    # its own chunks 0, 2, 4, 6 and 8, then chunks 3, 5 and 7 the worker left
    assert here == [ids[i] for i in range(len(ids)) if i // CHUNK % 2 == 0] + ids[3 * CHUNK:4 * CHUNK] + \
        ids[5 * CHUNK:6 * CHUNK] + ids[7 * CHUNK:8 * CHUNK]


def test_a_single_chunk_forks_nothing(split, tmp_path, monkeypatch, use_cpus, forks):
    root, loaded, ckpt, samples, encoder = split
    use_cpus(1)
    alone = cli_report(root, ckpt, tmp_path / "alone.json")
    use_cpus(2)
    monkeypatch.setattr(formats, "CHUNK_RECORDS", 64)  # above the 18 the annotation file's line ends allow
    assert cli_report(root, ckpt, tmp_path / "one_chunk.json") == alone
    records = predict_records(loaded.params, loaded.config, samples, encoder)
    assert [r.sample_id for r in records] == [s.sample_id for s in samples]
    np.testing.assert_array_equal(records[0].gt_bbox, samples[0].gt_bbox)
    assert forks == []
