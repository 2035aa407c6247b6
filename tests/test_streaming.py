"""Evaluation streams the split: ``FixtureDataset.iter_samples`` parses and
reads one chunk of records at a time, and ``refscan eval`` keeps no grid past
the next sample. The chunk size is shrunk here so that a small split spans
several chunks."""

from __future__ import annotations

import json
import re
import weakref

import pytest

from refscan.errors import ParseError
from refscan.harness import evaluation, formats
from refscan.harness.checkpoint import load_checkpoint
from refscan.harness.cli import main
from refscan.harness.evaluation import evaluate, write_report
from refscan.harness.fixtures import GenConfig, generate_fixtures
from refscan.harness.formats import FixtureDataset, iter_annotations, load_annotations, record_sample

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


def count_forwards(monkeypatch) -> list:
    forwards = []
    real_forward = evaluation.forward
    monkeypatch.setattr(evaluation, "forward", lambda *a, **k: forwards.append(1) or real_forward(*a, **k))
    return forwards


def test_cli_eval_holds_one_chunk_of_grids_and_one_grid_more(split, tmp_path, monkeypatch):
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
    # the chunk being read, and the last sample of the chunk before, which the
    # evaluation loop still holds while it asks for the next sample
    assert most == CHUNK + 1


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
    forwards = count_forwards(monkeypatch)
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--report", str(report)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(victim) in err[0]
    assert len(forwards) == 2 * CHUNK  # the first two chunks ran before the read failed
    assert not report.exists()


def test_a_bad_record_in_the_third_chunk_fails_mid_run(split, tmp_path, monkeypatch, capsys):
    root, ckpt = split
    path = root / formats.ANNOTATIONS_NAME
    lines = path.read_text().splitlines()
    bad = 2 * CHUNK  # line 2 * CHUNK + 1, the first record of the third chunk
    obj = json.loads(lines[bad])
    obj["gt_bbox"] = [0.5, 0.0, 1.5, 1.0]
    lines[bad] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    report = tmp_path / "r.json"
    report.write_text("an older report\n")
    forwards = count_forwards(monkeypatch)
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--report", str(report)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: gt_bbox ")
    assert err[0].endswith(f": line {bad + 1}: field 'gt_bbox'")
    assert len(forwards) == 2 * CHUNK  # the first two chunks ran before the record was parsed
    assert report.read_text() == "an older report\n"


def test_records_are_parsed_one_chunk_at_a_time(split, tmp_path, monkeypatch):
    root, ckpt = split
    parsed = []
    real_parse = formats._parse_record
    monkeypatch.setattr(formats, "_parse_record", lambda *a: parsed.append(1) or real_parse(*a))
    FixtureDataset(root)
    assert parsed == []
    at_forward = []
    real_forward = evaluation.forward
    monkeypatch.setattr(evaluation, "forward", lambda *a, **k: at_forward.append(len(parsed)) or real_forward(*a, **k))
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(root), "--report", str(tmp_path / "r.json")]) == 0
    # each chunk is parsed when its first sample is asked for, the last one short
    assert at_forward == [min(GEN.num_samples, (i // CHUNK + 1) * CHUNK) for i in range(GEN.num_samples)]
    assert at_forward[0] == formats.CHUNK_RECORDS


def test_opening_a_dataset_without_annotations_fails(split):
    root = split[0]
    (root / formats.ANNOTATIONS_NAME).unlink()
    with pytest.raises(ParseError, match=re.escape(f"annotation file {root / formats.ANNOTATIONS_NAME} does not exist")):
        FixtureDataset(root)


# ends of line that bytes.splitlines splits at, a blank line after two of them
ENDINGS = [b"\r\n", b"\r", b"\n\n", b"\r\r\n", b"\n", b"\r\n  \r\n"]


def mixed_endings(path) -> bytes:
    """Rewrite ``path`` with the ends of line in ``ENDINGS`` taken in turn,
    after a leading blank line; returns the bytes written."""
    lines = path.read_bytes().splitlines()
    blob = b"\n" + b"".join(line + ENDINGS[k % len(ENDINGS)] for k, line in enumerate(lines))
    path.write_bytes(blob)
    return blob


def sampled_records(ds, monkeypatch) -> list:
    seen = []
    real_sample = FixtureDataset._sample
    monkeypatch.setattr(FixtureDataset, "_sample", lambda self, rec, enc: seen.append(rec) or real_sample(self, rec, enc))
    for _ in ds.iter_samples():
        pass
    return seen


def test_every_path_reads_the_same_records_at_any_end_of_line(split, monkeypatch):
    root = split[0]
    path = root / formats.ANNOTATIONS_NAME
    plain = load_annotations(path)
    mixed_endings(path)
    ds = FixtureDataset(root)
    assert len(plain) == GEN.num_samples
    assert list(iter_annotations(path)) == plain
    assert load_annotations(path) == plain
    assert sampled_records(ds, monkeypatch) == plain
    assert ds.records == plain


def test_a_bad_line_has_one_number_in_every_path(split, monkeypatch):
    root = split[0]
    path = root / formats.ANNOTATIONS_NAME
    blob = mixed_endings(path)
    lines = blob.splitlines()
    victim = [line for line in lines if line.strip()][2 * CHUNK + 1]  # a record of the third chunk
    line_no = lines.index(victim) + 1
    path.write_bytes(blob.replace(victim, victim[:-1]))  # the closing brace cut: invalid JSON
    paths = {
        "iter_annotations": lambda: list(iter_annotations(path)),
        "load_annotations": lambda: load_annotations(path),
        "records": lambda: FixtureDataset(root).records,
        "iter_samples": lambda: sampled_records(FixtureDataset(root), monkeypatch),
    }
    for name, read in paths.items():
        with pytest.raises(ParseError, match=f"invalid JSON: .*: line {line_no}$") as caught:
            read()
        assert caught.value.line == line_no, name
