from __future__ import annotations

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from refscan.config import TrainConfig
from refscan.errors import ConfigError, InputError, MetricError, ParseError, PipelineError
from refscan.fusion import forward, init_model_params
from refscan.harness.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from refscan.harness.evaluation import aggregate_report, evaluate, predict_records, write_report
from refscan.harness.fixtures import GenConfig, default_train_config, generate_fixtures, synth_samples
from refscan.harness.formats import (
    FixtureDataset,
    SampleRecord,
    load_annotations,
    read_tensor,
    save_annotations,
    write_tensor,
)
from refscan.harness.training import lr_at_step, train
from refscan.metrics import EvalRecord
from refscan.retrieval import VisualTokenGrid

SMALL_GEN = GenConfig(num_samples=4, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=11)
SMALL_CFG = dict(d_s=8, d_a=8, n=4, n_prompts=2, batch=2)


def dir_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestTensorFormat:
    def test_round_trip(self, tmp_path):
        arr = np.random.default_rng(0).normal(size=(3, 4, 5))
        write_tensor(tmp_path / "t.rten", arr)
        np.testing.assert_array_equal(read_tensor(tmp_path / "t.rten"), arr)

    def test_bad_magic(self, tmp_path):
        (tmp_path / "bad.rten").write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ParseError):
            read_tensor(tmp_path / "bad.rten")

    def test_truncated_payload(self, tmp_path):
        arr = np.zeros((2, 2))
        write_tensor(tmp_path / "t.rten", arr)
        blob = (tmp_path / "t.rten").read_bytes()
        (tmp_path / "t.rten").write_bytes(blob[:-8])
        with pytest.raises(ParseError):
            read_tensor(tmp_path / "t.rten")

    def test_truncated_header(self, tmp_path):
        (tmp_path / "t.rten").write_bytes(b"RTEN\x01\x00")  # 6 bytes: version cut short
        with pytest.raises(ParseError, match=r"t\.rten.*truncated header.*field 'header'"):
            read_tensor(tmp_path / "t.rten")

    def test_truncated_dims_block(self, tmp_path):
        write_tensor(tmp_path / "t.rten", np.zeros((2, 3, 4)))
        blob = (tmp_path / "t.rten").read_bytes()
        (tmp_path / "t.rten").write_bytes(blob[:16])  # rank 3, only the first dim
        with pytest.raises(ParseError, match=r"t\.rten.*truncated dims.*field 'dims'"):
            read_tensor(tmp_path / "t.rten")


class TestAnnotations:
    def test_generate_then_load_round_trip(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        ds = FixtureDataset(tmp_path)
        assert len(ds.records) == SMALL_GEN.num_samples
        save_annotations(tmp_path / "copy.jsonl", ds.records)
        again = load_annotations(tmp_path / "copy.jsonl", num_classes=ds.num_classes)
        assert again == ds.records

    def test_invalid_bbox_names_field_and_line(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        path = tmp_path / "annotations.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["gt_bbox"] = [0.9, 0.0, 0.1, 1.0]  # x1 > x2
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"line 2.*gt_bbox"):
            load_annotations(path)

    def test_missing_features_file(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        victim = next((tmp_path / "features").iterdir())
        victim.unlink()
        with pytest.raises(ParseError, match="features_ref"):
            load_annotations(tmp_path / "annotations.jsonl")

    @pytest.mark.parametrize("escape", ["../outside.rten", "features/../../outside.rten", "absolute", "symlink"])
    def test_features_ref_outside_root(self, tmp_path, escape):
        root = tmp_path / "data"
        generate_fixtures(SMALL_GEN, root)
        outside = tmp_path / "outside.rten"  # exists, so only the confinement check can reject it
        outside.write_bytes(next((root / "features").iterdir()).read_bytes())
        if escape == "symlink":  # a link inside the root that points out of it
            (root / "features" / "link.rten").symlink_to(outside)
            escape = "features/link.rten"
        path = root / "annotations.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj["features_ref"] = str(outside) if escape == "absolute" else escape
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=r"annotations\.jsonl: .*outside the dataset root.*line 2.*field 'features_ref'"):
            load_annotations(path)

    def test_label_out_of_range(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        path = tmp_path / "annotations.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[0])
        obj["action_labels"] = [SMALL_GEN.num_classes]
        lines[0] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="action_labels"):
            load_annotations(path, num_classes=SMALL_GEN.num_classes)

    @pytest.mark.parametrize("field, value", [("num_frames", "four"), ("keyframe_index", None), ("num_frames", [4])])
    def test_non_integer_count_names_field_and_line(self, tmp_path, field, value):
        generate_fixtures(SMALL_GEN, tmp_path)
        path = tmp_path / "annotations.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[1])
        obj[field] = value
        lines[1] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match=rf"line 2.*field '{field}'"):
            load_annotations(path)

    def test_detection_missing_a_key_names_the_key(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        path = tmp_path / "annotations.jsonl"
        lines = path.read_text().splitlines()
        obj = json.loads(lines[0])
        del obj["detections"][2]["category"]
        lines[0] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")
        pattern = r"annotations\.jsonl: detection 2: missing key 'category': line 1: field 'detections'"
        with pytest.raises(ParseError, match=pattern):
            load_annotations(path)

    def test_keyframe_is_center_frame(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        for rec in FixtureDataset(tmp_path).records:
            assert rec.keyframe_index == rec.num_frames // 2

    def test_empty_annotations_valid(self, tmp_path):
        (tmp_path / "annotations.jsonl").write_text("")
        assert load_annotations(tmp_path / "annotations.jsonl") == []


class TestFixtures:
    def test_same_seed_byte_identical(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path / "a")
        generate_fixtures(SMALL_GEN, tmp_path / "b")
        assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")

    def test_different_seed_differs(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path / "a")
        generate_fixtures(GenConfig(**{**SMALL_GEN.to_dict(), "seed": 12}), tmp_path / "b")
        assert dir_bytes(tmp_path / "a") != dir_bytes(tmp_path / "b")

    def test_zero_samples_valid_dataset(self, tmp_path):
        generate_fixtures(GenConfig(**{**SMALL_GEN.to_dict(), "num_samples": 0}), tmp_path)
        ds = FixtureDataset(tmp_path)
        assert len(ds.records) == 0

    def test_synth_samples_match_disk(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        from_disk = FixtureDataset(tmp_path).load_samples()
        in_memory = synth_samples(SMALL_GEN)
        assert len(from_disk) == len(in_memory)
        for a, b in zip(from_disk, in_memory):
            np.testing.assert_array_equal(a.grid.tokens, b.grid.tokens)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.gt_bbox, b.gt_bbox)
            np.testing.assert_array_equal(a.reference.holistic, b.reference.holistic)
            assert a.detections == b.detections

    def test_true_positive_detection_at_gt(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        for rec in FixtureDataset(tmp_path).records:
            person = rec.detections[0]
            assert person.category == "person"
            assert person.confidence == 0.95
            np.testing.assert_allclose(person.bbox, rec.gt_bbox)

    def test_phrase_embedding_recovers_planted_cell(self, tmp_path):
        """Querying with the keyword-phrase embedding finds (l*, s*) >= 95%."""
        from refscan.retrieval import nearest_token
        from refscan.semantics import default_stopwords, tokenize_and_filter

        gen = GenConfig(num_samples=64, frames=8, grid_rows=4, grid_cols=4, dim=32,
                        num_classes=10, seed=7)
        generate_fixtures(gen, tmp_path)
        ds = FixtureDataset(tmp_path)
        encoder = ds.default_encoder()
        stop = default_stopwords()
        hits = 0
        for rec in ds.records:
            grid = ds.load_grid(rec)
            _, keywords = tokenize_and_filter(rec.reference, stop)
            phrase = encoder.encode_word(" ".join(keywords))
            best = min(
                (
                    (np.linalg.norm(phrase - tok), idx)
                    for l in range(grid.num_frames)
                    for idx, tok in [nearest_token(phrase, grid.tokens[l])]
                ),
            )
            x1, y1, _, _ = rec.gt_bbox
            gt_cell = round(y1 * gen.grid_rows) * gen.grid_cols + round(x1 * gen.grid_cols)
            hits += int(best[1] == gt_cell)
        assert hits / len(ds.records) >= 0.95


class TestGridShape:
    def _dataset(self, tmp_path, **meta_overrides):
        generate_fixtures(SMALL_GEN, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        (tmp_path / "meta.json").write_text(json.dumps({**meta, **meta_overrides}))
        return FixtureDataset(tmp_path)

    def test_frame_count_must_match_the_annotation(self, tmp_path):
        ds = self._dataset(tmp_path)
        rec = ds.records[1]
        write_tensor(tmp_path / rec.features_ref, np.zeros((SMALL_GEN.frames + 1, 4, SMALL_GEN.dim)))
        with pytest.raises(ParseError, match=rf"annotations\.jsonl: video '{rec.video_id}'.*field 'num_frames'"):
            ds.load_grid(rec)

    def test_frame_count_must_match_meta(self, tmp_path):
        ds = self._dataset(tmp_path, frames=SMALL_GEN.frames - 1)
        pattern = rf"has frames {SMALL_GEN.frames}, meta\.json says {SMALL_GEN.frames - 1}: field 'frames'"
        with pytest.raises(ParseError, match=pattern):
            ds.load_samples()

    @pytest.mark.parametrize("version", [99, 0, "1", True, None])
    def test_unknown_format_version_is_rejected(self, tmp_path, version):
        pattern = rf"meta\.json: unsupported dataset format version {re.escape(repr(version))}: field 'format_version'"
        with pytest.raises(ParseError, match=pattern):
            self._dataset(tmp_path, format_version=version)

    def test_missing_format_version_is_rejected(self, tmp_path):
        generate_fixtures(SMALL_GEN, tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        del meta["format_version"]
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ParseError, match=r"meta\.json: unsupported dataset format version None: field 'format_version'"):
            FixtureDataset(tmp_path)

    def test_dim_must_match_meta(self, tmp_path):
        ds = self._dataset(tmp_path, dim=SMALL_GEN.dim * 2)
        with pytest.raises(ParseError, match=rf"annotations\.jsonl: video '{ds.records[0].video_id}'.*field 'dim'"):
            ds.load_samples()

    @pytest.mark.parametrize(
        "meta_overrides, field, problem",
        [
            ({"grid_rows": 0}, "grid_rows", "out of range: 0"),
            ({"grid_cols": -1}, "grid_cols", "out of range: -1"),
            ({"grid_rows": "2"}, "grid_rows", "missing or not an integer: '2'"),
            ({"grid_cols": 2.0}, "grid_cols", "missing or not an integer: 2.0"),
            ({"grid_rows": True}, "grid_rows", "missing or not an integer: True"),
            ({"grid_cols": None}, "grid_cols", "missing or not an integer: None"),
            ({"dim": 1}, "dim", "out of range: 1"),
        ],
    )
    def test_grid_size_must_be_a_positive_integer(self, tmp_path, meta_overrides, field, problem):
        with pytest.raises(ParseError, match=rf"meta\.json: {re.escape(problem)}: field '{field}'"):
            self._dataset(tmp_path, **meta_overrides)

    @pytest.mark.parametrize("meta_overrides", [{"grid_rows": 3}, {"grid_cols": 1}])
    def test_cell_count_must_match_meta(self, tmp_path, meta_overrides):
        ds = self._dataset(tmp_path, **meta_overrides)
        rec = ds.records[0]
        expected = {"grid_rows": SMALL_GEN.grid_rows, "grid_cols": SMALL_GEN.grid_cols, **meta_overrides}
        pattern = (
            rf"annotations\.jsonl: video '{rec.video_id}' tensor {re.escape(rec.features_ref)} has cells 4, "
            rf"meta\.json says {expected['grid_rows'] * expected['grid_cols']}: field 'cells'"
        )
        with pytest.raises(ParseError, match=pattern):
            ds.load_samples()

    def test_a_tensor_with_cells_cut_is_rejected(self, tmp_path):
        ds = self._dataset(tmp_path)
        rec = ds.records[2]
        grid = read_tensor(tmp_path / rec.features_ref)
        write_tensor(tmp_path / rec.features_ref, grid[:, :3])
        pattern = rf"video '{rec.video_id}' tensor {re.escape(rec.features_ref)} has cells 3, meta\.json says 4: field 'cells'"
        with pytest.raises(ParseError, match=pattern):
            ds.load_grid(rec)


HUGE = "<1e309>"  # written as the JSON number 1e309


class TestCheckpoint:
    def _checkpoint(self):
        cfg = TrainConfig(d=16, frames=4, num_classes=5, **SMALL_CFG).validate()
        params = init_model_params(cfg, seed=5)
        rng = np.random.default_rng(5)
        from refscan.harness.checkpoint import rng_state_of

        return Checkpoint(config=cfg, params=params, step=17, rng_state=rng_state_of(rng))

    def test_save_load_save_bit_exact(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(tmp_path / "a.ckpt", ckpt)
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        save_checkpoint(tmp_path / "b.ckpt", loaded)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_load_restores_everything(self, tmp_path):
        ckpt = self._checkpoint()
        save_checkpoint(tmp_path / "a.ckpt", ckpt)
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        assert loaded.step == 17
        assert loaded.config == ckpt.config
        assert loaded.rng_state == ckpt.rng_state
        assert sorted(loaded.params.names()) == sorted(ckpt.params.names())
        for name, arr in ckpt.params.items():
            np.testing.assert_array_equal(loaded.params[name], arr)

    def test_corrupt_header_rejected(self, tmp_path):
        (tmp_path / "bad.ckpt").write_bytes(b"not json\n\x00\x01")
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_truncated_payload_names_file_and_parameter(self, tmp_path):
        save_checkpoint(tmp_path / "a.ckpt", self._checkpoint())
        blob = (tmp_path / "a.ckpt").read_bytes()
        (tmp_path / "a.ckpt").write_bytes(blob[:-100])
        last = sorted(self._checkpoint().params.names())[-1]
        with pytest.raises(ParseError, match=rf"a\.ckpt: parameter '{last}' needs payload bytes.*field 'params'"):
            load_checkpoint(tmp_path / "a.ckpt")

    def test_trailing_payload_bytes_name_file_and_parameter(self, tmp_path):
        save_checkpoint(tmp_path / "a.ckpt", self._checkpoint())
        with open(tmp_path / "a.ckpt", "ab") as fh:
            fh.write(bytes(16))
        last = sorted(self._checkpoint().params.names())[-1]
        pattern = rf"a\.ckpt: payload has 16 bytes past the last parameter block \('{last}'\): field 'params'"
        with pytest.raises(ParseError, match=pattern):
            load_checkpoint(tmp_path / "a.ckpt")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda meta: meta["params"][0].pop("offset"), r"malformed parameter entry.*field 'params'"),
            (lambda meta: meta.pop("step"), r"checkpoint header has no 'step'.*field 'step'"),
            (lambda meta: meta.pop("seed"), r"checkpoint header has no 'seed'.*field 'seed'"),
            (lambda meta: meta["params"][0].update(shape=[HUGE]), r"parameter '[\w.]+' dim must be an integer >= 0, got inf: field 'params'"),
            (lambda meta: meta["params"][0].update(offset=HUGE), r"parameter '[\w.]+' offset must be an integer >= 0, got inf: field 'params'"),
            (lambda meta: meta.update(step=HUGE), r"step must be an integer >= 0.*field 'step'"),
            (lambda meta: meta["params"][0].update(shape=[-2, 3]), r"parameter '[\w.]+' dim must be an integer >= 0, got -2: field 'params'"),
            (lambda meta: meta.update(step="x"), r"step must be an integer >= 0, got 'x': field 'step'"),
            (lambda meta: meta.update(config=[1]), r"invalid config: config must be a JSON object.*field 'config'"),
            (lambda meta: meta.update(params={"a": 1}), r"params must be a list.*field 'params'"),
            (lambda meta: meta["config"].update(d_s="x"), r"invalid config: d_s must be an integer.*field 'config'"),
            (lambda meta: meta["params"].pop(), r"payload has \d+ bytes past the last parameter block \('[\w.]+'\): field 'params'"),
            (lambda meta: meta["params"][1].update(offset=0), r"parameter '[\w.]+' starts at payload byte 0, not at \d+, where the block before it ends: field 'params'"),
            (lambda meta: meta["params"][1].update(offset=meta["params"][1]["offset"] + 8), r"parameter '[\w.]+' starts at payload byte \d+, not at \d+.*field 'params'"),
            (lambda meta: meta["params"][1].update(name=meta["params"][0]["name"]), r"duplicate parameter name '[\w.]+': field 'params'"),
        ],
    )
    def test_malformed_header_is_a_parse_error(self, tmp_path, corrupt, message):
        save_checkpoint(tmp_path / "a.ckpt", self._checkpoint())
        header, payload = (tmp_path / "a.ckpt").read_bytes().split(b"\n", 1)
        meta = json.loads(header)
        corrupt(meta)
        text = json.dumps(meta).replace(json.dumps(HUGE), "1e309")  # parses to inf
        (tmp_path / "a.ckpt").write_bytes(text.encode() + b"\n" + payload)
        with pytest.raises(ParseError, match=r"a\.ckpt: " + message):
            load_checkpoint(tmp_path / "a.ckpt")

    def test_writes_to_a_loaded_store_are_saved(self, tmp_path):
        save_checkpoint(tmp_path / "a.ckpt", self._checkpoint())
        loaded = load_checkpoint(tmp_path / "a.ckpt")
        assert loaded.params.names() == sorted(loaded.params.names())
        name = loaded.params.names()[0]
        loaded.params[name][...] = loaded.params[name] + 1.0
        save_checkpoint(tmp_path / "c.ckpt", loaded)
        assert np.array_equal(load_checkpoint(tmp_path / "c.ckpt").params[name], loaded.params[name])


class TestTraining:
    def _setup(self, **overrides):
        samples = synth_samples(SMALL_GEN)
        cfg = default_train_config(SMALL_GEN, **{**SMALL_CFG, **overrides})
        from refscan.semantics import SyntheticEncoder

        return cfg, samples, SyntheticEncoder(SMALL_GEN.dim, SMALL_GEN.seed)

    def test_zero_steps_equals_initialization(self):
        cfg, samples, enc = self._setup(steps=0)
        result = train(cfg, samples, enc)
        init = init_model_params(cfg)
        for name, arr in init.items():
            np.testing.assert_array_equal(result.checkpoint.params[name], arr)
        assert result.checkpoint.step == 0

    def test_two_runs_identical_checkpoints(self, tmp_path):
        cfg, samples, enc = self._setup(steps=6)
        for tag in ("a", "b"):
            save_checkpoint(tmp_path / f"{tag}.ckpt", train(cfg, samples, enc).checkpoint)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_loss_recorded_per_step(self):
        cfg, samples, enc = self._setup(steps=5)
        result = train(cfg, samples, enc)
        assert len(result.losses) == 5
        assert all(np.isfinite(v) for v in result.losses)

    def test_empty_dataset_rejected(self):
        cfg, _, enc = self._setup(steps=1)
        with pytest.raises(InputError):
            train(cfg, [], enc)

    @pytest.mark.parametrize("box", [None, np.array([0.1, 0.2, 0.5])], ids=["no box", "three coordinates"])
    @pytest.mark.parametrize("run", ["train", "evaluate"])
    def test_a_box_not_of_4_coordinates_is_rejected_naming_the_sample(self, monkeypatch, run, box):
        from refscan.harness import evaluation, training

        cfg, samples, enc = self._setup(steps=1)
        samples[2] = dataclasses.replace(samples[2], gt_bbox=box)
        forwards = []
        for module in (training, evaluation):
            monkeypatch.setattr(module, "forward", lambda *a, real=module.forward, **k: forwards.append(1) or real(*a, **k))
        message = f"^sample {re.escape(repr(samples[2].sample_id))} gt_bbox is not 4 coordinates$"
        with pytest.raises(ConfigError, match=message):
            if run == "train":
                train(cfg, samples, enc)
            else:
                evaluate(init_model_params(cfg), cfg, samples, enc)
        # train checks every sample before its first step; evaluate each before its forward
        assert len(forwards) == (0 if run == "train" else 2)

    def test_dim_mismatch_rejected(self):
        cfg, samples, enc = self._setup(steps=1)
        bad = TrainConfig(**{**cfg.to_dict(), "d": cfg.d * 2})
        with pytest.raises(ConfigError):
            train(bad, samples, enc)

    def test_nonfinite_loss_aborts_with_last_good(self):
        cfg, samples, enc = self._setup(steps=8)
        samples[0].labels = samples[0].labels.copy()
        samples[0].labels[0] = np.nan  # poisons the loss the step it is sampled
        result = train(cfg, samples, enc)
        assert result.aborted
        assert result.steps_done < 8
        assert (result.abort_stage, result.abort_unit, result.abort_param) == ("loss", "loss", None)
        for _, arr in result.checkpoint.params.items():
            assert np.all(np.isfinite(arr))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_tokens_abort_at_step_0_naming_the_stage(self):
        cfg, samples, enc = self._setup(steps=4)
        scaled = [dataclasses.replace(s, grid=VisualTokenGrid(s.grid.tokens * 1e200)) for s in samples]
        result = train(cfg, scaled, enc)
        assert result.aborted and result.steps_done == 0 and result.losses == []
        first = forward(scaled[:cfg.batch], init_model_params(cfg), cfg, enc).first_nonfinite()
        assert result.abort_stage == first.stage == "fusion" and result.abort_unit == first.key
        assert result.abort_param is None


class TestLrSchedule:
    def test_linear_warmup(self):
        cfg = TrainConfig(steps=100, warmup_ratio=0.1, learning_rate=1e-2, lr_decay=0.9)
        assert lr_at_step(0, cfg, steps_per_epoch=4) == pytest.approx(1e-3)
        assert lr_at_step(9, cfg, steps_per_epoch=4) == pytest.approx(1e-2)

    def test_decay_per_epoch_after_warmup(self):
        cfg = TrainConfig(steps=100, warmup_ratio=0.1, learning_rate=1e-2, lr_decay=0.9)
        # step 10 starts epoch 0 post-warmup; epoch length 4
        assert lr_at_step(10, cfg, 4) == pytest.approx(1e-2)
        assert lr_at_step(14, cfg, 4) == pytest.approx(9e-3)
        assert lr_at_step(18, cfg, 4) == pytest.approx(8.1e-3)

    def test_no_warmup(self):
        cfg = TrainConfig(steps=10, warmup_ratio=0.0, learning_rate=2e-3, lr_decay=1.0)
        assert lr_at_step(0, cfg, 4) == pytest.approx(2e-3)


class TestEvaluation:
    def test_ground_truth_as_predictions_is_perfect(self):
        samples = synth_samples(SMALL_GEN)
        records = [
            EvalRecord(s.sample_id, s.gt_bbox, s.gt_bbox, s.labels, s.labels.astype(float))
            for s in samples
        ]
        report = aggregate_report(records)
        assert report["miou"] == 1.0
        assert report["map"] == 1.0

    def test_untrained_auroc_near_half_over_three_seeds(self):
        gen = GenConfig(num_samples=64, frames=4, grid_rows=2, grid_cols=2, dim=16, num_classes=5, seed=21)
        samples = synth_samples(gen)
        from refscan.semantics import SyntheticEncoder

        enc = SyntheticEncoder(gen.dim, gen.seed)
        cfg = default_train_config(gen, **SMALL_CFG)
        values = []
        for seed in (0, 1, 2):
            params = init_model_params(cfg, seed=seed)
            values.append(evaluate(params, cfg, samples, enc)["auroc"])
        assert abs(float(np.mean(values)) - 0.5) <= 0.1

    def test_empty_dataset_metric_error(self):
        with pytest.raises(MetricError):
            aggregate_report([])

    def test_dim_mismatch_config_error(self):
        cfg, samples, enc = TestTraining()._setup(steps=0)
        params = init_model_params(cfg)
        wrong = TrainConfig(**{**cfg.to_dict(), "frames": cfg.frames + 1})
        with pytest.raises(ConfigError):
            evaluate(init_model_params(wrong), wrong, samples, enc)

    def test_report_round_trip_and_rows(self, tmp_path):
        cfg, samples, enc = TestTraining()._setup(steps=0)
        params = init_model_params(cfg)
        report = evaluate(params, cfg, samples, enc)
        write_report(tmp_path / "r.json", report)
        loaded = json.loads((tmp_path / "r.json").read_text())
        assert loaded == json.loads(json.dumps(report))
        assert len(loaded["samples"]) == len(samples)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_prediction_is_tagged_with_the_first_nonfinite_stage(self):
        cfg, samples, enc = TestTraining()._setup(steps=0)
        params = init_model_params(cfg)
        scaled = [dataclasses.replace(s, grid=VisualTokenGrid(s.grid.tokens * 1e200)) for s in samples]
        with pytest.raises(PipelineError) as info:
            predict_records(params, cfg, scaled, enc)
        res = forward(scaled[0], params, cfg, enc)
        assert not np.isfinite(res.output.class_probs).all()
        first = res.first_nonfinite()
        assert info.value.stage == first.stage == "fusion"
        assert repr(first.key) in str(info.value) and repr(scaled[0].sample_id) in str(info.value)

    def test_predict_records_runs_no_loss(self, monkeypatch):
        from refscan import fusion

        calls = []
        real = fusion.loss_var
        monkeypatch.setattr(fusion, "loss_var", lambda *args: calls.append(1) or real(*args))
        cfg, samples, enc = TestTraining()._setup(steps=0)
        params = init_model_params(cfg)
        records = predict_records(params, cfg, samples, enc)
        assert calls == []
        assert [r.gt_labels.tobytes() for r in records] == [s.labels.tobytes() for s in samples]
        assert forward(samples[0], params, cfg, enc).loss is not None and calls == [1]

    def test_report_with_a_nonfinite_value_is_not_written(self, tmp_path):
        cfg, samples, enc = TestTraining()._setup(steps=0)
        report = evaluate(init_model_params(cfg), cfg, samples, enc)
        report["samples"][0]["pred_scores"][0] = float("nan")
        with pytest.raises(ValueError):
            write_report(tmp_path / "r.json", report)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("rows", [1, 4])
    def test_written_report_is_the_json_text(self, tmp_path, rows):
        cfg, samples, enc = TestTraining()._setup(steps=0)
        full = evaluate(init_model_params(cfg), cfg, samples, enc)
        report = {**full, "num_samples": rows, "samples": full["samples"][:rows]}  # one row has no AUROC
        write_report(tmp_path / "r.json", report)
        expected = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
        assert (tmp_path / "r.json").read_bytes() == expected.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]

    def test_a_nonfinite_value_leaves_no_file_and_keeps_an_older_report(self, tmp_path):
        cfg, samples, enc = TestTraining()._setup(steps=0)
        report = evaluate(init_model_params(cfg), cfg, samples, enc)
        (tmp_path / "r.json").write_text("older")
        report["samples"][-1]["iou"] = float("inf")
        with pytest.raises(ValueError):
            write_report(tmp_path / "r.json", report)
        assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
        assert (tmp_path / "r.json").read_text() == "older"

    def test_evaluate_twice_identical_reports(self, tmp_path):
        cfg, samples, enc = TestTraining()._setup(steps=0)
        params = init_model_params(cfg)
        for tag in ("a", "b"):
            write_report(tmp_path / f"{tag}.json", evaluate(params, cfg, samples, enc))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestConfig:
    def test_round_trip(self):
        cfg = TrainConfig(d=8, n_prompts=0, use_keyword=False)
        assert TrainConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig.from_dict({"nope": 1})

    @pytest.mark.parametrize("cls, what", [(TrainConfig, "config"), (GenConfig, "generator config")])
    def test_both_configs_keep_one_field_contract(self, cls, what):
        with pytest.raises(ConfigError, match=rf"^unknown {what} keys: \['nope'\]$"):
            cls.from_dict({"nope": 1})
        with pytest.raises(ConfigError, match=rf"^{what} must be a JSON object, got list$"):
            cls.from_dict([1])
        with pytest.raises(ConfigError, match=r"^seed must be an integer, got 1\.5$"):
            cls.from_dict({"seed": 1.5})

    def test_toggle_invariants(self):
        with pytest.raises(ConfigError):
            TrainConfig(use_temporal=False, use_spatial=False).validate()
