from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from refscan.errors import ParseError
from refscan.harness.checkpoint import load_checkpoint, save_checkpoint
from refscan.harness import suites
from refscan.harness.cli import main
from refscan.harness.formats import FixtureDataset, read_tensor, write_tensor
from refscan.numerics.params import ParamStore


@pytest.fixture()
def dataset(tmp_path):
    root = tmp_path / "data"
    code = main([
        "gen", "--num", "4", "--frames", "4", "--grid", "2x2", "--dim", "16",
        "--classes", "5", "--seed", "11", "--out", str(root),
    ])
    assert code == 0
    return root


def small_train_config(tmp_path):
    path = tmp_path / "train.json"
    path.write_text(json.dumps({
        "d": 16, "d_s": 8, "d_a": 8, "n": 4, "n_prompts": 2,
        "frames": 4, "num_classes": 5, "batch": 2, "steps": 3,
        "learning_rate": 1e-3, "lr_decay": 1.0, "seed": 1,
    }))
    return path


def test_gen_writes_expected_layout(dataset):
    assert (dataset / "meta.json").exists()
    assert (dataset / "annotations.jsonl").exists()
    assert len(list((dataset / "features").glob("*.rten"))) == 4


def test_gen_rejects_bad_grid(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--grid", "4by4", "--out", str(tmp_path)])


def test_train_eval_round_trip(dataset, tmp_path, capsys):
    cfg = small_train_config(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "loss.csv"
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-ckpt", str(ckpt), "--log", str(log)]) == 0
    assert ckpt.exists()
    assert log.read_text().startswith("step,lr,loss\n")
    assert len(log.read_text().strip().splitlines()) == 4

    report = tmp_path / "report.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                 "--report", str(report)]) == 0
    body = json.loads(report.read_text())
    assert set(body) >= {"miou", "map", "auroc", "samples"}
    assert body["num_samples"] == 4


def test_train_flag_overrides_config(dataset, tmp_path):
    cfg = small_train_config(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    log = tmp_path / "loss.csv"
    assert main(["train", "--data", str(dataset), "--config", str(cfg), "--steps", "5",
                 "--out-ckpt", str(ckpt), "--log", str(log)]) == 0
    assert len(log.read_text().strip().splitlines()) == 6


def test_eval_empty_dataset_nonzero_exit(tmp_path, capsys):
    empty = tmp_path / "empty"
    assert main(["gen", "--num", "0", "--frames", "4", "--grid", "2x2", "--dim", "16",
                 "--classes", "5", "--seed", "1", "--out", str(empty)]) == 0
    data = tmp_path / "data"
    assert main(["gen", "--num", "2", "--frames", "4", "--grid", "2x2", "--dim", "16",
                 "--classes", "5", "--seed", "11", "--out", str(data)]) == 0
    cfg = small_train_config(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(data), "--config", str(cfg),
                 "--out-ckpt", str(ckpt)]) == 0
    code = main(["eval", "--ckpt", str(ckpt), "--data", str(empty),
                 "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_eval_dim_mismatch_nonzero_exit(dataset, tmp_path, capsys):
    cfg = small_train_config(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-ckpt", str(ckpt)]) == 0
    other = tmp_path / "other"
    assert main(["gen", "--num", "2", "--frames", "8", "--grid", "2x2", "--dim", "16",
                 "--classes", "5", "--seed", "3", "--out", str(other)]) == 0
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(other),
                 "--report", str(tmp_path / "r.json")]) == 1


def test_eval_truncated_tensor_nonzero_exit(dataset, tmp_path, capsys):
    cfg = small_train_config(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-ckpt", str(ckpt)]) == 0
    victim = sorted((dataset / "features").glob("*.rten"))[0]
    victim.write_bytes(victim.read_bytes()[:6])
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                 "--report", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert victim.name in err and "truncated header" in err


def eval_with_features_ref_outside(dataset, tmp_path, capsys, point_at) -> str:
    """Train, then point the first record's ``features_ref`` (through
    ``point_at(outside file) -> ref``) at a copy of its tensor outside the
    dataset root; eval must exit 1. Returns stderr."""
    cfg = small_train_config(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(cfg),
                 "--out-ckpt", str(ckpt)]) == 0
    path = dataset / "annotations.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[0])
    outside = tmp_path / "outside.rten"
    outside.write_bytes((dataset / obj["features_ref"]).read_bytes())
    obj["features_ref"] = point_at(outside)
    lines[0] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                 "--report", str(tmp_path / "r.json")]) == 1
    return capsys.readouterr().err


def test_eval_features_ref_escaping_root_exits_1(dataset, tmp_path, capsys):
    err = eval_with_features_ref_outside(dataset, tmp_path, capsys, lambda outside: "../outside.rten")
    assert "annotations.jsonl" in err and "features_ref" in err and "Traceback" not in err


def test_eval_features_ref_symlink_out_of_root_exits_1(dataset, tmp_path, capsys):
    def link(outside):
        (dataset / "features" / "link.rten").symlink_to(outside)
        return "features/link.rten"

    err = eval_with_features_ref_outside(dataset, tmp_path, capsys, link)
    assert "annotations.jsonl" in err and "line 1" in err and "features_ref" in err and "Traceback" not in err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_eval_nonfinite_prediction_exits_1_without_a_report(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 0
    for path in (dataset / "features").glob("*.rten"):
        write_tensor(path, read_tensor(path) * 1e200)
    report = tmp_path / "r.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset), "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'fusion'") and "non-finite" in err and "Traceback" not in err
    assert not report.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_abort_names_the_stage_and_unit(dataset, tmp_path, capsys):
    for path in (dataset / "features").glob("*.rten"):
        write_tensor(path, read_tensor(path) * 1e200)
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("aborted: non-finite loss, first in stage 'fusion' unit 'attn.")
    assert "at step 0;" in err and "Traceback" not in err and ckpt.exists()


def test_train_overflow_prints_only_the_abort_line(dataset, tmp_path, capsys):
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({**json.loads(small_train_config(tmp_path).read_text()), "learning_rate": 1e300}))
    ckpt = tmp_path / "model.ckpt"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["train", "--data", str(dataset), "--config", str(cfg), "--out-ckpt", str(ckpt)]) == 1
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == (
        "aborted: non-finite loss, first in stage 'ssm' unit 'ssm.keyword' at step 1; "
        f"last-good checkpoint written to {ckpt}\n"
    )


@pytest.mark.parametrize("name, value", [("head.temporal.reg.b2", np.nan), ("ssm.keyword.A", np.inf)])
def test_eval_non_finite_checkpoint_exits_1_naming_the_file_and_parameter(dataset, tmp_path, capsys, name, value):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 0
    loaded = load_checkpoint(ckpt)
    loaded.params[name].reshape(-1)[0] = value
    save_checkpoint(ckpt, loaded)
    capsys.readouterr()
    report = tmp_path / "r.json"
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset), "--report", str(report)]) == 1
    assert capsys.readouterr().err == (
        f"error: {ckpt}: parameter {name!r} holds a non-finite value: field 'params'\n"
    )
    assert not report.exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_features_ref_naming_a_directory_exits_1_naming_the_line(dataset, tmp_path, capsys, command):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 0
    ref = json.loads((dataset / "annotations.jsonl").read_text().splitlines()[0])["features_ref"]
    (dataset / ref).unlink()
    (dataset / ref).mkdir()
    capsys.readouterr()
    if command == "train":
        argv = ["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                "--out-ckpt", str(tmp_path / "other.ckpt")]
    else:
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(dataset), "--report", str(tmp_path / "r.json")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {dataset / 'annotations.jsonl'}: features file {ref!r} ")
    assert err.endswith("not a file: line 1: field 'features_ref'\n") and err.count("\n") == 1


def test_gen_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"num_samples": 2, "frames": 4, "grid_rows": 2,
                               "grid_cols": 2, "dim": 16, "num_classes": 5, "seed": 4}))
    out = tmp_path / "out"
    assert main(["gen", "--config", str(cfg), "--num", "3", "--out", str(out)]) == 0
    meta = json.loads((out / "meta.json").read_text())
    assert meta["num_samples"] == 3
    assert meta["seed"] == 4


@pytest.mark.parametrize("value, field, message", [
    ({"frames": "x"}, "frames", "must be an integer"),
    ({"dim": 2.5}, "dim", "must be an integer"),
    ({"planted_noise": None}, "planted_noise", "must be a number"),
    ({"seed": -1}, "seed", "must be >= 0"),
    # past what numpy indexes in one array, where numpy would raise ValueError
    ({"dim": 10**17}, "dim", "100000000000000000 is too large: a token grid"),
    ({"frames": 1, "grid_rows": 1, "grid_cols": 1, "dim": 10**19}, "dim", "10000000000000000000 is too large"),
    ({"num_classes": 10**19}, "num_classes", "10000000000000000000 is too large"),
    ({"num_samples": 10**19, "combo_pool": 2}, "num_samples", "10000000000000000000 is too large"),
])
def test_malformed_gen_config_value_exits_1_naming_the_field(tmp_path, capsys, value, field, message):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"num_samples": 2, "frames": 2, "dim": 4, "encoder_seed": None, **value}))
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} {message}") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_oracle_suites_pass(capsys):
    for suite in ("scan", "map", "auroc"):
        assert main(["oracle", "--suite", suite]) == 0
        assert "PASS" in capsys.readouterr().out


def test_a_nan_fast_path_fails_the_oracle(monkeypatch, capsys):
    monkeypatch.setattr(suites, "multilabel_map", lambda records: float("nan"))
    assert main(["oracle", "--suite", "map"]) == 1
    out = capsys.readouterr().out
    assert "max abs diff inf" in out and out.rstrip().endswith("FAIL")


@pytest.mark.parametrize("field", ["outputs", "final_state"])
def test_one_nan_scan_case_in_50_fails_the_scan_suite(monkeypatch, field):
    real, calls = suites.ssm_scan, []

    def scan(x, params):
        out = real(x, params)
        calls.append(x)
        if len(calls) == 7:
            setattr(out, field, np.full_like(getattr(out, field), np.nan))
        return out

    monkeypatch.setattr(suites, "ssm_scan", scan)
    result = suites.run_scan_suite(cases=50, seed=0)
    assert len(calls) == 50 and result["max_abs_diff"] == float("inf")


def test_oracle_negative_seed_exits_1(capsys):
    assert main(["oracle", "--suite", "scan", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: seed must be >= 0, got -1\n"


def test_gradcheck_subcommand(capsys, tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({
        "d": 16, "d_s": 4, "d_a": 4, "n": 2, "n_prompts": 1,
        "frames": 4, "num_classes": 5, "batch": 2, "steps": 0,
    }))
    assert main(["gradcheck", "--config", str(cfg), "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck PASS" in out
    assert "overall max rel err" in out


def test_gradcheck_prints_the_same_on_one_cpu_and_on_two(capsys, use_cpus, forks):
    runs = []
    for cpus in (1, 2):
        use_cpus(cpus)
        rc = main(["gradcheck", "--seed", "11"])
        runs.append((rc, capsys.readouterr().out))
    assert len(forks) == 1
    assert runs[1] == runs[0]
    rc, out = runs[0]
    assert rc == 0 and "gradcheck PASS" in out
    # at this seed one perturbation crosses a kink and is skipped
    assert sum(int(line.split()[2]) for line in out.splitlines()[1:-2]) == 1


@pytest.mark.parametrize("fields", [
    {"d_s": 2, "d_a": 2, "n": 2, "n_prompts": 1},
    {"d_s": 2, "d_a": 2, "n": 2, "n_prompts": 1, "use_mhs_ca": False},
])
def test_gradcheck_takes_unset_geometry_from_its_fixtures(capsys, tmp_path, fields):
    cfg = tmp_path / "partial.json"
    cfg.write_text(json.dumps(fields))
    assert main(["gradcheck", "--config", str(cfg)]) == 0
    assert "gradcheck PASS" in capsys.readouterr().out


def test_gradcheck_seed_comes_from_the_flag_then_the_config(capsys, tmp_path):
    fields = {"d_s": 2, "d_a": 2, "n": 2, "n_prompts": 1}
    plain, seeded = tmp_path / "plain.json", tmp_path / "seeded.json"
    plain.write_text(json.dumps(fields))
    seeded.write_text(json.dumps({**fields, "seed": 5}))

    def table(*argv):
        assert main(["gradcheck", *argv]) == 0
        return capsys.readouterr().out

    at_5 = table("--config", str(plain), "--seed", "5")
    at_0 = table("--config", str(plain))
    assert at_5 != at_0
    assert table("--config", str(seeded)) == at_5
    assert table("--config", str(seeded), "--seed", "0") == at_0


@pytest.mark.parametrize("field, value", [("num_classes", 3), ("d", 32), ("frames", 8)])
def test_gradcheck_config_geometry_off_the_fixtures_exits_1_before_the_check_runs(capsys, tmp_path, field, value):
    cfg = tmp_path / "off.json"
    cfg.write_text(json.dumps({field: value}))
    assert main(["gradcheck", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no table: not one loss was evaluated
    assert captured.err.startswith(f"error: --config {cfg}: field {field!r} is {value}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("eps", ["nan", "inf", "0"])
def test_gradcheck_bad_eps_exits_1(capsys, eps):
    assert main(["gradcheck", "--eps", eps]) == 1
    err = capsys.readouterr().err
    assert "eps must be positive and finite" in err and "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_gradcheck_bad_tol_exits_1_before_the_check_runs(capsys, tol):
    assert main(["gradcheck", "--tol", tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no table: not one loss was evaluated
    assert captured.err.startswith("error: gradcheck: tol must be positive and finite")
    assert captured.err.count("\n") == 1


def test_train_log_into_a_missing_directory_writes_nothing(dataset, tmp_path, capsys):
    ckpt, log = tmp_path / "model.ckpt", tmp_path / "missing" / "loss.csv"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt), "--log", str(log)]) == 1
    assert capsys.readouterr().err == f"error: --log {log}: directory {log.parent} does not exist\n"
    assert not ckpt.exists() and not log.parent.exists()


@pytest.mark.parametrize(
    "command, flag",
    [
        (["train", "--out-ckpt", "{out}"], "--out-ckpt"),
        (["train", "--out-ckpt", "{tmp}/model.ckpt", "--log", "{out}"], "--log"),
        (["eval", "--ckpt", "{tmp}/model.ckpt", "--report", "{out}"], "--report"),
    ],
)
@pytest.mark.parametrize("missing_dir", [True, False])
def test_unwritable_output_path_is_rejected_before_the_data_is_read(tmp_path, capsys, command, flag, missing_dir):
    """The data directory does not exist either: the output path is checked first."""
    out = tmp_path / "missing" / "out" if missing_dir else tmp_path
    argv = [arg.format(out=out, tmp=tmp_path) for arg in command] + ["--data", str(tmp_path / "no-data")]
    assert main(argv) == 1
    reason = f"directory {out.parent} does not exist" if missing_dir else "is a directory"
    assert capsys.readouterr().err == f"error: {flag} {out}: {reason}\n"
    assert not any(tmp_path.iterdir())  # nothing written


@pytest.fixture()
def trained(dataset, tmp_path):
    """(dataset, config, checkpoint) after a 3-step train."""
    cfg, ckpt = small_train_config(tmp_path), tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(cfg), "--out-ckpt", str(ckpt)]) == 0
    return dataset, cfg, ckpt


def _files(root) -> dict:
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize(
    "command, flag, other",
    [
        (["train", "--out-ckpt", "{tmp}/new.ckpt", "--log", "{tmp}/new.ckpt"], "--out-ckpt", "--log"),
        (["train", "--out-ckpt", "{ckpt}", "--log", "{link}"], "--out-ckpt", "--log"),
        (["train", "--out-ckpt", "{data}/meta.json"], "--out-ckpt", "--data"),
        (["train", "--out-ckpt", "{tmp}/new.ckpt", "--log", "{data}/annotations.jsonl"], "--log", "--data"),
        (["train", "--out-ckpt", "{config}"], "--out-ckpt", "--config"),
        (["eval", "--ckpt", "{ckpt}", "--report", "{data}/meta.json"], "--report", "--data"),
        (["eval", "--ckpt", "{ckpt}", "--report", "{ckpt}"], "--report", "--ckpt"),
        (["eval", "--ckpt", "{ckpt}", "--report", "{link}"], "--report", "--ckpt"),
    ],
)
def test_an_output_over_an_input_exits_1_and_writes_nothing(trained, tmp_path, capsys, command, flag, other):
    """Resolved, so through a symlink too; checked before any work."""
    data, cfg, ckpt = trained
    (tmp_path / "link").symlink_to(ckpt)
    inputs = ["--data", str(data)] + (["--config", str(cfg)] if command[0] == "train" else [])
    argv = [arg.format(tmp=tmp_path, data=data, config=cfg, ckpt=ckpt, link=tmp_path / "link") for arg in command]
    before = _files(tmp_path)
    assert main(argv + inputs) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and f": would overwrite {other} " in err, err
    assert _files(tmp_path) == before


def test_a_new_report_inside_the_dataset_is_allowed(trained, capsys):
    data, _, ckpt = trained
    before = _files(data)
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(data), "--report", str(data / "report.json")]) == 0
    assert json.loads((data / "report.json").read_text())["num_samples"] == 4
    assert {p: b for p, b in _files(data).items() if p.name != "report.json"} == before


def test_unknown_config_key_is_reported(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not_a_field": 1}))
    assert main(["train", "--data", str(dataset), "--config", str(bad),
                 "--out-ckpt", str(tmp_path / "x.ckpt")]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_truncated_checkpoint_exits_1_naming_the_parameter(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 0
    ckpt.write_bytes(ckpt.read_bytes()[:-100])
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset),
                 "--report", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "model.ckpt" in err and "parameter 'ssm." in err
    assert "Traceback" not in err


def test_checkpoint_holding_a_scene_projection_exits_1(dataset, tmp_path, capsys):
    """A checkpoint from when the scene projection was a parameter fails the
    shape check at its first extra name."""
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 0
    old = load_checkpoint(ckpt)
    scene_proj = {"scene_proj.w": np.zeros((old.config.d + 4, old.config.d)), "scene_proj.b": np.zeros(old.config.d)}
    old.params = ParamStore({**scene_proj, **dict(old.params.items())}, seed=old.params.seed)
    save_checkpoint(ckpt, old)
    with pytest.raises(ParseError, match="parameters do not match the config at 'scene_proj.b'") as info:
        load_checkpoint(ckpt)
    assert info.value.field == "params"
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset), "--report", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'scene_proj.b'" in err
    assert "Traceback" not in err and not (tmp_path / "r.json").exists()


def test_a_tensor_with_cells_cut_fails_eval_and_train_naming_it(dataset, tmp_path, capsys):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 0
    tensor = sorted((dataset / "features").glob("*.rten"))[1]
    write_tensor(tensor, read_tensor(tensor)[:, :3])
    capsys.readouterr()
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(dataset), "--report", str(tmp_path / "r.json")]) == 1
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(tmp_path / "again.ckpt")]) == 1
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2 and not (tmp_path / "r.json").exists()
    for err in errors:
        assert err.startswith("error: ") and f"tensor features/{tensor.name} has cells 3" in err
        assert err.endswith("field 'cells'")


@pytest.mark.parametrize("field, key, gen_args", [
    ("d", "dim", ["--dim", "32"]),
    ("frames", "frames", ["--frames", "8"]),
    ("num_classes", "num_classes", ["--classes", "3"]),
])
def test_eval_of_a_checkpoint_off_the_dataset_exits_1_before_reading_tensors(
    dataset, tmp_path, capsys, monkeypatch, field, key, gen_args
):
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(ckpt)]) == 0
    other = tmp_path / "other"
    gen = {"--num": "2", "--frames": "4", "--grid": "2x2", "--dim": "16", "--classes": "5"}
    gen.update(zip(gen_args[::2], gen_args[1::2]))
    assert main(["gen", *[v for pair in gen.items() for v in pair], "--out", str(other)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("refscan.harness.formats.read_tensor", lambda path: pytest.fail(f"read {path}"))
    assert main(["eval", "--ckpt", str(ckpt), "--data", str(other), "--report", str(tmp_path / "r.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: checkpoint {ckpt}: field {field!r} is ")
    assert f"dataset {other / 'meta.json'} has {key!r} " in err and err.count("\n") == 1
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("field, key, value, expected", [
    ("d", "dim", 32, 16),
    ("frames", "frames", 8, 4),
    ("num_classes", "num_classes", 3, 5),
])
def test_train_config_off_the_dataset_exits_1_before_reading_tensors(
    tmp_path, capsys, monkeypatch, field, key, value, expected
):
    data = tmp_path / "data"
    assert main(["gen", "--num", "2", "--frames", "4", "--grid", "2x2", "--dim", "16", "--classes", "5",
                 "--out", str(data)]) == 0
    config = tmp_path / "train.json"
    config.write_text(json.dumps({field: value, "steps": 1, "batch": 2}))
    capsys.readouterr()
    monkeypatch.setattr("refscan.harness.formats.read_tensor", lambda path: pytest.fail(f"read {path}"))
    ckpt = tmp_path / "model.ckpt"
    assert main(["train", "--data", str(data), "--config", str(config), "--out-ckpt", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: --config {config}: field {field!r} is {value}, dataset {data / 'meta.json'} has {key!r} {expected}\n"
    assert not ckpt.exists()


def _train_exit(dataset, tmp_path) -> int:
    return main(["train", "--data", str(dataset), "--config", str(small_train_config(tmp_path)),
                 "--out-ckpt", str(tmp_path / "model.ckpt")])


@pytest.mark.parametrize("damage, field", [
    (lambda text: text[: len(text) // 2], None),  # truncated JSON
    (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "num_classes"}), "num_classes"),
])
def test_malformed_meta_exits_1_naming_the_file(dataset, tmp_path, capsys, damage, field):
    meta = dataset / "meta.json"
    meta.write_text(damage(meta.read_text()))
    assert _train_exit(dataset, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "meta.json" in err and "Traceback" not in err
    if field is not None:
        assert f"field {field!r}" in err


def test_non_utf8_annotations_exit_1_naming_the_file_and_line(dataset, tmp_path, capsys):
    path = dataset / "annotations.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(lines[0] + b"\xff\xfe" + lines[1])
    assert _train_exit(dataset, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "annotations.jsonl" in err and "line 2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value, field, message", [
    ({"d_s": "x"}, "d_s", "must be an integer"),
    ({"seed": -1}, "seed", "must be >= 0"),
    ({"lambda_box": "x"}, "lambda_box", "must be a number"),
    ({"lambda_box": 10**400}, "lambda_box", "must be finite"),  # an int no float64 holds
])
def test_malformed_config_value_exits_1_naming_the_field(dataset, tmp_path, capsys, value, field, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**json.loads(small_train_config(tmp_path).read_text()), **value}))
    assert main(["train", "--data", str(dataset), "--config", str(bad),
                 "--out-ckpt", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} {message}") and "stage" not in err and "Traceback" not in err
    assert not (tmp_path / "x.ckpt").exists()


def test_config_file_that_is_not_an_object_exits_1_naming_the_file(dataset, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert main(["train", "--data", str(dataset), "--config", str(bad),
                 "--out-ckpt", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err and "Traceback" not in err


# json.loads raises RecursionError on the first and a plain ValueError on the
# second (an integer past Python's 4,300-digit limit), neither a JSONDecodeError
HOSTILE_JSON = {"nested 100,000 deep": "[" * 100_000 + "]" * 100_000, "a 5,000-digit integer": "1" * 5_000}


@pytest.mark.parametrize("document", sorted(HOSTILE_JSON))
@pytest.mark.parametrize("site", ["annotation line", "meta.json", "--config", "checkpoint header"])
def test_hostile_json_exits_1_with_one_line_naming_the_file(trained, tmp_path, capsys, site, document):
    data, cfg, ckpt = trained
    text = HOSTILE_JSON[document]
    if site == "annotation line":
        path = data / "annotations.jsonl"
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], text, *lines[2:]]) + "\n")
    else:
        path = {"meta.json": data / "meta.json", "--config": cfg, "checkpoint header": ckpt}[site]
        path.write_text(text + "\n")
    if site == "--config":
        argv = ["train", "--data", str(data), "--config", str(cfg), "--out-ckpt", str(tmp_path / "new.ckpt")]
    else:
        argv = ["eval", "--ckpt", str(ckpt), "--data", str(data), "--report", str(tmp_path / "r.json")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err
    if site == "annotation line":
        assert err[0].endswith(": line 2")


# 10**17 float64 is 711 PiB, past what a 57-bit address space maps: the
# allocation fails on any machine before a page is touched
HUGE = 10**17


@pytest.mark.parametrize("command", ["gen --dim", "train on meta.json num_classes", "gradcheck --config n_prompts"])
def test_a_size_no_machine_holds_exits_1_with_one_line(dataset, tmp_path, capsys, command):
    if command == "gen --dim":
        argv = ["gen", "--num", "1", "--frames", "1", "--grid", "1x1", "--dim", str(HUGE), "--out", str(tmp_path / "g")]
    elif command == "gradcheck --config n_prompts":  # a HUGE / 16 x 16 prompt matrix
        (tmp_path / "g.json").write_text(json.dumps({"n_prompts": HUGE // 16}))
        argv = ["gradcheck", "--config", str(tmp_path / "g.json")]
    else:  # a HUGE / 16-class label vector, and a d_a x num_classes head numpy can index
        meta = dataset / "meta.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "num_classes": HUGE // 16}))
        argv = ["train", "--data", str(dataset), "--steps", "1", "--out-ckpt", str(tmp_path / "x.ckpt")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory: ") and "PiB" in err[0], err


@pytest.mark.parametrize("field, value", [("d_s", 10**17), ("n_prompts", 10**19), ("n", HUGE)])
def test_a_gradcheck_size_numpy_cannot_index_exits_1_naming_the_field(tmp_path, capsys, field, value):
    (tmp_path / "c.json").write_text(json.dumps({field: value}))
    assert main(["gradcheck", "--config", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} {value} is too large: parameter "), err
    assert err[0].endswith("more than numpy can index")


def test_a_train_size_numpy_cannot_index_exits_1_before_a_sample_is_read(dataset, tmp_path, capsys, monkeypatch):
    chunks = []
    read = FixtureDataset.iter_chunks
    monkeypatch.setattr(FixtureDataset, "iter_chunks", lambda self, *a: chunks.append(a) or read(self, *a))
    (tmp_path / "c.json").write_text(json.dumps({"d_s": 10**17}))
    assert main(["train", "--data", str(dataset), "--config", str(tmp_path / "c.json"),
                 "--out-ckpt", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: d_s 100000000000000000 is too large: parameter "), err
    assert chunks == []


def test_reference_without_words_exits_1_naming_the_file(dataset, tmp_path, capsys):
    path = dataset / "annotations.jsonl"
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, "reference": "... !!"})
    path.write_text("\n".join(lines) + "\n")
    assert _train_exit(dataset, tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "annotations.jsonl" in err and repr(record["video_id"]) in err
    assert "no encodable words" in err and "field 'reference'" in err and "Traceback" not in err


def test_meta_frames_that_differ_from_the_tensors_exit_1_naming_meta_json(dataset, tmp_path, capsys):
    meta = dataset / "meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "frames": 3}))
    config = json.loads(small_train_config(tmp_path).read_text())
    del config["frames"]  # taken from meta.json
    (tmp_path / "train.json").write_text(json.dumps(config))
    assert main(["train", "--data", str(dataset), "--config", str(tmp_path / "train.json"),
                 "--out-ckpt", str(tmp_path / "x.ckpt")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "meta.json says 3" in err and "field 'frames'" in err
    assert "Traceback" not in err and not (tmp_path / "x.ckpt").exists()
