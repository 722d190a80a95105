"""End-to-end tests of the command line driver: exit codes, manifest policy,
artifact schemas, and byte-level reproducibility of reports."""
import csv
import json
import os
import re
from xml.etree import ElementTree

import pytest

import fdseg.cli
import fdseg.sweeps
from fdseg.cli import (GEN_DATA_SETTINGS, SWEEP_SETTINGS, TRAIN_SETTINGS,
                       build_parser, main)
from fdseg.data import BASE_SITE, NOVEL_SITE, SITES, load_site
from fdseg.sweeps import (SweepResult, SweepRow, SweepSettings, read_sweep_csv,
                          write_sweep_csv)
from fdseg.trainer import (TrainConfig, TrainingAborted, blas_threads,
                           set_blas_threads)
from fdseg.unet import UNetConfig
from fdseg.report import sweep_chart_svg, write_sweep_chart

FAST_TRAIN = ["--image-size", "16", "--n-samples", "12", "--phase1-epochs", "1",
              "--phase2-epochs", "1", "--batch-size", "4", "--no-augment",
              "--base-channels", "4"]

FAST_SWEEP = ["--image-size", "16", "--n-base", "12", "--n-novel", "12",
              "--phase1-epochs", "1", "--phase2-epochs", "1", "--batch-size",
              "4", "--no-augment", "--seeds", "0"]


def test_train_writes_artifacts(tmp_path):
    out = str(tmp_path / "run")
    assert main(["train", "--out", out, "--loss", "seg_only"] + FAST_TRAIN) == 0
    for name in ("manifest.json", "model.ckpt", "history.csv", "evaluation.csv"):
        assert os.path.exists(os.path.join(out, name)), name


def test_train_seg_only_history_has_no_fd_columns(tmp_path):
    out = str(tmp_path / "run")
    main(["train", "--out", out, "--loss", "seg_only"] + FAST_TRAIN)
    with open(os.path.join(out, "history.csv")) as fh:
        header = fh.readline()
    assert "fd_" not in header and "alpha_" not in header


def test_train_refuses_existing_run_without_force(tmp_path):
    out = str(tmp_path / "run")
    args = ["train", "--out", out, "--loss", "seg_only"] + FAST_TRAIN
    assert main(args) == 0
    assert main(args) == 2
    assert main(args + ["--force"]) == 0


def test_train_manifest_records_blas_threads(tmp_path):
    out = str(tmp_path / "run")
    before = blas_threads()
    set_blas_threads(1)
    try:
        assert main(["train", "--out", out, "--loss", "seg_only"]
                    + FAST_TRAIN) == 0
    finally:
        set_blas_threads(before)
    with open(os.path.join(out, "manifest.json")) as fh:
        assert json.load(fh)["runtime"] == {"blas_threads": 1}


def test_manifest_captures_resolved_config(tmp_path):
    out = str(tmp_path / "run")
    main(["train", "--out", out, "--loss", "seg_only", "--seed", "3"]
         + FAST_TRAIN)
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "train"
    assert manifest["config"]["seed"] == 3
    assert manifest["config"]["loss"] == "seg_only"
    assert manifest["config"]["image_size"] == 16


def test_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 9, "loss": "seg_only",
                                    "image_size": 16, "n_samples": 12,
                                    "phase1_epochs": 1, "phase2_epochs": 1,
                                    "batch_size": 4, "no_augment": True,
                                    "base_channels": 4}))
    out = str(tmp_path / "run")
    assert main(["train", "--config", str(cfg_path), "--out", out,
                 "--seed", "2"]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        manifest = json.load(fh)
    assert manifest["config"]["seed"] == 2        # flag beats file
    assert manifest["config"]["loss"] == "seg_only"


def test_train_rerun_reproduces_csv_bytes(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    args = ["--loss", "seg+fd", "--seed", "1"] + FAST_TRAIN
    assert main(["train", "--out", out1] + args) == 0
    assert main(["train", "--out", out2] + args) == 0
    for name in ("history.csv", "evaluation.csv"):
        with open(os.path.join(out1, name), "rb") as a, \
                open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read(), name


def test_train_rerun_from_manifest_reproduces_csv_bytes(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["train", "--out", out1, "--loss", "seg+fd", "--seed", "3"]
                + FAST_TRAIN) == 0
    assert main(["train", "--config", os.path.join(out1, "manifest.json"),
                 "--out", out2]) == 0
    for name in ("manifest.json", "history.csv", "evaluation.csv"):
        with open(os.path.join(out1, name), "rb") as a, \
                open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read(), name


def test_config_unknown_key_exits_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 1, "sed": 3}))
    out = str(tmp_path / "run")
    assert main(["train", "--config", str(cfg_path), "--out", out]
                + FAST_TRAIN) == 2
    assert "sed" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("made_by,argv", [
    (["gen-data", "--n-samples", "12", "--image-size", "16"],
     ["train"] + FAST_TRAIN),
    (["noise-sweep", "--loss-modes", "seg_only"] + FAST_SWEEP,
     ["data-addition"] + FAST_SWEEP),
], ids=["gen-data-to-train", "noise-sweep-to-data-addition"])
def test_manifest_of_another_command_exits_config_error(tmp_path, capsys,
                                                        monkeypatch, made_by,
                                                        argv):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    first, out = str(tmp_path / "first"), str(tmp_path / "run")
    assert main(made_by + ["--out", first]) == 0
    capsys.readouterr()
    manifest = os.path.join(first, "manifest.json")
    assert main([argv[0], "--config", manifest, "--out", out] + argv[1:]) == 2
    assert (f"a manifest of {made_by[0]}, not of {argv[0]}"
            in capsys.readouterr().err)
    assert not os.path.exists(os.path.join(out, "manifest.json"))


FAST_CONFIG = {"loss": "seg_only", "image_size": 16, "n_samples": 12,
               "phase1_epochs": 1, "phase2_epochs": 1, "batch_size": 4,
               "no_augment": True, "base_channels": 4}


@pytest.mark.parametrize("entry", [{"seed": "3"}, {"no_augment": "false"},
                                   {"image_size": "16"}, {"loss": "bogus"}],
                         ids=lambda entry: next(iter(entry)))
def test_config_value_of_wrong_type_exits_config_error(tmp_path, capsys, entry):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**FAST_CONFIG, **entry}))
    out = str(tmp_path / "run")
    assert main(["train", "--config", str(cfg_path), "--out", out]) == 2
    (key,) = entry
    assert f"config key {key} " in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("argv", [
    ["train", "--image-size", "15"],
    ["train", "--phase1-epochs", "0"],
    ["train", "--n-samples", "2"],
    ["noise-sweep", "--loss-modes", "bogus"],
    ["data-addition", "--n-base", "2"],
], ids=["image_size", "phase1_epochs", "n_samples", "loss_modes", "n_base"])
def test_bad_setting_exits_before_manifest(tmp_path, argv):
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("argv", [
    ["train"] + FAST_TRAIN + ["--phase2-epochs", "-1"],
    ["train"] + FAST_TRAIN + ["--noise-sigma", "-0.5"],
    ["train"] + FAST_TRAIN + ["--seed", "-1"],
    ["noise-sweep", "--loss-modes", "seg_only"] + FAST_SWEEP + ["--seeds", "-1"],
    ["noise-sweep", "--loss-modes", "seg_only"] + FAST_SWEEP + ["--seeds", ","],
], ids=["phase2_epochs", "noise_sigma", "seed", "negative_seed", "no_seeds"])
def test_negative_or_empty_setting_exits_before_manifest(tmp_path, argv):
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 2
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("argv,message", [
    (["train"] + FAST_TRAIN + ["--lr", "nan"], "lr must be finite"),
    (["train"] + FAST_TRAIN + ["--lr", "inf"], "lr must be finite"),
    (["train"] + FAST_TRAIN + ["--noise-sigma", "nan"],
     "noise_sigma must be finite"),
    (["data-addition", "--loss-modes", "seg_only"] + FAST_SWEEP
     + ["--lr", "nan"], "lr must be finite"),
], ids=["train_lr_nan", "train_lr_inf", "train_noise_sigma_nan", "sweep_lr_nan"])
def test_non_finite_setting_exits_before_manifest(tmp_path, capsys, argv,
                                                  message):
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("argv,repeated", [
    (["--seeds", "0,0", "--loss-modes", "seg_only"], "seed 0"),
    (["--seeds", "0", "--loss-modes", "seg_only,seg_only"],
     "loss mode 'seg_only'"),
], ids=["seeds", "loss_modes"])
def test_repeated_sweep_value_exits_before_manifest(tmp_path, capsys, argv,
                                                    repeated):
    out = str(tmp_path / "run")
    assert main(["noise-sweep", "--out", out] + FAST_SWEEP + argv) == 2
    assert f"sweep {repeated} is repeated" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


@pytest.mark.parametrize("argv,message", [
    (["gen-data", "--n-samples", "0"], "n must be >= 1"),
    (["lemma-checks", "--lemma1-samples", "0"], "lemma1_samples must be >= 1"),
    (["lemma-checks", "--mediation-n", "5"], "mediation_n must be >= 10000"),
], ids=["gen_data_n_samples", "lemma1_samples", "mediation_n"])
def test_gen_data_and_lemma_setting_exits_before_manifest(tmp_path, capsys,
                                                          argv, message):
    out = str(tmp_path / "run")
    assert main(argv + ["--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def _shared_defaults(settings, *configs):
    """The settings that a config also has, each with the config's default."""
    return {k: getattr(c, k) for k in settings if k != "image_size"
            for c in configs if hasattr(c, k)}


def test_each_cli_default_is_its_config_default():
    sweep, tc, uc = SweepSettings(), TrainConfig(), UNetConfig()
    assert (SWEEP_SETTINGS["image_size"],) * 2 == sweep.base_site.image_size \
        == sweep.novel_site.image_size
    assert (TRAIN_SETTINGS["image_size"],) * 2 == uc.image_size
    for settings, configs in ((SWEEP_SETTINGS, (sweep,)),
                              (TRAIN_SETTINGS, (tc, uc))):
        shared = _shared_defaults(settings, *configs)
        assert shared == {k: settings[k] for k in shared}
        assert settings["no_augment"] is not configs[0].augment_train
    assert TRAIN_SETTINGS["loss"] == tc.loss_mode


def test_gen_data_and_train_default_image_sizes_agree():
    """`gen-data` writes by default the images that `train` trains on."""
    size = TRAIN_SETTINGS["image_size"]
    assert GEN_DATA_SETTINGS["image_size"] == size
    assert (size, size) == UNetConfig().image_size == BASE_SITE.image_size \
        == NOVEL_SITE.image_size


FAST_ARGS = {"train": FAST_TRAIN,
             "gen-data": ["--n-samples", "3", "--image-size", "16"],
             "data-addition": FAST_SWEEP + ["--loss-modes", "seg_only"],
             "noise-sweep": FAST_SWEEP + ["--loss-modes", "seg_only"],
             "lemma-checks": []}


@pytest.mark.parametrize("command", list(FAST_ARGS))
def test_manifest_config_keys_are_the_command_flags(tmp_path, capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    flags = (set(re.findall(r"--([a-z0-9-]+)", capsys.readouterr().out))
             - {"help", "config", "out", "force"})
    out = str(tmp_path / "run")
    assert main([command, "--out", out] + FAST_ARGS[command]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        config = json.load(fh)["config"]
    assert {key.replace("_", "-") for key in config} == flags


def test_gen_data_writes_site(tmp_path):
    out = str(tmp_path / "data")
    assert main(["gen-data", "--out", out, "--site", "base", "--n-samples",
                 "3", "--image-size", "16"]) == 0
    site_dir = os.path.join(out, "base")
    assert os.path.exists(os.path.join(site_dir, "site.json"))
    assert len(os.listdir(os.path.join(site_dir, "images"))) == 3
    assert len(os.listdir(os.path.join(site_dir, "masks"))) == 3


def test_bad_flag_value_exits_config_error(tmp_path):
    out = str(tmp_path / "run")
    code = main(["train", "--out", out, "--n-samples", "2",
                 "--image-size", "16"])
    assert code == 2                               # split has an empty partition


def test_divergent_training_exits_abort_code(tmp_path):
    out = str(tmp_path / "run")
    code = main(["train", "--out", out, "--loss", "seg_only", "--lr", "1e12"]
                + FAST_TRAIN)
    assert code == 3
    assert os.path.exists(os.path.join(out, "last_good.ckpt"))


def test_data_addition_sweep_artifacts(tmp_path):
    out = str(tmp_path / "sweep")
    code = main(["data-addition", "--out", out,
                 "--loss-modes", "seg_only"] + FAST_SWEEP)
    assert code == 0
    result = read_sweep_csv(os.path.join(out, "data_addition.csv"))
    conditions = sorted({r.condition for r in result.rows})
    assert conditions == [0.0, 1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0]
    assert all(r.status == "ok" for r in result.rows)
    assert os.path.exists(os.path.join(out, "data_addition.svg"))


def test_noise_sweep_grid(tmp_path):
    out = str(tmp_path / "noise")
    code = main(["noise-sweep", "--out", out,
                 "--loss-modes", "seg_only"] + FAST_SWEEP)
    assert code == 0
    result = read_sweep_csv(os.path.join(out, "noise_sweep.csv"))
    conditions = sorted({r.condition for r in result.rows})
    assert conditions == [0.0, 0.05, 0.10, 0.15, 0.20]


def test_sweep_manifest_records_pool_and_reruns(tmp_path, monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["noise-sweep", "--out", out1,
                 "--loss-modes", "seg_only"] + FAST_SWEEP) == 0
    manifest = os.path.join(out1, "manifest.json")
    with open(manifest) as fh:
        runtime = json.load(fh)["runtime"]
    # cells run in this process, which keeps its own BLAS thread count
    assert runtime == {"pool_width": 1, "worker_blas_threads": None}
    assert main(["noise-sweep", "--config", manifest, "--out", out2]) == 0
    for name in ("manifest.json", "noise_sweep.csv"):
        with open(os.path.join(out1, name), "rb") as a, \
                open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read(), name


def test_lemma_checks_pass_and_report(tmp_path):
    out = str(tmp_path / "lemmas")
    assert main(["lemma-checks", "--out", out]) == 0
    with open(os.path.join(out, "lemma_reports.json")) as fh:
        reports = json.load(fh)
    by_check = {r["check"]: r for r in reports}
    assert by_check["lemma1"]["violation_rate"] >= 0.0
    assert by_check["lemma2_gradient"]["holds"]
    assert by_check["weight_norm"]["holds"]
    assert by_check["mediation"]["holds"]
    assert 1.95 <= by_check["mediation"]["result"]["var_hat"] <= 2.05


@pytest.mark.parametrize("slope_off,var_off", [(1.0, 0.0), (0.0, 1.0)],
                         ids=["slope", "var"])
def test_failed_lemma_check_exits_property_fail(tmp_path, monkeypatch, capsys,
                                                slope_off, var_off):
    monkeypatch.setattr(fdseg.cli, "mediation_mc", lambda a, b, n, seed:
                        (a * b + slope_off, 1 + b * b + var_off))
    out = str(tmp_path / "lemmas")
    assert main(["lemma-checks", "--out", out]) == 1
    with open(os.path.join(out, "lemma_reports.json")) as fh:
        holds = {r["check"]: r["holds"] for r in json.load(fh)}
    assert holds == {"lemma1": True, "lemma2_gradient": True,
                     "weight_norm": True, "mediation": False}
    assert capsys.readouterr().out.splitlines() == [
        "lemma1: ok", "lemma2_gradient: ok", "weight_norm: ok",
        "mediation: FAIL"]


def test_lemma_config_accepts_integer_for_float_setting(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"mediation_a": 1}))
    out = str(tmp_path / "lemmas")
    assert main(["lemma-checks", "--config", str(cfg_path), "--out", out]) == 0
    with open(os.path.join(out, "manifest.json")) as fh:
        value = json.load(fh)["config"]["mediation_a"]
    assert value == 1.0 and type(value) is float


def test_config_file_holding_an_array_exits_config_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([{"seed": 1}]))
    out = str(tmp_path / "run")
    assert main(["lemma-checks", "--config", str(cfg_path), "--out", out]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_lemma_checks_rerun_from_manifest_reproduces_report_bytes(tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["lemma-checks", "--out", out1, "--seed", "2"]) == 0
    assert main(["lemma-checks", "--config", os.path.join(out1, "manifest.json"),
                 "--out", out2]) == 0
    for name in ("manifest.json", "lemma_reports.json"):
        with open(os.path.join(out1, name), "rb") as a, \
                open(os.path.join(out2, name), "rb") as b:
            assert a.read() == b.read(), name


def test_report_regenerates_svg(tmp_path):
    result = SweepResult(rows=[
        SweepRow(0.0, 0, "seg_only", 0.90, 0.82),
        SweepRow(0.0, 1, "seg_only", 0.88, 0.80),
        SweepRow(1.0, 0, "seg_only", 0.70, 0.60),
        SweepRow(1.0, 1, "seg_only", 0.72, 0.62),
        SweepRow(0.0, 0, "seg+fd", 0.91, 0.84),
        SweepRow(1.0, 0, "seg+fd", 0.85, 0.76),
    ])
    csv_path = str(tmp_path / "sweep.csv")
    write_sweep_csv(csv_path, result)
    assert main(["report", csv_path]) == 0
    svg_path = str(tmp_path / "sweep.svg")
    with open(svg_path) as fh:
        svg = fh.read()
    assert svg.startswith("<svg")
    assert "seg_only" in svg and "seg+fd" in svg


def test_report_escapes_title_and_mode_names(tmp_path):
    result = SweepResult(rows=[SweepRow(0.0, 0, "seg<fd>&'x'", 0.9, 0.8),
                               SweepRow(1.0, 0, "seg<fd>&'x'", 0.7, 0.6)])
    csv_path = str(tmp_path / 'runs a&b <"c">.csv')
    write_sweep_csv(csv_path, result)
    assert main(["report", csv_path]) == 0
    root = ElementTree.parse(os.path.splitext(csv_path)[0] + ".svg").getroot()
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert 'runs a&b <"c">' in texts and "seg<fd>&'x'" in texts


def test_report_deterministic_bytes(tmp_path):
    result = SweepResult(rows=[SweepRow(0.0, 0, "seg_only", 0.9, 0.8),
                               SweepRow(0.5, 0, "seg_only", 0.8, 0.7)])
    a = sweep_chart_svg(result, "t", "x", "y")
    b = sweep_chart_svg(result, "t", "x", "y")
    assert a == b
    p1, p2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
    write_sweep_chart(result, p1, "t", "x")
    write_sweep_chart(result, p2, "t", "x")
    with open(p1, "rb") as f1, open(p2, "rb") as f2:
        assert f1.read() == f2.read()


def test_report_empty_csv_is_error(tmp_path):
    csv_path = str(tmp_path / "empty.csv")
    write_sweep_csv(csv_path, SweepResult(rows=[]))
    assert main(["report", csv_path]) == 2


def test_report_malformed_csv_names_line(tmp_path):
    csv_path = str(tmp_path / "bad.csv")
    with open(csv_path, "w") as fh:
        fh.write("condition,seed,loss_mode,test_dice_base,test_iou_base,status\n")
        fh.write("0.0,0,seg_only,not_a_number,0.8,ok\n")
    assert main(["report", csv_path]) == 2


def _read_sweep_text(tmp_path, text):
    path = tmp_path / "s.csv"
    path.write_text(text)
    return read_sweep_csv(str(path))


def test_sweep_csv_without_status_column_reads_ok(tmp_path):
    result = _read_sweep_text(tmp_path, "condition,seed,loss_mode,"
                              "test_dice_base,test_iou_base\n"
                              "0.500000,2,seg+fd,0.900000,0.800000\n")
    assert result.rows == [SweepRow(0.5, 2, "seg+fd", 0.9, 0.8, "ok")]


def test_sweep_csv_short_row_names_its_line(tmp_path):
    with pytest.raises(ValueError, match="malformed sweep CSV at line 2"):
        _read_sweep_text(tmp_path, "condition,seed,loss_mode,test_dice_base\n"
                         "0.500000,2,seg+fd,0.900000\n")


def test_sweep_csv_bad_header_names_line_1(tmp_path):
    with pytest.raises(ValueError, match="malformed sweep CSV header at line 1"):
        _read_sweep_text(tmp_path, "seed,condition,loss_mode,test_dice_base,"
                         "test_iou_base,status\n0,0.5,seg+fd,0.9,0.8,ok\n")


def test_sweep_csv_swapped_metric_columns_are_a_header_error(tmp_path):
    with pytest.raises(ValueError, match="malformed sweep CSV header at line 1"):
        _read_sweep_text(tmp_path, "condition,seed,loss_mode,test_iou_base,"
                         "test_dice_base,status\n0.0,0,seg_only,0.5,0.9,ok\n")


def test_sweep_csv_roundtrip(tmp_path):
    result = SweepResult(rows=[
        SweepRow(0.25, 3, "seg+fd+exch", 0.875, 0.778),
        SweepRow(0.5, 3, "seg_only", float("nan"), float("nan"),
                 status="aborted: nan"),
    ])
    path = str(tmp_path / "r.csv")
    write_sweep_csv(path, result)
    back = read_sweep_csv(path)
    assert back.rows[0].condition == 0.25
    assert back.rows[0].loss_mode == "seg+fd+exch"
    assert back.rows[0].test_dice_base == pytest.approx(0.875)
    assert back.rows[1].status.startswith("aborted")
    # aborted rows are excluded from aggregation
    assert (0.5, "seg_only") not in back.aggregate()


@pytest.mark.parametrize("command", ["data-addition", "noise-sweep"])
def test_report_redraws_a_sweep_svg_byte_for_byte(tmp_path, monkeypatch,
                                                   command):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    out = str(tmp_path / "sweep")
    assert main([command, "--out", out] + FAST_ARGS[command]) == 0
    stem = os.path.join(out, command.replace("-", "_"))
    with open(stem + ".svg", "rb") as fh:
        drawn = fh.read()
    os.remove(stem + ".svg")
    assert main(["report", stem + ".csv"]) == 0
    with open(stem + ".svg", "rb") as fh:
        assert fh.read() == drawn
    *_, title, x_label = fdseg.cli.SWEEPS[command]
    texts = [t.text for t in ElementTree.fromstring(drawn).iter(
        "{http://www.w3.org/2000/svg}text")]
    assert title in texts and x_label in texts


def _failing_train(cfg, model, splits):
    if cfg.seed == 0:
        raise TrainingAborted("loss is nan")
    raise RuntimeError("boom")


@pytest.mark.parametrize("flags,failing_train,counts", [
    (["--lr", "1e12"], None, "10 aborted, 0 errored"),
    ([], _failing_train, "5 aborted, 5 errored"),
], ids=["diverged", "aborted_and_errored"])
def test_sweep_whose_every_cell_failed_exits_abort(tmp_path, capsys,
                                                   monkeypatch, flags,
                                                   failing_train, counts):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    if failing_train:
        monkeypatch.setattr(fdseg.sweeps, "train", failing_train)
    out = str(tmp_path / "noise")
    assert main(["noise-sweep", "--out", out, "--loss-modes", "seg_only"]
                + FAST_SWEEP + ["--seeds", "0,1"] + flags) == 3
    assert f"every cell failed: {counts}" in capsys.readouterr().err
    rows = read_sweep_csv(os.path.join(out, "noise_sweep.csv")).rows
    assert len(rows) == 10 and not any(r.status == "ok" for r in rows)
    assert not os.path.exists(os.path.join(out, "noise_sweep.svg"))


def test_help_describes_every_command(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    listed = dict(re.findall(r"^ {4}([a-z-]+) +(.+)$",
                             capsys.readouterr().out, re.MULTILINE))
    assert set(listed) == set(fdseg.cli.COMMANDS) | {"report"}
    assert listed["data-addition"] == \
        "measure base-test Dice vs novel-data fraction"
    assert listed["noise-sweep"] == \
        "measure base-test Dice vs training noise sigma"


def test_chart_of_a_single_condition_centres_it(tmp_path):
    result = SweepResult(rows=[SweepRow(0.0, 0, "seg_only", 0.9, 0.8),
                               SweepRow(0.0, 1, "seg_only", 0.7, 0.6)])
    root = ElementTree.fromstring(sweep_chart_svg(result, "benefit"))
    (circle,) = root.iter("{http://www.w3.org/2000/svg}circle")
    assert circle.get("cx") == "280.000"    # the middle of the plot's width
    ticks = [t for t in root.iter("{http://www.w3.org/2000/svg}text")
             if t.text == "0.000" and t.get("x") == "280.000"]
    assert len(ticks) == 1


@pytest.mark.parametrize("command", ["train", "gen-data", "data-addition",
                                     "noise-sweep"])
@pytest.mark.parametrize("size", [0, -4])
def test_image_size_that_cannot_be_drawn_exits_before_manifest(
        tmp_path, capsys, command, size):
    out = str(tmp_path / "run")
    assert main([command, "--image-size", str(size), "--out", out]) == 2
    assert f"image size ({size}, {size})" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


def test_sweep_chart_places_each_point_at_its_condition_and_mean(tmp_path):
    """A noise sweep whose cells learn (mean Dice spread over 0.3-0.9), so a
    point drawn at another cell's condition or score shows. Each circle must
    sit at its condition's x tick and, on the y ticks' scale, at the mean
    Dice the CSV gives for its mode and condition."""
    out = str(tmp_path / "noise")
    assert main(["noise-sweep", "--out", out, "--image-size", "16",
                 "--n-base", "20", "--phase1-epochs", "4", "--phase2-epochs",
                 "4", "--batch-size", "4", "--no-augment", "--seeds", "0",
                 "--loss-modes", "seg_only,seg+fd"]) == 0
    with open(os.path.join(out, "noise_sweep.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    means = {}
    for row in rows:
        assert row["status"] == "ok"
        key = (row["loss_mode"], row["condition"])
        means.setdefault(key, []).append(float(row["test_dice_base"]))
    means = {k: sum(v) / len(v) for k, v in means.items()}
    assert max(means.values()) - min(means.values()) > 0.3

    svg = "{http://www.w3.org/2000/svg}"
    elements = list(ElementTree.parse(os.path.join(out, "noise_sweep.svg"))
                    .getroot())
    x_of = {t.text: float(t.get("x")) for t in elements
            if t.tag == svg + "text" and t.get("text-anchor") == "middle"
            and t.get("font-size") == "10"}
    (v0, y0), *_, (v4, y4) = [(float(t.text), float(t.get("y")))
                              for t in elements if t.tag == svg + "text"
                              and t.get("text-anchor") == "end"]
    mode_of = {line.get("stroke"): text.text
               for line, text in zip(elements, elements[1:])
               if text.tag == svg + "text" and text.text in ("seg_only",
                                                              "seg+fd")}
    placed = {}
    for c in elements:
        if c.tag == svg + "circle":
            placed.setdefault(mode_of[c.get("fill")], []).append(
                (float(c.get("cx")), float(c.get("cy"))))
    assert sum(map(len, placed.values())) == len(means) == 10
    for (mode, condition), mean in means.items():
        x = x_of[f"{float(condition):.3f}"]
        y = y0 + (mean - v0) * (y4 - y0) / (v4 - v0)
        (cy,) = [cy for cx, cy in placed[mode] if cx == x]
        assert cy == pytest.approx(y, abs=1.0), (mode, condition)


def test_forced_rerun_that_aborts_leaves_no_output_of_the_replaced_run(
        tmp_path):
    out = str(tmp_path / "run")
    args = ["train", "--out", out, "--loss", "seg_only"] + FAST_TRAIN
    assert main(args) == 0
    assert main(args + ["--force", "--lr", "1e12"]) == 3
    assert sorted(os.listdir(out)) == ["last_good.ckpt", "manifest.json"]
    with open(os.path.join(out, "manifest.json")) as fh:
        assert json.load(fh)["config"]["lr"] == 1e12


def test_forced_sweep_rerun_whose_every_cell_aborts_leaves_no_chart(
        tmp_path, monkeypatch):
    monkeypatch.setenv("FDSEG_WORKERS", "1")
    out = str(tmp_path / "noise")
    args = ["noise-sweep", "--out", out] + FAST_ARGS["noise-sweep"]
    assert main(args) == 0
    assert os.path.exists(os.path.join(out, "noise_sweep.svg"))
    assert main(args + ["--force", "--lr", "1e12"]) == 3
    assert sorted(os.listdir(out)) == ["manifest.json", "noise_sweep.csv"]


def test_forced_gen_data_with_fewer_samples_leaves_only_the_new_site(tmp_path):
    out = str(tmp_path / "data")
    args = ["gen-data", "--out", out, "--image-size", "16"]
    assert main(args + ["--n-samples", "6"]) == 0
    assert main(args + ["--n-samples", "2", "--force"]) == 0
    for sub in ("images", "masks"):
        assert sorted(os.listdir(os.path.join(out, "base", sub))) == \
            ["0.pgm", "1.pgm"]
    assert [s.id for s in load_site(os.path.join(out, "base"))] == [0, 1]


def test_force_removes_only_what_the_commands_write(tmp_path):
    out = str(tmp_path / "run")
    assert main(["gen-data", "--out", out, "--site", "novel",
                 "--n-samples", "3", "--image-size", "16"]) == 0
    kept = [os.path.join(out, "notes.txt"),
            os.path.join(out, "novel", "images", "notes.txt"),
            os.path.join(out, "other", "images", "0.pgm")]
    for path in kept:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        open(path, "w").close()
    assert main(["lemma-checks", "--out", out, "--force"]) == 0
    assert sorted(os.listdir(out)) == ["lemma_reports.json", "manifest.json",
                                       "notes.txt", "novel", "other"]
    assert os.listdir(os.path.join(out, "novel", "images")) == ["notes.txt"]
    assert os.listdir(os.path.join(out, "novel", "masks")) == []
    assert all(os.path.exists(path) for path in kept)


def test_forced_rerun_with_a_bad_setting_leaves_the_old_run_whole(tmp_path):
    out = str(tmp_path / "run")
    args = ["train", "--out", out, "--loss", "seg_only"] + FAST_TRAIN
    assert main(args) == 0
    before = {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()}
    assert main(args + ["--force", "--image-size", "15"]) == 2
    assert {p.name: p.read_bytes() for p in (tmp_path / "run").iterdir()} == before


SIX_COLUMNS = "condition,seed,loss_mode,test_dice_base,test_iou_base,status\n"


@pytest.mark.parametrize("row", [
    "1.0,0,seg_only,nan,nan", "1.0,0,seg_only,0.9,0.8",
    "1.0,0,seg_only,nan,0.8,ok", "1.0,0,seg_only,0.9,inf,ok",
], ids=["short_nan", "short", "ok_nan_dice", "ok_inf_iou"])
def test_sweep_csv_short_or_non_finite_ok_row_is_malformed(tmp_path, row):
    with pytest.raises(ValueError, match="malformed sweep CSV at line 3"):
        _read_sweep_text(tmp_path, SIX_COLUMNS + "0.0,0,seg_only,0.9,0.8,ok\n"
                         + row + "\n")


def test_report_of_a_short_row_exits_config_error(tmp_path, capsys):
    path = tmp_path / "noise_sweep.csv"
    path.write_text(SIX_COLUMNS + "0.0,0,seg_only,0.9,0.8,ok\n"
                    "1.0,0,seg_only,nan,nan\n")
    assert main(["report", str(path)]) == 2
    assert "malformed sweep CSV at line 3" in capsys.readouterr().err
    assert not (tmp_path / "noise_sweep.svg").exists()


@pytest.mark.parametrize("condition", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("status", ["ok", "aborted: nan"])
def test_report_of_a_non_finite_condition_exits_config_error(
        tmp_path, capsys, condition, status):
    path = tmp_path / "noise_sweep.csv"
    path.write_text(SIX_COLUMNS + f"{condition},0,seg_only,0.5,0.4,{status}\n"
                    "1.0,0,seg_only,0.6,0.5,ok\n")
    assert main(["report", str(path)]) == 2
    assert "malformed sweep CSV at line 2" in capsys.readouterr().err
    assert not (tmp_path / "noise_sweep.svg").exists()


@pytest.mark.parametrize("command", ["train", "gen-data"])
def test_site_choices_are_the_sources_of_data_sites(command):
    (commands,) = [a for a in build_parser()._actions if a.dest == "command"]
    (site,) = [a for a in commands.choices[command]._actions
               if a.dest == "site"]
    assert list(site.choices) == list(SITES)
    assert SITES == {BASE_SITE.name: BASE_SITE, NOVEL_SITE.name: NOVEL_SITE}


def test_sweep_csv_extra_columns_are_ignored(tmp_path):
    result = _read_sweep_text(tmp_path, SIX_COLUMNS.replace("\n", ",note\n")
                              + "0.5,2,seg+fd,0.9,0.8,ok,x\n"
                              "0.5,3,seg+fd,nan,nan,aborted: nan,y\n")
    assert result.rows[0] == SweepRow(0.5, 2, "seg+fd", 0.9, 0.8, "ok")
    assert result.rows[1].status == "aborted: nan"
