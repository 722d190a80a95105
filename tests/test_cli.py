"""End-to-end tests of the command line driver: exit codes, manifest policy,
artifact schemas, and byte-level reproducibility of reports."""
import json
import os
import re

import pytest

from fdseg.cli import main
from fdseg.sweeps import SweepResult, SweepRow, read_sweep_csv, write_sweep_csv
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
