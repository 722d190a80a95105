"""fdseg command line driver.

Grammar: fdseg <train|gen-data|data-addition|noise-sweep|lemma-checks|report>
         [--config FILE] [--seed N --seeds a,b,c --out DIR --force ...]

Every run writes a manifest.json with the fully resolved configuration so a
rerun from the manifest reproduces identical CSV bytes.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .data import (BASE_SITE, NOVEL_SITE, SiteConfig, generate_site, save_site,
                   split_dataset)
from .sweeps import (NOISE_SWEEP_MODES, SWEEP_SEEDS, SweepSettings,
                     data_addition_sweep, noise_sweep, read_sweep_csv,
                     write_sweep_csv)
from .report import write_sweep_chart
from .tensor import ContractError, DimensionError
from .theory import (lemma1_violation_rate, lemma2_gradient, mediation_mc,
                     weight_norm_experiment)
from .trainer import (LOSS_MODES, TrainConfig, TrainingAborted, evaluate, train,
                      write_eval_csv, write_history_csv)
from .unet import UNetConfig, init_params, save_checkpoint

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3


def _site(name: str, image_size: tuple[int, int]) -> SiteConfig:
    proto = BASE_SITE if name == "base" else NOVEL_SITE
    return dataclasses.replace(proto, image_size=image_size)


def _load_config_file(path: str | None, keys: list[str]) -> dict:
    """Values from a JSON config file, or from the `config` object of a run's
    manifest.json. A key the command does not know is an error."""
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ContractError(f"{path}: config must be a JSON object")
    if isinstance(cfg.get("config"), dict):
        cfg = cfg["config"]
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ContractError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    return cfg


def _resolve(args: argparse.Namespace, keys: list[str],
             defaults: dict) -> dict:
    """Defaults, overridden by config file values, overridden by CLI flags."""
    out = dict(defaults)
    out.update(_load_config_file(getattr(args, "config", None), keys))
    for key in keys:
        flag_val = getattr(args, key, None)
        if flag_val is not None:
            out[key] = flag_val
    return out


def _prepare_out_dir(out: str, force: bool) -> None:
    manifest = os.path.join(out, "manifest.json")
    if os.path.exists(manifest) and not force:
        raise ContractError(
            f"output dir {out} already holds a run; pass --force to overwrite")
    os.makedirs(out, exist_ok=True)


def _write_manifest(out: str, command: str, resolved: dict) -> None:
    payload = {"command": command, "version": __version__, "config": resolved}
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def _parse_seeds(text: str) -> list[int]:
    return [int(s) for s in text.split(",") if s.strip() != ""]


TRAIN_KEYS = ["site", "loss", "seed", "phase1_epochs", "phase2_epochs",
              "batch_size", "lr", "n_samples", "image_size", "depth",
              "base_channels", "noise_sigma", "no_augment"]


def cmd_train(args: argparse.Namespace) -> int:
    tc, uc = TrainConfig(), UNetConfig()
    resolved = _resolve(args, TRAIN_KEYS, {
        "site": "base", "loss": tc.loss_mode, "seed": tc.seed,
        "phase1_epochs": tc.phase1_epochs, "phase2_epochs": tc.phase2_epochs,
        "batch_size": tc.batch_size, "lr": tc.lr, "n_samples": 40,
        "image_size": uc.image_size[0], "depth": uc.depth,
        "base_channels": uc.base_channels, "noise_sigma": tc.noise_sigma,
        "no_augment": not tc.augment_train})

    _prepare_out_dir(args.out, args.force)
    _write_manifest(args.out, "train", resolved)

    size = (resolved["image_size"], resolved["image_size"])
    site = _site(resolved["site"], size)
    samples = generate_site(site, resolved["n_samples"], seed=1234)
    train_s, test_s, val_s = split_dataset(samples, seed=1234)

    cfg = TrainConfig(phase1_epochs=resolved["phase1_epochs"],
                      phase2_epochs=resolved["phase2_epochs"],
                      batch_size=resolved["batch_size"], lr=resolved["lr"],
                      seed=resolved["seed"], loss_mode=resolved["loss"],
                      augment_train=not resolved["no_augment"],
                      noise_sigma=resolved["noise_sigma"])
    model = init_params(UNetConfig(depth=resolved["depth"],
                                   base_channels=resolved["base_channels"],
                                   image_size=size), seed=resolved["seed"])
    try:
        best, history = train(cfg, model,
                              {"train": train_s, "val": val_s, "test": test_s})
    except TrainingAborted as exc:
        if exc.last_good is not None:
            save_checkpoint(exc.last_good, os.path.join(args.out, "last_good.ckpt"))
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_ABORT

    save_checkpoint(best, os.path.join(args.out, "model.ckpt"))
    write_history_csv(os.path.join(args.out, "history.csv"), history,
                      model.config.tap_names())
    records = evaluate(best, test_s)
    write_eval_csv(os.path.join(args.out, "evaluation.csv"), records)
    print(f"test dice (mean): {np.mean([r.dice for r in records]):.4f}")
    return EXIT_OK


def cmd_gen_data(args: argparse.Namespace) -> int:
    resolved = _resolve(args, ["site", "n_samples", "seed", "image_size"],
                        {"site": "base", "n_samples": 40, "seed": 1234,
                         "image_size": BASE_SITE.image_size[0]})
    _prepare_out_dir(args.out, args.force)
    _write_manifest(args.out, "gen-data", resolved)
    size = (resolved["image_size"], resolved["image_size"])
    site = _site(resolved["site"], size)
    samples = generate_site(site, resolved["n_samples"], resolved["seed"])
    site_dir = save_site(samples, site, args.out)
    print(f"wrote {len(samples)} samples to {site_dir}")
    return EXIT_OK


SWEEP_KEYS = ["seeds", "n_base", "n_novel", "phase1_epochs", "phase2_epochs",
              "batch_size", "lr", "image_size", "loss_modes",
              "cap_novel_at_base", "no_augment"]


def _sweep_settings(resolved: dict) -> SweepSettings:
    size = (resolved["image_size"], resolved["image_size"])
    return SweepSettings(base_site=_site("base", size),
                         novel_site=_site("novel", size),
                         n_base=resolved["n_base"], n_novel=resolved["n_novel"],
                         phase1_epochs=resolved["phase1_epochs"],
                         phase2_epochs=resolved["phase2_epochs"],
                         batch_size=resolved["batch_size"], lr=resolved["lr"],
                         augment_train=not resolved["no_augment"],
                         cap_novel_at_base=resolved.get("cap_novel_at_base", False))


def _resolve_sweep(args: argparse.Namespace, loss_modes) -> dict:
    ss = SweepSettings()
    return _resolve(args, SWEEP_KEYS, {
        "seeds": ",".join(map(str, SWEEP_SEEDS)), "n_base": ss.n_base,
        "n_novel": ss.n_novel, "phase1_epochs": ss.phase1_epochs,
        "phase2_epochs": ss.phase2_epochs, "batch_size": ss.batch_size,
        "lr": ss.lr, "image_size": 32, "no_augment": not ss.augment_train,
        "loss_modes": ",".join(loss_modes)})


def cmd_data_addition(args: argparse.Namespace) -> int:
    resolved = _resolve_sweep(args, LOSS_MODES)
    _prepare_out_dir(args.out, args.force)
    _write_manifest(args.out, "data-addition", resolved)
    settings = _sweep_settings(resolved)
    result = data_addition_sweep(settings,
                                 loss_modes=resolved["loss_modes"].split(","),
                                 seeds=_parse_seeds(resolved["seeds"]))
    csv_path = os.path.join(args.out, "data_addition.csv")
    write_sweep_csv(csv_path, result)
    write_sweep_chart(result, os.path.join(args.out, "data_addition.svg"),
                      title="Base-test Dice vs novel-data fraction",
                      x_label="fraction of novel training data")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_noise_sweep(args: argparse.Namespace) -> int:
    resolved = _resolve_sweep(args, NOISE_SWEEP_MODES)
    _prepare_out_dir(args.out, args.force)
    _write_manifest(args.out, "noise-sweep", resolved)
    settings = _sweep_settings(resolved)
    result = noise_sweep(settings, loss_modes=resolved["loss_modes"].split(","),
                         seeds=_parse_seeds(resolved["seeds"]))
    csv_path = os.path.join(args.out, "noise_sweep.csv")
    write_sweep_csv(csv_path, result)
    write_sweep_chart(result, os.path.join(args.out, "noise_sweep.svg"),
                      title="Base-test Dice vs training noise sigma",
                      x_label="noise sigma")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_lemma_checks(args: argparse.Namespace) -> int:
    resolved = _resolve(args, ["seed", "lemma1_samples", "mediation_a",
                               "mediation_b", "mediation_n"],
                        {"seed": 0, "lemma1_samples": 100, "mediation_a": 1.0,
                         "mediation_b": 1.0, "mediation_n": 100_000})
    _prepare_out_dir(args.out, args.force)
    _write_manifest(args.out, "lemma-checks", resolved)

    rng = np.random.default_rng(resolved["seed"])
    reports = []
    failed = False

    lemma1 = lemma1_violation_rate(resolved["lemma1_samples"],
                                   seed=resolved["seed"])
    lemma1["holds"] = True  # reporting-only check
    reports.append(lemma1)

    w = rng.normal(size=(4, 4))
    dx = rng.normal(size=(4, 4))
    rep2 = lemma2_gradient(w, dx)
    ok2 = (rep2.max_rel_error < 1e-5
           and rep2.scale_dx_invariance_error < 1e-10
           and rep2.scale_w_ratio_error < 1e-10)
    failed |= not ok2
    reports.append({"check": "lemma2_gradient",
                    "params": {"d": 4},
                    "result": {"max_rel_error": rep2.max_rel_error,
                               "scale_dx_invariance_error":
                                   rep2.scale_dx_invariance_error,
                               "scale_w_ratio_error": rep2.scale_w_ratio_error},
                    "holds": ok2})

    wn = weight_norm_experiment(d=4, steps=500, lr=0.01, seeds=(0, 1, 2, 3, 4))
    ok_wn = all(nl < nlin for nl, nlin in zip(wn.norm_log, wn.norm_linear))
    failed |= not ok_wn
    reports.append({"check": "weight_norm", "params": {"d": 4, "steps": 500},
                    "result": {"norm_log": wn.norm_log,
                               "norm_linear": wn.norm_linear,
                               "diverged": wn.diverged},
                    "holds": ok_wn})

    a, b = resolved["mediation_a"], resolved["mediation_b"]
    slope, var = mediation_mc(a, b, resolved["mediation_n"], resolved["seed"])
    tol_slope = 3.0 / np.sqrt(resolved["mediation_n"]) * 10
    ok_med = (abs(slope - a * b) < max(0.03, tol_slope)
              and abs(var - (1 + b * b)) < 0.05 * max(1.0, 1 + b * b))
    failed |= not ok_med
    reports.append({"check": "mediation",
                    "params": {"a": a, "b": b, "n": resolved["mediation_n"]},
                    "result": {"slope_hat": slope, "var_hat": var},
                    "holds": ok_med})

    with open(os.path.join(args.out, "lemma_reports.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
    for rep in reports:
        print(f"{rep['check']}: {'ok' if rep.get('holds') else 'FAIL'}")
    return EXIT_PROPERTY_FAIL if failed else EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    for csv_path in args.csv:
        result = read_sweep_csv(csv_path)
        if not result.rows:
            raise ValueError(f"{csv_path}: empty sweep, nothing to plot")
        out_path = os.path.splitext(csv_path)[0] + ".svg"
        write_sweep_chart(result, out_path,
                          title=os.path.basename(os.path.splitext(csv_path)[0]))
        print(f"wrote {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdseg")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing run directory")

    p = sub.add_parser("train", help="train one model on one synthetic site")
    common(p)
    p.add_argument("--site", choices=["base", "novel"])
    p.add_argument("--loss", choices=LOSS_MODES)
    p.add_argument("--seed", type=int)
    p.add_argument("--phase1-epochs", dest="phase1_epochs", type=int)
    p.add_argument("--phase2-epochs", dest="phase2_epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--image-size", dest="image_size", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--base-channels", dest="base_channels", type=int)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
    p.add_argument("--no-augment", dest="no_augment", action="store_true",
                   default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("gen-data", help="write a synthetic site as PGM files")
    common(p)
    p.add_argument("--site", choices=["base", "novel"])
    p.add_argument("--n-samples", dest="n_samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--image-size", dest="image_size", type=int)
    p.set_defaults(fn=cmd_gen_data)

    for name, fn in (("data-addition", cmd_data_addition),
                     ("noise-sweep", cmd_noise_sweep)):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--seeds", help="comma-separated seed list")
        p.add_argument("--loss-modes", dest="loss_modes")
        p.add_argument("--n-base", dest="n_base", type=int)
        p.add_argument("--n-novel", dest="n_novel", type=int)
        p.add_argument("--phase1-epochs", dest="phase1_epochs", type=int)
        p.add_argument("--phase2-epochs", dest="phase2_epochs", type=int)
        p.add_argument("--batch-size", dest="batch_size", type=int)
        p.add_argument("--lr", type=float)
        p.add_argument("--image-size", dest="image_size", type=int)
        p.add_argument("--cap-novel-at-base", dest="cap_novel_at_base",
                       action="store_true", default=None)
        p.add_argument("--no-augment", dest="no_augment", action="store_true",
                       default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("lemma-checks", help="run the theory checks")
    common(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--lemma1-samples", dest="lemma1_samples", type=int)
    p.add_argument("--mediation-a", dest="mediation_a", type=float)
    p.add_argument("--mediation-b", dest="mediation_b", type=float)
    p.add_argument("--mediation-n", dest="mediation_n", type=int)
    p.set_defaults(fn=cmd_lemma_checks)

    p = sub.add_parser("report", help="re-plot sweep CSVs as SVG charts")
    p.add_argument("csv", nargs="+", help="sweep CSV files")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ContractError, DimensionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
