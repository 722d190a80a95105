"""fdseg command line driver.

Grammar: fdseg <train|gen-data|data-addition|noise-sweep|lemma-checks|report>
         [--config FILE] [--seed N --seeds a,b,c --out DIR --force ...]

Each command's settings are one table mapping a key to its default. The table
gives the flags (`--key-with-dashes`, typed like the default; a bool default
is a switch), the keys and JSON types a --config file may hold, and the keys
of the manifest. Every run writes a manifest.json with the fully resolved
configuration so a rerun from the manifest reproduces identical CSV bytes.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import glob
import json
import os
import sys
from typing import Callable

import numpy as np

from . import __version__
from .data import (BASE_SITE, DATA_SEED, IMAGE_SIZE, NOVEL_SITE, SITES,
                   SiteConfig, generate_site, save_site, split_dataset)
from .sweeps import (DATA_ADDITION_FRACTIONS, NOISE_SWEEP_GRID,
                     NOISE_SWEEP_MODES, SWEEP_SEEDS, SweepSettings,
                     check_settings, data_addition_sweep, noise_sweep,
                     pool_runtime, read_sweep_csv, write_sweep_csv)
from .report import write_sweep_chart
from .tensor import ContractError, DimensionError
from .theory import (MEDIATION_MIN_SAMPLES, WEIGHT_NORM_D, WEIGHT_NORM_STEPS,
                     lemma1_violation_rate, lemma2_gradient, mediation_mc,
                     weight_norm_experiment)
from .trainer import (LOSS_MODES, TrainConfig, TrainingAborted, blas_threads,
                      evaluate, train, write_eval_csv, write_history_csv)
from .unet import UNetConfig, init_params, save_checkpoint

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_CONFIG = 2
EXIT_ABORT = 3


_TC, _UC, _SS = TrainConfig(), UNetConfig(), SweepSettings()
# Settings passed by name to TrainConfig / SweepSettings, whose defaults they keep.
_TRAIN_FIELDS = ("seed", "phase1_epochs", "phase2_epochs", "batch_size", "lr",
                 "noise_sigma")
_SWEEP_FIELDS = ("n_base", "n_novel", "phase1_epochs", "phase2_epochs",
                 "batch_size", "lr", "cap_novel_at_base")

TRAIN_SETTINGS = {"site": BASE_SITE.name, "loss": _TC.loss_mode,
                  "n_samples": 40, "image_size": IMAGE_SIZE[0],
                  "depth": _UC.depth, "base_channels": _UC.base_channels,
                  "no_augment": not _TC.augment_train,
                  **{k: getattr(_TC, k) for k in _TRAIN_FIELDS}}
GEN_DATA_SETTINGS = {"site": BASE_SITE.name, "n_samples": 40,
                     "seed": DATA_SEED, "image_size": IMAGE_SIZE[0]}
SWEEP_SETTINGS = {"seeds": ",".join(map(str, SWEEP_SEEDS)),
                  "image_size": _SS.base_site.image_size[0],
                  "no_augment": not _SS.augment_train,
                  **{k: getattr(_SS, k) for k in _SWEEP_FIELDS}}
LEMMA_SETTINGS = {"seed": 0, "lemma1_samples": 100, "mediation_a": 1.0,
                  "mediation_b": 1.0, "mediation_n": 100_000}
CHOICES = {"site": tuple(SITES), "loss": LOSS_MODES}
_JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string"}


def _site(name: str, cfg: dict) -> SiteConfig:
    return dataclasses.replace(SITES[name], image_size=(cfg["image_size"],) * 2)


def _typed(path: str, key: str, value, default):
    """A config-file value, checked against its setting's default type and
    choices; an integer is accepted for a float setting."""
    kind, choices = type(default), CHOICES.get(key)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (choices and value not in choices):
        want = (f"one of {', '.join(choices)}" if choices
                else f"a JSON {_JSON_TYPES[kind]}")
        raise ContractError(f"{path}: config key {key} must be {want}, "
                            f"got {value!r}")
    return value


def _load_config_file(path: str | None, command: str, settings: dict) -> dict:
    """Values from a JSON config file, or from the `config` object of a run's
    manifest.json. A manifest of another command, a key the command does not
    know, or a value whose type differs from its setting's, is an error."""
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ContractError(f"{path}: config must be a JSON object")
    if isinstance(cfg.get("config"), dict):
        if cfg.get("command", command) != command:
            raise ContractError(f"{path}: a manifest of {cfg['command']}, "
                                f"not of {command}")
        cfg = cfg["config"]
    unknown = sorted(set(cfg) - set(settings))
    if unknown:
        raise ContractError(f"{path}: unknown config key(s) {', '.join(unknown)}")
    return {k: _typed(path, k, v, settings[k]) for k, v in cfg.items()}


def _resolve(args: argparse.Namespace, settings: dict) -> dict:
    """Defaults, overridden by config file values, overridden by CLI flags."""
    out = dict(settings)
    out.update(_load_config_file(args.config, args.command, settings))
    for key in settings:
        flag_val = getattr(args, key)
        if flag_val is not None:
            out[key] = flag_val
    return out


# What the commands write in a run directory besides manifest.json; gen-data
# writes a site directory, named as its SITES key, of PGM files and site.json.
RUN_OUTPUTS = ("model.ckpt", "last_good.ckpt", "history.csv", "evaluation.csv",
               "data_addition.csv", "data_addition.svg", "noise_sweep.csv",
               "noise_sweep.svg", "lemma_reports.json")


def _prepare_out_dir(out: str, force: bool) -> None:
    """With force, first remove every file a command writes in `out`, so none
    of the replaced run's outputs is left beside the new manifest; any other
    file stays."""
    manifest = os.path.join(out, "manifest.json")
    if os.path.exists(manifest) and not force:
        raise ContractError(
            f"output dir {out} already holds a run; pass --force to overwrite")
    os.makedirs(out, exist_ok=True)
    if force:
        stale = [os.path.join(out, name) for name in RUN_OUTPUTS]
        for site in SITES:
            stale.append(os.path.join(out, site, "site.json"))
            for sub in ("images", "masks"):
                stale += glob.glob(os.path.join(glob.escape(out), site, sub, "*.pgm"))
        for path in stale:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)


def _write_manifest(out: str, command: str, resolved: dict,
                    runtime: dict | None) -> None:
    """`config` is what a rerun reads back; `runtime`, when given, records how
    the run was executed and is never read back."""
    payload = {"command": command, "version": __version__, "config": resolved}
    if runtime is not None:
        payload["runtime"] = runtime
    with open(os.path.join(out, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


Job = Callable[[str], int]   # runs a checked command in its output dir
Checked = tuple[Job, dict | None]   # the job, and its manifest runtime record


def cmd_train(cfg: dict) -> Checked:
    site = _site(cfg["site"], cfg)
    tc = TrainConfig(loss_mode=cfg["loss"], augment_train=not cfg["no_augment"],
                     **{k: cfg[k] for k in _TRAIN_FIELDS})
    uc = UNetConfig(depth=cfg["depth"], base_channels=cfg["base_channels"],
                    image_size=site.image_size)
    split_dataset(range(cfg["n_samples"]))  # partition sizes only; no site drawn

    def job(out: str) -> int:
        samples = generate_site(site, cfg["n_samples"], seed=DATA_SEED)
        train_s, test_s, val_s = split_dataset(samples, seed=DATA_SEED)
        model = init_params(uc, seed=cfg["seed"])
        try:
            best, history = train(tc, model, {"train": train_s, "val": val_s})
        except TrainingAborted as exc:
            save_checkpoint(exc.last_good, os.path.join(out, "last_good.ckpt"))
            print(f"training aborted: {exc}", file=sys.stderr)
            return EXIT_ABORT

        save_checkpoint(best, os.path.join(out, "model.ckpt"))
        write_history_csv(os.path.join(out, "history.csv"), history,
                          model.config.tap_names())
        records = evaluate(best, test_s)
        write_eval_csv(os.path.join(out, "evaluation.csv"), records)
        print(f"test dice (mean): {np.mean([r.dice for r in records]):.4f}")
        return EXIT_OK
    return job, {"blas_threads": blas_threads()}


def cmd_gen_data(cfg: dict) -> Checked:
    site = _site(cfg["site"], cfg)
    samples = generate_site(site, cfg["n_samples"], cfg["seed"])

    def job(out: str) -> int:
        site_dir = save_site(samples, site, out)
        print(f"wrote {len(samples)} samples to {site_dir}")
        return EXIT_OK
    return job, None


# command -> (sweep function, condition grid, default loss modes, chart title
#             (the command's help too), chart x label)
SWEEPS = {
    "data-addition": (data_addition_sweep, DATA_ADDITION_FRACTIONS, LOSS_MODES,
                      "Base-test Dice vs novel-data fraction",
                      "fraction of novel training data"),
    "noise-sweep": (noise_sweep, NOISE_SWEEP_GRID, NOISE_SWEEP_MODES,
                    "Base-test Dice vs training noise sigma", "noise sigma"),
}


def cmd_sweep(name: str, cfg: dict) -> Checked:
    sweep, grid, *_ = SWEEPS[name]
    settings = SweepSettings(base_site=_site(BASE_SITE.name, cfg),
                             novel_site=_site(NOVEL_SITE.name, cfg),
                             augment_train=not cfg["no_augment"],
                             **{k: cfg[k] for k in _SWEEP_FIELDS})
    loss_modes = cfg["loss_modes"].split(",")
    seeds = [int(s) for s in cfg["seeds"].split(",") if s.strip()]
    check_settings(settings, grid, loss_modes, seeds)

    def job(out: str) -> int:
        result = sweep(settings, grid, loss_modes=loss_modes, seeds=seeds)
        csv_path = os.path.join(out, name.replace("-", "_") + ".csv")
        write_sweep_csv(csv_path, result)
        print(f"wrote {csv_path}")
        kinds = [r.status.split(":")[0] for r in result.rows]
        if "ok" not in kinds:       # no cell left a score to chart
            print(f"every cell failed: {kinds.count('aborted')} aborted, "
                  f"{kinds.count('error')} errored", file=sys.stderr)
            return EXIT_ABORT
        write_chart(csv_path)
        return EXIT_OK
    return job, pool_runtime(len(grid) * len(loss_modes) * len(seeds))


def write_chart(csv_path: str) -> None:
    """Chart a sweep CSV beside it, titled as its sweep, else by its name."""
    stem = os.path.splitext(csv_path)[0]
    name = os.path.basename(stem)
    *_, title, x_label = SWEEPS.get(name.replace("_", "-"), (name, "condition"))
    write_sweep_chart(read_sweep_csv(csv_path), stem + ".svg", title, x_label)
    print(f"wrote {stem}.svg")


def cmd_lemma_checks(cfg: dict) -> Checked:
    for key, least in (("lemma1_samples", 1),
                       ("mediation_n", MEDIATION_MIN_SAMPLES)):
        if cfg[key] < least:
            raise ContractError(f"{key} must be >= {least}, got {cfg[key]}")
    return functools.partial(_lemma_checks, cfg), None


def _lemma_checks(cfg: dict, out: str) -> int:
    rng = np.random.default_rng(cfg["seed"])
    lemma1 = lemma1_violation_rate(cfg["lemma1_samples"], seed=cfg["seed"])
    w = rng.normal(size=(4, 4))
    dx = rng.normal(size=(4, 4))
    rep2 = lemma2_gradient(w, dx)
    wn = weight_norm_experiment()
    a, b = cfg["mediation_a"], cfg["mediation_b"]
    slope, var = mediation_mc(a, b, cfg["mediation_n"], cfg["seed"])
    tol_slope = 3.0 / np.sqrt(cfg["mediation_n"]) * 10
    reports = [
        {**lemma1, "holds": True},      # reporting-only check
        {"check": "lemma2_gradient",
         "params": {"d": 4},
         "result": {"max_rel_error": rep2.max_rel_error,
                    "scale_dx_invariance_error": rep2.scale_dx_invariance_error,
                    "scale_w_ratio_error": rep2.scale_w_ratio_error},
         "holds": (rep2.max_rel_error < 1e-5
                   and rep2.scale_dx_invariance_error < 1e-10
                   and rep2.scale_w_ratio_error < 1e-10)},
        {"check": "weight_norm",
         "params": {"d": WEIGHT_NORM_D, "steps": WEIGHT_NORM_STEPS},
         "result": dataclasses.asdict(wn),
         "holds": all(nl < nlin for nl, nlin in zip(wn.norm_log,
                                                    wn.norm_linear))},
        {"check": "mediation",
         "params": {"a": a, "b": b, "n": cfg["mediation_n"]},
         "result": {"slope_hat": slope, "var_hat": var},
         "holds": bool(abs(slope - a * b) < max(0.03, tol_slope)
                       and abs(var - (1 + b * b)) < 0.05 * max(1.0, 1 + b * b))},
    ]
    with open(os.path.join(out, "lemma_reports.json"), "w",
              encoding="utf-8") as fh:
        json.dump(reports, fh, indent=2, sort_keys=True)
    for rep in reports:
        print(f"{rep['check']}: {'ok' if rep['holds'] else 'FAIL'}")
    return EXIT_OK if all(rep["holds"] for rep in reports) else EXIT_PROPERTY_FAIL


def cmd_report(args: argparse.Namespace) -> int:
    for csv_path in args.csv:
        write_chart(csv_path)
    return EXIT_OK


# command -> (function that checks the resolved settings, building every
#             config they give (gen-data draws its site here), and returns
#             the job and its runtime record; settings table; help)
COMMANDS = {
    "train": (cmd_train, TRAIN_SETTINGS, "train one model on one synthetic site"),
    "gen-data": (cmd_gen_data, GEN_DATA_SETTINGS,
                 "write a synthetic site as PGM files"),
    **{name: (functools.partial(cmd_sweep, name),
              {**SWEEP_SETTINGS, "loss_modes": ",".join(modes)},
              f"measure {title[0].lower()}{title[1:]}")
       for name, (_, _, modes, title, _) in SWEEPS.items()},
    "lemma-checks": (cmd_lemma_checks, LEMMA_SETTINGS, "run the theory checks"),
}


def _run(args: argparse.Namespace) -> int:
    check, settings, _ = COMMANDS[args.command]
    cfg = _resolve(args, settings)
    job, runtime = check(cfg)   # a bad setting fails here, before the manifest
    _prepare_out_dir(args.out, args.force)
    _write_manifest(args.out, args.command, cfg, runtime)
    return job(args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fdseg")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, settings, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--force", action="store_true",
                       help="overwrite an existing run directory")
        for key, default in settings.items():
            flag = "--" + key.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=type(default), choices=CHOICES.get(key),
                               help=f"default: {default}")
        p.set_defaults(run=_run)

    p = sub.add_parser("report", help="re-plot sweep CSVs as SVG charts")
    p.add_argument("csv", nargs="+", help="sweep CSV files")
    p.set_defaults(run=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (ContractError, DimensionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
