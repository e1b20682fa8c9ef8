"""Command-line entry point.

Subcommands: train, fmc, transients, props, report.  Configs are JSON
documents validated field-by-field (unknown keys are rejected); outputs
are CSV curves and JSON reports meant for external plotting.

Exit codes: 0 success, 1 configuration error, 2 numerical failure
(divergence or series non-convergence).
"""

import argparse
import csv
import json
import os
import sys

import numpy as np

from . import analysis, memory, propcheck, schur, tasks
from .optim import DivergenceError, TrainConfig, train_loop, write_log_csv
from .rnn import init_model

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


def _check_keys(doc, allowed, required, where):
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# --- train --------------------------------------------------------------------

_TRAIN_KEYS = {
    "lr", "lr_orth", "rms_alpha", "delta", "t_decay", "gamma_mode",
    "gamma_clamp", "batch_size", "max_updates", "log_every",
}


def _build_task(doc, batch_size, seed):
    _check_keys(doc, {"kind", "delay", "corpus", "window"}, {"kind"}, "task")
    kind = doc["kind"]
    if kind == "char_lm" and "corpus" not in doc:
        raise ConfigError("task: char_lm requires a corpus path")
    try:
        if kind == "copy":
            spec = tasks.CopyTaskSpec(
                delay=int(doc.get("delay", 50)),
                batch_size=batch_size,
                seed=seed,
            )
            return tasks.copy_stream(spec), tasks.COPY_D_IN, tasks.COPY_D_OUT
        if kind == "char_lm":
            spec = tasks.CharLmSpec(
                corpus_path=doc["corpus"],
                window=int(doc.get("window", 150)),
                batch_size=batch_size,
                seed=seed,
            )
            return tasks.char_lm_stream(spec), spec.vocab_size, spec.vocab_size
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"task: {exc}")
    raise ConfigError(f"task: unknown kind {kind!r}")


def cmd_train(config_path, out_dir, seed_override):
    doc = _load_json(config_path)
    _check_keys(doc, {"task", "model", "train", "seed"}, {"task", "model"},
                "config")
    seed = int(seed_override if seed_override is not None else doc.get("seed", 0))

    model_doc = doc["model"]
    _check_keys(model_doc, {"n", "cell_kind", "scheme"}, {"n"}, "model")
    train_doc = doc.get("train", {})
    _check_keys(train_doc, _TRAIN_KEYS, set(), "train")
    try:
        config = TrainConfig(**train_doc)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"train: {exc}")

    stream, d_in, d_out = _build_task(doc["task"], config.batch_size, seed)
    try:
        model = init_model(
            n=int(model_doc["n"]),
            d_in=d_in,
            d_out=d_out,
            cell_kind=model_doc.get("cell_kind", "schur"),
            scheme=model_doc.get("scheme", "henaff"),
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"model: {exc}")

    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "train_log.csv")
    try:
        result = train_loop(model, stream, config)
    except DivergenceError as exc:
        write_log_csv(exc.records, log_path)
        raise
    write_log_csv(result.records, log_path)
    if model.cell_kind == "schur":
        schur.save_checkpoint(
            model.schur, os.path.join(out_dir, "checkpoint.json"),
            scheme=model_doc.get("scheme", "henaff"), seed=seed,
        )
        report = analysis.connectivity_report(model.schur)
        analysis.write_report_json(
            report, os.path.join(out_dir, "connectivity_report.json"))
        analysis.write_profile_csv(
            report, os.path.join(out_dir, "subdiag_profile.csv"))
    return 0


# --- fmc ----------------------------------------------------------------------

_FMC_ROW_KEYS = {"n", "d", "alpha", "beta", "eps", "k_max"}


def cmd_fmc(config_path, out_dir, seed_override):
    doc = _load_json(config_path)
    _check_keys(doc, {"sweep"}, {"sweep"}, "config")
    if not isinstance(doc["sweep"], list):
        raise ConfigError("sweep must be a list")

    os.makedirs(out_dir, exist_ok=True)
    summary = []
    worst = 0
    for i, row in enumerate(doc["sweep"]):
        _check_keys(row, _FMC_ROW_KEYS, {"n"}, f"sweep[{i}]")
        try:
            cfg = memory.FmcConfig(
                n=int(row["n"]),
                d=float(row.get("d", 0.0)),
                alpha=float(row.get("alpha", 1.0)),
                beta=float(row.get("beta", 0.0)),
                eps=float(row.get("eps", 1.0)),
                k_max=int(row.get("k_max", 0)),
            )
        except ValueError as exc:
            raise ConfigError(f"sweep[{i}]: {exc}")
        try:
            res = memory.fisher_memory_curve(cfg)
        except DivergenceError:
            summary.append([i, cfg.n, repr(cfg.d), repr(cfg.alpha),
                            repr(cfg.beta), "", "diverged"])
            worst = 2
            continue
        _write_csv(
            os.path.join(out_dir, f"fmc_{i:02d}.csv"),
            ["k", "j"],
            [[k, repr(float(j))] for k, j in enumerate(res.j_curve)],
        )
        summary.append([i, cfg.n, repr(cfg.d), repr(cfg.alpha),
                        repr(cfg.beta), repr(res.j_tot), "ok"])
    _write_csv(
        os.path.join(out_dir, "fmc_summary.csv"),
        ["row", "n", "d", "alpha", "beta", "j_tot", "status"],
        summary,
    )
    return worst


# --- transients ---------------------------------------------------------------

def cmd_transients(config_path, out_dir, seed_override):
    doc = _load_json(config_path)
    _check_keys(doc, {"configs", "n_samples", "t_max", "seed"},
                {"configs"}, "config")
    seed = int(seed_override if seed_override is not None else doc.get("seed", 0))
    n_samples = int(doc.get("n_samples", 1000))
    t_max = doc.get("t_max")

    os.makedirs(out_dir, exist_ok=True)
    for i, row in enumerate(doc["configs"]):
        _check_keys(row, {"n", "d", "alpha", "beta"}, {"n"}, f"configs[{i}]")
        cfg = memory.FmcConfig(
            n=int(row["n"]),
            d=float(row.get("d", 0.0)),
            alpha=float(row.get("alpha", 1.0)),
            beta=float(row.get("beta", 0.0)),
        )
        stats = memory.transient_ensemble(
            cfg, n_samples=n_samples,
            t_max=int(t_max) if t_max is not None else None,
            rng_seed=seed,
        )
        _write_csv(
            os.path.join(out_dir, f"transients_{i:02d}.csv"),
            ["t", "unit_std_mean", "unit_std_std", "norm_mean", "norm_std"],
            [
                [int(t), repr(float(a)), repr(float(b)),
                 repr(float(c)), repr(float(d))]
                for t, a, b, c, d in zip(
                    stats.t, stats.unit_std_mean, stats.unit_std_std,
                    stats.norm_mean, stats.norm_std)
            ],
        )
    return 0


# --- props --------------------------------------------------------------------

def cmd_props(config_path, out_dir, seed_override):
    doc = _load_json(config_path)
    _check_keys(doc, {"prop2", "prop1"}, set(), "config")
    os.makedirs(out_dir, exist_ok=True)

    for i, row in enumerate(doc.get("prop2", [{"n": 6, "t_max": 12}])):
        _check_keys(row, {"n", "t_max"}, {"n", "t_max"}, f"prop2[{i}]")
        report = propcheck.verify_prop2(int(row["n"]), int(row["t_max"]))
        with open(os.path.join(out_dir, f"prop2_{i:02d}.json"), "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
        if not report.all_ok:
            return 2

    for i, row in enumerate(doc.get("prop1", [{"n": 8, "alpha": 1.0}])):
        _check_keys(row, {"n", "alpha"}, {"n", "alpha"}, f"prop1[{i}]")
        theta = memory.delay_line_theta(int(row["n"]), float(row["alpha"]))
        try:
            rep = memory.prop1_bound_check(theta)
        except AssertionError:
            return 2
        with open(os.path.join(out_dir, f"prop1_{i:02d}.json"), "w") as fh:
            json.dump(
                {
                    "n": rep.n,
                    "alpha": rep.alpha,
                    "sigma_max": rep.sigma_max,
                    "holds": rep.holds,
                    "j_curve": rep.j_curve.tolist(),
                    "bound": rep.bound.tolist(),
                    "margin": rep.margin.tolist(),
                },
                fh, indent=2,
            )
            fh.write("\n")
    return 0


# --- report -------------------------------------------------------------------

def cmd_report(config_path, out_dir, seed_override):
    try:
        params, _, _ = schur.load_checkpoint(config_path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {config_path}: {exc}")
    os.makedirs(out_dir, exist_ok=True)
    report = analysis.connectivity_report(params)
    analysis.write_report_json(
        report, os.path.join(out_dir, "connectivity_report.json"))
    analysis.write_profile_csv(
        report, os.path.join(out_dir, "subdiag_profile.csv"))
    return 0


_COMMANDS = {
    "train": cmd_train,
    "fmc": cmd_fmc,
    "transients": cmd_transients,
    "props": cmd_props,
    "report": cmd_report,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="schurrnn",
        description="Train and analyze Schur-parametrized recurrent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON config (checkpoint path for `report`)")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    args = parser.parse_args(argv)

    try:
        return _COMMANDS[args.command](args.config, args.out, args.seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
