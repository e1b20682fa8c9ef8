"""Command-line entry point.

Subcommands: train, fmc, transients, props, report.  Configs are JSON
documents validated field-by-field (unknown keys and mistyped values are
rejected); outputs are CSV curves and JSON reports meant for external
plotting.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure (divergence or series non-convergence).
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import typing

import numpy as np

from . import analysis, memory, propcheck, schur, tasks
from .optim import DivergenceError, TrainConfig, train_loop, write_log_csv
from .rnn import init_model

__all__ = ["main", "ConfigError"]


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with an ``error:`` line, like a bad config, so
    exit 2 stays the numerical-failure code."""

    def error(self, message):
        self.exit(1, f"error: {message}\n{self.format_usage()}")


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except ValueError as exc:   # JSONDecodeError, bad UTF-8, huge integers
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


# JSON types a field of each Python type takes; a boolean is none of them.
_JSON_TYPES = {
    int: (int, "an integer"),
    float: ((int, float), "a number"),
    str: (str, "a string"),
    list: (list, "a list"),
    dict: (dict, "an object"),
    typing.Optional[int]: ((int, type(None)), "an integer or null"),
}


def _checked(doc, types, required, where):
    """The JSON object ``doc`` as a dict, after checking that its keys are
    among those of ``types``, that it has every ``required`` key, and that
    each value has its key's type.  Float values come back as floats, and
    must be finite: ``json`` reads ``NaN``, ``Infinity`` and ``1e400``
    without complaint."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object")
    unknown = sorted(set(doc) - set(types))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ConfigError(f"{where}: missing keys {missing}")
    values = {}
    for key, value in doc.items():
        json_type, name = _JSON_TYPES[types[key]]
        if isinstance(value, bool) or not isinstance(value, json_type):
            raise ConfigError(
                f"{where}: {key} must be {name}, not {json.dumps(value)}")
        if types[key] is float:
            try:
                value = float(value)
            except OverflowError:   # an integer beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(
                    f"{where}: {key} must be a finite number, "
                    f"not {json.dumps(doc[key])}")
        values[key] = value
    return values


def _from_doc(cls, doc, where, keys=None):
    """An instance of the dataclass ``cls`` from the JSON object ``doc``.
    The allowed keys are the fields of ``cls`` (those in ``keys``, if
    given), the required keys are the fields without a default, and each
    value must have its field's type; the range checks are the class's
    own."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls)
              if keys is None or f.name in keys]
    values = _checked(
        doc,
        {f.name: hints[f.name] for f in fields},
        {f.name for f in fields if f.default is dataclasses.MISSING},
        where,
    )
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_report(params, out_dir):
    report = analysis.connectivity_report(params)
    analysis.write_report_json(
        report, os.path.join(out_dir, "connectivity_report.json"))
    analysis.write_profile_csv(
        report, os.path.join(out_dir, "subdiag_profile.csv"))


# --- train --------------------------------------------------------------------

def _build_task(doc, batch_size, seed):
    doc = _checked(doc, {"kind": str, "delay": int, "corpus": str,
                         "window": int}, {"kind"}, "task")
    kind = doc["kind"]
    if kind == "char_lm" and "corpus" not in doc:
        raise ConfigError("task: char_lm requires a corpus path")
    try:
        if kind == "copy":
            spec = tasks.CopyTaskSpec(
                delay=doc.get("delay", 50),
                batch_size=batch_size,
                seed=seed,
            )
            return tasks.copy_stream(spec), tasks.COPY_D_IN, tasks.COPY_D_OUT
        if kind == "char_lm":
            spec = tasks.CharLmSpec(
                corpus_path=doc["corpus"],
                window=doc.get("window", 150),
                batch_size=batch_size,
                seed=seed,
            )
            return tasks.char_lm_stream(spec), spec.vocab_size, spec.vocab_size
    except (OSError, ValueError) as exc:
        raise ConfigError(f"task: {exc}")
    raise ConfigError(f"task: unknown kind {kind!r}")


def cmd_train(config_path, out_dir, seed_override):
    doc = _checked(_load_json(config_path),
                   {"task": dict, "model": dict, "train": dict, "seed": int},
                   {"task", "model"}, "config")
    seed = seed_override if seed_override is not None else doc.get("seed", 0)
    model_doc = _checked(doc["model"], {"n": int, "cell_kind": str,
                                        "scheme": str}, {"n"}, "model")
    scheme = model_doc.get("scheme", "henaff")
    config = _from_doc(TrainConfig, doc.get("train", {}), "train")

    stream, d_in, d_out = _build_task(doc["task"], config.batch_size, seed)
    try:
        model = init_model(
            n=model_doc["n"],
            d_in=d_in,
            d_out=d_out,
            cell_kind=model_doc.get("cell_kind", "schur"),
            scheme=scheme,
            seed=seed,
        )
    except ValueError as exc:
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
            scheme=scheme, seed=seed,
        )
        _write_report(model.schur, out_dir)
    return 0


# --- fmc ----------------------------------------------------------------------

def cmd_fmc(config_path, out_dir):
    doc = _checked(_load_json(config_path), {"sweep": list}, {"sweep"},
                   "config")
    # As in cmd_transients, every row is checked before the output
    # directory is made, so a bad value leaves nothing behind.
    configs = [_from_doc(memory.FmcConfig, row, f"sweep[{i}]")
               for i, row in enumerate(doc["sweep"])]

    os.makedirs(out_dir, exist_ok=True)
    summary = []
    worst = 0
    for i, cfg in enumerate(configs):
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
    doc = _checked(_load_json(config_path),
                   {"configs": list, "n_samples": int,
                    "t_max": typing.Optional[int], "seed": int},
                   {"configs"}, "config")
    seed = seed_override if seed_override is not None else doc.get("seed", 0)

    # Every row runs before the output directory is made, so a bad value
    # in any row exits 1 and leaves nothing behind.
    results = []
    for i, row in enumerate(doc["configs"]):
        where = f"configs[{i}]"
        cfg = _from_doc(memory.FmcConfig, row, where,
                        keys={"n", "d", "alpha", "beta"})
        try:
            results.append(memory.transient_ensemble(
                cfg, n_samples=doc.get("n_samples", 1000),
                t_max=doc.get("t_max"), rng_seed=seed))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}")

    os.makedirs(out_dir, exist_ok=True)
    for i, stats in enumerate(results):
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

def _prop_reports(doc):
    """(file name, text) of each proposition report in run order, and the
    exit status: 2 at the first failed check, which ends the run."""
    files = []
    for i, row in enumerate(doc.get("prop2", [{"n": 6, "t_max": 12}])):
        row = _checked(row, {"n": int, "t_max": int}, {"n", "t_max"},
                       f"prop2[{i}]")
        try:
            report = propcheck.verify_prop2(row["n"], row["t_max"])
        except ValueError as exc:
            raise ConfigError(f"prop2[{i}]: {exc}")
        files.append((f"prop2_{i:02d}.json", report.to_json() + "\n"))
        if not report.all_ok:
            return files, 2

    for i, row in enumerate(doc.get("prop1", [{"n": 8, "alpha": 1.0}])):
        row = _checked(row, {"n": int, "alpha": float}, {"n", "alpha"},
                       f"prop1[{i}]")
        try:
            theta = memory.delay_line_theta(row["n"], row["alpha"])
            rep = memory.prop1_bound_check(theta)
        except ValueError as exc:
            raise ConfigError(f"prop1[{i}]: {exc}")
        except AssertionError:
            return files, 2
        text = json.dumps(
            {
                "n": rep.n,
                "alpha": rep.alpha,
                "sigma_max": rep.sigma_max,
                "holds": rep.holds,
                "j_curve": rep.j_curve.tolist(),
                "bound": rep.bound.tolist(),
                "margin": rep.margin.tolist(),
            },
            indent=2,
        )
        files.append((f"prop1_{i:02d}.json", text + "\n"))
    return files, 0


def cmd_props(config_path, out_dir):
    doc = _checked(_load_json(config_path), {"prop2": list, "prop1": list},
                   set(), "config")
    # As in cmd_transients, a bad row exits 1 before anything is written.
    files, status = _prop_reports(doc)
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text)
    return status


# --- report -------------------------------------------------------------------

def cmd_report(config_path, out_dir):
    try:
        params, _, _ = schur.load_checkpoint(config_path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        raise ConfigError(f"cannot load checkpoint {config_path}: {exc}")
    os.makedirs(out_dir, exist_ok=True)
    _write_report(params, out_dir)
    return 0


_COMMANDS = {
    "train": cmd_train,
    "fmc": cmd_fmc,
    "transients": cmd_transients,
    "props": cmd_props,
    "report": cmd_report,
}


def main(argv=None):
    parser = _Parser(
        prog="schurrnn",
        description="Train and analyze Schur-parametrized recurrent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="JSON config (checkpoint path for `report`)")
        p.add_argument("--out", required=True, help="output directory")
        if name in ("train", "transients"):
            p.add_argument("--seed", type=int, default=None,
                           help="override the config seed")
    args = parser.parse_args(argv)
    seed = (args.seed,) if "seed" in args else ()

    # Overflow and NaN are reported by the library's own checks as one
    # DivergenceError, without numpy's warnings ahead of it.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return _COMMANDS[args.command](args.config, args.out, *seed)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
