"""Command-line entry point.

Subcommands: train, fmc, transients, props, report.  Configs are JSON
documents validated field-by-field (unknown keys and mistyped values are
rejected); outputs are CSV curves and JSON reports meant for external
plotting.  A file that holds one result record takes its keys, or its CSV
columns, from that record's dataclass fields, in field order; this module
keeps only the file names and the encoding (``csv.writer``, which writes
floats as their shortest round-trip repr, and JSON with indent 2, arrays
as lists).  Each command checks its config, computes every result in
memory and returns its files, as text keyed by file name, with its
failure or ``None``; it writes nothing.  :func:`main` writes the files
with one call to :func:`_write`, the checkpoint among them, into an
``--out`` that holds no files yet, and turns the outcome into an exit
code.  Each command imports the library modules it runs, and no others,
when it is called.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure (divergence or series non-convergence).
"""

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import sys
import typing

import numpy as np

from . import DivergenceError

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
    # JSONDecodeError, bad UTF-8, huge integers; deep nesting
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}")


@contextlib.contextmanager
def _named(where):
    """A ``ValueError`` the library raises on a checked value, or a
    ``MemoryError`` from a size it cannot allocate, becomes a
    :class:`ConfigError` that names ``where``."""
    try:
        yield
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{where}: {exc}")


def _quoted(value):
    """``value`` as JSON, cut to 60 characters and ``...``."""
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:60] + "..."


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
                f"{where}: {key} must be {name}, not {_quoted(value)}")
        if types[key] is float:
            try:
                value = float(value)
            except OverflowError:   # an integer beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(
                    f"{where}: {key} must be a finite number, "
                    f"not {_quoted(doc[key])}")
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
    with _named(where):
        return cls(**values)


def _seed(doc, override):
    """The run's seed: ``override`` (``--seed``) if given, else the config's
    ``seed``, else 0."""
    seed = override if override is not None else doc.get("seed", 0)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, not {seed}")
    return seed


# --- output files -------------------------------------------------------------

def _csv_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(doc):
    """``doc`` as indented JSON; numpy arrays and scalars as lists and
    numbers."""
    return json.dumps(doc, indent=2, default=lambda a: a.tolist()) + "\n"


def _write(out_dir, files):
    """Write each file name's text in ``files`` into ``out_dir``, which is
    made if need be."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, text in files.items():
            with open(os.path.join(out_dir, name), "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write to --out {out_dir}: {exc}")


def _report_files(params):
    """The connectivity report of ``params`` and its sub-diagonal profile,
    as (k, mean_abs) rows for plotting."""
    from . import analysis

    rep = analysis.connectivity_report(params)
    return {
        "connectivity_report.json": _json_text(vars(rep)),
        "subdiag_profile.csv": _csv_text(
            ["k", "mean_abs"], enumerate(rep.subdiag_profile, start=1)),
    }


# --- train --------------------------------------------------------------------

# The keys each task kind reads, with their types.
_TASK_KEYS = {"copy": {"kind": str, "delay": int},
              "char_lm": {"kind": str, "corpus": str, "window": int}}


def _build_task(doc, batch_size, seed):
    from . import tasks

    kind = _checked(doc, {k: t for keys in _TASK_KEYS.values()
                          for k, t in keys.items()}, {"kind"}, "task")["kind"]
    if kind not in _TASK_KEYS:
        raise ConfigError(f"task: unknown kind {kind!r}")
    doc = _checked(doc, _TASK_KEYS[kind], {"kind"}, f"task of kind {kind!r}")
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
        spec = tasks.CharLmSpec(
            corpus_path=doc["corpus"],
            window=doc.get("window", 150),
            batch_size=batch_size,
            seed=seed,
        )
        return tasks.char_lm_stream(spec), spec.vocab_size, spec.vocab_size
    except (OSError, ValueError) as exc:
        raise ConfigError(f"task: {exc}")


def _log_text(records):
    from .optim import LogRecord

    return _csv_text([f.name for f in dataclasses.fields(LogRecord)],
                     map(dataclasses.astuple, records))


def cmd_train(config_path, seed_override):
    from .optim import TrainConfig, train_loop
    from .rnn import init_model
    from .schur import checkpoint_text

    doc = _checked(_load_json(config_path),
                   {"task": dict, "model": dict, "train": dict, "seed": int},
                   {"task", "model"}, "config")
    seed = _seed(doc, seed_override)
    model_doc = _checked(doc["model"], {"n": int, "scheme": str}, {"n"},
                         "model")
    scheme = model_doc.get("scheme", "henaff")
    config = _from_doc(TrainConfig, doc.get("train", {}), "train")

    stream, d_in, d_out = _build_task(doc["task"], config.batch_size, seed)
    with _named("model"):
        model = init_model(
            n=model_doc["n"],
            d_in=d_in,
            d_out=d_out,
            scheme=scheme,
            seed=seed,
        )

    # A value too large for the task's batches fails on the first one.
    size_key = "delay" if doc["task"]["kind"] == "copy" else "window"
    try:
        with _named(f"train: a batch sized by batch_size and {size_key}"):
            result = train_loop(model, stream, config)
    except DivergenceError as exc:
        return {"train_log.csv": _log_text(exc.records)}, str(exc)
    return {"train_log.csv": _log_text(result.records),
            "checkpoint.json": checkpoint_text(model.schur, scheme, seed),
            **_report_files(model.schur)}, None


# --- fmc ----------------------------------------------------------------------

def cmd_fmc(config_path):
    from . import memory

    doc = _checked(_load_json(config_path), {"sweep": list}, {"sweep"},
                   "config")
    configs = [_from_doc(memory.FmcConfig, row, f"sweep[{i}]")
               for i, row in enumerate(doc["sweep"])]

    files = {}
    summary = []
    failure = None
    for i, cfg in enumerate(configs):
        row = [i, *dataclasses.astuple(cfg)]
        try:
            with _named(f"sweep[{i}]"):
                res = memory.fisher_memory_curve(cfg)
        except DivergenceError as exc:
            summary.append(row + ["", "diverged"])
            failure = failure or f"sweep[{i}]: {exc}"
            continue
        files[f"fmc_{i:02d}.csv"] = _csv_text(["k", "j"],
                                               enumerate(res.j_curve))
        summary.append(row + [res.j_tot, "ok"])
    files["fmc_summary.csv"] = _csv_text(
        ["row", *(f.name for f in dataclasses.fields(memory.FmcConfig)),
         "j_tot", "status"], summary)
    # The good rows are kept; the first diverged row names the failure.
    return files, failure


# --- transients ---------------------------------------------------------------

def cmd_transients(config_path, seed_override):
    from . import memory

    doc = _checked(_load_json(config_path),
                   {"configs": list, "n_samples": int,
                    "t_max": typing.Optional[int], "seed": int},
                   {"configs"}, "config")
    seed = _seed(doc, seed_override)
    configs = [_from_doc(memory.FmcConfig, row, f"configs[{i}]",
                         keys={"n", "d", "alpha", "beta"})
               for i, row in enumerate(doc["configs"])]

    files = {}
    for i, cfg in enumerate(configs):
        with _named(f"configs[{i}]"):
            stats = memory.transient_ensemble(
                cfg, n_samples=doc.get("n_samples", 1000),
                t_max=doc.get("t_max"), rng_seed=seed)
        columns = vars(stats)
        files[f"transients_{i:02d}.csv"] = _csv_text(
            list(columns), zip(*columns.values()))
    return files, None


# --- props --------------------------------------------------------------------

def cmd_props(config_path):
    from . import memory, propcheck

    doc = _checked(_load_json(config_path), {"prop2": list, "prop1": list},
                   set(), "config")
    prop2 = [_checked(row, {"n": int, "t_max": int}, {"n", "t_max"},
                      f"prop2[{i}]")
             for i, row in enumerate(doc.get("prop2", [{"n": 6, "t_max": 12}]))]
    prop1 = [_checked(row, {"n": int, "alpha": float, "beta": float},
                      {"n", "alpha"}, f"prop1[{i}]")
             for i, row in enumerate(doc.get("prop1", [{"n": 8, "alpha": 1.0}]))]

    def prop2_report(row):
        rep = propcheck.verify_prop2(row["n"], row["t_max"])
        return rep.all_ok, {**vars(rep), "polynomials": {
            f"k={k},t={t}": rec for (k, t), rec in rep.polynomials.items()}}

    def prop1_report(row):
        n = row["n"]
        theta = memory.delay_line_theta(n, row["alpha"])
        theta += row.get("beta", 0.0) * np.tril(np.ones((n, n)), -2)
        rep = memory.prop1_bound_check(theta)
        return rep.holds, vars(rep)

    # The reports run in order, each is kept, and the first failed check
    # ends the run.  Its report says what failed, so the failure's
    # message is empty.
    files = {}
    for name, rows, run in (("prop2", prop2, prop2_report),
                            ("prop1", prop1, prop1_report)):
        for i, row in enumerate(rows):
            with _named(f"{name}[{i}]"):
                ok, doc = run(row)
            files[f"{name}_{i:02d}.json"] = _json_text(doc)
            if not ok:
                return files, ""
    return files, None


# --- report -------------------------------------------------------------------

def cmd_report(config_path):
    from . import schur

    try:
        params = schur.load_checkpoint(config_path)
    except (OSError, KeyError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot load checkpoint {config_path}: {exc}")
    return _report_files(params), None


# Each command takes its config path (and seed, if it has one) and returns
# (files, failure): its files as text keyed by name, and None on success or
# else the message of its `numerical failure:` line.  An empty message
# (props' failed check, whose report says what failed) exits 2 with nothing
# on stderr; every DivergenceError the library raises has a message.
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
    # DivergenceError, without numpy's warnings ahead of it.  A raised
    # one writes nothing; a returned failure keeps the command's files.
    try:
        # --out is a directory, or one can be made there: it is not empty,
        # and the nearest path on it that exists is a directory.  A
        # directory that is there holds nothing, so no file of an earlier
        # run is left beside this one's.
        path = args.out
        while path and not os.path.exists(path):
            path = os.path.dirname(path)
        if not args.out or not os.path.isdir(path or "."):
            raise ConfigError(f"--out {args.out} is not a directory")
        try:
            held = path == args.out and os.listdir(path)
        except OSError as exc:
            raise ConfigError(f"cannot read --out {args.out}: {exc}")
        if held:
            raise ConfigError(f"--out {args.out} is not empty")
        with np.errstate(over="ignore", invalid="ignore"):
            files, failure = _COMMANDS[args.command](args.config, *seed)
        _write(args.out, files)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DivergenceError as exc:
        failure = str(exc)
    if failure:
        print(f"numerical failure: {failure}", file=sys.stderr)
    return 0 if failure is None else 2


if __name__ == "__main__":
    sys.exit(main())
