import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import output_digests
from schurrnn import analysis, cli, memory, propcheck
from schurrnn.optim import LogRecord
from schurrnn.schur import checkpoint_text, init_params, load_checkpoint

ROOT = Path(__file__).resolve().parents[1]
SWEEP = "src/schurrnn/data/fmc_sweep_sm.json"


def write_json(path, doc):
    """Write doc as JSON, or as is if it is a string."""
    with open(path, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return str(path)


# More levels than json's recursive decoder can take
NESTED = "[" * 100000 + "]" * 100000

# The config keys an error line names, by case id: those that size an
# array too large to build.
NAMED_KEYS = {
    "batch_size": ["train: batch_size"],
    **dict.fromkeys(["batch_size_huge", "delay_huge",
                     "batch_size_unallocatable", "delay_unallocatable"],
                    ["batch_size", "delay"]),
    "n_samples_unallocatable": ["n_samples"],
    "t_max_huge": ["t_max"],
    "t_max_unallocatable_beta": ["t_max"],
    "copy_char_lm_keys": ["corpus", "window"],
    "char_lm_delay": ["delay"],
    "transients_n_unallocatable": ["n = 33554432"],
    **dict.fromkeys(["seed_negative", "transients_seed_negative"], ["seed"]),
    "gamma_clamp": ["train: unknown keys ['gamma_clamp']"],
}
CORPUS = str(ROOT / "src" / "schurrnn" / "data" / "corpus.txt")


def train_config(tmp_path, **over):
    doc = {
        "task": {"kind": "copy", "delay": 4},
        "model": {"n": 8},
        "train": {"max_updates": 15, "log_every": 5, "batch_size": 4},
        "seed": 0,
    }
    doc.update(over)
    return write_json(tmp_path / "train.json", doc)


def test_train_smoke(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["train", "--config", train_config(tmp_path),
                     "--out", str(out)])
    assert code == 0
    assert (out / "train_log.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "connectivity_report.json").exists()
    rows = list(csv.reader((out / "train_log.csv").open()))
    assert len(rows) == 4  # header + 3 logged steps


def test_train_zero_updates_checkpoint_is_init(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["train",
                     "--config", train_config(tmp_path, train={"max_updates": 0}),
                     "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "checkpoint.json").read_text())
    init = init_params(8, rng_seed=0)
    assert np.allclose(doc["gamma"], init.gamma)
    rows = list(csv.reader((out / "train_log.csv").open()))
    assert len(rows) == 1  # header only


def test_missing_config_exit_1(tmp_path, capsys):
    code = cli.main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_key_exit_1(tmp_path):
    path = write_json(tmp_path / "bad.json", {
        "task": {"kind": "copy"}, "model": {"n": 8}, "bogus": 1})
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1


def test_train_seed_key_exit_1(tmp_path, capsys):
    # the run's seed is the top-level "seed" (or --seed); "train" has none
    path = train_config(tmp_path, train={"max_updates": 1, "seed": 3})
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("over", [
    {"train": {"batch_size": 0}},
    {"train": {"gamma_mode": "bogus"}},
    {"model": {"n": 7}},
    {"model": {"n": 8, "scheme": "bogus"}},
    {"task": {"kind": "copy", "delay": 0}},
    {"model": {"n": 8, "cell_kind": "schur"}},   # an unknown key
    {"seed": "abc"},
    {"train": {"batch_size": 4.5}},
    {"train": {"max_updates": 2.5}},
    {"train": {"log_every": "1"}},
    {"train": {"max_updates": -3}},
    {"train": {"log_every": -1}},
    {"train": {"max_updates": True}},
    {"train": {"delta": float("nan")}},
    {"train": {"t_decay": float("nan")}},
    {"train": {"lr": float("nan")}},
    {"train": {"lr_orth": float("inf")}},
    {"train": {"lr": -float("inf")}},
    {"train": {"batch_size": 2**62}},
    {"task": {"kind": "copy", "delay": 2**62}},
    NESTED,
    # sizes numpy can represent but no process can map (over 2**48 bytes)
    {"train": {"batch_size": 2**50}},
    {"task": {"kind": "copy", "delay": 2**50}},
    # keys of the other task kind, which this kind never reads
    {"task": {"kind": "copy", "delay": 5, "window": 7,
              "corpus": "nonexistent.txt"}},
    {"task": {"kind": "char_lm", "corpus": CORPUS, "window": 8, "delay": 5}},
    {"seed": -1},
    {"train": {"gamma_clamp": 1.0}},
], ids=["batch_size", "gamma_mode", "odd_n", "scheme", "delay", "cell_kind",
        "seed", "batch_size_float", "max_updates_float", "log_every_string",
        "max_updates_negative", "log_every_negative", "max_updates_bool",
        "delta_nan", "t_decay_nan", "lr_nan", "lr_orth_inf", "lr_minus_inf",
        "batch_size_huge", "delay_huge", "nested", "batch_size_unallocatable",
        "delay_unallocatable", "copy_char_lm_keys", "char_lm_delay",
        "seed_negative", "gamma_clamp"])
def test_invalid_train_value_exit_1(tmp_path, capsys, request, over):
    # a string is the whole config document
    config = (write_json(tmp_path / "train.json", over)
              if isinstance(over, str) else train_config(tmp_path, **over))
    out = tmp_path / "o"
    code = cli.main(["train", "--config", config, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
    for key in NAMED_KEYS.get(request.node.callspec.id, ()):
        assert key in err.replace(config, "")


# json.dump writes these as the non-standard NaN and Infinity literals,
# which json.load reads back.
NAN, INF = float("nan"), float("inf")
DEEP_LIST = []
for _ in range(899):
    DEEP_LIST = [DEEP_LIST]
TRANSIENTS = {"configs": [{"n": 10, "alpha": 1.05}], "n_samples": 1,
              "t_max": 12}
PROPS = {"prop2": [{"n": 4, "t_max": 8}], "prop1": [{"n": 6, "alpha": 1.0}]}


@pytest.mark.parametrize("command,doc", [
    ("transients", {**TRANSIENTS, "configs": [{"n": 10, "d": 1.5}]}),
    ("transients", {**TRANSIENTS, "configs": [{"n": "ten"}]}),
    ("transients", {**TRANSIENTS, "n_samples": 0}),
    ("transients", {**TRANSIENTS, "t_max": -3}),
    ("transients", {**TRANSIENTS, "configs": 5}),
    ("props", {**PROPS, "prop2": [{"n": 9, "t_max": 8}]}),
    ("props", {**PROPS, "prop1": [{"n": 6, "alpha": -1.0}]}),
    ("props", {**PROPS, "prop1": [{"n": 1, "alpha": 1.0}]}),
    ("props", {**PROPS, "prop2": 5}),
    ("props", {**PROPS, "prop2": [{"n": 4, "t_max": 0}]}),
    ("fmc", {"sweep": [{"n": 4}, {"n": 4, "k_max": -5}]}),
    ("fmc", {"sweep": [{"n": 4}, {"n": None}]}),
    ("fmc", {"sweep": [{"n": 4.0}]}),
    ("fmc", {"sweep": [{"n": "4"}]}),
    ("fmc", {"sweep": [{"n": 4, "k_max": 2.5}]}),
    ("transients", {**TRANSIENTS, "n_samples": 2.5}),
    ("transients", {**TRANSIENTS, "configs": [{"n": 10, "alpha": NAN}]}),
    ("transients", {**TRANSIENTS, "configs": [{"n": 10, "beta": INF}]}),
    ("fmc", {"sweep": [{"n": 4}, {"n": 4, "alpha": NAN}]}),
    ("fmc", {"sweep": [{"n": 4, "beta": INF}]}),
    ("fmc", {"sweep": [{"n": 4, "eps": INF}]}),
    ("fmc", {"sweep": [{"n": 4, "d": -INF}]}),
    ("props", {**PROPS, "prop1": [{"n": 6, "alpha": NAN}]}),
    ("props", {**PROPS, "prop1": [{"n": 6, "alpha": 1.0, "beta": INF}]}),
    ("fmc", {"sweep": [{"n": 4}, {"n": 2**62}]}),
    ("fmc", NESTED),
    ("transients", NESTED),
    ("props", NESTED),
    ("report", NESTED),
    # (1, 0) belongs to the first rotation block, not to T
    ("report", {"n": 2, "gamma": [1.0], "theta": [0.5], "b_skew": [[], [0.1]],
                "t_lower": [[], [5.0]]}),
    # sizes numpy can represent but no process can map (over 2**48 bytes)
    ("transients", {**TRANSIENTS, "n_samples": 2**50}),
    ("fmc", {"sweep": [{"n": 4}, {"n": 2**25}]}),
    # a mistyped value quoted in the error line, nested 900 deep
    ("fmc", {"sweep": [{"n": DEEP_LIST}]}),
    # statistics too large to describe (beta = 0) or to map (beta != 0)
    ("transients", {**TRANSIENTS, "t_max": 2**62}),
    ("transients", {**TRANSIENTS, "t_max": 2**50,
                    "configs": [{"n": 10, "alpha": 1.05, "beta": 0.1}]}),
    # a Theta of 8 PiB, the first array a transients row builds
    ("transients", {**TRANSIENTS, "configs": [{"n": 2**25, "alpha": 1.05}]}),
    ("transients", {**TRANSIENTS, "seed": -1}),
], ids=["transients_d", "transients_n", "n_samples", "t_max", "configs_list",
        "prop2_n", "prop1_alpha", "prop1_n", "prop2_list", "prop2_t_max",
        "fmc_k_max", "fmc_n_null", "fmc_n_float", "fmc_n_string",
        "fmc_k_max_float", "n_samples_float", "transients_alpha_nan",
        "transients_beta_inf", "fmc_alpha_nan", "fmc_beta_inf",
        "fmc_eps_inf", "fmc_d_minus_inf", "prop1_alpha_nan", "prop1_beta_inf",
        "fmc_n_huge", "fmc_nested", "transients_nested", "props_nested",
        "report_nested", "report_t_in_block", "n_samples_unallocatable",
        "fmc_n_unallocatable", "fmc_n_deep_list", "t_max_huge",
        "t_max_unallocatable_beta", "transients_n_unallocatable",
        "transients_seed_negative"])
def test_invalid_analysis_value_exit_1(tmp_path, capsys, request, command,
                                      doc):
    out = tmp_path / "o"
    config = write_json(tmp_path / "c.json", doc)
    code = cli.main([command, "--config", config, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()
    # one line, whatever the value; the config's path is the only long part
    line, = err.splitlines()
    assert len(line.replace(config, "")) < 200
    for key in NAMED_KEYS.get(request.node.callspec.id, ()):
        assert key in line.replace(config, "")


@pytest.mark.parametrize("text", [
    '{"sweep": [{"n": 4, "alpha": 1e400}]}',
    '{"sweep": [{"n": 4, "alpha": 1%s}]}' % ("0" * 400),
    '{"sweep": [{"n": 4, "alpha": 1%s}]}' % ("0" * 5000),
], ids=["float_overflow", "integer_beyond_float", "integer_too_long"])
def test_out_of_range_number_exit_1(tmp_path, capsys, text):
    # 1e400 reads as inf; a 401-digit integer has no float; json refuses
    # integers of more than 4300 digits with a ValueError
    path = tmp_path / "c.json"
    path.write_text(text)
    out = tmp_path / "o"
    code = cli.main(["fmc", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def small_config(tmp_path, command):
    """The path of a small config of ``command`` that runs: a checkpoint
    for ``report``."""
    if command == "train":
        return train_config(tmp_path)
    path = tmp_path / f"{command}.json"
    if command == "report":
        path.write_text(checkpoint_text(init_params(8, rng_seed=0), "henaff", 0))
        return str(path)
    docs = {"fmc": {"sweep": [{"n": 4}]}, "transients": TRANSIENTS,
            "props": PROPS}
    return write_json(path, docs[command])


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_out_names_a_file_exit_1(tmp_path, capsys, monkeypatch, command):
    # a config that runs, so the command fails only on --out, before it
    # does any work
    config = small_config(tmp_path, command)
    used = tmp_path / "dir"
    assert cli.main([command, "--config", config, "--out", str(used)]) == 0
    first_run = {p.name: p.read_bytes() for p in used.iterdir()}
    capsys.readouterr()
    monkeypatch.setitem(cli._COMMANDS, command, lambda *args: pytest.fail(
        "the command ran before --out was checked"))
    out = tmp_path / "o"
    out.write_text("a file\n")
    # a file, a path under a file, and no path
    for bad in (out, out / "sub", ""):
        code = cli.main([command, "--config", config, "--out", str(bad)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: --out ") and "Traceback" not in err
    assert out.read_text() == "a file\n"
    # a directory that holds an earlier run's files, which stay as they were
    assert cli.main([command, "--config", config, "--out", str(used)]) == 1
    assert capsys.readouterr().err == f"error: --out {used} is not empty\n"
    assert {p.name: p.read_bytes() for p in used.iterdir()} == first_run


def test_out_unwritable_file_exit_1(tmp_path, capsys):
    # --out is a dangling symlink: no path on it is a file, so it passes
    # the check, but making the directory fails at the write
    out = tmp_path / "out"
    out.symlink_to(tmp_path / "missing")
    code = cli.main(["fmc", "--config", small_config(tmp_path, "fmc"),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: cannot write to --out {out}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "missing").exists()


@pytest.fixture
def writes(monkeypatch):
    """The sorted file names of each call to ``cli._write``, which still
    writes."""
    calls = []
    write = cli._write

    def recorded(out_dir, files):
        calls.append(sorted(files))
        write(out_dir, files)
    monkeypatch.setattr(cli, "_write", recorded)
    return calls


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_one_write_per_run(tmp_path, writes, command):
    out = tmp_path / "out"
    assert cli.main([command, "--config", small_config(tmp_path, command),
                     "--out", str(out)]) == 0
    assert writes == [sorted(os.listdir(out))]


@pytest.mark.parametrize("command,doc,code,kept", [
    ("fmc", {"sweep": [{"n": 4, "bogus": 1}]}, 1, None),
    ("transients", {"configs": [{"n": 100, "d": 0.0, "alpha": 1e200}]}, 2,
     None),
    ("fmc", {"sweep": [{"n": 4}, {"n": 2, "d": 0.99, "alpha": 1e6}]}, 2,
     ["fmc_00.csv", "fmc_summary.csv"]),
    ("train", {"task": {"kind": "copy", "delay": 4}, "model": {"n": 8},
               "train": {"max_updates": 15, "batch_size": 4,
                         "lr_orth": 1e300}}, 2, ["train_log.csv"]),
], ids=["config_error", "transients_overflow", "fmc_diverged",
        "train_diverged"])
def test_failed_run_writes_once_or_not_at_all(tmp_path, writes, command, doc,
                                              code, kept):
    # a raised failure writes nothing; a returned one keeps its files
    out = tmp_path / "out"
    assert cli.main([command, "--config", write_json(tmp_path / "c.json", doc),
                     "--out", str(out)]) == code
    if kept is None:
        assert writes == [] and not out.exists()
    else:
        assert writes == [kept] == [sorted(os.listdir(out))]


def test_props_failed_check_writes_once_stderr_empty(tmp_path, monkeypatch,
                                                     capsys, writes):
    # a curve scaled below the bound fails prop1[0]; its report says so,
    # and stderr stays empty
    fmc_from_theta = memory.fmc_from_theta

    def halved(*args, **kwargs):
        res = fmc_from_theta(*args, **kwargs)
        res.j_curve /= 2.0
        return res

    monkeypatch.setattr(memory, "fmc_from_theta", halved)
    out = tmp_path / "out"
    assert cli.main(["props", "--config", small_config(tmp_path, "props"),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == ""
    assert writes == [["prop1_00.json", "prop2_00.json"]]


def test_train_corpus_not_a_string_exit_1(tmp_path):
    # open(0) would read stdin, so this runs in a child process with text
    # piped in, not in pytest's own process.
    path = train_config(tmp_path,
                        task={"kind": "char_lm", "corpus": 0, "window": 8},
                        train={"max_updates": 2, "batch_size": 2})
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "schurrnn.cli", "train", "--config", path,
         "--out", str(out)],
        input="the quick brown fox jumps over the lazy dog\n" * 10,
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["fmc", "--out", "x"],
    ["train", "--config", "c.json", "--out", "x", "--seed", "abc"],
    ["fmc", "--config", SWEEP, "--out", "x", "--seed", "3"],
], ids=["missing_config", "seed_not_int", "fmc_seed"])
def test_usage_error_exit_1(capsys, argv):
    # exit 2 is kept for numerical failures; --seed exists on train and
    # transients only
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["train", "transients"])
def test_negative_seed_override_exit_1(tmp_path, capsys, command):
    config = (train_config(tmp_path) if command == "train"
              else write_json(tmp_path / "c.json", TRANSIENTS))
    out = tmp_path / "o"
    code = cli.main([command, "--config", config, "--out", str(out),
                     "--seed", "-3"])
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be >= 0, not -3\n"
    assert not out.exists()


def test_help_exit_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    assert "--seed" in capsys.readouterr().out


def test_train_divergence_exit_2_keeps_log(tmp_path, monkeypatch, capsys):
    build_task = cli._build_task

    def poisoned(doc, batch_size, seed):
        stream, d_in, d_out = build_task(doc, batch_size, seed)

        def batches():
            for i, batch in enumerate(stream, start=1):
                if i == 11:
                    # Token ids cannot hold a NaN, so this batch goes in
                    # as the equal one-hot float features, poisoned.
                    batch.inputs = np.eye(d_in)[batch.inputs]
                    batch.inputs[0, 0, 0] = np.nan
                yield batch
        return batches(), d_in, d_out

    monkeypatch.setattr(cli, "_build_task", poisoned)
    out = tmp_path / "out"
    code = cli.main(["train", "--config", train_config(tmp_path),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure:") and "at update 11" in err
    rows = list(csv.reader((out / "train_log.csv").open()))
    assert [r[0] for r in rows] == ["update", "5", "10"]
    assert not (out / "checkpoint.json").exists()


def test_train_eigh_failure_exit_2_keeps_log(tmp_path, capsys):
    # lr_orth = 1e300 makes B overflow at the first step, so eigh fails in
    # assemble_v at update 2.  The failure is one line: no numpy warning
    # (an error in this suite) comes before it.
    path = train_config(tmp_path, train={
        "max_updates": 15, "log_every": 1, "batch_size": 4,
        "lr_orth": 1e300})
    out = tmp_path / "out"
    code = cli.main(["train", "--config", path, "--out", str(out)])
    assert code == 2
    # the middle of the line is LAPACK's reason, worded by numpy
    [line] = capsys.readouterr().err.splitlines(keepends=True)
    assert line.startswith("numerical failure: eigh of B^T B failed")
    assert line.endswith(" at update 2\n")
    rows = list(csv.reader((out / "train_log.csv").open()))
    assert [r[0] for r in rows] == ["update", "1"]
    assert not (out / "checkpoint.json").exists()


def test_train_nonpositive_gamma_exit_2_keeps_log(tmp_path, capsys):
    # unregularized gamma with a large learning rate drives some gamma <= 0
    path = train_config(tmp_path, train={
        "max_updates": 15, "log_every": 1, "batch_size": 4,
        "delta": 0.0, "lr": 0.5})
    out = tmp_path / "out"
    code = cli.main(["train", "--config", path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: gamma must be > 0")
    assert "Traceback" not in err
    k = int(err.rsplit("at update ", 1)[1])
    assert 1 < k <= 15
    rows = list(csv.reader((out / "train_log.csv").open()))
    assert [r[0] for r in rows] == ["update"] + [str(u) for u in range(1, k)]
    assert not (out / "checkpoint.json").exists()


def test_bad_task_kind_exit_1(tmp_path):
    path = write_json(tmp_path / "bad.json", {
        "task": {"kind": "sudoku"}, "model": {"n": 8}})
    assert cli.main(["train", "--config", path, "--out", str(tmp_path / "o")]) == 1


def read_summary(out):
    """The rows of ``fmc_summary.csv`` as dicts keyed by its header."""
    with open(out / "fmc_summary.csv") as fh:
        return list(csv.DictReader(fh))


def test_fmc_bundled_sweep(tmp_path):
    out = tmp_path / "fmc"
    assert cli.main(["fmc", "--config", SWEEP, "--out", str(out)]) == 0
    with open(out / "fmc_summary.csv") as fh:
        assert next(csv.reader(fh)) == [
            "row", "n", "d", "alpha", "beta", "eps", "k_max", "j_tot",
            "status"]
    rows = read_summary(out)
    assert len(rows) == 12
    assert all(r["status"] == "ok" for r in rows)
    # per-row curve files
    assert sorted(os.listdir(out)) == sorted(
        ["fmc_summary.csv"] + [f"fmc_{i:02d}.csv" for i in range(12)])


def test_fmc_diverged_row_exit_2_keeps_good_rows(tmp_path, capsys):
    path = write_json(tmp_path / "sweep.json", {"sweep": [
        {"n": 4, "alpha": 1.0},
        {"n": 2, "d": 0.99, "alpha": 1e6},
        {"n": 10, "d": 0.5, "alpha": 1e300},
    ]})
    out = tmp_path / "out"
    assert cli.main(["fmc", "--config", path, "--out", str(out)]) == 2
    rows = read_summary(out)
    assert [r["status"] for r in rows] == ["ok", "diverged", "diverged"]
    assert rows[1]["j_tot"] == rows[2]["j_tot"] == ""
    assert sorted(os.listdir(out)) == ["fmc_00.csv", "fmc_summary.csv"]
    # one line, naming the first diverged row
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: sweep[1]: ")


def test_fmc_huge_alpha_shift_is_exact(tmp_path):
    # a scaled shift takes the closed form, whose J(k) = 1 for k < n is
    # exact even where alpha^2 overflows
    path = write_json(tmp_path / "sweep.json", {"sweep": [
        {"n": 10, "alpha": 1e300}]})
    out = tmp_path / "out"
    assert cli.main(["fmc", "--config", path, "--out", str(out)]) == 0
    (row,) = read_summary(out)
    assert row["status"] == "ok" and row["j_tot"] == "10.0"


def test_fmc_summary_tells_eps_and_k_max_apart(tmp_path):
    sweep = [{"n": 6, "alpha": 0.9}, {"n": 6, "alpha": 0.9, "eps": 4.0},
             {"n": 6, "alpha": 0.9, "k_max": 3}]
    path = write_json(tmp_path / "sweep.json", {"sweep": sweep})
    out = tmp_path / "out"
    assert cli.main(["fmc", "--config", path, "--out", str(out)]) == 0
    rows = read_summary(out)
    assert [(r["eps"], r["k_max"]) for r in rows] == [
        ("1.0", "0"), ("4.0", "0"), ("1.0", "3")]


def test_fmc_empty_sweep(tmp_path):
    path = write_json(tmp_path / "empty.json", {"sweep": []})
    out = tmp_path / "out"
    assert cli.main(["fmc", "--config", path, "--out", str(out)]) == 0
    assert read_summary(out) == []


def test_props_default_grid(tmp_path):
    path = write_json(tmp_path / "props.json", {
        "prop2": [{"n": 4, "t_max": 8}],
        "prop1": [{"n": 6, "alpha": 1.0}, {"n": 8, "alpha": 1e-30},
                  {"n": 2, "alpha": 1e300}]})
    out = tmp_path / "props"
    assert cli.main(["props", "--config", path, "--out", str(out)]) == 0
    doc = json.loads((out / "prop2_00.json").read_text())
    assert doc["degree_ok"] and doc["ratio_ok"]
    doc1 = json.loads((out / "prop1_00.json").read_text())
    assert doc1["holds"]
    # a tiny sub-diagonal still gives full-rank leading columns
    doc2 = json.loads((out / "prop1_01.json").read_text())
    assert doc2["holds"] and doc2["sigma_max"] == 1.0
    # a huge alpha: the closed-form bound does not overflow
    doc3 = json.loads((out / "prop1_02.json").read_text())
    assert doc3["holds"] and doc3["bound"] == doc3["j_curve"] == [1.0, 1.0]


def test_props_beta_row_bound_within_20_percent(tmp_path):
    """A delay line plus beta = 0.005 below its sub-diagonal puts the
    bound above 80% of J at every lag, so a curve 20% low fails there;
    the report records beta."""
    path = write_json(tmp_path / "props.json", {
        "prop2": [], "prop1": [{"n": 8, "alpha": 1.0, "beta": 0.005}]})
    out = tmp_path / "props"
    assert cli.main(["props", "--config", path, "--out", str(out)]) == 0
    doc = json.loads((out / "prop1_00.json").read_text())
    assert doc["beta"] == 0.005 and doc["holds"]
    assert doc["sigma_max"] > 1.01
    assert np.all(np.array(doc["bound"]) > 0.8 * np.array(doc["j_curve"]))


def test_props_failed_bound_writes_its_report_exit_2(tmp_path, monkeypatch):
    # a halved curve falls below the bound, which the delay line attains
    fmc_from_theta = memory.fmc_from_theta

    def halved(*args, **kwargs):
        res = fmc_from_theta(*args, **kwargs)
        res.j_curve /= 2.0
        return res

    monkeypatch.setattr(memory, "fmc_from_theta", halved)
    path = write_json(tmp_path / "props.json", {
        "prop2": [{"n": 3, "t_max": 4}],
        "prop1": [{"n": 6, "alpha": 1.0}, {"n": 4, "alpha": 0.9}]})
    out = tmp_path / "props"
    assert cli.main(["props", "--config", path, "--out", str(out)]) == 2
    assert sorted(os.listdir(out)) == ["prop1_00.json", "prop2_00.json"]
    doc = json.loads((out / "prop1_00.json").read_text())
    assert doc["holds"] is False
    assert min(doc["margin"]) < 0.0


@pytest.mark.parametrize("beta", [0.0, 1e200])
def test_transients_overflow_exit_2_writes_nothing(tmp_path, capsys, beta):
    # The failure is one line: no numpy warning (an error in this suite)
    # comes before it.
    path = write_json(tmp_path / "t.json", {"configs": [
        {"n": 4, "alpha": 1.0},
        {"n": 100, "d": 0.0, "alpha": 1e200, "beta": beta}]})
    out = tmp_path / "out"
    code = cli.main(["transients", "--config", path, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "numerical failure: non-finite transient statistics at t = 1\n")
    assert not out.exists()


def test_transients_deterministic_bytes(tmp_path):
    path = write_json(tmp_path / "t.json", {
        "configs": [{"n": 10, "alpha": 1.05}], "n_samples": 1, "t_max": 12})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["transients", "--config", path, "--out", str(out1)]) == 0
    assert cli.main(["transients", "--config", path, "--out", str(out2)]) == 0
    b1 = (out1 / "transients_00.csv").read_bytes()
    assert b1 == (out2 / "transients_00.csv").read_bytes()
    assert len(b1) > 0


@pytest.mark.parametrize("command,name,record", [
    ("train", "train_log.csv", LogRecord),
    ("train", "connectivity_report.json", analysis.ConnectivityReport),
    ("transients", "transients_00.csv", memory.TransientStats),
    ("props", "prop1_00.json", memory.Prop1Report),
    ("props", "prop2_00.json", propcheck.Prop2Report),
], ids=["train_log", "connectivity_report", "transients", "prop1", "prop2"])
def test_output_keys_are_record_fields(tmp_path, command, name, record):
    # a file's JSON keys, or its CSV header, are the fields of the record
    # it is written from, in field order
    docs = {"transients": TRANSIENTS, "props": PROPS}
    config = (train_config(tmp_path) if command == "train"
              else write_json(tmp_path / "c.json", docs[command]))
    out = tmp_path / "out"
    assert cli.main([command, "--config", config, "--out", str(out)]) == 0
    with open(out / name) as fh:
        keys = next(csv.reader(fh)) if name.endswith(".csv") else list(
            json.load(fh))
    assert keys == [f.name for f in dataclasses.fields(record)]


def assert_cells_are_floats(cells, values):
    """Each cell is the repr of its float64 value and parses back to it
    bit for bit."""
    values = np.asarray(values, dtype=np.float64)
    assert len(cells) == len(values)
    for cell, value in zip(cells, values):
        assert cell == repr(float(value))
        assert np.float64(cell).tobytes() == value.tobytes()


def test_csv_floats_round_trip(tmp_path):
    sweep = [{"n": 12, "d": 0.2, "alpha": 1.05, "beta": 0.005},
             {"n": 6, "alpha": 0.95}]
    out = tmp_path / "fmc"
    config = write_json(tmp_path / "sweep.json", {"sweep": sweep})
    assert cli.main(["fmc", "--config", config, "--out", str(out)]) == 0
    summary = read_summary(out)
    for i, row in enumerate(sweep):
        cfg = memory.FmcConfig(**row)
        res = memory.fisher_memory_curve(cfg)
        rows = list(csv.reader((out / f"fmc_{i:02d}.csv").open()))[1:]
        assert [r[0] for r in rows] == [str(k) for k in range(len(rows))]
        assert_cells_are_floats([r[1] for r in rows], res.j_curve)
        keys = ["d", "alpha", "beta", "eps", "j_tot"]
        assert_cells_are_floats([summary[i][key] for key in keys],
                                [cfg.d, cfg.alpha, cfg.beta, cfg.eps,
                                 res.j_tot])

    doc = {"configs": [{"n": 10, "alpha": 1.05, "beta": 0.1}],
           "n_samples": 50, "t_max": 12, "seed": 3}
    out = tmp_path / "transients"
    config = write_json(tmp_path / "t.json", doc)
    assert cli.main(["transients", "--config", config, "--out", str(out)]) == 0
    stats = memory.transient_ensemble(memory.FmcConfig(**doc["configs"][0]),
                                      n_samples=50, t_max=12, rng_seed=3)
    header, *rows = csv.reader((out / "transients_00.csv").open())
    assert [r[0] for r in rows] == [str(t) for t in stats.t]
    for j, key in enumerate(header[1:], start=1):
        assert_cells_are_floats([r[j] for r in rows], getattr(stats, key))

    out = tmp_path / "train"
    assert cli.main(["train", "--config", train_config(tmp_path),
                     "--out", str(out)]) == 0
    params = load_checkpoint(out / "checkpoint.json")
    profile = analysis.connectivity_report(params).subdiag_profile
    assert np.any(profile != 0.0)
    rows = list(csv.reader((out / "subdiag_profile.csv").open()))[1:]
    assert [r[0] for r in rows] == [str(k) for k in range(1, params.n)]
    assert_cells_are_floats([r[1] for r in rows], profile)


CONFIGS = sorted(ROOT.glob("configs/*.json"))


@pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_shipped_config_runs(tmp_path, monkeypatch, path):
    # corpus paths in the shipped configs are relative to the repository root
    monkeypatch.chdir(ROOT)
    doc = json.loads(path.read_text())
    out = tmp_path / "out"
    if "task" in doc:
        doc["train"]["max_updates"] = 0
        config = write_json(tmp_path / path.name, doc)
        assert cli.main(["train", "--config", config, "--out", str(out)]) == 0
        assert (out / "checkpoint.json").exists()
    else:
        assert cli.main([path.stem, "--config", str(path),
                         "--out", str(out)]) == 0


def test_report_on_init_checkpoint(tmp_path):
    ckpt = tmp_path / "ckpt.json"
    ckpt.write_text(checkpoint_text(init_params(8, rng_seed=0), "henaff", 0))
    out = tmp_path / "rep"
    assert cli.main(["report", "--config", str(ckpt), "--out", str(out)]) == 0
    doc = json.loads((out / "connectivity_report.json").read_text())
    assert doc["t_frobenius"] == 0.0
    assert doc["regime"] == "normal"


def test_report_bad_checkpoint_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"oops\": 1}")
    assert cli.main(["report", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("mangle", [
    lambda doc: doc["b_skew"].pop(),
    lambda doc: doc["b_skew"][4].pop(),
    lambda doc: doc["t_lower"][-1].extend([0.0, 0.0]),
    lambda doc: doc["t_lower"][3].__setitem__(0, None),
    lambda doc: doc.update(gamma={"a": 1.0}),
    lambda doc: doc.update(n="8"),
], ids=["b_skew_missing_row", "b_skew_short_row", "t_lower_long_row",
        "t_lower_null", "gamma_object", "n_string"])
def test_report_malformed_checkpoint_exit_1(tmp_path, capsys, mangle):
    doc = {"n": 8, "gamma": [1.0] * 4, "theta": [0.5] * 4,
           "b_skew": [[0.1] * i for i in range(8)],
           "t_lower": [[0.0] * i for i in range(8)]}
    mangle(doc)
    out = tmp_path / "o"
    code = cli.main(["report", "--config", write_json(tmp_path / "c.json", doc),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_report_non_object_checkpoint_exit_1(tmp_path, capsys):
    out = tmp_path / "o"
    code = cli.main(["report", "--config", write_json(tmp_path / "c.json", [8]),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


def test_train_determinism_identical_logs(tmp_path):
    cfgp = train_config(tmp_path)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    cli.main(["train", "--config", cfgp, "--out", str(out1)])
    cli.main(["train", "--config", cfgp, "--out", str(out2)])
    assert (out1 / "train_log.csv").read_bytes() == (out2 / "train_log.csv").read_bytes()
    assert (out1 / "checkpoint.json").read_bytes() == (out2 / "checkpoint.json").read_bytes()


def test_seed_override_changes_run(tmp_path):
    cfgp = train_config(tmp_path)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    cli.main(["train", "--config", cfgp, "--out", str(out1)])
    cli.main(["train", "--config", cfgp, "--out", str(out2), "--seed", "99"])
    assert (out1 / "checkpoint.json").read_bytes() != (out2 / "checkpoint.json").read_bytes()


def test_output_digests_runs_every_command(tmp_path, monkeypatch):
    # small configs in place of the shipped ones, the char-LM corpus path
    # relative to the repository root as theirs is, run from elsewhere:
    # train runs the updates asked for, each run's directory holds its
    # command's files, and each line is its file's digest
    configs = tmp_path / "configs"
    configs.mkdir()
    train_config(configs)
    os.rename(configs / "train.json", configs / "copy_default.json")
    write_json(configs / "char_lm_default.json", {
        "task": {"kind": "char_lm", "corpus": "src/schurrnn/data/corpus.txt",
                 "window": 8},
        "model": {"n": 8}, "train": {"batch_size": 2}})
    write_json(configs / "transients.json", TRANSIENTS)
    write_json(configs / "props.json", PROPS)
    monkeypatch.setattr(output_digests, "CONFIGS", configs)
    monkeypatch.setattr(output_digests, "FMC_SWEEP", write_json(
        tmp_path / "sweep.json", {"sweep": [{"n": 4}, {"n": 6}]}))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    lines = output_digests.write_outputs(out, updates=5)
    paths = [line.split("  ")[1] for line in lines]
    assert paths == sorted(paths)
    dirs = {}
    for path in paths:
        head, name = path.rsplit("/", 1)
        dirs.setdefault(head, []).append(name)
    report = ["connectivity_report.json", "subdiag_profile.csv"]
    train = sorted(["checkpoint.json", "train_log.csv", *report])
    assert dirs == {
        "fmc": ["fmc_00.csv", "fmc_01.csv", "fmc_summary.csv"],
        "props": ["prop1_00.json", "prop2_00.json"],
        "report/char_lm_default": report, "report/copy_default": report,
        "train/char_lm_default": train, "train/copy_default": train,
        "transients/seed0": ["transients_00.csv"],
        "transients/seed7": ["transients_00.csv"],
    }
    for line in lines:
        digest, path = line.split("  ")
        assert digest == hashlib.sha256((out / path).read_bytes()).hexdigest()
    log = list(csv.DictReader((out / "train/copy_default/train_log.csv").open()))
    assert [row["update"] for row in log] == ["5"]
