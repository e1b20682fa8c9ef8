import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schurrnn import cli
from schurrnn.schur import init_params, save_checkpoint

ROOT = Path(__file__).resolve().parents[1]
SWEEP = "src/schurrnn/data/fmc_sweep_sm.json"


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


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
], ids=["batch_size", "gamma_mode", "odd_n", "scheme", "delay", "cell_kind",
        "seed", "batch_size_float", "max_updates_float", "log_every_string",
        "max_updates_negative", "log_every_negative", "max_updates_bool",
        "delta_nan", "t_decay_nan", "lr_nan", "lr_orth_inf", "lr_minus_inf"])
def test_invalid_train_value_exit_1(tmp_path, capsys, over):
    out = tmp_path / "o"
    code = cli.main(["train", "--config", train_config(tmp_path, **over),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


# json.dump writes these as the non-standard NaN and Infinity literals,
# which json.load reads back.
NAN, INF = float("nan"), float("inf")
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
], ids=["transients_d", "transients_n", "n_samples", "t_max", "configs_list",
        "prop2_n", "prop1_alpha", "prop1_n", "prop2_list", "prop2_t_max",
        "fmc_k_max", "fmc_n_null", "fmc_n_float", "fmc_n_string",
        "fmc_k_max_float", "n_samples_float", "transients_alpha_nan",
        "transients_beta_inf", "fmc_alpha_nan", "fmc_beta_inf",
        "fmc_eps_inf", "fmc_d_minus_inf", "prop1_alpha_nan"])
def test_invalid_analysis_value_exit_1(tmp_path, capsys, command, doc):
    out = tmp_path / "o"
    code = cli.main([command, "--config", write_json(tmp_path / "c.json", doc),
                     "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and "Traceback" not in err
    assert not out.exists()


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
    # free gamma with a large learning rate drives some gamma <= 0
    path = train_config(tmp_path, train={
        "max_updates": 15, "log_every": 1, "batch_size": 4,
        "gamma_mode": "free", "lr": 0.5})
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


def test_fmc_bundled_sweep(tmp_path):
    out = tmp_path / "fmc"
    assert cli.main(["fmc", "--config", SWEEP, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "fmc_summary.csv").open()))
    assert rows[0] == ["row", "n", "d", "alpha", "beta", "j_tot", "status"]
    assert len(rows) == 13
    assert all(r[6] == "ok" for r in rows[1:])
    # per-row curve files
    assert sorted(os.listdir(out)) == sorted(
        ["fmc_summary.csv"] + [f"fmc_{i:02d}.csv" for i in range(12)])


def test_fmc_diverged_row_exit_2_keeps_good_rows(tmp_path, capsys):
    path = write_json(tmp_path / "sweep.json", {"sweep": [
        {"n": 4, "alpha": 1.0},
        {"n": 2, "d": 0.99, "alpha": 1e6},
        {"n": 10, "alpha": 1e300},
    ]})
    out = tmp_path / "out"
    assert cli.main(["fmc", "--config", path, "--out", str(out)]) == 2
    rows = list(csv.reader((out / "fmc_summary.csv").open()))
    assert [r[6] for r in rows[1:]] == ["ok", "diverged", "diverged"]
    assert rows[2][5] == rows[3][5] == ""
    assert sorted(os.listdir(out)) == ["fmc_00.csv", "fmc_summary.csv"]
    # one line, naming the first diverged row
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("numerical failure: sweep[1]: ")


def test_fmc_empty_sweep(tmp_path):
    path = write_json(tmp_path / "empty.json", {"sweep": []})
    out = tmp_path / "out"
    assert cli.main(["fmc", "--config", path, "--out", str(out)]) == 0
    rows = list(csv.reader((out / "fmc_summary.csv").open()))
    assert len(rows) == 1


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
    save_checkpoint(init_params(8, rng_seed=0), ckpt)
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
