"""Output digests: the byte-identity check of every command as one run.

Runs each command on the shipped configs and prints one
``sha256  relative/path`` line per output file, sorted by path, so two
checkouts whose manifests are equal wrote the same bytes.  The runs, each
into its own directory under OUT_DIR:

- ``train/NAME``: ``train`` on each shipped training config, cut to 200
  updates
- ``report/NAME``: ``report`` on each of those checkpoints
- ``fmc``: ``fmc`` on the bundled sweep
- ``transients/seed0`` and ``transients/seed7``: ``transients`` on its
  shipped config, at the config's seed 0 and at ``--seed 7``
- ``props``: ``props`` on its shipped config

Run as a script, it sets one BLAS thread (the last digits of ``fmc`` and
``transients`` depend on the thread count) and imports ``schurrnn`` from
the ``src`` of the checkout it is in.  The module uses only the standard
library and ``schurrnn``.  Its name does not match ``test_*.py``, so
pytest does not collect it.

    python tests/output_digests.py OUT_DIR
"""

import argparse
import hashlib
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
FMC_SWEEP = ROOT / "src" / "schurrnn" / "data" / "fmc_sweep_sm.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _argvs(out_dir, config_dir, updates):
    """The argv of each run, in order.  Each training config is copied
    into ``config_dir`` with ``updates`` as its ``max_updates`` and its
    corpus path made absolute."""
    argvs = []
    for path in sorted(CONFIGS.glob("*.json")):
        doc = json.loads(path.read_text())
        if "task" not in doc:
            continue
        doc["train"]["max_updates"] = updates
        if "corpus" in doc["task"]:
            doc["task"]["corpus"] = str(ROOT / doc["task"]["corpus"])
        config = config_dir / path.name
        config.write_text(json.dumps(doc))
        train = out_dir / "train" / path.stem
        report = out_dir / "report" / path.stem
        argvs += [["train", "--config", str(config), "--out", str(train)],
                  ["report", "--config", str(train / "checkpoint.json"),
                   "--out", str(report)]]
    transients = str(CONFIGS / "transients.json")
    return argvs + [
        ["fmc", "--config", str(FMC_SWEEP), "--out", str(out_dir / "fmc")],
        ["transients", "--config", transients,
         "--out", str(out_dir / "transients" / "seed0")],
        ["transients", "--config", transients, "--seed", "7",
         "--out", str(out_dir / "transients" / "seed7")],
        ["props", "--config", str(CONFIGS / "props.json"),
         "--out", str(out_dir / "props")],
    ]


def manifest(out_dir):
    """One ``sha256  relative/path`` line per file under ``out_dir``,
    sorted by path."""
    out_dir = pathlib.Path(out_dir)
    paths = sorted((p.relative_to(out_dir).as_posix(), p)
                   for p in out_dir.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {rel}"
            for rel, p in paths]


def write_outputs(out_dir, updates=200):
    """Run every command into ``out_dir``, each ``train`` cut to
    ``updates`` updates, and return the manifest.  A run that exits other
    than 0 raises ``RuntimeError``."""
    from schurrnn import cli

    out_dir = pathlib.Path(out_dir)
    with tempfile.TemporaryDirectory() as config_dir:
        for argv in _argvs(out_dir, pathlib.Path(config_dir), updates):
            code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"schurrnn {' '.join(argv)} exited {code}")
    return manifest(out_dir)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=pathlib.Path,
                        help="directory for the outputs; empty or new")
    args = parser.parse_args()
    if args.out_dir.exists() and any(args.out_dir.iterdir()):
        parser.error(f"{args.out_dir} is not empty")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    print("\n".join(write_outputs(args.out_dir)))


if __name__ == "__main__":
    main()
