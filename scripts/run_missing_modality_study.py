#!/usr/bin/env python3
"""End-to-end missing-modality study on synthetic data, run as `avfusion` commands.

Synthesizes a dataset, trains a baseline plus one model per training ablation
strategy, and sweeps all four models under clip/frame corruption of both
modalities into one merged CSV, sweep.csv. Apart from its JSON configs, every
file in --out is written by the `avfusion` command printed before it, from the
study's own files. The study stops with the exit code of the first command
that fails.

Usage:
    python scripts/run_missing_modality_study.py --out runs/study
    python scripts/run_missing_modality_study.py --out runs/quick --quick
"""

import json
import shlex
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avfusion import cli
from avfusion.augment import STRATEGIES
from avfusion.data import SyntheticConfig

FULL_DATA = {"n_clips": 200, "clip_seconds": 30.0, "d_audio_lld": 16, "d_video": 32, "seed": 7}
QUICK_DATA = {"n_clips": 24, "clip_seconds": 10.0, "d_audio_lld": 8, "d_video": 12, "seed": 7}
SWEEP_SEED = 1234


def run_config(strategy: str, seed: int, epochs: int) -> dict:
    cfg = {
        "model": {"d_model": 32, "num_layers": 2, "num_heads": 4},
        "train": {"epochs": epochs, "lr": 1e-3, "batch_size": 16, "seq_len": 100,
                  "seed": seed},
    }
    if strategy != "none":  # the baseline's label: it trains on clean windows
        cfg["ablation"] = {"strategy": strategy, "modality": "video",
                           "probability": 0.5, "seed": seed + 1000}
    return cfg


def avfusion(*argv) -> int:
    """Run one `avfusion` command, printing it before and its wall time after."""
    argv = [str(arg) for arg in argv]
    print(f"\n$ avfusion {shlex.join(argv)}", flush=True)
    t0 = time.time()
    code = cli.main(argv)
    print(f"[{time.time() - t0:.1f} s, exit {code}]", flush=True)
    return code


def main(argv=None) -> int:
    parser = cli.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--epochs", type=int,
                        help="training epochs (default: 2 with --quick, 10 without)")
    parser.add_argument("--quick", action="store_true", help="small config for a fast smoke run")
    args = parser.parse_args(argv)
    if args.epochs is None:
        args.epochs = 2 if args.quick else 10
    # checked before anything is written, with the CLI's exit code and form
    for flag, value, least in (("--seed", args.seed, 0), ("--epochs", args.epochs, 1)):
        if value < least:
            print(f"error: {flag} must be >= {least}, got {value}", file=sys.stderr)
            return 2

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. --out names a file, or a path through one
        print(f"error: --out: cannot create directory {str(out)!r}: {exc.strerror}",
              file=sys.stderr)
        return 2
    data_cfg = SyntheticConfig(**(QUICK_DATA if args.quick else FULL_DATA))
    (out / "data.json").write_text(json.dumps(asdict(data_cfg), indent=2))
    if code := avfusion("synth", "--config", out / "data.json", "--out", out / "data.avxd"):
        return code

    labels = ("none",) + STRATEGIES
    # each checkpoint's file stem is its column label in the merged table
    ckpts = [out / f"trained_{label}.ckpt" for label in labels]
    for label, ckpt in zip(labels, ckpts):
        config = out / f"config_{label}.json"
        config.write_text(json.dumps(run_config(label, args.seed, args.epochs), indent=2))
        if code := avfusion("train", "--config", config, "--data", out / "data.avxd",
                            "--out", ckpt, "--log", out / f"train_log_{label}.csv"):
            return code

    if code := avfusion("eval-sweep", "--model", *ckpts, "--data", out / "data.avxd",
                        "--strategy", *STRATEGIES, "--modality", "video", "audio",
                        "--seed", SWEEP_SEED, "--out", out / "sweep.csv"):
        return code

    print(f"\nartifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
