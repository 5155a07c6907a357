#!/usr/bin/env python3
"""End-to-end missing-modality study on synthetic data.

Trains a baseline model plus one model per training ablation strategy, then
evaluates every model under clip/frame corruption sweeps of both modalities
and writes one merged comparison CSV per (corruption, modality) pair, next to
the dataset and its synth config, the run configs, the checkpoints and the
training logs.

Usage:
    python scripts/run_missing_modality_study.py --out runs/study
    python scripts/run_missing_modality_study.py --out runs/quick --quick
"""

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avfusion import harness
from avfusion.augment import STRATEGIES
from avfusion.data import SyntheticConfig, generate_synthetic, save_dataset
from avfusion.harness import DEFAULT_GRIDS, run_config_from_dict
from avfusion.model import save_checkpoint

FULL_DATA = {"n_clips": 200, "clip_seconds": 30.0, "d_audio_lld": 16, "d_video": 32, "seed": 7}
QUICK_DATA = {"n_clips": 24, "clip_seconds": 10.0, "d_audio_lld": 8, "d_video": 12, "seed": 7}
SWEEP_SEED = 1234
SEQ_LEN = 100


def run_config(strategy: str, seed: int, epochs: int) -> dict:
    cfg = {
        "model": {"d_model": 32, "num_layers": 2, "num_heads": 4},
        "train": {"epochs": epochs, "lr": 1e-3, "batch_size": 16, "seq_len": SEQ_LEN,
                  "seed": seed},
    }
    if strategy != "none":  # the baseline's label: it trains on clean windows
        cfg["ablation"] = {"strategy": strategy, "modality": "video",
                           "probability": 0.5, "seed": seed + 1000}
    return cfg


def trained_line(strategy: str, seconds: float, result: harness.TrainResult) -> str:
    """The progress line for a trained model: its best epoch and that epoch's val CCC."""
    best = result.log[result.best_epoch]
    return (f"trained {strategy:12s} in {seconds:5.0f}s  best epoch {result.best_epoch}  "
            f"val ccc {best.ccc_valence:+.3f}/{best.ccc_arousal:+.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--epochs", type=int,
                        help="training epochs (default: 2 with --quick, 10 without)")
    parser.add_argument("--quick", action="store_true", help="small config for a fast smoke run")
    args = parser.parse_args()
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

    print("generating dataset ...", flush=True)
    dataset = generate_synthetic(data_cfg)
    save_dataset(dataset, out / "data.avxd")
    # the form `avfusion synth --config` reads, which rewrites data.avxd byte for byte
    (out / "data.json").write_text(json.dumps(asdict(data_cfg), indent=2))

    prep = harness.prepare_data(dataset, harness.SplitFractions(), SEQ_LEN)
    print(f"{len(prep.train_windows)} train windows, {len(prep.val_windows)} val windows")

    trained = {}
    for strategy in ("none",) + STRATEGIES:
        cfg = run_config(strategy, args.seed, args.epochs)
        (out / f"config_{strategy}.json").write_text(json.dumps(cfg, indent=2))
        t0 = time.time()
        result = harness.train_on_prepared(run_config_from_dict(cfg), prep)
        save_checkpoint(result.params, result.config, out / f"model_{strategy}.ckpt")
        harness.write_train_log(result.log, out / f"train_log_{strategy}.csv")
        print(trained_line(strategy, time.time() - t0, result), flush=True)
        trained[strategy] = result

    for modality in ("video", "audio"):
        for eval_strategy in STRATEGIES:
            tables = {}
            for strategy, result in trained.items():
                rows = harness.run_sweep(result.params, result.config, prep.val_windows,
                                         eval_strategy, modality,
                                         list(DEFAULT_GRIDS[eval_strategy]), SWEEP_SEED)
                tables[f"trained_{strategy}"] = {
                    (r.strategy, r.modality, r.probability): (r.ccc_valence, r.ccc_arousal)
                    for r in rows}
            labels, keys, models = harness.merge_tables(tables)
            merged = out / f"sweep_{eval_strategy}_{modality}.csv"
            harness.write_merged_csv(labels, keys, models, merged)
            print(f"\n== eval {eval_strategy} on {modality} ==")
            print(harness.format_merged_table(labels, keys, models), flush=True)

    print(f"\nartifacts in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
