#!/usr/bin/env python3
"""End-to-end missing-modality study on synthetic data.

Trains a baseline model plus one model per training ablation strategy, then
evaluates every model under clip/frame corruption sweeps of both modalities
and writes one merged comparison CSV per (corruption, modality) pair, next to
the dataset, the run configs, the checkpoints and the training logs.

Usage:
    python scripts/run_missing_modality_study.py --out runs/study
    python scripts/run_missing_modality_study.py --out runs/quick --quick
"""

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from avfusion import harness
from avfusion.data import generate_synthetic, save_dataset
from avfusion.harness import DEFAULT_GRIDS, run_config_from_dict
from avfusion.model import save_checkpoint

FULL_DATA = {"n_clips": 200, "clip_seconds": 30.0, "d_audio_lld": 16, "d_video": 32, "seed": 7}
QUICK_DATA = {"n_clips": 24, "clip_seconds": 10.0, "d_audio_lld": 8, "d_video": 12, "seed": 7}
TRAIN_STRATEGIES = ("none", "clip_zero", "frame_zero", "frame_repeat")
SWEEP_SEED = 1234


def run_config(strategy: str, seed: int, epochs: int) -> dict:
    cfg = {
        "model": {"d_model": 32, "num_layers": 2, "num_heads": 4},
        "train": {"epochs": epochs, "lr": 1e-3, "batch_size": 16, "seq_len": 100, "seed": seed},
    }
    if strategy != "none":
        cfg["ablation"] = {"strategy": strategy, "modality": "video",
                           "probability": 0.5, "seed": seed + 1000}
    return cfg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="training seed")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--quick", action="store_true", help="small config for a fast smoke run")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    data_cfg = QUICK_DATA if args.quick else FULL_DATA
    epochs = 2 if args.quick else args.epochs

    print("generating dataset ...", flush=True)
    from avfusion.data import SyntheticConfig
    dataset = generate_synthetic(SyntheticConfig(**data_cfg))
    save_dataset(dataset, out / "data.avxd")

    prep = harness.prepare_data(dataset, harness.SplitFractions(), seq_len=100)
    print(f"{len(prep.train_windows)} train windows, {len(prep.val_windows)} val windows")

    trained = {}
    for strategy in TRAIN_STRATEGIES:
        cfg = run_config(strategy, args.seed, epochs)
        (out / f"config_{strategy}.json").write_text(json.dumps(cfg, indent=2))
        t0 = time.time()
        result = harness.train_on_prepared(run_config_from_dict(cfg), prep)
        save_checkpoint(result.params, result.config, out / f"model_{strategy}.ckpt")
        harness.write_train_log(result.log, out / f"train_log_{strategy}.csv")
        last = result.log[-1]
        print(f"trained {strategy:12s} in {time.time()-t0:5.0f}s  "
              f"best epoch {result.best_epoch}  "
              f"val ccc {last.ccc_valence:+.3f}/{last.ccc_arousal:+.3f}", flush=True)
        trained[strategy] = result

    for modality in ("video", "audio"):
        for eval_strategy in ("clip_zero", "frame_zero", "frame_repeat"):
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
