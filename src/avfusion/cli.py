"""Command line interface: synth, train, eval-sweep, gradcheck, report.

Exit codes: 0 success, 1 check failure, 2 invalid input, 3 dimension mismatch.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import harness
from .augment import MODALITIES, STRATEGIES
from .binio import FileFormatError
from .data import FPS_AUDIO, FPS_VIDEO, generate_synthetic, load_dataset, save_dataset
from .harness import ConfigError, DimensionMismatchError, SplitFractions, load_run_config
from .model import load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_DIMENSION_MISMATCH = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avfusion",
        description="Audio-visual affect regression with missing-modality training strategies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset file")
    p.add_argument("--config", required=True, help="synthetic config JSON (or run config with a data section)")
    p.add_argument("--out", required=True, help="output dataset path")

    p = sub.add_parser("train", help="train a model, optionally with ablation augmentation")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--data", help="dataset file (overrides the config data section)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--log", help="per-epoch CSV log path")

    p = sub.add_parser("eval-sweep", help="evaluate a checkpoint across corruption probabilities")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--modality", required=True, choices=MODALITIES)
    p.add_argument("--probs", help="comma-separated probabilities (default: the paper grid)")
    p.add_argument("--seed", type=int, default=0, help="sweep corruption seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--config", help="optional run config (for split fractions)")

    p = sub.add_parser("gradcheck", help="verify model gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="merge sweep CSVs into a comparison table")
    p.add_argument("csvs", nargs="+", help="sweep CSV files (one model each)")
    p.add_argument("--out", required=True, help="merged CSV path")
    return parser


def cmd_synth(args) -> int:
    config = harness.load_synthetic_config(args.config)
    dataset = generate_synthetic(config)
    save_dataset(dataset, args.out)
    clip = dataset.clips[0]
    print(f"wrote {len(dataset)} clips to {args.out} "
          f"(video {clip.video.shape[0]}x{clip.video.shape[1]} @{FPS_VIDEO}fps, "
          f"audio {clip.audio.shape[0]}x{clip.audio.shape[1]} @{FPS_AUDIO}fps)")
    return EXIT_OK


def _load_train_dataset(run, data_flag):
    if data_flag:
        return load_dataset(data_flag)
    if run.data_path:
        return load_dataset(run.data_path)
    if run.data is not None:
        return generate_synthetic(run.data)
    raise ConfigError("no dataset: pass --data or provide a config data section")


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    dataset = _load_train_dataset(run, args.data)
    prep = harness.prepare_data(dataset, run.splits, run.train.seq_len)
    result = harness.train_on_prepared(run, prep)
    save_checkpoint(result.params, result.config, args.out)
    if args.log:
        harness.write_train_log(result.log, args.log)
    for row in result.log:
        print(f"epoch {row.epoch}: loss {row.train_loss:.4f} "
              f"val ccc {row.ccc_valence:+.4f}/{row.ccc_arousal:+.4f}")
    print(f"saved best epoch {result.best_epoch} to {args.out}")
    return EXIT_OK


def cmd_eval_sweep(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    params, config = load_checkpoint(args.model)
    dataset = load_dataset(args.data)
    splits = load_run_config(args.config).splits if args.config else SplitFractions()
    prep = harness.prepare_data(dataset, splits, config.seq_len)
    if config.d_audio != prep.d_audio or config.d_video != prep.d_video:
        raise DimensionMismatchError(
            f"checkpoint expects audio {config.d_audio} / video {config.d_video} dims, "
            f"data provides {prep.d_audio} / {prep.d_video}")
    if args.probs:
        try:
            probs = [float(tok) for tok in args.probs.split(",") if tok != ""]
        except ValueError as exc:
            raise ConfigError(f"bad --probs list {args.probs!r}") from exc
        if not probs:
            raise ConfigError("--probs is empty")
        for i, p in enumerate(probs):
            if p in probs[:i]:  # a second row for one point would count it twice in `report`
                raise ConfigError(f"--probs repeats the value {p:g}")
    else:
        probs = list(harness.DEFAULT_GRIDS[args.strategy])
    rows = harness.run_sweep(params, config, prep.val_windows,
                             args.strategy, args.modality, probs, args.seed)
    harness.write_sweep_csv(rows, args.out)
    for r in rows:
        print(f"{r.strategy} {r.modality} p={r.probability:g}: "
              f"ccc {r.ccc_valence:+.4f}/{r.ccc_arousal:+.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    report = harness.gradcheck(args.seed)
    status = "PASS" if report.passed else "FAIL"
    print(f"gradcheck {status}: max rel err {report.max_rel_err:.3e} "
          f"(worst param {report.worst_param!r}, tolerance {report.tolerance:g})")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_report(args) -> int:
    labels, keys, models = harness.merge_reports(args.csvs)
    harness.write_merged_csv(labels, keys, models, args.out)
    print(harness.format_merged_table(labels, keys, models))
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "eval-sweep": cmd_eval_sweep,
    "gradcheck": cmd_gradcheck,
    "report": cmd_report,
}


def _check_output_dirs(args) -> None:
    # before any work: a missing directory would otherwise fail only at the
    # write, after the training or sweep it was to save
    for flag in ("out", "log"):
        parent = Path(getattr(args, flag, None) or "").parent
        if not parent.is_dir():
            raise ConfigError(f"--{flag}: directory {str(parent)!r} does not exist")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_output_dirs(args)
        return _COMMANDS[args.command](args)
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION_MISMATCH
    except (FileFormatError, OSError, ValueError, MemoryError) as exc:
        # ValueError covers ConfigError and ReportError; MemoryError is numpy
        # refusing an array too large for this machine (e.g. a huge d_model)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
