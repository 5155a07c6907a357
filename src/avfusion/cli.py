"""Command line interface: synth, train, eval-sweep, gradcheck, report.

Exit codes: 0 success, 1 check failure, 2 invalid input (also a run whose
values leave the float range: FloatingPointError), 3 dimension mismatch.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings
from pathlib import Path

from . import harness
from .augment import MODALITIES, STRATEGIES, AblationSpec
from .binio import FileFormatError
from .data import FPS_AUDIO, FPS_VIDEO, generate_synthetic, load_dataset, save_dataset
from .harness import ConfigError, DimensionMismatchError, SplitFractions, load_run_config
from .model import load_checkpoint, save_checkpoint

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_DIMENSION_MISMATCH = 3


class ArgumentParser(argparse.ArgumentParser):
    """Exits 2 on an error, with one `error: <message>` line; its subparsers share the class."""

    def error(self, message):
        # an unrecognized or ambiguous argument is quoted as typed, and may hold a line break
        self.exit(EXIT_INVALID_INPUT, f"error: {message}".replace("\n", "\\n") + "\n")


def _build_parser() -> ArgumentParser:
    parser = ArgumentParser(
        prog="avfusion",
        description="Audio-visual affect regression with missing-modality training strategies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset file")
    p.add_argument("--config", required=True, help="synthetic config JSON (SyntheticConfig keys)")
    p.add_argument("--out", required=True, help="output dataset path")

    p = sub.add_parser("train", help="train a model, optionally with ablation augmentation")
    p.add_argument("--config", required=True, help="run config JSON (model, train, ablation)")
    p.add_argument("--data", required=True, help="dataset file (split 0.8/0.2 into train/val)")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.add_argument("--log", help="per-epoch CSV log path")

    p = sub.add_parser("eval-sweep", help="score checkpoints across corruption probabilities")
    p.add_argument("--model", required=True, nargs="+", help="checkpoints, labelled by file stem")
    p.add_argument("--data", required=True, help="dataset file (the val clips of its 0.8/0.2 split)")
    p.add_argument("--strategy", required=True, nargs="+", choices=STRATEGIES,
                   help="corruptions to sweep; probability 0 scores clean windows")
    p.add_argument("--modality", required=True, nargs="+", choices=MODALITIES,
                   help="modalities to corrupt, each under every --strategy")
    p.add_argument("--probs", help="comma-separated probabilities (default: the paper grids)")
    p.add_argument("--seed", type=int, default=0, help="sweep corruption seed")
    p.add_argument("--out", required=True, help="output merged CSV path")

    p = sub.add_parser("gradcheck", help="verify model gradients against finite differences")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("report", help="merge sweep tables into one comparison table")
    p.add_argument("csvs", nargs="+", help="merged CSV files that eval-sweep or report wrote")
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


def cmd_train(args) -> int:
    run = load_run_config(args.config)
    prep = harness.prepare_data(load_dataset(args.data), SplitFractions(), run.train.seq_len)
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
    labels = harness.model_labels(args.model)
    try:
        probs = [float(tok) for tok in (args.probs or "").split(",") if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"bad --probs list {args.probs!r}") from exc
    if args.probs is not None and not probs:
        raise ConfigError("--probs is empty")
    if bad := [p for p in probs if not 0.0 <= p <= 1.0]:  # NaN included
        raise ConfigError(f"--probs must be in [0, 1], got {bad[0]:g}")
    for flag, values, fmt in (("strategy", args.strategy, ""), ("modality", args.modality, ""),
                              ("probs", probs, "g")):
        for i, v in enumerate(values):
            if v in values[:i]:  # one point would get two rows, which `report` refuses
                raise ConfigError(f"--{flag} repeats the value {v:{fmt}}")
    specs = [AblationSpec(s, m, p, args.seed) for s in args.strategy for m in args.modality
             for p in probs or harness.DEFAULT_GRIDS[s]]
    models = {}
    for i, path in enumerate(args.model):
        params, config = load_checkpoint(path)
        if i == 0:
            (windows,) = harness.split_windows(load_dataset(args.data), SplitFractions(),
                                               config.seq_len, ["val"])
            first = windows[0]
        elif config.seq_len != len(first.labels):  # one table scores one set of frames
            raise ConfigError(f"{str(path)!r}: seq_len {config.seq_len} differs from "
                              f"{str(args.model[0])!r}'s {len(first.labels)}")
        if (config.d_audio, config.d_video) != (first.audio.shape[1], first.video.shape[1]):
            raise DimensionMismatchError(
                f"{str(path)!r} expects audio {config.d_audio} / video {config.d_video} dims, "
                f"data provides {first.audio.shape[1]} / {first.video.shape[1]}")
        summaries = harness.score_specs(params, config, windows, specs)
        del params  # freed before the next load: one model's params at a time
        models[labels[i]] = {(spec.strategy, spec.modality, spec.probability):
                             (s.ccc_valence, s.ccc_arousal) for spec, s in zip(specs, summaries)}
    keys = harness.merged_keys(models)
    harness.write_merged_csv(labels, keys, models, args.out)
    print(harness.format_merged_table(labels, keys, models))
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


def _check_output_paths(args) -> None:
    # before any work: a missing directory, or an output that is a directory,
    # would otherwise fail only at the write, after the training or sweep it
    # was to save, and an output that is another path of the command would
    # overwrite it
    named = {}  # resolved path: the first flag naming it
    for flag in ("config", "data", "model", "csvs", "out", "log"):
        value = getattr(args, flag, None)
        for path in value if isinstance(value, list) else [value] if value else []:
            real = os.path.realpath(path)
            if flag in ("out", "log"):
                parent = Path(path).parent
                if not parent.is_dir():
                    raise ConfigError(f"--{flag}: directory {str(parent)!r} does not exist")
                if Path(path).is_dir():
                    raise ConfigError(f"--{flag}: {path!r} is a directory")
                if real in named:
                    raise ConfigError(f"--{flag}: {path!r} is also {named[real]}")
            named.setdefault(real, "a report input" if flag == "csvs" else f"--{flag}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed its one error line (2) or the help (0)
        return exc.code
    try:
        _check_output_paths(args)
        with warnings.catch_warnings():
            # ops raise FloatingPointError on a non-finite value; numpy's own
            # warning about it would only add lines before that error
            warnings.filterwarnings("ignore", "(overflow|invalid value) encountered",
                                    RuntimeWarning)
            return _COMMANDS[args.command](args)
    except DimensionMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIMENSION_MISMATCH
    except (FileFormatError, OSError, ValueError, MemoryError, FloatingPointError) as exc:
        # ValueError covers ConfigError and ReportError; MemoryError is numpy
        # refusing an array too large for this machine (e.g. a huge d_model),
        # or Python running out of memory, which raises it with no text;
        # FloatingPointError is a value out of the float range (e.g. a huge lr)
        text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else repr(exc))
        print(f"error: {text}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
