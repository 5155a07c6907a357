"""The quick missing-modality study, pinned byte for byte.

Every file `--quick` writes is listed with its SHA-256 (recorded with numpy
2.4, OpenBLAS 0.3.31 on one thread, x86-64). A change that alters any of
these bytes must say why; a different numpy or BLAS build may round
differently and need the digests recorded again.

To record them, run this file as a script:

    PYTHONPATH=src python tests/test_study.py

It runs `--quick` into a temporary directory and prints the table below,
ready to paste over `QUICK_DIGESTS`.
"""

import hashlib
import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from avfusion.augment import STRATEGIES
from avfusion.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_missing_modality_study.py"
LABELS = ("none",) + STRATEGIES  # the study's models, in its merged table's column order

QUICK_DIGESTS = {
    "config_clip_zero.json": "61fc6d2c33363f813efaf9cbe97ddc379d6a9ad17f49cc992608fa6bf00f025e",
    "config_frame_repeat.json": "4c519fd1377175e309362736a7d882fabf3eec5fe1f2260afc91ab9accea02ca",
    "config_frame_zero.json": "0e03840c62ed6d267b86e351d477077cd82cf1a39a1358c7615e855f88945774",
    "config_none.json": "6f11d2f5482ec5a121e87db144f37e922cab136f1a604a4072215665ff3fece5",
    "data.avxd": "19d0f776ecefcbde2730eadde956137ade4487ce4716563a6b5781b93acfb096",
    "data.json": "c0e24bb4a0510c388e53d715824605dbf5fcd37e25de30f29624778d316f9bf8",
    "sweep.csv": "188fe426275fa64833c149fe968bb92ad79e2f01465533a864f2b9caa18d3828",
    "train_log_clip_zero.csv": "c7bc336cd04a6626dbca53090cbdeeac027be75840df46a405d71155861402be",
    "train_log_frame_repeat.csv": "4603a080b2b67a7e78208fb0b6892f516cf4512aad4ed120f6fe67c92aeb74ca",
    "train_log_frame_zero.csv": "2b940fa28be558332a749512f0ed70f8b08b80a8969f5c7c97056cb00a8ea91a",
    "train_log_none.csv": "630fcec2d77f187e971953473251af58516b5859ef0aa886c875e21f2d1637c7",
    "trained_clip_zero.ckpt": "55a87af985e19fb6ae21f4572831ab92605321d988d30b83b6874218dee6580a",
    "trained_frame_repeat.ckpt": "6cad5d15ea6f97a84ed7c9c7ce7bb6b407f56cd79dbf028c72de92da22ebe4cd",
    "trained_frame_zero.ckpt": "4488ea5cf46662c8d60aa31631a5193c17ed1ce46ae6161500737e9143885716",
    "trained_none.ckpt": "4428acb0056fcf6ec9cb8715a1ac8ddc01c15d9ba6ebec401f037ff63eb49016",
}


def quick_study_digests(out: Path) -> dict[str, str]:
    """Run `--quick` into `out` (one BLAS thread) and hash each file it writes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--quick"],
                   check=True, capture_output=True, env=env, timeout=600)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def quick_study(tmp_path_factory):
    out = tmp_path_factory.mktemp("study") / "quick"
    return out, quick_study_digests(out)


def test_quick_study_output_is_byte_identical(quick_study):
    assert quick_study[1] == QUICK_DIGESTS


def test_cli_reproduces_the_quick_studys_checkpoint_and_merged_sweep(quick_study, tmp_path):
    quick, data = quick_study[0], str(quick_study[0] / "data.avxd")
    ckpt = tmp_path / "cli.ckpt"
    assert main(["train", "--config", str(quick / "config_frame_zero.json"), "--data", data,
                 "--out", str(ckpt)]) == 0
    assert ckpt.read_bytes() == (quick / "trained_frame_zero.ckpt").read_bytes()
    merged = tmp_path / "merged.csv"
    ckpts = [str(quick / f"trained_{label}.ckpt") for label in LABELS]
    assert main(["eval-sweep", "--model", *ckpts, "--data", data, "--strategy", *STRATEGIES,
                 "--modality", "video", "audio", "--seed", "1234", "--out", str(merged)]) == 0
    assert merged.read_bytes() == (quick / "sweep.csv").read_bytes()


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--epochs", "0"], "--epochs must be >= 1, got 0"),
    # the last --out wins: a file, and a path through that file
    (["--out", "{file}"], "--out: cannot create directory '{file}': File exists"),
    (["--out", "{file}/sub"], "--out: cannot create directory '{file}/sub': Not a directory"),
    # argparse's errors take the same one-line form
    (["--epochs", "two"], "argument --epochs: invalid int value: 'two'"),
    (["--quik"], "unrecognized arguments: --quik"),
])
def test_study_rejects_a_bad_seed_or_epoch_count_before_writing(tmp_path, argv, message):
    out, file = tmp_path / "study", tmp_path / "file"
    file.write_text("kept")
    argv = [arg.format(file=file) for arg in argv]
    done = subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), *argv],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr, done.stdout) == (
        2, f"error: {message.format(file=file)}\n", "")
    assert list(tmp_path.iterdir()) == [file] and file.read_text() == "kept"


def test_study_stops_at_the_first_failing_command(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("study", SCRIPT)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    real_main, commands = study.cli.main, []

    def fail_train(argv):
        commands.append(argv[0])
        return 2 if argv[0] == "train" else real_main(argv)

    monkeypatch.setattr(study.cli, "main", fail_train)
    assert study.main(["--out", str(tmp_path), "--quick"]) == 2
    assert commands == ["synth", "train"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config_none.json", "data.avxd",
                                                          "data.json"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = quick_study_digests(Path(tmp) / "quick")
    print("QUICK_DIGESTS = {")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
    print("}")
