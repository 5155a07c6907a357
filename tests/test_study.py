"""The quick missing-modality study, pinned byte for byte.

Every file `--quick` writes is listed with its SHA-256 (recorded with numpy
2.4, OpenBLAS 0.3.31 on one thread, x86-64). A change that alters any of
these bytes must say why; a different numpy or BLAS build may round
differently and need the digests recorded again.

To record them, run this file as a script:

    python tests/test_study.py

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

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_missing_modality_study.py"

QUICK_DIGESTS = {
    "config_clip_zero.json": "61fc6d2c33363f813efaf9cbe97ddc379d6a9ad17f49cc992608fa6bf00f025e",
    "config_frame_repeat.json": "4c519fd1377175e309362736a7d882fabf3eec5fe1f2260afc91ab9accea02ca",
    "config_frame_zero.json": "0e03840c62ed6d267b86e351d477077cd82cf1a39a1358c7615e855f88945774",
    "config_none.json": "6f11d2f5482ec5a121e87db144f37e922cab136f1a604a4072215665ff3fece5",
    "data.avxd": "19d0f776ecefcbde2730eadde956137ade4487ce4716563a6b5781b93acfb096",
    "data.json": "c0e24bb4a0510c388e53d715824605dbf5fcd37e25de30f29624778d316f9bf8",
    "model_clip_zero.ckpt": "3075d56f037f2ef7b977c3353d082a9db22debc9e83c6be1e8a83d5a23379743",
    "model_frame_repeat.ckpt": "a07f32f730f6596ba21a4c643dbaefbeb5ea95eddcb3f41441aa24227eed9ef3",
    "model_frame_zero.ckpt": "b310be490a4058a3267f90486189d6715d151dcb337c1df420e57b7ed23964b6",
    "model_none.ckpt": "9c3eda38cbbc1f3c2fef79f5a7982848ed5a90c4187ae93ea19665de10972652",
    "sweep_clip_zero_audio.csv": "cd0e63b0dbb64d3851474e2aa4e4e68cfe31c76026a13e06311ddb476b6662fa",
    "sweep_clip_zero_video.csv": "bf91ec14adc92bd5f09510ce31d67dcf308a290afe539c140b814c04a4062fb0",
    "sweep_frame_repeat_audio.csv": "8e88d68ca32235d1f537f3c6c02f7e0e080b508c212d89dd028b30db4568e8a7",
    "sweep_frame_repeat_video.csv": "9d9e0e43601c79a70e13bbd8c19450ca4dbb92967b506dcf0e51e1240b7d1725",
    "sweep_frame_zero_audio.csv": "9db1863402f6c284d3183e26ce0f430d8a3295251cd3b368bdf33d74bc9f9215",
    "sweep_frame_zero_video.csv": "63f5d9b8b58b8c08af298c74f066164e3e791fc260a4f771ad4b8f5defcbfdc9",
    "train_log_clip_zero.csv": "ffbd24f99bedb3475b616a9bdcc882fd7b0f5a407b3cffee30cc6bbdd413340b",
    "train_log_frame_repeat.csv": "0b69213f8d589d9dc5f3f744e656b5c537c55d76595ef8c182fb0c2c39de7e24",
    "train_log_frame_zero.csv": "e1cbb0d7cb320bc18eeef979fb7621717263405bcc596ffdef45788ce38cdf7a",
    "train_log_none.csv": "d968d8c98d9c0d7cf490da2c0a083382b14b4d32283d89cf9738f5c3606e9c7e",
}


def quick_study_digests(out: Path) -> dict[str, str]:
    """Run `--quick` into `out` (one BLAS thread) and hash each file it writes."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--quick"],
                   check=True, capture_output=True, env=env, timeout=600)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_quick_study_output_is_byte_identical(tmp_path):
    assert quick_study_digests(tmp_path / "quick") == QUICK_DIGESTS


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1"], "--seed must be >= 0, got -1"),
    (["--epochs", "0"], "--epochs must be >= 1, got 0"),
    # the last --out wins: a file, and a path through that file
    (["--out", "{file}"], "--out: cannot create directory '{file}': File exists"),
    (["--out", "{file}/sub"], "--out: cannot create directory '{file}/sub': Not a directory"),
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


def test_progress_line_reports_the_best_epochs_val_ccc():
    spec = importlib.util.spec_from_file_location("study", SCRIPT)
    study = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(study)
    epoch_log = study.harness.EpochLog
    log = [epoch_log(0, 0.9, 0.5, 0.25), epoch_log(1, 0.8, 0.125, 0.0625)]
    line = study.trained_line("none", 3.0, study.harness.TrainResult({}, None, log, 0))
    assert line == "trained none         in     3s  best epoch 0  val ccc +0.500/+0.250"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = quick_study_digests(Path(tmp) / "quick")
    print("QUICK_DIGESTS = {")
    for name, digest in digests.items():
        print(f'    "{name}": "{digest}",')
    print("}")
