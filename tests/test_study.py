"""The quick missing-modality study, pinned byte for byte.

Every file `--quick` writes is listed with its SHA-256 (recorded with numpy
2.4, OpenBLAS 0.3.31 on one thread, x86-64). A change that alters any of
these bytes must say why; a different numpy or BLAS build may round
differently and need the digests recorded again.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_missing_modality_study.py"

QUICK_DIGESTS = {
    "config_clip_zero.json": "61fc6d2c33363f813efaf9cbe97ddc379d6a9ad17f49cc992608fa6bf00f025e",
    "config_frame_repeat.json": "4c519fd1377175e309362736a7d882fabf3eec5fe1f2260afc91ab9accea02ca",
    "config_frame_zero.json": "0e03840c62ed6d267b86e351d477077cd82cf1a39a1358c7615e855f88945774",
    "config_none.json": "6f11d2f5482ec5a121e87db144f37e922cab136f1a604a4072215665ff3fece5",
    "data.avxd": "19d0f776ecefcbde2730eadde956137ade4487ce4716563a6b5781b93acfb096",
    "model_clip_zero.ckpt": "3075d56f037f2ef7b977c3353d082a9db22debc9e83c6be1e8a83d5a23379743",
    "model_frame_repeat.ckpt": "a07f32f730f6596ba21a4c643dbaefbeb5ea95eddcb3f41441aa24227eed9ef3",
    "model_frame_zero.ckpt": "b310be490a4058a3267f90486189d6715d151dcb337c1df420e57b7ed23964b6",
    "model_none.ckpt": "9c3eda38cbbc1f3c2fef79f5a7982848ed5a90c4187ae93ea19665de10972652",
    "sweep_clip_zero_audio.csv": "a95efc6c81ff5a50f3dab027cd216999c67f0f1b29ebaf2944b653361f0c0182",
    "sweep_clip_zero_video.csv": "075b3af1b68a4d24f04c28dc9afaae17e8516e69a8e4f8e089f09cd4ba07e9dc",
    "sweep_frame_repeat_audio.csv": "b2552822008989c69f68f8f6e86d04f0d487449924c980b0640890a809964025",
    "sweep_frame_repeat_video.csv": "8e90765b319666350b8cc2ca19a8bb94ce14f692b62e5b66f1f20a2005f30633",
    "sweep_frame_zero_audio.csv": "4ed72659357117b990bf4e2e71c756dc5b8978d5375240ed5be98b0564b15080",
    "sweep_frame_zero_video.csv": "57cbc0e10e435d8d5cdcc783e01a9dc3c582aaa79fb7638a04a9642fec20c8f3",
    "train_log_clip_zero.csv": "c5a8899066362b81330519b11074e90f866004ca915d427006bdd6f983d8f577",
    "train_log_frame_repeat.csv": "e7ac90e7d1c6578b3d10fe9ac659cc1fcc406d51e834c7e2fe0ad6d96140c212",
    "train_log_frame_zero.csv": "fcc8696c57530d4b1fcc92118f9ab09ac9354adf3f5595952afcbfc4d0a310f0",
    "train_log_none.csv": "e2fd1066a80718c97d5cccd11ffc847e9ad6f945f4232e6113f05efefe6b2449",
}


def test_quick_study_output_is_byte_identical(tmp_path):
    out = tmp_path / "quick"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    subprocess.run([sys.executable, str(SCRIPT), "--out", str(out), "--quick"],
                   check=True, capture_output=True, env=env, timeout=600)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert got == QUICK_DIGESTS
