"""The synthetic generator's float64 output, pinned bit for bit.

The quick study stores its dataset as float32, which can hide a change in
the last bits of a float64 value, so this file hashes the float64 arrays
`generate_synthetic` returns: one SHA-256 per clip over the shape and bytes
of its labels, video and audio, in that order (recorded with numpy 2.4,
OpenBLAS 0.3.31 on one thread, x86-64). A different numpy or BLAS build may
round differently and need the digests recorded again.

To record them, run this file as a script:

    PYTHONPATH=src python tests/test_synth_digests.py

It prints the table below, ready to paste over `DIGESTS`.
"""

import hashlib

import numpy as np
import pytest

from avfusion.data import SyntheticConfig, generate_synthetic

CONFIGS = {
    # rho 0.3 makes the +/-1 clamp bind often; T_a = 730 is not a multiple of T_v = 219
    "clamped": SyntheticConfig(n_clips=5, clip_seconds=7.3, d_audio_lld=3, d_video=5,
                               rho=0.3, seed=11),
    "noiseless": SyntheticConfig(n_clips=3, clip_seconds=4.1, d_audio_lld=4, d_video=6,
                                 sigma_audio=0.0, sigma_video=0.0, seed=2),
    "one_clip": SyntheticConfig(n_clips=1, clip_seconds=2.0, seed=5),
    "defaults": SyntheticConfig(n_clips=3, clip_seconds=10.0, seed=0),
    "paper_dims": SyntheticConfig(n_clips=2, clip_seconds=3.0, d_audio_lld=65, d_video=4096,
                                  seed=7),
}

DIGESTS = {
    "clamped": [
        "6113e059bc0814776610a61355e444442e2042179d4085a29947d9d2701b836b",
        "eb1b1421d5616dd97dd73810513e1b76c114201c1b54fe22b92252c607dbad20",
        "7ac97263edfcae6ddd85de7354f8ebe5b3cd010e083c4dd05779f3d7821347b8",
        "9f2221149c6e06858cc8fbc4a5f0fc63a10f3592b2c9560dcd46e31f30a85ce1",
        "d10d3f4267018bcbaf53bf6cbf5d2612ea14dca0f4c13bc730b9ea861a8b3e40",
    ],
    "noiseless": [
        "353d6515b670964e571e5e204298f344c80f605bc3ff5702d37a5c15e66f0f00",
        "ca62ac6988e2085dcc3f87faade565b61e75e8ccef9bcb2c957ace8381029ad7",
        "523f04ff808c6748061ae175b506c5c899052586fc80671f61b69325410f9fd4",
    ],
    "one_clip": [
        "739459dc42ca530d62aeb1f222e9fb7dab73a80bcc60905a2371d9d7cea5ddef",
    ],
    "defaults": [
        "7a9f7df66ae3e50f71ac8aa969872ff79e16ced8679195633fcd030643ed4325",
        "72cb1c836124769379239cb8e0b91e8a471f763d1c1a0469dbd676b234d017ef",
        "34fb9c74838211e789134151facc991c24fa2ff6cae19cae3c509eb11cbf60be",
    ],
    "paper_dims": [
        "4b7366163d6abf94cc97126398bd28dcc78a91bc79dcb623a55713422ae9f0b8",
        "85df5cfc0025e28bddd627bae255982ab17164a003fafe09b6f6f0cf1ec5a9e1",
    ],
}


def clip_digests(config: SyntheticConfig) -> list[str]:
    digests = []
    for clip in generate_synthetic(config).clips:
        h = hashlib.sha256()
        for stream in (clip.labels, clip.video, clip.audio):
            assert stream.dtype == np.float64
            h.update(repr(stream.shape).encode())
            h.update(np.ascontiguousarray(stream).tobytes())
        digests.append(h.hexdigest())
    return digests


@pytest.mark.parametrize("name", CONFIGS)
def test_generator_float64_output_is_bitwise_pinned(name):
    assert clip_digests(CONFIGS[name]) == DIGESTS[name]


def test_clamped_config_reaches_the_clamp():
    clips = generate_synthetic(CONFIGS["clamped"]).clips
    labels = np.stack([c.labels for c in clips])
    assert labels.shape == (5, 219, 2)
    assert clips[0].audio.shape == (730, 3)
    assert np.any(np.abs(labels) == 1.0)
    assert np.all(np.abs(labels) <= 1.0)


if __name__ == "__main__":
    print("DIGESTS = {")
    for name, config in CONFIGS.items():
        print(f'    "{name}": [')
        for digest in clip_digests(config):
            print(f'        "{digest}",')
        print("    ],")
    print("}")
