"""Damaged inputs end in a valid load or in the format's own error.

Hypothesis truncates a tiny dataset, a tiny checkpoint and a merged sweep CSV
at any length, or flips any one of their bytes (XOR with 1..255). Each case
must load or raise FileFormatError (binary files) or ReportError (CSV): the
CLI maps both to exit 2 with one line, and any other exception would end in
a traceback. A CSV that loads must hold only probabilities in [0, 1] and
CCCs in [-1, 1]. Two more fuzzers build run-config and synthetic-config
objects from the real section and key names with arbitrary JSON values; each
must parse or raise ConfigError. Most run-config edits draw a value the key
accepts, so about half the configs parse, and a parsed RunConfig must hold
every value its config gave.
"""

import copy
import json
from dataclasses import fields

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from avfusion import harness
from avfusion.augment import MODALITIES, STRATEGIES, AblationSpec
from avfusion.binio import FileFormatError
from avfusion.data import SyntheticConfig, generate_synthetic, load_dataset, save_dataset
from avfusion.model import ModelConfig, init_params, load_checkpoint, save_checkpoint

TINY_MODEL = ModelConfig(d_audio=2, d_video=2, num_layers=1, d_model=2, num_heads=1,
                         ffn_mult=1, seq_len=2)


def _write_dataset(path):
    save_dataset(generate_synthetic(SyntheticConfig(n_clips=2, clip_seconds=0.2, d_audio_lld=2,
                                                    d_video=2, seed=3)), path)


def _write_checkpoint(path):
    save_checkpoint(init_params(TINY_MODEL, seed=3), TINY_MODEL, path)


def _write_merged_csv(path):
    keys = [("clip_zero", "video", p) for p in (1.0, 0.5, 0.0)]
    tables = {label: {k: (0.1 * i, -0.2 * i) for i, k in enumerate(keys)}
              for label in ("trained_none", "trained_clip_zero")}
    harness.write_merged_csv(tables, path)


# name: (writer, loader, the error a damaged file may raise)
FORMATS = {
    "dataset": (_write_dataset, load_dataset, FileFormatError),
    "checkpoint": (_write_checkpoint, load_checkpoint, FileFormatError),
    "merged_csv": (_write_merged_csv, harness.read_sweep_results, harness.ReportError),
}


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {}
    for name, (write, load, _) in FORMATS.items():
        path = root / f"{name}.bin"
        write(path)
        load(path)  # the undamaged file loads
        out[name] = (path.read_bytes(), root / f"damaged_{name}")
    return out


@pytest.mark.parametrize("name", list(FORMATS))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_damaged_file_loads_or_raises_its_format_error(originals, name, data):
    raw, path = originals[name]
    at = data.draw(st.integers(0, len(raw) - 1), label="at")
    if data.draw(st.booleans(), label="truncate"):
        damaged = raw[:at]
    else:
        flip = data.draw(st.integers(1, 255), label="xor")
        damaged = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]
    path.write_bytes(damaged)
    _, load, error = FORMATS[name]
    try:
        loaded = load(path)
    except error:
        return
    if name == "merged_csv":  # an accepted CSV holds only values a sweep can produce
        for table in loaded.values():
            for (_, _, p), (v, a) in table.items():
                assert 0.0 <= p <= 1.0 and abs(v) <= 1.0 and abs(a) <= 1.0


# every key a run config may hold, by section; the model section holds only
# the architecture keys, as the data and train.seq_len fix the others
CONFIG_KEYS = {section: [f.name for f in fields(cls)] for section, cls in (
    ("train", harness.TrainParams), ("ablation", AblationSpec))}
CONFIG_KEYS["model"] = ["num_layers", "d_model", "num_heads", "ffn_mult"]
VALID_CONFIG = {"train": {"epochs": 1}, "model": {}, "ablation": {"strategy": "clip_zero"}}
COUNTED, SEED = st.integers(1, 120), st.integers(0, 2**32)
# for each key of CONFIG_KEYS, values it accepts
VALID_VALUES = {
    ("train", "epochs"): COUNTED, ("train", "lr"): st.floats(1e-6, 1.0),
    ("train", "batch_size"): COUNTED, ("train", "seq_len"): COUNTED, ("train", "seed"): SEED,
    ("ablation", "strategy"): st.sampled_from(STRATEGIES),
    ("ablation", "modality"): st.sampled_from(MODALITIES),
    ("ablation", "probability"): st.floats(0.0, 1.0), ("ablation", "seed"): SEED,
    **{("model", key): COUNTED for key in CONFIG_KEYS["model"]},
}
SYNTH_KEYS = [f.name for f in fields(SyntheticConfig)]
VALID_SYNTH = {"n_clips": 2, "clip_seconds": 1.0}
DELETE = object()
JSON_VALUES = (st.none() | st.booleans() | st.integers() | st.just(10**400)
               | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=3)
               # a fresh list or dict per draw: an edit may write into a drawn dict
               | st.builds(list) | st.builds(dict, wat=st.just(1)))
# mostly values a key may take, so that many edited configs still parse
CONFIG_VALUES = (st.integers(-2, 120) | st.floats(-0.5, 2.0)
                 | st.sampled_from(STRATEGIES + MODALITIES) | JSON_VALUES | st.just(DELETE))


@st.composite
def run_config_objects(draw):
    """VALID_CONFIG after up to four edits. Two in three set a real key to a
    value it accepts; the others set or delete one key (real or unknown) to
    any value, or replace or delete a whole section."""
    obj = copy.deepcopy(VALID_CONFIG)
    for _ in range(draw(st.integers(0, 4), label="edits")):
        if draw(st.sampled_from([True, True, False]), label="valid"):
            section, key = draw(st.sampled_from(list(VALID_VALUES)))
            value = draw(VALID_VALUES[section, key])
        else:
            section = draw(st.sampled_from([*CONFIG_KEYS, "wat"]))
            key = draw(st.sampled_from([*CONFIG_KEYS.get(section, []), "wat", None]))
            value = draw(CONFIG_VALUES)
        if key is not None and not isinstance(obj.get(section), dict):
            obj[section] = {}
        target, name = (obj, section) if key is None else (obj[section], key)
        if value is DELETE:
            target.pop(name, None)
        else:
            target[name] = value
    return obj


@settings(max_examples=300, deadline=None)
@given(obj=run_config_objects())
def test_run_config_parses_or_raises_config_error(obj):
    try:
        run = harness.run_config_from_dict(obj)
    except harness.ConfigError:
        event("ConfigError")
        return
    event("RunConfig")
    # every value the config holds is the parsed value; no section, no ablation
    for section, values in obj.items():
        parsed = getattr(run, section)
        for key, value in values.items():
            assert (parsed[key] if section == "model" else getattr(parsed, key)) == value
    assert ("ablation" in obj) == (run.ablation is not None)


@st.composite
def synthetic_config_objects(draw):
    """VALID_SYNTH after up to four edits, each setting or deleting one key (real or unknown)."""
    obj = dict(VALID_SYNTH)
    for _ in range(draw(st.integers(0, 4), label="edits")):
        key = draw(st.sampled_from([*SYNTH_KEYS, "wat"]))
        value = draw(CONFIG_VALUES)
        if value is DELETE:
            obj.pop(key, None)
        else:
            obj[key] = value
    return obj


@pytest.fixture(scope="module")
def synth_config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("synth") / "data.json"


@settings(max_examples=300, deadline=None)
@given(obj=synthetic_config_objects())
def test_synthetic_config_parses_or_raises_config_error(synth_config_path, obj):
    synth_config_path.write_text(json.dumps(obj))
    try:
        config = harness.load_synthetic_config(synth_config_path)
    except harness.ConfigError:
        event("ConfigError")
        return
    event("SyntheticConfig")
    assert isinstance(config, SyntheticConfig)
