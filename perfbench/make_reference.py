#!/usr/bin/env python3
"""Rewrite perfbench/reference.json from the current tree.

The correctness gate replays each workload's tiny variant at a fixed seed and
compares its outputs with this file. Regenerate it only when a change is meant
to alter the program's outputs, and say so in the change's description.

    python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402

if __name__ == "__main__":
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    reference = {name: wl.replay(w, workdir) for name, w in wl.WORKLOADS.items()}
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n", "utf-8")
    print(f"wrote {wl.REFERENCE_PATH}")
