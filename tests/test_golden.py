"""Byte-exact CSV output for one mid-size run per scheme.

Each file in tests/golden/ is the rendered CSV of one configuration below:
a 32 x 8 MiB zoned device (2 MiB regions, whole-zone regions for
zns-direct, 256-page erase blocks for the reg-* FTL), the l2_wc preset at
seed 1 for 20 000 ops, 1000-op intervals, timing and hit verification on.
Every run reaches the stable stage, so the rows cover filling, eviction
and GC. zcachelib also runs at vop_ratio 0.5, where the drop filter
migrates the regions outside the vop partition.

The reference model, driven through the same `harness.drive` by
`model_engine.ModelEngine` with hit verification off, must render every
file byte for byte as well: the goldens are checked against an
independent implementation, not only against their own earlier output.
A later disagreement is a bug in one of the two.

Rewrite the files from the current code with:

    PYTHONPATH=src python tests/test_golden.py

which prints each file's SHA-256 prefix, whether the model renders the
same CSV, and the file's path. A behaviour change moves the model first,
so a rewrite that leaves the model disagreeing is not done.

A change to any of them is a behaviour change and needs its reason in
CHANGES.md.
"""

import hashlib
import os
from dataclasses import replace

import pytest

from model_engine import ModelEngine
from zonecache.harness import config_from_values, drive, render_csv, run
from zonecache.schemes import SCHEME_NAMES
from zonecache.workload import generate

MIB = 1024 * 1024
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

CONFIGS = [(name, {}) for name in SCHEME_NAMES] + [("zcachelib", {"vop_ratio": 0.5})]


def golden_stem(name, extra):
    return name + "".join(f"-{key}{value}" for key, value in sorted(extra.items()))


def golden_path(name, extra):
    return os.path.join(GOLDEN_DIR, golden_stem(name, extra) + ".csv")


def golden_config(name, extra):
    values = dict(scheme=name, zone_count=32, zone_capacity=8 * MIB,
                  region_size=8 * MIB if name == "zns-direct" else 2 * MIB,
                  preset="l2_wc", seed=1, op_count=20_000,
                  interval_ops=1000, timing=True, **extra)
    if name.startswith("reg-"):
        values["pages_per_block"] = 256  # a zoned scheme refuses the key
    return config_from_values(values)


def render(name, extra):
    report = run(replace(golden_config(name, extra), verify_hits=True))
    assert report.corrupt_hits == 0
    assert report.rows[-1].stage == "stable"
    return render_csv(report)


def render_model(name, extra):
    config = golden_config(name, extra)
    return render_csv(drive(ModelEngine(config.scheme),
                            generate(config.workload), config))


@pytest.mark.parametrize("name,extra", CONFIGS,
                         ids=[golden_stem(n, e) for n, e in CONFIGS])
def test_csv_matches_golden(name, extra):
    with open(golden_path(name, extra), newline="") as fh:
        want = fh.read()
    assert render(name, extra) == want


@pytest.mark.parametrize("name,extra", CONFIGS,
                         ids=[golden_stem(n, e) for n, e in CONFIGS])
def test_model_csv_matches_golden(name, extra):
    with open(golden_path(name, extra), newline="") as fh:
        want = fh.read()
    assert render_model(name, extra) == want


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, extra in CONFIGS:
        path = golden_path(name, extra)
        text = render(name, extra)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        model = ("model agrees" if render_model(name, extra) == text
                 else "MODEL DIFFERS")
        print(hashlib.sha256(text.encode()).hexdigest()[:12], model, path)
