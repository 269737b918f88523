"""Golden pin: every bundled config's CSV, byte for byte, at reduced trial counts.

Any change to a byte of a bundled experiment's output fails here.  Three
trials cover every config; 200 trials reach the per-trial paths of the
simulated tables (noise, tie keys, leader draws) far more often.  Full
trials, and the Monte Carlo stream, are pinned in the table of outputs of
``scripts/run_experiments.py``: by the committed ``results/*.csv`` and by the
``tightness`` sweep's SHA-256, both checked by its ``--check``.  A plain run
rewrites the CSVs; ``git diff results/`` shows what moved.  The sweep's CSV
as a plain run writes it is pinned here too.
"""

import hashlib
import importlib.util
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from fairorder.harness import parse_config, run_experiment

TRIALS = 3
GOLDEN_SHA256 = {
    "bounds_table": "64b83c284f68addea3ef8cc89052458015d4dae6de9df8f332c54ae6d5602054",
    "geo_bias": "378130a989ba7f66823c2c4e76fba38945c79412612cc6d2ded0c8e20092a66e",
    "tradeoff_curve": "8ddd5adc0763b7bad3857c151dcb6ffd2424de5896fed0b612184236b3d09f24",
    "sandwich": "f7eb93546c79f16c9e30bd1e0e75e5c96b4fe7fd7ad026794255a728de88ed47",
    "liquidation": "1935b4e2776d032b4f1091b1ef177b97923588cc5d8513c99c53e3beeeb14143",
}
MANY_TRIALS = 200
GOLDEN_SHA256_MANY = {
    "geo_bias": "af9f5f7abba50545bffc65e21c5e6f9c4138faa1d87004461f3b250bc1650dc1",
    "tradeoff_curve": "ee9cbe6308babce3647736353e237d3ff991eefe2ba1c9bf7cc996a228054e56",
    "sandwich": "1bfe4d0f804498e825375d902d8ec26a9efd17e797a3f0f3c1212549e85b3ae7",
}


def csv_sha256(name, trials):
    config_dir = resources.files("fairorder.data") / "configs"
    with resources.as_file(config_dir / f"{name}.cfg") as path:
        config = replace(parse_config(path), trials=trials)
    return hashlib.sha256(run_experiment(config).to_csv_text().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_bundled_config_csv_is_byte_stable(name):
    assert csv_sha256(name, TRIALS) == GOLDEN_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256_MANY))
def test_bundled_config_csv_is_byte_stable_at_many_trials(name):
    assert csv_sha256(name, MANY_TRIALS) == GOLDEN_SHA256_MANY[name]


# 10^6 rows are 61 full Monte Carlo blocks and a ragged one per estimate.
# The benchmark's bound_check batch pins the same bytes.
TIGHTNESS_SHA256 = "070039d8073a3859f070b89cf36018e89238e2cc220e79b085821e455024b16b"


def test_bound_tightness_csv_is_byte_stable(tmp_path, monkeypatch):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"
    spec = importlib.util.spec_from_file_location("run_experiments", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    assert module.main(["--only", "tightness", "--jobs", "1"]) == 0
    out = tmp_path / "results" / "tightness.csv"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TIGHTNESS_SHA256
