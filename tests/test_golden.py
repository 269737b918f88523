"""Golden pin: every bundled config's CSV, byte for byte, at a reduced trial count.

Any change to a byte of a bundled experiment's output fails here.  The full
trial counts are pinned by the committed ``results/*.csv``: regenerate them
with ``python scripts/run_experiments.py`` and check ``git diff results/``.
"""

import hashlib
from dataclasses import replace
from importlib import resources

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


@pytest.mark.parametrize("name", sorted(GOLDEN_SHA256))
def test_bundled_config_csv_is_byte_stable(name):
    config_dir = resources.files("fairorder.data") / "configs"
    with resources.as_file(config_dir / f"{name}.cfg") as path:
        config = replace(parse_config(path), trials=TRIALS)
    text = run_experiment(config).to_csv_text()
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_SHA256[name]
