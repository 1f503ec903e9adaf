"""Every committed config reproduces its committed artifacts byte for byte.

The files under ``tests/golden/<config>/`` are the output of
``duality-lab --config configs/<config>.json --out tests/golden/<config>``.
Regenerate them that way only when a change to a report is intended.
"""

from pathlib import Path

import pytest

from dualitylab.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_config_matches_golden(config, tmp_path, capsys):
    main(["--config", str(config), "--out", str(tmp_path)])
    capsys.readouterr()
    want = GOLDEN_DIR / config.stem
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(p.name for p in want.iterdir())
    for name in names:
        assert (tmp_path / name).read_bytes() == (want / name).read_bytes(), name
