"""Every committed config reproduces its committed artifacts byte for byte.

The files under ``tests/golden/<config>/`` are the output of
``duality-lab --config configs/<config>.json --out tests/golden/<config>``.
Regenerate them that way only when a change to a report is intended.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dualitylab import hopf
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


# perfbench/golden.json records the SHA-256 of every file each benchmark
# instance writes; committed configs appear there under their file stem.
PERFBENCH_GOLDEN = json.loads((ROOT / "perfbench" / "golden.json").read_text())
DIGESTS = {name: inst["files"] for workload in PERFBENCH_GOLDEN.values() for name, inst in workload.items()}

# Unseeded float instances of the benchmark, copied from perfbench/workloads.py:
# larger than any committed float config, so they pin float summation order.
FLOAT_INSTANCES = {
    "cycle-float-z24": {"command": "duality-cycle", "group": {"kind": "finite_abelian", "orders": [24]},
                        "backend": "float"},
    "axioms-s4-float": {"command": "hopf-axioms", "group": {"kind": "symmetric", "degree": 4},
                        "algebra": "both", "backend": "float"},
}


def sha256s(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


def test_goldens_agree_with_benchmark_digests(tmp_path, capsys):
    for golden in sorted(GOLDEN_DIR.iterdir()):
        assert sha256s(golden) == DIGESTS[golden.name], golden.name
    for name, config in FLOAT_INSTANCES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(path), "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        assert sha256s(tmp_path / name) == DIGESTS[name], name


LAW_VIEWS = (hopf._Products, hopf._Fibres)
LAW_CONFIGS = [c for c in CONFIGS if c.stem.startswith(("hopf_axioms_", "group_part_", "tensor_iso_", "duality_cycle_"))]
# the committed configs and the float instances read every law view by lookup or as its array; a
# float group-part on the function algebra looks fibres up and lists each, as _is_grouplike applies
# the coproduct
FIBRES_LISTED = {"command": "group-part", "group": {"kind": "finite_abelian", "orders": [2, 3]},
                 "algebra": "function", "mode": "both", "backend": "float"}


def test_law_view_listing_order_reaches_no_byte(monkeypatch, tmp_path, capsys):
    def run(name, config):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(path), "--out", str(tmp_path / name)]) == 0
        return sha256s(tmp_path / name)

    forward = run("fibres-listed", FIBRES_LISTED)
    # every law view lists its entries in reverse, and so does every fibre cut from a view
    listed = []
    for cls in LAW_VIEWS:
        def reversed_listing(self, _iter=cls.__iter__):
            listed.append(type(self))
            return reversed(list(_iter(self)))
        monkeypatch.setattr(cls, "__iter__", reversed_listing)

    def reversed_fibre(self, key, _getitem=hopf._Fibres.__getitem__):
        listed.append(dict)
        return dict(reversed(_getitem(self, key).items()))
    monkeypatch.setattr(hopf._Fibres, "__getitem__", reversed_fibre)
    for config in LAW_CONFIGS:
        main(["--config", str(config), "--out", str(tmp_path / config.stem)])
        assert sha256s(tmp_path / config.stem) == sha256s(GOLDEN_DIR / config.stem), config.stem
    for name, config in FLOAT_INSTANCES.items():
        assert run(name, config) == DIGESTS[name], name
    listed.clear()
    assert run("fibres-listed-reversed", FIBRES_LISTED) == forward
    capsys.readouterr()
    assert len(LAW_CONFIGS) == 8 and dict in listed
