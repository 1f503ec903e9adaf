"""Config validation, command execution, exit codes, and artifact layout."""

import ast
import itertools
import json
import math
import re
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from dualitylab import (
    ComplexFloatBackend,
    GroupSpec,
    WeightFunction,
    check_hopf_axioms,
    duality_cycle,
    explore_ball,
    function_algebra,
    group_algebra,
    heisenberg_witness,
    make_backend,
    make_group,
    nuclearity_witness,
    product_iso_check,
    standard_generators,
    weighted,
)
from dualitylab import cli
from dualitylab.cli import ConfigError, main, parse_config, run_command
from dualitylab.groups import SYMMETRIC_DEGREE_CAP
from dualitylab.hopf import (
    DUALITY_ORDER_CAP,
    GROUP_PART_FUNCTION_ORDER_CAP,
    GROUP_PART_GROUP_ORDER_CAP,
    HOPF_AXIOMS_DIM_CAP,
    TENSOR_DIM_CAP,
    require_group_part_order,
)
from dualitylab.semichar import require_exp_length_radius
from dualitylab.weighted import require_summability_radius


def errors(raw, **kwargs):
    with pytest.raises(ConfigError) as exc:
        parse_config(raw, **kwargs)
    return exc.value.errors


PAST_FLOAT_RANGE = "must be within float range (magnitude <= 1.798e+308)"


def test_command_required_and_validated():
    assert errors({}) == [("command", "required")]
    (path, msg), = errors({"command": "fourier"})
    assert path == "command" and "expected one of" in msg
    (path, msg), = errors([1, 2])
    assert path == "$" and "top level must be an object" in msg


def test_unknown_keys_reported_per_key():
    got = errors({"command": "counterexample", "nMax": 3, "nMx": 1, "zzz": 2})
    assert got == [("nMx", "unknown key"), ("zzz", "unknown key")]


def test_group_field_errors():
    base = {"command": "hopf-axioms"}
    assert errors({**base, "group": {"kind": "finite_abelian", "orders": [0]}}) == [
        ("group.orders[0]", "must be >= 1, got 0")
    ]
    assert errors({**base, "group": {"kind": "heisenberg", "rank": 2}}) == [
        ("group.rank", "not a heisenberg field")
    ]
    assert errors({**base, "group": {"kind": "heisenberg", "extra": 1}}) == [
        ("group.extra", "unknown key")
    ]
    (path, msg), = errors({**base, "group": {"kind": "dihedral"}})
    assert path == "group.kind" and "unknown group kind" in msg
    (path, msg), = errors({**base, "group": {"kind": "symmetric", "degree": 7}})
    assert path == "group.degree" and msg == "must be <= 6, got 7"
    (path, msg), = errors({**base, "group": {"kind": "free_abelian", "rank": 1}})
    assert path == "group" and "needs a finite group" in msg
    (path, msg), = errors({**base})
    assert path == "group" and "expected an object" in msg
    assert errors({**base, "group": {"kind": "symmetric"}}) == [("group.degree", "required")]
    # JSON null is a value, not an absent field
    assert errors({**base, "group": {"kind": "heisenberg", "rank": None}}) == [
        ("group.rank", "not a heisenberg field")
    ]
    assert errors({"command": "tensor-iso", "left": {"kind": "finite_abelian", "orders": [2]},
                   "right": {"kind": "finite_abelian", "orders": 3}}) == [
        ("right.orders", "expected a non-empty list of positive integers")
    ]


def test_counterexample_constraints():
    assert errors({"command": "counterexample"}) == [("nMax", "required")]
    assert errors({"command": "counterexample", "nMax": 0}) == [
        ("nMax", "must be >= 1, got 0")
    ]
    assert errors({"command": "counterexample", "nMax": 10001}) == [
        ("nMax", "must be <= 10000, got 10001")
    ]
    assert errors({"command": "counterexample", "nMax": 3, "C": -1}) == [
        ("C", "must be >= 0, got -1")
    ]
    assert errors({"command": "counterexample", "nMax": 3, "C": [-1, 2]}) == [
        ("C", "must be >= 0, got -1/2")
    ]
    assert errors({"command": "counterexample", "nMax": 3,
                   "group": {"kind": "free", "rank": 2}}) == [
        ("group.kind", "needs a heisenberg group, got kind 'free'")
    ]


def test_duality_cycle_constraints():
    base = {"command": "duality-cycle"}
    assert errors({**base, "group": {"kind": "symmetric", "degree": 3}}) == [
        ("group.kind", "needs a finite_abelian group, got kind 'symmetric'")
    ]
    z2 = {"kind": "finite_abelian", "orders": [2]}
    assert errors({**base, "group": z2, "perturb": [1]}) == [
        ("perturb", "expected [row, col], got [1]")
    ]
    assert errors({**base, "group": z2, "perturb": [2, 0]}) == [
        ("perturb[0]", "must be <= 1, got 2")
    ]


def test_cayley_constraints():
    base = {"command": "cayley", "group": {"kind": "free", "rank": 2}}
    assert errors({**base, "weights": [1, 2, 3]}) == [
        ("weights", "expected 4 weights (one per generator), got 3")
    ]
    assert errors({**base, "weights": [-1, 1, 1, 1]}) == [
        ("weights[0]", "must be >= 0, got -1")
    ]
    assert errors({**base, "radius": -1}) == [("radius", "must be >= 0, got -1")]
    (path, msg), = errors({**base, "generators": [[0, 0]]})
    assert path == "generators[0]"


def test_recipe_and_weights_constraints():
    base = {"command": "polar-suite", "group": {"kind": "free_abelian", "rank": 1}}
    assert errors({**base, "weightF": {"kind": "box"}}) == [
        ("weightF.kind", "unknown recipe kind 'box'")
    ]
    assert errors({**base, "weightF": {"kind": "sum", "args": [{"kind": "const"}]}}) == [
        ("weightF.args", "sum needs a list with at least two entries")
    ]
    assert errors({**base, "weightG": {"kind": "const", "value": [1, 2]}}) == [
        ("weightG.value", "must be >= 1, got 1/2")
    ]
    assert errors({**base, "weightG": {"kind": "const", "value": [10**400, 1]}}) == [
        ("weightG.value", PAST_FLOAT_RANGE)
    ]
    # a key that belongs to another kind is reported where it sits
    assert errors({**base, "weightF": {"kind": "const", "arg": {"kind": "bogus"}}}) == [
        ("weightF.arg", "not a const field")
    ]
    assert errors({**base, "weightG": {"kind": "expLength", "value": [1, 0]}}) == [
        ("weightG.value", "not a expLength field")
    ]
    assert errors({**base, "weightF": {"kind": "max", "args": [
        {"kind": "const"}, {"kind": "scale", "args": [], "arg": {"kind": "const"}}]}}) == [
        ("weightF.args[1].args", "not a scale field")
    ]
    nuc = {"command": "nuclearity", "group": {"kind": "free_abelian", "rank": 1}}
    assert errors({**nuc, "weights": [[1, 2], 1]}) == [
        ("weights", "nuclearity needs integer base weights")
    ]


def test_common_field_constraints():
    base = {"command": "counterexample", "nMax": 2}
    assert errors({**base, "seed": -1}) == [("seed", "must be >= 0, got -1")]
    assert errors({**base, "seed": True}) == [("seed", "expected an integer, got True")]
    assert errors({**base, "tolerance": 0}) == [("tolerance", "must be positive, got 0.0")]
    (path, msg), = errors({**base, "tolerance": [1, 0]})
    assert path == "tolerance" and msg == "denominator must be nonzero"
    assert errors({**base, "tolerance": [10**400, 1]}) == [("tolerance", PAST_FLOAT_RANGE)]
    assert errors({**base, "C": [10**400, 3]}) == [("C", PAST_FLOAT_RANGE)]
    assert errors({**base, "C": [-(10**400), 3]}) == [("C", PAST_FLOAT_RANGE)]


@pytest.mark.parametrize("tolerance, mode",
                         [(2, "bruteForce"), (1, "bruteForce"), (1, "both"), ([3, 2], "closedForm")])
def test_a_tolerance_that_makes_one_zero_is_refused(tmp_path, capsys, tolerance, mode):
    # at a tolerance of 1 or more one and zero compare equal, so no grouplike basis vector is
    # told from zero; the config stops at parse time, not in a traceback mid-run
    cfg = write_config(tmp_path, "run.json", {
        "command": "group-part", "group": {"kind": "symmetric", "degree": 3}, "algebra": "group",
        "mode": mode, "backend": "float", "tolerance": tolerance})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    value = float(Fraction(*tolerance) if isinstance(tolerance, list) else tolerance)
    message = f"must be below 1, where one and zero compare equal, got {value}"
    assert capsys.readouterr().err == f"config error at tolerance: {message}\n"
    assert not out.exists()
    with pytest.raises(ConfigError) as exc:
        ComplexFloatBackend(tolerance=value)
    assert exc.value.errors == [("", message)]
    assert ComplexFloatBackend(tolerance=0.999).tolerance == 0.999


@pytest.mark.parametrize("order", [6, 12])
def test_a_tiny_float_tolerance_still_finds_every_character(tmp_path, capsys, order):
    # the characters are enumerated exactly, on root exponents, so none is lost where their float
    # products round past the tolerance; the checks at that tolerance then fail, and the run says so
    cfg = write_config(tmp_path, "run.json", {
        "command": "group-part", "group": {"kind": "finite_abelian", "orders": [order]}, "algebra": "function",
        "backend": "float", "tolerance": 1e-16, "mode": "closedForm"})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["counts"] == {"closed_form": order} and not report["allPass"]


# a tensor-iso factor whose square passes TENSOR_DIM_CAP
TENSOR_SIDE = math.isqrt(TENSOR_DIM_CAP) + 1
# the least abelian order past the function-algebra bound for two runs (mode both)
BOTH_PAST = next(n for n in itertools.count(1) if 2 * n**3 > GROUP_PART_FUNCTION_ORDER_CAP**3)
Z, S3, F2, Z_PAST_CAP, Z_PAST_BOTH, Z_SIDE, Z_PAST_AXIOMS, Z_PAST_FUNCTION_PART, Z_PAST_GROUP_PART = (
    make_group(spec) for spec in
    (GroupSpec.free_abelian(1), GroupSpec.symmetric(3), GroupSpec.free(2),
     GroupSpec.finite_abelian([DUALITY_ORDER_CAP + 1]), GroupSpec.finite_abelian([BOTH_PAST]),
     GroupSpec.finite_abelian([TENSOR_SIDE]), GroupSpec.finite_abelian([HOPF_AXIOMS_DIM_CAP + 1]),
     GroupSpec.finite_abelian([GROUP_PART_FUNCTION_ORDER_CAP + 1]),
     GroupSpec.finite_abelian([GROUP_PART_GROUP_ORDER_CAP + 1])))


# each input rule: a config that breaks it, the JSON path of the rule's argument there,
# and a library call that breaks it the same way
@pytest.mark.parametrize("config, root, call", [
    ({"command": "hopf-axioms", "group": {"kind": "free_abelian", "rank": 1}}, "group",
     lambda: function_algebra(Z, ComplexFloatBackend())),
    ({"command": "duality-cycle", "group": {"kind": "symmetric", "degree": 3}}, "group",
     lambda: duality_cycle(S3, ComplexFloatBackend())),
    ({"command": "duality-cycle", "group": {"kind": "finite_abelian", "orders": [DUALITY_ORDER_CAP + 1]}},
     "group", lambda: duality_cycle(Z_PAST_CAP, ComplexFloatBackend())),
    ({"command": "counterexample", "nMax": 3, "group": {"kind": "free", "rank": 2}}, "group",
     lambda: heisenberg_witness(F2, 3)),
    ({"command": "nuclearity", "group": {"kind": "free_abelian", "rank": 1}, "weights": [[1, 2], 1]},
     "weights",
     lambda: nuclearity_witness(Z, standard_generators(Z), WeightFunction((Fraction(1, 2), Fraction(1))))),
    ({"command": "cayley", "group": {"kind": "free", "rank": 2}, "weights": [1, 2, 3]}, "weights",
     lambda: explore_ball(F2, standard_generators(F2), WeightFunction.enumerated(3))),
    ({"command": "counterexample", "nMax": 3, "tolerance": 0}, "tolerance",
     lambda: ComplexFloatBackend(0.0)),
    ({"command": "group-part", "algebra": "function", "mode": "both",
      "group": {"kind": "finite_abelian", "orders": [BOTH_PAST]}}, "group",
     lambda: require_group_part_order(Z_PAST_BOTH, "function", 2)),
    ({"command": "tensor-iso", "left": {"kind": "finite_abelian", "orders": [TENSOR_SIDE]},
      "right": {"kind": "finite_abelian", "orders": [TENSOR_SIDE]}}, "right",
     lambda: product_iso_check(Z_SIDE, Z_SIDE, ComplexFloatBackend())),
    ({"command": "hopf-axioms", "group": {"kind": "finite_abelian", "orders": [HOPF_AXIOMS_DIM_CAP + 1]}}, "group",
     lambda: check_hopf_axioms(function_algebra(Z_PAST_AXIOMS, ComplexFloatBackend()))),
    ({"command": "group-part", "algebra": "function", "mode": "closedForm",
      "group": {"kind": "finite_abelian", "orders": [GROUP_PART_FUNCTION_ORDER_CAP + 1]}}, "group",
     lambda: require_group_part_order(Z_PAST_FUNCTION_PART, "function", 1)),
    ({"command": "group-part", "algebra": "group", "mode": "closedForm",
      "group": {"kind": "finite_abelian", "orders": [GROUP_PART_GROUP_ORDER_CAP + 1]}}, "group",
     lambda: require_group_part_order(Z_PAST_GROUP_PART, "group", 1)),
    ({"command": "seminorm-suite", "group": {"kind": "free_abelian", "rank": 1}, "radius": 720}, "radius",
     lambda: require_exp_length_radius(Fraction(720))),
    ({"command": "seminorm-suite", "group": {"kind": "free_abelian", "rank": 1}, "radius": 400}, "radius",
     lambda: require_summability_radius(Fraction(400), 4.0 * 3.0)),
], ids=["finite", "finite_abelian", "duality-order", "heisenberg", "integer-weights", "weight-count", "tolerance",
        "both-function-part-order", "tensor-dim", "axioms-dim", "function-part-order", "group-part-order",
        "exp-length-radius", "summability-radius"])
def test_cli_reports_the_library_rule_at_its_path(config, root, call):
    with pytest.raises(ConfigError) as exc:
        call()
    assert errors(config) == [(f"{root}.{p}" if p else root, m) for p, m in exc.value.errors]


# each module-level size cap in the library: a config just past it, and the JSON path it is refused at
OVER_CAP = {
    "SYMMETRIC_DEGREE_CAP": ({"command": "hopf-axioms",
                              "group": {"kind": "symmetric", "degree": SYMMETRIC_DEGREE_CAP + 1}}, "group.degree"),
    "DUALITY_ORDER_CAP": ({"command": "duality-cycle",
                           "group": {"kind": "finite_abelian", "orders": [DUALITY_ORDER_CAP + 1]}}, "group"),
    "TENSOR_DIM_CAP": ({"command": "tensor-iso", "left": {"kind": "finite_abelian", "orders": [TENSOR_DIM_CAP + 1]},
                        "right": {"kind": "finite_abelian", "orders": [1]}}, "right"),
    "HOPF_AXIOMS_DIM_CAP": ({"command": "hopf-axioms",
                             "group": {"kind": "finite_abelian", "orders": [HOPF_AXIOMS_DIM_CAP + 1]}}, "group"),
    "GROUP_PART_FUNCTION_ORDER_CAP": ({"command": "group-part", "algebra": "function", "mode": "both",
                                       "group": {"kind": "finite_abelian", "orders": [BOTH_PAST]}}, "group"),
    "GROUP_PART_GROUP_ORDER_CAP": ({"command": "group-part", "algebra": "group", "mode": "closedForm",
                                    "group": {"kind": "finite_abelian",
                                              "orders": [GROUP_PART_GROUP_ORDER_CAP + 1]}}, "group"),
}
# names that end in _CAP but bound nothing a config can pass: the elementCap default only
# sets where explore_ball truncates, which a run reports as a resource-cap row
NOT_A_SIZE_CAP = {"DEFAULT_ELEMENT_CAP"}


def test_every_size_cap_is_refused_at_parse_time():
    caps = set()
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign):
                caps.update(t.id for t in node.targets if isinstance(t, ast.Name) and t.id.endswith("_CAP"))
    assert NOT_A_SIZE_CAP <= caps
    assert caps - NOT_A_SIZE_CAP == set(OVER_CAP)
    for name, (config, root) in OVER_CAP.items():
        assert [p for p, _ in errors(config)] == [root], name


def test_configs_exactly_at_each_cap_are_accepted():
    parse_config({"command": "tensor-iso", "left": {"kind": "finite_abelian", "orders": [TENSOR_DIM_CAP]},
                  "right": {"kind": "finite_abelian", "orders": [1]}})
    for algebra in ("function", "group"):
        parse_config({"command": "group-part", "mode": "closedForm", "algebra": algebra,
                      "group": {"kind": "symmetric", "degree": SYMMETRIC_DEGREE_CAP}})
    for algebra, cap in (("function", GROUP_PART_FUNCTION_ORDER_CAP), ("group", GROUP_PART_GROUP_ORDER_CAP)):
        parse_config({"command": "group-part", "mode": "closedForm", "algebra": algebra,
                      "group": {"kind": "finite_abelian", "orders": [cap]}})
    # two runs: BOTH_PAST - 1 is the largest abelian order within the function bound, S6 has 2 characters
    for group in ({"kind": "finite_abelian", "orders": [BOTH_PAST - 1]},
                  {"kind": "symmetric", "degree": SYMMETRIC_DEGREE_CAP}):
        parse_config({"command": "group-part", "mode": "both", "algebra": "function", "group": group})
    parse_config({"command": "group-part", "mode": "bruteForce", "algebra": "group",
                  "group": {"kind": "finite_abelian", "orders": [GROUP_PART_GROUP_ORDER_CAP]}})
    parse_config({"command": "hopf-axioms", "group": {"kind": "finite_abelian", "orders": [HOPF_AXIOMS_DIM_CAP]}})
    assert math.factorial(SYMMETRIC_DEGREE_CAP) <= HOPF_AXIOMS_DIM_CAP
    parse_config({"command": "hopf-axioms", "group": {"kind": "symmetric", "degree": SYMMETRIC_DEGREE_CAP}})
    parse_config({"command": "duality-cycle", "group": {"kind": "finite_abelian", "orders": [DUALITY_ORDER_CAP]}})


def test_overrides_and_echoes():
    cfg = parse_config({"command": "counterexample", "nMax": 2, "seed": 5}, seed_override=9)
    assert cfg.inputs["seed"] == 9
    assert errors({"command": "counterexample", "nMax": 2}, seed_override=-3) == [
        ("seed", "must be >= 0, got -3")
    ]
    cfg = parse_config(
        {"command": "duality-cycle", "group": {"kind": "finite_abelian", "orders": [2]}},
        backend_override="float",
    )
    assert cfg.inputs["backend"] == "float"
    cfg = parse_config({"command": "counterexample", "nMax": 2, "tolerance": [1, 10**9]})
    assert cfg.inputs["tolerance"] == 1e-9
    cfg = parse_config({"command": "group-part",
                        "group": {"kind": "symmetric", "degree": 3}})
    assert cfg.inputs["mode"] == "both" and cfg.inputs["algebra"] == "group"
    assert cfg.inputs["backend"] == "cyclotomic"
    # defaults survive the validators
    cfg = parse_config({"command": "nuclearity",
                        "group": {"kind": "free_abelian", "rank": 1}})
    assert cfg.inputs["radius"] == 14 and cfg.inputs["elementCap"] == 10**6
    cfg = parse_config({"command": "polar-suite",
                        "group": {"kind": "free_abelian", "rank": 1}})
    assert cfg.inputs["weightF"] == {"kind": "expLength"}
    assert cfg.inputs["weightG"] == {"kind": "const", "value": 3}


# per command, a config that sets every key the command declares
EVERY_KEY = {
    "hopf-axioms": {"group": {"kind": "symmetric", "degree": 3}, "algebra": "group", "backend": "float"},
    "duality-cycle": {"group": {"kind": "finite_abelian", "orders": [2]}, "perturb": [0, 1], "backend": "float"},
    "group-part": {"group": {"kind": "symmetric", "degree": 3}, "algebra": "function", "mode": "closedForm",
                   "expectedCount": 2, "backend": "float"},
    "tensor-iso": {"left": {"kind": "finite_abelian", "orders": [2]},
                   "right": {"kind": "finite_abelian", "orders": [3]}, "backend": "float"},
    "cayley": {"group": {"kind": "free", "rank": 2}, "generators": "standard", "weights": "constant",
               "radius": 3, "elementCap": 100, "samples": 10},
    "counterexample": {"group": {"kind": "heisenberg"}, "nMax": 3, "C": 1},
    "nuclearity": {"group": {"kind": "free_abelian", "rank": 1}, "generators": "standard", "weights": [1, 2],
                   "radius": 4, "elementCap": 100},
    "seminorm-suite": {"group": {"kind": "free_abelian", "rank": 1}, "radius": 4, "elementCap": 100,
                       "count": 2, "trials": 5},
    "polar-suite": {"group": {"kind": "free_abelian", "rank": 1}, "radius": 4, "elementCap": 100,
                    "weightF": {"kind": "expLength"}, "weightG": {"kind": "const", "value": 2}, "trials": 5},
}


def test_inputs_echo_exactly_the_declared_keys():
    assert set(EVERY_KEY) == set(cli._COMMANDS)
    for command, fields in EVERY_KEY.items():
        keys, _ = cli._COMMANDS[command]
        assert set(fields) == keys, command
        cfg = parse_config({"command": command, "seed": 1, "tolerance": 1e-9, **fields})
        assert set(cfg.inputs) == keys | {"command", "seed", "tolerance"}, command


def test_run_counterexample_results():
    cfg = parse_config({"command": "counterexample", "nMax": 10})
    report, tables = run_command(cfg)
    assert report["allPass"]
    assert report["results"]["firstViolation"] == 6
    assert report["results"]["C"] == 1
    assert [c["name"] for c in report["checks"]] == ["central-products", "envelope-crossing"]
    assert tables == {}
    assert "timing" not in report and "csv" not in report
    assert set(report) == {"allPass", "checks", "command", "inputs", "results", "version"}


def test_run_counterexample_at_zero_constant(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {"command": "counterexample", "nMax": 5, "C": 0})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["allPass"] and report["inputs"]["C"] == 0
    assert report["results"]["firstViolation"] == 1


def test_run_duality_cycle_fourier_table():
    cfg = parse_config(
        {"command": "duality-cycle", "group": {"kind": "finite_abelian", "orders": [2]}}
    )
    report, tables = run_command(cfg)
    assert report["allPass"]
    header, rows = tables["fourier.csv"]
    assert header == ["row", "col", "value"]
    assert rows == [[0, 0, "1"], [0, 1, "1"], [1, 0, "1"], [1, 1, "-1"]]
    assert report["csv"] == {"fourier.csv": {"columns": "row,col,value", "rows": 4}}


def test_run_group_part_expected_count_failure():
    cfg = parse_config({
        "command": "group-part",
        "group": {"kind": "symmetric", "degree": 3},
        "algebra": "function",
        "expectedCount": 3,
    })
    report, _ = run_command(cfg)
    assert not report["allPass"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["expected-count"]["passed"]
    assert by_name["modes-agree"]["passed"]
    assert report["results"]["counts"] == {"brute_force": 2, "closed_form": 2}


def test_run_seminorm_and_polar_check_names():
    cfg = parse_config({
        "command": "seminorm-suite",
        "group": {"kind": "free_abelian", "rank": 1},
        "radius": 6, "count": 3, "trials": 50,
    })
    report, _ = run_command(cfg)
    assert report["allPass"]
    assert [c["name"] for c in report["checks"]] == [
        "indicator-floor", "idempotent-consistency", "submultiplicative",
        "domination", "summability",
    ]
    cfg = parse_config({
        "command": "polar-suite",
        "group": {"kind": "free_abelian", "rank": 1},
        "radius": 8, "trials": 50,
    })
    report, _ = run_command(cfg)
    assert report["allPass"]
    assert [c["name"] for c in report["checks"]] == [
        "convolution-submultiplicative", "projection-contraction", "extremizer-optimal",
        "bipolar-agreement", "decomposition-sound",
        "weight-f-submultiplicative", "weight-g-submultiplicative",
    ]


Z_LINE = {"kind": "free_abelian", "rank": 1}


EXP_LENGTH_LIMIT = "709.782713"
# seminorm-suite draws each q(1_x) below 4 * 3, and the summability envelope q(1_x) exp(2 len x)
# times a partial sum below 2.3922 passes DBL_MAX past this radius
SUMMABILITY_LIMIT = "353.212794"


@pytest.mark.parametrize("config, limit", [
    ({"command": "seminorm-suite", "radius": 710, "trials": 5}, EXP_LENGTH_LIMIT),
    ({"command": "seminorm-suite", "radius": 720, "trials": 5}, EXP_LENGTH_LIMIT),
    ({"command": "seminorm-suite", "radius": 709, "trials": 5, "seed": 1}, SUMMABILITY_LIMIT),
    ({"command": "seminorm-suite", "radius": 354, "trials": 5}, SUMMABILITY_LIMIT),
    *(({"command": "polar-suite", "radius": 716, "trials": 5, "seed": seed}, EXP_LENGTH_LIMIT) for seed in range(1, 5)),
    ({"command": "polar-suite", "radius": 1430, "trials": 5}, EXP_LENGTH_LIMIT),
    ({"command": "polar-suite", "radius": 720, "trials": 5, "weightF": {"kind": "const", "value": 2},
      "weightG": {"kind": "max", "args": [{"kind": "const"}, {"kind": "expLength"}]}}, EXP_LENGTH_LIMIT),
], ids=["seminorm-710", "seminorm-720", "seminorm-709", "seminorm-354", *(f"polar-716-seed-{s}" for s in range(1, 5)),
        "polar-1430", "polar-720-weightG"])
def test_suites_refuse_a_radius_where_exp_length_overflows(tmp_path, capsys, config, limit):
    # an expLength weight read at a length above log(DBL_MAX), or a summability envelope that
    # multiplies two of them, would overflow mid-run
    cfg = write_config(tmp_path, "run.json", {"group": Z_LINE, **config})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error at radius: must be at most {limit},") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("config", [
    {"command": "seminorm-suite", "radius": 353, "trials": 5, "seed": 1},
    {"command": "polar-suite", "radius": 1430, "trials": 5, "weightF": {"kind": "const", "value": 2}},
], ids=["seminorm-353", "polar-1430-without-expLength"])
def test_suites_run_where_exp_length_stays_finite(tmp_path, capsys, config):
    cfg = write_config(tmp_path, "run.json", {"group": Z_LINE, **config})
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    capsys.readouterr()


def test_seminorm_suite_decides_summability_on_finite_numbers_up_to_its_largest_radius(monkeypatch):
    decided = []

    def recorded(q, f, report):
        c = weighted.summability_check(q, f, report)
        read = re.fullmatch(r"mass (\S+) envelope (\S+) partial (\S+)", c.detail)
        mass, envelope, partial = map(float, read.groups())
        decided.append(all(map(math.isfinite, (mass, envelope, partial, envelope * partial))))
        return c

    monkeypatch.setattr(cli, "summability_check", recorded)
    report, _ = run_command(parse_config({"command": "seminorm-suite", "group": Z_LINE, "radius": 353, "trials": 5,
                                          "seed": 1}))
    assert report["allPass"] and decided == [True] * 20


def test_truncated_suite_exploration_is_one_failing_row():
    for command in ("seminorm-suite", "polar-suite"):
        report, tables = run_command(parse_config({"command": command, "elementCap": 2,
                                                   "group": {"kind": "free_abelian", "rank": 1}}))
        assert not report["allPass"] and tables == {}
        assert report["checks"] == [{"name": "resource-cap", "passed": False, "residual": 0.0,
                                     "detail": "exploration truncated; raise elementCap or lower radius"}]
        assert report["results"] == {"settled": 2}


def test_failing_trial_rows_name_their_trial(monkeypatch):
    # no trial meets a negative tolerance, so every row that compares at REL_TOL fails
    monkeypatch.setattr(weighted, "REL_TOL", -1.0)
    rows = {}
    for raw in ({"command": "seminorm-suite", "group": {"kind": "free_abelian", "rank": 1},
                 "radius": 6, "count": 3, "trials": 50},
                {"command": "polar-suite", "group": {"kind": "free_abelian", "rank": 1},
                 "radius": 8, "trials": 50}):
        report, _ = run_command(parse_config(raw))
        rows.update((c["name"], c) for c in report["checks"])
    pair = r"trial \d+: lhs \S+, rhs \S+"
    for name in ("submultiplicative", "domination"):
        assert not rows[name]["passed"]
        assert re.fullmatch(r"3 seminorms x 50 tables; first failure in seminorm \d+, " + pair,
                            rows[name]["detail"]), rows[name]
    assert not rows["projection-contraction"]["passed"]
    assert re.fullmatch(pair, rows["projection-contraction"]["detail"]), rows["projection-contraction"]
    for name in ("extremizer-optimal", "decomposition-sound"):
        assert not rows[name]["passed"]
        assert re.fullmatch(r"trial \d+: support \(-?\d+,\)( \(-?\d+,\))*", rows[name]["detail"]), rows[name]


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def test_main_success_and_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {
        "command": "cayley",
        "group": {"kind": "free", "rank": 2},
        "radius": 4,
    })
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[PASS] subadditivity" in captured.out
    assert "[PASS] sphere-bound" in captured.out
    assert "all checks passed" in captured.out
    report = json.loads((out / "report.json").read_text())
    assert report["allPass"] and report["command"] == "cayley"
    # report keys come out sorted on disk
    text = (out / "report.json").read_text()
    assert text.index('"allPass"') < text.index('"checks"') < text.index('"version"')
    lines = (out / "spheres.csv").read_text().splitlines()
    assert lines[0] == "level,count,bound,cumulative_sum"
    assert len(lines) == 1 + report["csv"]["spheres.csv"]["rows"]
    # free(2) with enumerated weights 1..4: level-1 sphere holds only the first generator
    assert lines[1].startswith("1,1,1,")


@pytest.mark.parametrize("recipe", [
    {"weightG": {"kind": "const", "value": [3, 1]}},
    {"weightG": {"kind": "scale", "value": [5, 2], "arg": {"kind": "const"}}},
    {"weightF": {"kind": "const", "value": 2}},
    {"weightF": {"kind": "inverse", "arg": {"kind": "expLength"}}},
    {"weightG": {"kind": "inverse", "arg": {"kind": "expLength"}}},
], ids=["const-pair", "scale-pair", "weightF-without-expLength", "inverse-expLength",
        "inverse-expLength-weightG"])
def test_polar_suite_runs_every_accepted_recipe(tmp_path, capsys, recipe):
    cfg = write_config(tmp_path, "run.json", {
        "command": "polar-suite",
        "group": {"kind": "free_abelian", "rank": 1},
        "radius": 8, "trials": 50, **recipe,
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    for key, value in recipe.items():
        assert report["inputs"][key] == value
    # every sampled weight pair stays inside the settled ball
    details = [c["detail"] for c in report["checks"] if c["name"].endswith("-submultiplicative")
               and "detail" in c]
    assert len(details) == 2 and all(d.endswith(", 0 skipped") for d in details), details


@pytest.mark.parametrize("group,radius", [
    ({"kind": "free_abelian", "rank": 1}, 2000),
    ({"kind": "finite_abelian", "orders": [6]}, 5000),
], ids=["line-radius-2000", "z6-radius-5000"])
def test_cayley_summability_past_level_1024(tmp_path, capsys, group, radius):
    cfg = write_config(tmp_path, "run.json", {"command": "cayley", "group": group, "radius": radius})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert [c["passed"] for c in checks if c["name"] == "summability"] == [True]


@pytest.mark.parametrize("radius", [50, 20000])
def test_cayley_rows_stop_at_the_diameter_of_a_finite_group(tmp_path, capsys, radius):
    # Z6 with generator 1 has lengths 0..5; later levels are empty and carry
    # bounds 2^(n-1) past 4300 digits, which the CSV writer refuses
    cfg = write_config(tmp_path, "run.json", {
        "command": "cayley", "group": {"kind": "finite_abelian", "orders": [6]}, "radius": radius,
    })
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["csv"]["spheres.csv"]["rows"] == 5
    assert len((out / "spheres.csv").read_text().splitlines()) == 6
    [sphere] = [c for c in report["checks"] if c["name"] == "sphere-bound"]
    assert sphere["passed"] and sphere["detail"] == "levels 1..5 complete"


@pytest.mark.parametrize("group,radius", [
    ({"kind": "free_abelian", "rank": 1}, 15000),
    ({"kind": "finite_abelian", "orders": [40000]}, 20000),
], ids=["line-radius-15000", "z40000-radius-20000"])
def test_cayley_rejects_sphere_bounds_past_the_int_string_limit(tmp_path, capsys, group, radius):
    # the rows would reach level 15000 or 20000, where 2^(n-1) has more than
    # 4300 digits; parse time refuses before anything is explored or written
    cfg = write_config(tmp_path, "run.json", {"command": "cayley", "group": group, "radius": radius})
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith(f"config error at radius: sphere rows would reach level {radius},")
    assert not out.exists()


def test_duality_cycle_rejects_orders_past_the_cap(tmp_path, capsys):
    order = DUALITY_ORDER_CAP + 1
    cfg = write_config(tmp_path, "run.json", {"command": "duality-cycle",
                                              "group": {"kind": "finite_abelian", "orders": [order]}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error at group: duality cycle capped at order {DUALITY_ORDER_CAP}, got {order}\n")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command, extra, order", [
    pytest.param("hopf-axioms", {}, 1, id="hopf-axioms-1"),
    pytest.param("duality-cycle", {}, 12, id="duality-cycle-12"),
    pytest.param("group-part", {"algebra": "group"}, 1, id="group-part-1"),
    pytest.param("group-part", {"algebra": "function"}, 12, id="group-part-12"),
    pytest.param("tensor-iso", {"left": {"kind": "finite_abelian", "orders": [4]},
                                "right": {"kind": "finite_abelian", "orders": [6]}}, 1, id="tensor-iso-1"),
])
def test_backend_order_is_what_the_command_needs(monkeypatch, command, extra, order):
    # structure constants and point masses are all 0 or 1; characters need the exponent's roots
    built = []
    monkeypatch.setattr(cli, "make_backend", lambda *args, **kwargs: built.append(kwargs["order"]))
    group = {} if command == "tensor-iso" else {"group": {"kind": "finite_abelian", "orders": [4, 6]}}
    parse_config({"command": command, **group, **extra})
    assert built == [order]


def test_tensor_iso_past_the_cap_exits_2_before_a_backend_is_built(tmp_path, capsys, monkeypatch):
    def no_backend(*args, **kwargs):
        raise AssertionError("backend built for a refused config")

    monkeypatch.setattr(cli, "make_backend", no_backend)
    cfg = write_config(tmp_path, "run.json", {"command": "tensor-iso",
                                              "left": {"kind": "finite_abelian", "orders": [101]},
                                              "right": {"kind": "finite_abelian", "orders": [100]}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"config error at right: tensor dimension 10100 exceeds the cap {TENSOR_DIM_CAP}\n")
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("algebra, order, message, mode", [
    ("function", GROUP_PART_FUNCTION_ORDER_CAP + 1,
     f"group-part on the function algebra capped at runs x characters x order^2 = {GROUP_PART_FUNCTION_ORDER_CAP}^3, "
     f"got 1 x {GROUP_PART_FUNCTION_ORDER_CAP + 1} x {GROUP_PART_FUNCTION_ORDER_CAP + 1}^2", "closedForm"),
    ("group", 20011, f"group-part on the group algebra capped at order {GROUP_PART_GROUP_ORDER_CAP}, got 20011",
     "closedForm"),
    ("function", BOTH_PAST, f"group-part on the function algebra capped at runs x characters x order^2 = "
                            f"{GROUP_PART_FUNCTION_ORDER_CAP}^3, got 2 x {BOTH_PAST} x {BOTH_PAST}^2", "both"),
])
def test_group_part_past_the_cap_exits_2_before_a_backend_is_built(tmp_path, capsys, monkeypatch,
                                                                    algebra, order, message, mode):
    def no_backend(*args, **kwargs):
        raise AssertionError("backend built for a refused config")

    monkeypatch.setattr(cli, "make_backend", no_backend)
    cfg = write_config(tmp_path, "run.json", {"command": "group-part", "algebra": algebra, "mode": mode,
                                              "group": {"kind": "finite_abelian", "orders": [order]}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error at group: {message}\n"
    assert not (out / "report.json").exists()


def test_group_part_both_modes_run_on_s5(tmp_path, capsys):
    # the default mode is both; S5's group algebra has dimension 120
    cfg = write_config(tmp_path, "run.json", {"command": "group-part", "group": {"kind": "symmetric", "degree": 5}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["counts"] == {"brute_force": 120, "closed_form": 120}
    assert report["allPass"]


def test_nuclearity_rejects_gap_bounds_past_the_int_string_limit(tmp_path, capsys):
    # gaps on the line reach at most R / 2: level 15000 at radius 30000, where
    # n 2^(n-1) has more than 4300 digits; parse time refuses before anything is written
    line = {"kind": "free_abelian", "rank": 1}
    cfg = write_config(tmp_path, "run.json", {"command": "nuclearity", "group": line, "radius": 30000})
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["--config", str(cfg), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err.startswith("config error at radius: sphere rows would reach level 15000,")
    assert not out.exists()
    # levels 7500 and 10750 (bounds of 2,262 and 3,240 digits: both runs finish), Z6 capped
    # at its diameter, the benchmark's Heisenberg run
    for group, radius in ((line, 15000), (line, 21500), ({"kind": "finite_abelian", "orders": [6]}, 20000),
                          ({"kind": "heisenberg"}, 28)):
        parse_config({"command": "nuclearity", "group": group, "radius": radius})


@pytest.mark.parametrize("group", [{"kind": "symmetric", "degree": 1}, {"kind": "finite_abelian", "orders": [1]}])
def test_nuclearity_on_a_group_without_generators(tmp_path, group):
    # no generators means no weights, so the gap-level bound has no weight to divide by
    cfg = write_config(tmp_path, "run.json", {"command": "nuclearity", "group": group, "radius": 3})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "spheres.csv").read_text(encoding="utf-8").splitlines()[1:] == ["0,1,1,1.0"]
    assert json.loads((out / "report.json").read_text(encoding="utf-8"))["allPass"]


def test_main_check_failure_exit_code(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {
        "command": "group-part",
        "group": {"kind": "symmetric", "degree": 3},
        "algebra": "function",
        "expectedCount": 3,
    })
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert rc == 1
    assert "[FAIL] expected-count" in captured.out
    assert "some checks FAILED" in captured.out


def test_main_config_error_exit_codes(tmp_path, capsys):
    rc = main(["--config", str(tmp_path / "missing.json")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at")

    bad = tmp_path / "bad.json"
    bad.write_text("{,", encoding="utf-8")
    rc = main(["--config", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("config error at line 1")

    cfg = write_config(tmp_path, "invalid.json", {"command": "counterexample"})
    rc = main(["--config", str(cfg)])
    assert rc == 2
    assert capsys.readouterr().err == "config error at nMax: required\n"

    # numbers past float range stop at parse time, not in float() mid-run
    huge = [10**400, 1]
    for path, payload in [
        ("tolerance", {"command": "counterexample", "nMax": 2, "tolerance": huge}),
        ("C", {"command": "counterexample", "nMax": 2, "C": huge}),
        ("weightG.value", {"command": "polar-suite", "group": {"kind": "free_abelian", "rank": 1},
                           "weightG": {"kind": "const", "value": huge}}),
    ]:
        cfg = write_config(tmp_path, "huge.json", payload)
        assert main(["--config", str(cfg), "--out", str(tmp_path / "huge")]) == 2
        assert capsys.readouterr().err == f"config error at {path}: {PAST_FLOAT_RANGE}\n"


def test_main_seed_and_backend_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {
        "command": "duality-cycle",
        "group": {"kind": "finite_abelian", "orders": [4]},
        "seed": 3,
    })
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out), "--seed", "7", "--backend", "float"])
    capsys.readouterr()
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["inputs"]["seed"] == 7
    assert report["inputs"]["backend"] == "float"


def test_main_outputs_are_deterministic(tmp_path, capsys):
    payload = {
        "command": "polar-suite",
        "group": {"kind": "free_abelian", "rank": 1},
        "radius": 8, "trials": 60, "seed": 11,
    }
    cfg = write_config(tmp_path, "run.json", payload)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "report.json").read_bytes())
    capsys.readouterr()
    assert outs[0] == outs[1]

    payload = {"command": "cayley", "group": {"kind": "heisenberg"}, "radius": 6}
    cfg = write_config(tmp_path, "cayley.json", payload)
    pairs = []
    for name in ("c", "d"):
        out = tmp_path / name
        assert main(["--config", str(cfg), "--out", str(out)]) == 0
        pairs.append(((out / "report.json").read_bytes(), (out / "spheres.csv").read_bytes()))
    capsys.readouterr()
    assert pairs[0] == pairs[1]


def test_perturbed_cycle_counts_as_detection(tmp_path, capsys):
    cfg = write_config(tmp_path, "run.json", {
        "command": "duality-cycle",
        "group": {"kind": "finite_abelian", "orders": [6]},
        "perturb": [1, 2],
    })
    out = tmp_path / "out"
    rc = main(["--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "[PASS] perturbation-detected" in captured.out
    report = json.loads((out / "report.json").read_text())
    assert report["results"]["perturbed"] is True
    (check,) = report["checks"]
    assert check["name"] == "perturbation-detected" and check["passed"]


@pytest.mark.parametrize("backend", ["float", "cyclotomic"])
def test_fourier_csv_formats_each_distinct_entry_once(monkeypatch, backend):
    # the character table hands every cell of one power the same root: Z12 has 12, and the bumped
    # entry is one more object
    b = make_backend(backend, order=12) if backend == "cyclotomic" else make_backend(backend)
    columns = duality_cycle(make_group(GroupSpec.finite_abelian([12])), b, (1, 2)).transform.columns
    cls, calls = type(b), []
    original = cls.format

    def counting(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(cls, "format", counting)
    _, tables = run_command(parse_config({"command": "duality-cycle", "backend": backend, "perturb": [1, 2],
                                          "group": {"kind": "finite_abelian", "orders": [12]}}))
    assert len(calls) == 13
    assert tables["fourier.csv"][1] == [[i, j, original(b, columns[j][i])] for i in range(12) for j in range(12)]


def test_fourier_csv_keeps_the_sign_of_each_zero(tmp_path, capsys, monkeypatch):
    # equal values whose zero signs differ are distinct objects, so none takes another's string
    zeros = [0j, complex(0, -0.0), complex(-0.0, 0)]
    cycle = cli.duality_cycle

    def signed_zeros(group, backend, perturb):
        rep = cycle(group, backend, perturb)
        return replace(rep, transform=replace(rep.transform, columns={j: dict(enumerate(zeros)) for j in range(3)}))

    monkeypatch.setattr(cli, "duality_cycle", signed_zeros)
    cfg = write_config(tmp_path, "run.json", {"command": "duality-cycle", "backend": "float",
                                              "group": {"kind": "finite_abelian", "orders": [3]}})
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    lines = (out / "fourier.csv").read_text().splitlines()
    assert lines == ["row,col,value"] + [f"{i},{j},{text}" for i, text in enumerate(["0+0j", "0-0j", "-0+0j"])
                                         for j in range(3)]
