"""Command-line front end for the verification suites.

One JSON config per run: the document names a command, a group, and the
command's parameters; the process writes ``report.json`` (plus ``spheres.csv``
or ``fourier.csv`` where a table is natural) into the output directory and
exits 0 exactly when every check passed, 1 on a failed check, 2 on a config
error.  Reports are deterministic: same config and seed, same bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .groups import (
    GeneratorSet,
    Group,
    GroupSpec,
    element_from_payload,
    make_generator_set,
    make_group,
    require,
    standard_generators,
)
from .hopf import (
    check_hopf_axioms,
    dual_hopf,
    duality_cycle,
    function_algebra,
    group_algebra,
    group_part,
    perturb_entry,
    product_iso_check,
    require_brute_force_dim,
    require_cycle_group,
    require_tensor_dim,
    same_tensors,
)
from .length import (
    DEFAULT_ELEMENT_CAP,
    DEFAULT_RADIUS,
    WeightFunction,
    explore_ball,
    gap_bound,
    heisenberg_witness,
    nuclearity_witness,
    sphere_bound,
    sphere_bound_check,
    subadditivity_check,
    summability_partial_sums,
)
from .reports import CheckResult, ConfigError, as_fraction, as_int, fail, write_csv, write_json
from .scalars import make_backend, require_tolerance
from .semichar import (
    ExpLength,
    build_semicharacter,
    parse_recipe,
    reads_inverse,
    sampled_submultiplicativity,
)
from .weighted import (
    SubmultiplicativeSeminorm,
    domination_check,
    seminorm_support_check,
    summability_check,
    weighted_property_trials,
)


# ---------------------------------------------------------------------------
# field-level parsing


def _echo_fraction(q: Fraction):
    return int(q) if q.denominator == 1 else str(q)


def _rooted(path: str, call, *args, **kwargs):
    """``call(*args, **kwargs)``; a ConfigError's paths, relative to the call's argument, are
    joined onto the JSON path ``path``, and any other ValueError is reported at ``path``."""
    try:
        return call(*args, **kwargs)
    except ConfigError as exc:
        raise ConfigError([(f"{path}.{p}" if p else path, m) for p, m in exc.errors]) from None
    except ValueError as exc:
        fail(path, str(exc))


def _as_str(value, path: str, choices=None) -> str:
    if not isinstance(value, str):
        fail(path, f"expected a string, got {value!r}")
    if choices is not None and value not in choices:
        fail(path, f"expected one of {sorted(choices)}, got {value!r}")
    return value


_GROUP_FIELDS = ("orders", "rank", "degree")


def _parse_group(obj, path: str) -> tuple[Group, dict]:
    """JSON shape only; ``GroupSpec`` holds the per-kind field rules."""
    if not isinstance(obj, dict):
        fail(path, f"expected an object, got {obj!r}")
    unknown = set(obj) - {"kind", "label", *_GROUP_FIELDS}
    if unknown:
        raise ConfigError([(f"{path}.{k}", "unknown key") for k in sorted(unknown)])
    if "kind" not in obj:
        fail(f"{path}.kind", "required")
    kind = _as_str(obj["kind"], f"{path}.kind")
    label = _as_str(obj.get("label", ""), f"{path}.label")
    fields = {k: obj[k] for k in _GROUP_FIELDS if k in obj}
    spec = _rooted(path, GroupSpec, kind=kind, label=label, **fields)
    echo = {"kind": kind, **fields}
    if label:
        echo["label"] = label
    return make_group(spec), echo


def _parse_generators(raw, group: Group, path: str) -> tuple[GeneratorSet, object]:
    value = raw.get("generators", "standard")
    if value == "standard":
        return _rooted(path, standard_generators, group), "standard"
    if not isinstance(value, list) or not value:
        fail(path, "expected \"standard\" or a non-empty list of elements")
    elems = [_rooted(f"{path}[{i}]", element_from_payload, group, p) for i, p in enumerate(value)]
    return _rooted(path, make_generator_set, group, elems), value


def _parse_weights(raw, count: int, path: str) -> tuple[WeightFunction, object]:
    value = raw.get("weights", "enumerated")
    if value == "enumerated":
        return WeightFunction.enumerated(count), "enumerated"
    if value == "constant":
        return WeightFunction.constant(count), "constant"
    if not isinstance(value, list):
        fail(path, "expected \"enumerated\", \"constant\", or a list of weights")
    _rooted(path, WeightFunction.require_count, value, count)
    parsed = [as_fraction(v, f"{path}[{i}]", minimum=0) for i, v in enumerate(value)]
    return WeightFunction(tuple(parsed)), value


# ---------------------------------------------------------------------------
# the run configuration


@dataclass
class RunConfig:
    command: str
    params: dict
    inputs: dict


_COMMON_KEYS = {"command", "seed", "tolerance"}


def parse_config(raw, seed_override=None, backend_override=None) -> RunConfig:
    """Validate one JSON document; raises ConfigError with precise paths."""
    if not isinstance(raw, dict):
        fail("$", f"top level must be an object, got {type(raw).__name__}")
    if "command" not in raw:
        fail("command", "required")
    command = _as_str(raw["command"], "command", choices=set(_COMMANDS))
    keys, parse, _ = _COMMANDS[command]
    unknown = set(raw) - _COMMON_KEYS - keys
    if unknown:
        raise ConfigError([(k, "unknown key") for k in sorted(unknown)])

    seed = raw.get("seed", 0) if seed_override is None else seed_override
    seed = as_int(seed, "seed", minimum=0, maximum=2**64 - 1)
    tolerance = float(as_fraction(raw.get("tolerance", 1e-9), "tolerance"))
    _rooted("tolerance", require_tolerance, tolerance)

    backend_name = None
    if "backend" in keys:
        backend_name = _as_str(
            raw.get("backend", "cyclotomic"), "backend", choices={"float", "cyclotomic"}
        )
        if backend_override is not None:
            backend_name = backend_override

    params: dict = {"seed": seed, "tolerance": tolerance}
    inputs: dict = {"command": command, "seed": seed, "tolerance": tolerance}
    parse(raw, params, inputs)
    if backend_name is not None:
        # built after every rule has passed: a cyclotomic backend's tables grow with the order
        inputs["backend"] = backend_name
        groups = [params[k] for k in ("group", "left", "right") if k in params]
        params["backend"] = make_backend(backend_name, tolerance=tolerance,
                                         order=math.lcm(*(g.exponent for g in groups)))
    return RunConfig(command=command, params=params, inputs=inputs)


def _parse_finite(raw, params, inputs, rule=require) -> Group:
    """The finite group every structure command shares; ``rule`` is the library check it must pass."""
    group, inputs["group"] = _parse_group(raw.get("group"), "group")
    params["group"] = _rooted("group", rule, group)
    return group


def _parse_hopf_axioms(raw, params, inputs):
    _parse_finite(raw, params, inputs)
    algebra = _as_str(raw.get("algebra", "both"), "algebra", choices={"function", "group", "both"})
    params["algebras"] = ("function", "group") if algebra == "both" else (algebra,)
    inputs["algebra"] = algebra


def _parse_duality_cycle(raw, params, inputs):
    group = _parse_finite(raw, params, inputs, require_cycle_group)
    perturb = raw.get("perturb")
    if perturb is not None:
        if not isinstance(perturb, list) or len(perturb) != 2:
            fail("perturb", f"expected [row, col], got {perturb!r}")
        perturb = perturb_entry(perturb, group.order)
    params["perturb"] = perturb
    inputs["perturb"] = None if perturb is None else list(perturb)


def _parse_group_part(raw, params, inputs):
    group = _parse_finite(raw, params, inputs)
    algebra = _as_str(raw.get("algebra", "group"), "algebra", choices={"function", "group"})
    mode = _as_str(raw.get("mode", "both"), "mode", choices={"closedForm", "bruteForce", "both"})
    expected = raw.get("expectedCount")
    if expected is not None:
        expected = as_int(expected, "expectedCount", minimum=0)
    params["algebra"] = algebra
    params["modes"] = {
        "closedForm": ("closed_form",),
        "bruteForce": ("brute_force",),
        "both": ("closed_form", "brute_force"),
    }[mode]
    if "brute_force" in params["modes"]:
        _rooted("mode", require_brute_force_dim, group.order)
    params["expected"] = expected
    inputs["algebra"] = algebra
    inputs["mode"] = mode
    if expected is not None:
        inputs["expectedCount"] = expected


def _parse_tensor_iso(raw, params, inputs):
    left, inputs["left"] = _parse_group(raw.get("left"), "left")
    right, inputs["right"] = _parse_group(raw.get("right"), "right")
    params["left"] = _rooted("left", require, left)
    params["right"] = _rooted("right", require, right)
    _rooted("right", require_tensor_dim, left.order * right.order)


def _parse_ball(raw, params, inputs, default_radius=DEFAULT_RADIUS):
    """The fields every search command shares; returns the generators' echo."""
    group, inputs["group"] = _parse_group(raw.get("group"), "group")
    gens, gens_echo = _parse_generators(raw, group, "generators")
    radius = as_fraction(raw.get("radius", default_radius), "radius", minimum=0)
    cap = as_int(raw.get("elementCap", DEFAULT_ELEMENT_CAP), "elementCap", minimum=1)
    params.update(group=group, generators=gens, radius=radius, element_cap=cap)
    inputs["radius"] = _echo_fraction(radius)
    inputs["elementCap"] = cap
    return gens_echo


def _reachable_length(group: Group, weights: WeightFunction, radius: Fraction) -> int:
    """The longest length a settled element can have under integer weights.

    That is floor(radius), on a finite group at most (order - 1) * max weight, the longest a
    shortest word can be.
    """
    level = math.floor(radius)
    if group.is_finite:
        level = min(level, (group.order - 1) * max((int(w) for w in weights.values), default=0))
    return level


def _check_printable_sphere_rows(level: int, bound) -> None:
    """Reject a radius whose spheres.csv rows reach a bound of more digits than str() allows.

    ``level`` is the highest row a run can write and ``bound(n)`` the row bound at level n, at
    least 2^(n-1).  A digit limit of 0, or a Python without one, means no limit.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    top = (10**limit - 1).bit_length()  # 2^m has more than `limit` digits exactly when m >= top
    # past `top` even 2^(n-1) is too long, so the bound is evaluated only below it
    if limit and (level > top or bound(level) >= 10**limit):
        fail("radius", f"sphere rows would reach level {level}, where the bound has more than "
                       f"{limit} digits, the integer string limit")


def _parse_cayley(raw, params, inputs):
    inputs["generators"] = _parse_ball(raw, params, inputs)
    weights, inputs["weights"] = _parse_weights(raw, len(params["generators"].elements), "weights")
    if weights.is_injective_integer:
        _check_printable_sphere_rows(_reachable_length(params["group"], weights, params["radius"]),
                                     sphere_bound)
    samples = as_int(raw.get("samples", 500), "samples", minimum=0)
    params.update(weights=weights, samples=samples)
    inputs["samples"] = samples


def _parse_counterexample(raw, params, inputs):
    group, inputs["group"] = _parse_group(raw.get("group", {"kind": "heisenberg"}), "group")
    _rooted("group", require, group, "heisenberg")
    if "nMax" not in raw:
        fail("nMax", "required")
    n_max = as_int(raw["nMax"], "nMax", minimum=1, maximum=10**4)
    constant = as_fraction(raw.get("C", 1), "C", minimum=0)
    params.update(group=group, n_max=n_max, constant=constant)
    inputs["nMax"] = n_max
    inputs["C"] = _echo_fraction(constant)


def _parse_nuclearity(raw, params, inputs):
    inputs["generators"] = _parse_ball(raw, params, inputs)
    weights, inputs["weights"] = _parse_weights(raw, len(params["generators"].elements), "weights")
    _rooted("weights", weights.require_integer)
    # along a base-shortest word of length l, each letter of weight w_k costs k more in the
    # companion, so the gap is at most c l with c = max k / w_k, and at most R - l for a
    # companion length R: at most R c / (1 + c) (R itself when a weight is 0)
    level = _reachable_length(params["group"], weights.shifted_by_index(), params["radius"])
    if weights.values and min(weights.values) > 0:
        c = max(k / w for k, w in enumerate(weights.values, start=1))
        level = math.floor(level * c / (1 + c))
    _check_printable_sphere_rows(level, gap_bound)
    params["weights"] = weights


def _parse_seminorm_suite(raw, params, inputs):
    _parse_ball(raw, params, inputs, default_radius=8)
    count = as_int(raw.get("count", 20), "count", minimum=1)
    trials = as_int(raw.get("trials", 200), "trials", minimum=1)
    params.update(count=count, trials=trials)
    inputs["count"] = count
    inputs["trials"] = trials


def _parse_polar_suite(raw, params, inputs):
    _parse_ball(raw, params, inputs)
    trials = as_int(raw.get("trials", 1000), "trials", minimum=1)
    inputs["weightF"] = raw.get("weightF", {"kind": "expLength"})
    inputs["weightG"] = raw.get("weightG", {"kind": "const", "value": 3})
    params.update(trials=trials, recipe_f=parse_recipe(inputs["weightF"], "weightF"),
                  recipe_g=parse_recipe(inputs["weightG"], "weightG"))
    inputs["trials"] = trials


# ---------------------------------------------------------------------------
# command runners


def _cmd_hopf_axioms(params):
    group = params["group"]
    backend = params["backend"]
    checks = []
    checked = []  # (algebra, its axioms, its dual's axioms)
    for alg in params["algebras"]:
        build = function_algebra if alg == "function" else group_algebra
        h = build(group, backend)
        # dual_hopf twice returns the same tensors, so when h's dual is an
        # algebra already checked, h's two lists are that algebra's, swapped
        dual = dual_hopf(h)
        lists = next(((d, a) for k, a, d in checked if same_tensors(dual, k)), None) or check_hopf_axioms(h)
        checked.append((h, *lists))
        for prefix, axioms in zip((alg, f"{alg}-dual"), lists):
            checks.extend(replace(c, name=f"{prefix}/{c.name}") for c in axioms)
    results = {"order": group.order, "backend": backend.name}
    return checks, results, {}


def _cmd_duality_cycle(params):
    group = params["group"]
    backend = params["backend"]
    rep = duality_cycle(group, backend, params["perturb"])
    if params["perturb"] is None:
        checks = list(rep.stages)
    else:
        failing = [s.name for s in rep.stages if not s.passed]
        checks = [
            CheckResult(
                name="perturbation-detected",
                passed=not rep.passed,
                detail="tripped: " + ", ".join(failing) if failing else "no stage tripped",
            )
        ]
    columns = rep.transform.columns
    rows = [[i, j, backend.format(columns[j][i])] for i in range(group.order) for j in range(group.order)]
    tables = {"fourier.csv": (["row", "col", "value"], rows)}
    results = {"order": group.order, "backend": backend.name, "perturbed": params["perturb"] is not None}
    return checks, results, tables


def _cmd_group_part(params):
    group = params["group"]
    backend = params["backend"]
    build = function_algebra if params["algebra"] == "function" else group_algebra
    h = build(group, backend)
    checks = []
    counts = {}
    for mode in params["modes"]:
        res = group_part(h, mode)
        counts[mode] = res.count
        checks.append(CheckResult(f"{mode}/verified", res.verified, res.worst_residual))
        checks.append(CheckResult(f"{mode}/closed-under-product", res.closed_under_product))
    if len(counts) == 2:
        a, b = counts["closed_form"], counts["brute_force"]
        checks.append(CheckResult("modes-agree", a == b, detail=f"closed {a}, brute {b}"))
    if params["expected"] is not None:
        count = next(iter(counts.values()))
        checks.append(
            CheckResult("expected-count", count == params["expected"],
                        detail=f"found {count}, expected {params['expected']}")
        )
    results = {"algebra": params["algebra"], "counts": {k: v for k, v in sorted(counts.items())},
               "dimension": h.dim}
    return checks, results, {}


def _cmd_tensor_iso(params):
    checks = product_iso_check(params["left"], params["right"], params["backend"])
    results = {
        "leftOrder": params["left"].order,
        "rightOrder": params["right"].order,
        "productOrder": params["left"].order * params["right"].order,
    }
    return checks, results, {}


def _spheres_table(rows) -> dict:
    """``spheres.csv`` from sphere rows (sphere sizes or nuclearity gap counts)."""
    return {"spheres.csv": (["level", "count", "bound", "cumulative_sum"],
                            [[r.level, r.count, r.bound, repr(r.cumulative)] for r in rows])}


def _partial_check(name: str, passed: bool, rep) -> CheckResult:
    return CheckResult(name, passed, residual=max(rep.partial - rep.closed_form, 0.0),
                       detail=f"partial {rep.partial:.12g}, closed form {rep.closed_form:.12g}")


def _cmd_cayley(params):
    report = explore_ball(
        params["group"], params["generators"], params["weights"],
        params["radius"], params["element_cap"],
    )
    checks = []
    tables = {}
    sub = subadditivity_check(report, samples=params["samples"], seed=params["seed"])
    checks.append(sub.as_check("subadditivity"))
    if params["weights"].is_injective_integer:
        spheres = sphere_bound_check(report)
        checks.append(
            CheckResult("sphere-bound", spheres.passed,
                        detail=f"levels 1..{spheres.max_level} complete")
        )
        tables.update(_spheres_table(spheres.rows))
        if not report.truncated:
            summ = summability_partial_sums(report)
            checks.append(_partial_check("summability", summ.passed, summ))
    results = {
        "settled": len(report.lengths),
        "truncated": report.truncated,
        "boundary": None if report.boundary is None else _echo_fraction(report.boundary),
        "maxCompleteLevel": report.max_complete_integer_level(),
    }
    return checks, results, tables


def _cmd_counterexample(params):
    rep = heisenberg_witness(params["group"], params["n_max"], params["constant"])
    first = rep.first_violation
    checks = [
        CheckResult("central-products", rep.products_pass,
                    detail=f"n = 1..{params['n_max']} verified"),
        CheckResult(
            "envelope-crossing",
            all(r.violated == (r.n >= first) for r in rep.rows),
            detail=f"first violation at n = {first}",
        ),
    ]
    results = {"firstViolation": first, "nMax": params["n_max"], "C": _echo_fraction(rep.constant)}
    return checks, results, {}


def _cmd_nuclearity(params):
    rep = nuclearity_witness(
        params["group"], params["generators"], params["weights"],
        params["radius"], params["element_cap"],
    )
    checks = [
        CheckResult("difference-counts", rep.counts_pass,
                    detail=f"{len(rep.rows)} gap levels, region {rep.region_size}"),
        _partial_check("difference-partial", rep.partial_pass, rep),
    ]
    tables = _spheres_table(rep.rows)
    results = {
        "regionSize": rep.region_size,
        "excluded": rep.excluded,
        "partial": rep.partial,
        "closedForm": rep.closed_form,
    }
    return checks, results, tables


_SEMINORM_CHECKS = ("indicator-floor", "idempotent-consistency", "submultiplicative",
                    "domination", "summability")


def _explore_enumerated(params):
    """The ball under enumerated weights, plus the runner output when it was truncated."""
    report = explore_ball(
        params["group"], params["generators"], WeightFunction.enumerated(len(params["generators"].elements)),
        params["radius"], params["element_cap"],
    )
    if not report.truncated:
        return report, None
    return report, (
        [CheckResult("resource-cap", False, detail="exploration truncated; raise elementCap or lower radius")],
        {"settled": len(report.lengths)},
        {},
    )


def _cmd_seminorm_suite(params):
    report, truncated = _explore_enumerated(params)
    if truncated:
        return truncated
    region = [x for x, _ in report.final_items()]
    f = ExpLength(report)
    rng = np.random.default_rng(params["seed"])
    agg = {name: (True, 0.0, "") for name in _SEMINORM_CHECKS}  # passed, worst, first failure
    for k in range(params["count"]):
        size = int(rng.integers(1, min(8, len(region)) + 1))
        picks = rng.choice(len(region), size=size, replace=False)
        support = tuple(region[int(i)] for i in picks)
        weights = dict(zip(support, rng.uniform(1.0, 4.0, size=size).tolist()))
        scale = float(rng.uniform(1.0, 3.0))
        q = SubmultiplicativeSeminorm(support=support, weights=weights, scale=scale)
        outcomes = seminorm_support_check(q, rng, trials=params["trials"])
        outcomes.append(domination_check(q, rng, trials=params["trials"]))
        outcomes.append(summability_check(q, f, report))
        for c in outcomes:
            ok, worst, first = agg[c.name]
            if ok and not c.passed:
                ok, first = False, f"; first failure in seminorm {k}" + (f", {c.detail}" if c.detail else "")
            agg[c.name] = (ok, max(worst, c.residual), first)
    detail = f"{params['count']} seminorms x {params['trials']} tables"
    checks = [CheckResult(name, ok, worst, detail + first) for name, (ok, worst, first) in agg.items()]
    results = {"regionSize": len(region), "count": params["count"], "trials": params["trials"]}
    return checks, results, {}


def _cmd_polar_suite(params):
    report, truncated = _explore_enumerated(params)
    if truncated:
        return truncated
    # products of half-radius elements stay settled, so every weight evaluates
    half = [x for x, v in report.final_items() if 2 * v <= report.radius]
    if reads_inverse(params["recipe_f"]) or reads_inverse(params["recipe_g"]):
        # a weight read at (x*y)^-1 = y^-1 x^-1 needs the inverses half-radius too
        inv = params["group"].inv
        settled = set(half)
        half = [x for x in half if inv(x) in settled]
    f = build_semicharacter(params["recipe_f"], report)
    g = build_semicharacter(params["recipe_g"], report)
    checks = weighted_property_trials(f, g, half, group=params["group"], trials=params["trials"],
                                      seed=params["seed"])
    for name, weight in (("weight-f", f), ("weight-g", g)):
        sub = sampled_submultiplicativity(weight, half, group=params["group"], seed=params["seed"])
        checks.append(sub.as_check(f"{name}-submultiplicative"))
    results = {"regionSize": len(half), "trials": params["trials"]}
    return checks, results, {}


# command -> (the config keys it takes besides _COMMON_KEYS, parser, runner);
# a command takes a scalar backend exactly when "backend" is among its keys
_COMMANDS = {
    "hopf-axioms": ({"group", "algebra", "backend"}, _parse_hopf_axioms, _cmd_hopf_axioms),
    "duality-cycle": ({"group", "perturb", "backend"}, _parse_duality_cycle, _cmd_duality_cycle),
    "group-part": ({"group", "algebra", "mode", "expectedCount", "backend"}, _parse_group_part,
                   _cmd_group_part),
    "tensor-iso": ({"left", "right", "backend"}, _parse_tensor_iso, _cmd_tensor_iso),
    "cayley": ({"group", "generators", "weights", "radius", "elementCap", "samples"}, _parse_cayley,
               _cmd_cayley),
    "counterexample": ({"group", "nMax", "C"}, _parse_counterexample, _cmd_counterexample),
    "nuclearity": ({"group", "generators", "weights", "radius", "elementCap"}, _parse_nuclearity,
                   _cmd_nuclearity),
    "seminorm-suite": ({"group", "radius", "elementCap", "count", "trials"}, _parse_seminorm_suite,
                       _cmd_seminorm_suite),
    "polar-suite": ({"group", "radius", "elementCap", "weightF", "weightG", "trials"}, _parse_polar_suite,
                    _cmd_polar_suite),
}


def run_command(cfg: RunConfig) -> tuple[dict, dict]:
    """Execute the configured command; returns (report dict, csv tables)."""
    _, _, run = _COMMANDS[cfg.command]
    checks, results, tables = run(cfg.params)
    report = {
        "allPass": all(c.passed for c in checks),
        "checks": [c.to_json() for c in checks],
        "command": cfg.command,
        "inputs": cfg.inputs,
        "results": results,
        "version": __version__,
    }
    if tables:
        report["csv"] = {
            name: {"columns": ",".join(header), "rows": len(rows)}
            for name, (header, rows) in sorted(tables.items())
        }
    return report, tables


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="duality-lab",
        description="Run one verification suite described by a JSON config.",
    )
    p.add_argument("--config", required=True, metavar="PATH", help="JSON config file")
    p.add_argument("--out", metavar="DIR", default=".", help="output directory (default: .)")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--backend", choices=("float", "cyclotomic"), default=None,
                   help="override the scalar backend where one applies")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"config error at {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(raw, seed_override=args.seed, backend_override=args.backend)
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error at {path}: {message}", file=sys.stderr)
        return 2

    report, tables = run_command(cfg)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "report.json", report)
    for name, (header, rows) in sorted(tables.items()):
        write_csv(out_dir / name, header, rows)

    for c in report["checks"]:
        mark = "PASS" if c["passed"] else "FAIL"
        detail = f"  ({c['detail']})" if c.get("detail") else ""
        print(f"[{mark}] {c['name']}{detail}")
    verdict = "all checks passed" if report["allPass"] else "some checks FAILED"
    print(f"{verdict}; report written to {out_dir / 'report.json'}")
    return 0 if report["allPass"] else 1


if __name__ == "__main__":
    sys.exit(main())
