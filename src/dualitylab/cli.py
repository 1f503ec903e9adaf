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
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .groups import (
    SIZE_FIELDS,
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
    require_axioms_dim,
    require_cycle_group,
    require_group_part_order,
    require_tensor_dim,
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
from .reports import CheckResult, ConfigError, as_fraction, as_int, fail, fold, write_csv, write_json
from .scalars import DEFAULT_TOLERANCE, make_backend, require_tolerance
from .semichar import (
    ExpLength,
    build_semicharacter,
    parse_recipe,
    reads_exp_length,
    reads_inverse,
    require_exp_length_radius,
    sampled_submultiplicativity,
)
from .weighted import (
    SubmultiplicativeSeminorm,
    domination_check,
    require_summability_radius,
    seminorm_support_check,
    summability_check,
    weighted_property_trials,
)


# ---------------------------------------------------------------------------
# field-level parsing: each parser takes a field's value and JSON path and returns (value, echo)


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


def _parse_choice(value, path: str, *choices):
    return (_as_str(value, path, set(choices)),) * 2


def _parse_int(value, path: str, minimum: int, maximum=None):
    return (as_int(value, path, minimum=minimum, maximum=maximum),) * 2


def _parse_fraction(value, path: str):
    q = as_fraction(value, path, minimum=0)
    return q, _echo_fraction(q)


def _parse_group(obj, path: str) -> tuple[Group, dict]:
    """JSON shape only; ``GroupSpec`` holds the per-kind field rules."""
    if not isinstance(obj, dict):
        fail(path, f"expected an object, got {obj!r}")
    unknown = set(obj) - {"kind", "label", *SIZE_FIELDS}
    if unknown:
        raise ConfigError([(f"{path}.{k}", "unknown key") for k in sorted(unknown)])
    if "kind" not in obj:
        fail(f"{path}.kind", "required")
    kind = _as_str(obj["kind"], f"{path}.kind")
    label = _as_str(obj.get("label", ""), f"{path}.label")
    fields = {k: obj[k] for k in SIZE_FIELDS if k in obj}
    spec = _rooted(path, GroupSpec, kind=kind, label=label, **fields)
    echo = {"kind": kind, **fields}
    if label:
        echo["label"] = label
    return make_group(spec), echo


def _parse_generators(value, path: str, group: Group) -> tuple[GeneratorSet, object]:
    if value == "standard":
        return _rooted(path, standard_generators, group), "standard"
    if not isinstance(value, list) or not value:
        fail(path, "expected \"standard\" or a non-empty list of elements")
    elems = [_rooted(f"{path}[{i}]", element_from_payload, group, p) for i, p in enumerate(value)]
    return _rooted(path, make_generator_set, group, elems), value


def _parse_weights(value, path: str, count: int) -> tuple[WeightFunction, object]:
    if value == "enumerated":
        return WeightFunction.enumerated(count), "enumerated"
    if value == "constant":
        return WeightFunction.constant(count), "constant"
    if not isinstance(value, list):
        fail(path, "expected \"enumerated\", \"constant\", or a list of weights")
    _rooted(path, WeightFunction.require_count, value, count)
    parsed = [as_fraction(v, f"{path}[{i}]", minimum=0) for i, v in enumerate(value)]
    return WeightFunction(tuple(parsed)), value


def _parse_perturb(value, path: str, order: int):
    if value is None:
        return None, None
    if not isinstance(value, list) or len(value) != 2:
        fail(path, f"expected [row, col], got {value!r}")
    entry = perturb_entry(value, order)
    return entry, list(entry)


def _parse_recipe(value, path: str):
    return parse_recipe(value, path), value


# ---------------------------------------------------------------------------
# the run configuration


@dataclass
class RunConfig:
    command: str
    run: Callable[[], tuple[list[CheckResult], dict, dict]]  # -> (checks, results, csv tables)
    inputs: dict


class _Fields:
    """One config's fields as its command reads them.

    ``fields(key, default, parse, *args)`` passes the key's value (``default`` when it is absent)
    and the key, as its JSON path, to ``parse``, writes the echo it returns to ``inputs[key]``,
    and returns the value.
    """

    def __init__(self, raw: dict, inputs: dict):
        self.raw, self.inputs = raw, inputs

    def __call__(self, key: str, default, parse, *args):
        value, self.inputs[key] = parse(self.raw.get(key, default), key, *args)
        return value

    def backend(self, *groups):
        """The scalar backend over the lcm of the groups' exponents (order 1, the rationals, for
        no groups); a command builds it after every rule has passed, since a cyclotomic backend's
        tables grow with the order."""
        return make_backend(self.inputs["backend"], tolerance=self.inputs["tolerance"],
                            order=math.lcm(*(g.exponent for g in groups)))


_COMMON_KEYS = {"command", "seed", "tolerance"}


def parse_config(raw, seed_override=None, backend_override=None) -> RunConfig:
    """Validate one JSON document; raises ConfigError with precise paths."""
    if not isinstance(raw, dict):
        fail("$", f"top level must be an object, got {type(raw).__name__}")
    if "command" not in raw:
        fail("command", "required")
    command = _as_str(raw["command"], "command", choices=set(_COMMANDS))
    keys, read = _COMMANDS[command]
    unknown = set(raw) - _COMMON_KEYS - keys
    if unknown:
        raise ConfigError([(k, "unknown key") for k in sorted(unknown)])

    seed = raw.get("seed", 0) if seed_override is None else seed_override
    seed = as_int(seed, "seed", minimum=0, maximum=2**64 - 1)
    tolerance = float(as_fraction(raw.get("tolerance", DEFAULT_TOLERANCE), "tolerance"))
    _rooted("tolerance", require_tolerance, tolerance)

    fields = _Fields(raw, {"command": command, "seed": seed, "tolerance": tolerance})
    if "backend" in keys:
        fields("backend", "cyclotomic", _parse_choice, "float", "cyclotomic")
        if backend_override is not None:
            fields.inputs["backend"] = backend_override
    run = read(fields)
    return RunConfig(command=command, run=run, inputs=fields.inputs)


# ---------------------------------------------------------------------------
# commands: each reads its fields and returns its run


def _hopf_axioms(fields):
    group = _rooted("group", require, fields("group", None, _parse_group))
    _rooted("group", require_axioms_dim, group.order)
    algebra = fields("algebra", "both", _parse_choice, "function", "group", "both")
    algebras = ("function", "group") if algebra == "both" else (algebra,)
    # every structure constant of both algebras is 0 or 1, so no roots of unity are needed
    backend = fields.backend()

    def run():
        checks = []
        checked = []  # (algebra, its axioms, its dual's axioms)
        for alg in algebras:
            build = function_algebra if alg == "function" else group_algebra
            h = build(group, backend)
            # dual_hopf twice returns the same tensors, so when h's dual is an
            # algebra already checked, h's two lists are that algebra's, swapped
            reused = ((d, a) for k, a, d in checked if dual_hopf(h) == k)
            lists = next(reused, None) or check_hopf_axioms(h)
            checked.append((h, *lists))
            for prefix, axioms in zip((alg, f"{alg}-dual"), lists):
                checks.extend(replace(c, name=f"{prefix}/{c.name}") for c in axioms)
        return checks, {"order": group.order, "backend": backend.name}, {}

    return run


def _duality_cycle(fields):
    group = _rooted("group", require_cycle_group, fields("group", None, _parse_group))
    perturb = fields("perturb", None, _parse_perturb, group.order)
    backend = fields.backend(group)

    def run():
        rep = duality_cycle(group, backend, perturb)
        if perturb is None:
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
        # each distinct entry object is formatted once: the character table hands every cell of one
        # power the same root.  Keyed by identity, not value, so 0j and -0j never share a string
        columns, n = rep.transform.columns, group.order
        cells = [(i, j, columns[j][i]) for i in range(n) for j in range(n)]
        text = {k: backend.format(x) for k, x in {id(x): x for _, _, x in cells}.items()}
        rows = [[i, j, text[id(x)]] for i, j, x in cells]
        tables = {"fourier.csv": (["row", "col", "value"], rows)}
        results = {"order": group.order, "backend": backend.name, "perturbed": perturb is not None}
        return checks, results, tables

    return run


_MODES = {"closedForm": ("closed_form",), "bruteForce": ("brute_force",),
          "both": ("closed_form", "brute_force")}


def _group_part(fields):
    group = _rooted("group", require, fields("group", None, _parse_group))
    algebra = fields("algebra", "group", _parse_choice, "function", "group")
    modes = _MODES[fields("mode", "both", _parse_choice, *_MODES)]
    expected = None
    if fields.raw.get("expectedCount") is not None:
        expected = fields("expectedCount", None, _parse_int, 0)
    _rooted("group", require_group_part_order, group, algebra, len(modes))
    # the group algebra's structure constants and point masses are 0 or 1; the function
    # algebra's characters need the exponent's roots
    backend = fields.backend(group) if algebra == "function" else fields.backend()

    def run():
        h = (function_algebra if algebra == "function" else group_algebra)(group, backend)
        checks = []
        counts = {}
        for mode in modes:
            res = group_part(h, mode)
            counts[mode] = res.count
            checks.append(CheckResult(f"{mode}/verified", res.verified, res.worst_residual))
            checks.append(CheckResult(f"{mode}/closed-under-product", res.closed_under_product))
        if len(counts) == 2:
            a, b = counts["closed_form"], counts["brute_force"]
            checks.append(CheckResult("modes-agree", a == b, detail=f"closed {a}, brute {b}"))
        if expected is not None:
            count = next(iter(counts.values()))
            checks.append(CheckResult("expected-count", count == expected,
                                      detail=f"found {count}, expected {expected}"))
        return checks, {"algebra": algebra, "counts": dict(sorted(counts.items())), "dimension": h.dim}, {}

    return run


def _tensor_iso(fields):
    left = fields("left", None, _parse_group)
    right = fields("right", None, _parse_group)
    _rooted("left", require, left)
    _rooted("right", require, right)
    _rooted("right", require_tensor_dim, left.order * right.order)
    # both sides' structure constants are 0 or 1, so no roots of unity are needed
    backend = fields.backend()

    def run():
        checks = product_iso_check(left, right, backend)
        return checks, {"leftOrder": left.order, "rightOrder": right.order,
                        "productOrder": left.order * right.order}, {}

    return run


def _ball(fields, generators: bool, default_radius=DEFAULT_RADIUS) -> tuple:
    """(group, generators, radius, elementCap), the fields every search command shares;
    without a ``generators`` key the ball takes the standard generators."""
    group = fields("group", None, _parse_group)
    if generators:
        gens = fields("generators", "standard", _parse_generators, group)
    else:
        gens = standard_generators(group)
    radius = fields("radius", default_radius, _parse_fraction)
    return group, gens, radius, fields("elementCap", DEFAULT_ELEMENT_CAP, _parse_int, 1)


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


def _spheres_table(rows) -> dict:
    """``spheres.csv`` from sphere rows (sphere sizes or nuclearity gap counts)."""
    return {"spheres.csv": (["level", "count", "bound", "cumulative_sum"],
                            [[r.level, r.count, r.bound, repr(r.cumulative)] for r in rows])}


def _partial_check(name: str, passed: bool, rep) -> CheckResult:
    return CheckResult(name, passed, residual=max(rep.partial - rep.closed_form, 0.0),
                       detail=f"partial {rep.partial:.12g}, closed form {rep.closed_form:.12g}")


def _cayley(fields):
    group, gens, radius, cap = _ball(fields, generators=True)
    weights = fields("weights", "enumerated", _parse_weights, len(gens.elements))
    if weights.is_injective_integer:
        _check_printable_sphere_rows(_reachable_length(group, weights, radius), sphere_bound)
    samples = fields("samples", 500, _parse_int, 0)
    seed = fields.inputs["seed"]

    def run():
        report = explore_ball(group, gens, weights, radius, cap)
        checks = []
        tables = {}
        sub = subadditivity_check(report, samples=samples, seed=seed)
        checks.append(sub.as_check("subadditivity"))
        if weights.is_injective_integer:
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

    return run


def _counterexample(fields):
    group = _rooted("group", require, fields("group", {"kind": "heisenberg"}, _parse_group), "heisenberg")
    if "nMax" not in fields.raw:
        fail("nMax", "required")
    n_max = fields("nMax", None, _parse_int, 1, 10**4)
    constant = fields("C", 1, _parse_fraction)

    def run():
        rep = heisenberg_witness(group, n_max, constant)
        first = rep.first_violation
        checks = [
            CheckResult("central-products", rep.products_pass, detail=f"n = 1..{n_max} verified"),
            CheckResult(
                "envelope-crossing",
                all(r.violated == (r.n >= first) for r in rep.rows),
                detail=f"first violation at n = {first}",
            ),
        ]
        return checks, {"firstViolation": first, "nMax": n_max, "C": _echo_fraction(rep.constant)}, {}

    return run


def _nuclearity(fields):
    group, gens, radius, cap = _ball(fields, generators=True)
    weights = fields("weights", "enumerated", _parse_weights, len(gens.elements))
    _rooted("weights", weights.require_integer)
    # along a base-shortest word of length l, each letter of weight w_k costs k more in the
    # companion, so the gap is at most c l with c = max k / w_k, and at most R - l for a
    # companion length R: at most R c / (1 + c) (R itself when a weight is 0)
    level = _reachable_length(group, weights.shifted_by_index(), radius)
    if weights.values and min(weights.values) > 0:
        c = max(k / w for k, w in enumerate(weights.values, start=1))
        level = math.floor(level * c / (1 + c))
    _check_printable_sphere_rows(level, gap_bound)

    def run():
        rep = nuclearity_witness(group, gens, weights, radius, cap)
        checks = [
            CheckResult("difference-counts", rep.counts_pass,
                        detail=f"{len(rep.rows)} gap levels, region {rep.region_size}"),
            _partial_check("difference-partial", rep.partial_pass, rep),
        ]
        results = {
            "regionSize": rep.region_size,
            "excluded": rep.excluded,
            "partial": rep.partial,
            "closedForm": rep.closed_form,
        }
        return checks, results, _spheres_table(rep.rows)

    return run


_SEMINORM_CHECKS = ("indicator-floor", "idempotent-consistency", "submultiplicative",
                    "domination", "summability")


def _explore_enumerated(ball, run):
    """``run(report)`` on the ball explored under enumerated weights; a truncated exploration
    gives one failing resource-cap row instead."""
    group, gens, radius, cap = ball
    report = explore_ball(group, gens, WeightFunction.enumerated(len(gens.elements)), radius, cap)
    if not report.truncated:
        return run(report)
    detail = "exploration truncated; raise elementCap or lower radius"
    return [CheckResult("resource-cap", False, detail=detail)], {"settled": len(report.lengths)}, {}


# the ranges seminorm-suite draws each weight and each scale from, so each q(1_x) is below their
# product
_SEMINORM_WEIGHTS = (1.0, 4.0)
_SEMINORM_SCALES = (1.0, 3.0)


def _seminorm_suite(fields):
    ball = _ball(fields, generators=False, default_radius=8)
    _rooted("radius", require_exp_length_radius, ball[2])
    _rooted("radius", require_summability_radius, ball[2], _SEMINORM_WEIGHTS[1] * _SEMINORM_SCALES[1])
    count = fields("count", 20, _parse_int, 1)
    trials = fields("trials", 200, _parse_int, 1)
    seed = fields.inputs["seed"]

    def run(report):
        region = [x for x, _ in report.final_items()]
        f = ExpLength(report)
        rng = np.random.default_rng(seed)
        drawn = []  # each seminorm's checks, in _SEMINORM_CHECKS order
        for _ in range(count):
            size = int(rng.integers(1, min(8, len(region)) + 1))
            picks = rng.choice(len(region), size=size, replace=False)
            support = tuple(region[int(i)] for i in picks)
            weights = dict(zip(support, rng.uniform(*_SEMINORM_WEIGHTS, size=size).tolist()))
            scale = float(rng.uniform(*_SEMINORM_SCALES))
            q = SubmultiplicativeSeminorm(support=support, weights=weights, scale=scale)
            outcomes = seminorm_support_check(q, rng, trials=trials)
            outcomes.append(domination_check(q, rng, trials=trials))
            outcomes.append(summability_check(q, f, report))
            drawn.append(outcomes)
        detail = f"{count} seminorms x {trials} tables"
        checks = []
        for name, column in zip(_SEMINORM_CHECKS, zip(*drawn)):
            folded = fold(name, ((c.passed, c.residual, "" if c.passed else
                                  f"; first failure in seminorm {k}" + (f", {c.detail}" if c.detail else ""))
                                 for k, c in enumerate(column)))
            checks.append(replace(folded, detail=detail + folded.detail))
        return checks, {"regionSize": len(region), "count": count, "trials": trials}, {}

    return lambda: _explore_enumerated(ball, run)


def _polar_suite(fields):
    ball = _ball(fields, generators=False)
    trials = fields("trials", 1000, _parse_int, 1)
    recipe_f = fields("weightF", {"kind": "expLength"}, _parse_recipe)
    recipe_g = fields("weightG", {"kind": "const", "value": 3}, _parse_recipe)
    if reads_exp_length(recipe_f) or reads_exp_length(recipe_g):
        _rooted("radius", require_exp_length_radius, ball[2])
    seed = fields.inputs["seed"]
    group = ball[0]

    def run(report):
        # products of half-radius elements stay settled, so every weight evaluates
        half = [x for x, v in report.final_items() if 2 * v <= report.radius]
        if reads_inverse(recipe_f) or reads_inverse(recipe_g):
            # a weight read at (x*y)^-1 = y^-1 x^-1 needs the inverses half-radius too
            settled = set(half)
            half = [x for x in half if group.inv(x) in settled]
        f = build_semicharacter(recipe_f, report)
        g = build_semicharacter(recipe_g, report)
        checks = weighted_property_trials(f, g, half, group=group, trials=trials, seed=seed)
        for name, weight in (("weight-f", f), ("weight-g", g)):
            sub = sampled_submultiplicativity(weight, half, group=group, seed=seed)
            checks.append(sub.as_check(f"{name}-submultiplicative"))
        return checks, {"regionSize": len(half), "trials": trials}, {}

    return lambda: _explore_enumerated(ball, run)


# command -> (the config keys it takes besides _COMMON_KEYS, the function that reads them
# and returns the run); a command takes a scalar backend exactly when "backend" is among its keys
_COMMANDS = {
    "hopf-axioms": ({"group", "algebra", "backend"}, _hopf_axioms),
    "duality-cycle": ({"group", "perturb", "backend"}, _duality_cycle),
    "group-part": ({"group", "algebra", "mode", "expectedCount", "backend"}, _group_part),
    "tensor-iso": ({"left", "right", "backend"}, _tensor_iso),
    "cayley": ({"group", "generators", "weights", "radius", "elementCap", "samples"}, _cayley),
    "counterexample": ({"group", "nMax", "C"}, _counterexample),
    "nuclearity": ({"group", "generators", "weights", "radius", "elementCap"}, _nuclearity),
    "seminorm-suite": ({"group", "radius", "elementCap", "count", "trials"}, _seminorm_suite),
    "polar-suite": ({"group", "radius", "elementCap", "weightF", "weightG", "trials"}, _polar_suite),
}


def run_command(cfg: RunConfig) -> tuple[dict, dict]:
    """Execute the configured command; returns (report dict, csv tables)."""
    checks, results, tables = cfg.run()
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
