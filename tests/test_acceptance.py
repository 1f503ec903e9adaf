"""End-to-end acceptance: eleven criteria, one visible verdict line each."""

import itertools
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dualitylab import (
    Constant,
    ExpLength,
    GroupSpec,
    SubmultiplicativeSeminorm,
    WeightFunction,
    check_hopf_axioms,
    check_linear_hom,
    domination_check,
    duality_cycle,
    explore_ball,
    fourier,
    group_part,
    heisenberg_witness,
    make_backend,
    make_group,
    nuclearity_witness,
    seminorm_support_check,
    sphere_bound_check,
    standard_generators,
    summability_partial_sums,
    unitarity_check,
    weighted_property_trials,
)
from dualitylab.hopf import function_algebra, group_algebra
from dualitylab.length import sphere_bound
from dualitylab.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FINITE_SPECS = [
    GroupSpec.finite_abelian([2]),
    GroupSpec.finite_abelian([4]),
    GroupSpec.finite_abelian([2, 2]),
    GroupSpec.finite_abelian([6]),
    GroupSpec.symmetric(3),
]

GEOMETRY_SPECS = [
    GroupSpec.free_abelian(1),
    GroupSpec.free_abelian(2),
    GroupSpec.free(2),
    GroupSpec.heisenberg(),
]

RADIUS = 14
ELEMENT_CAP = 10**6
R = 2.0 / math.e
SUMMABILITY_BOUND = 1 + R / (2 * (1 - R))
NUCLEARITY_BOUND = R / (2 * (1 - R) ** 2) + 1


def exponent(group):
    """Brute-force lcm of element orders: the reference for Group.exponent."""
    exp = 1
    for x in group.elements():
        acc, o = x, 1
        while acc != group.identity:
            acc = group.mul(acc, x)
            o += 1
        exp = math.lcm(exp, o)
    return exp


@pytest.mark.parametrize(
    "spec",
    [GroupSpec.finite_abelian(o) for o in ([1], [12], [2, 4])]
    + [GroupSpec.symmetric(n) for n in range(1, 6)],
    ids=lambda spec: make_group(spec).label,
)
def test_group_exponent_matches_element_orders(spec):
    g = make_group(spec)
    assert g.exponent == exponent(g)


def exact_backend(group):
    return make_backend("cyclotomic", order=group.exponent)


def conclude(capsys, num, name, ok, detail=""):
    suffix = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{suffix}")
    assert ok, f"criterion {num}: {name}{suffix}"


def test_criterion_01_hopf_axiom_suite(capsys):
    start = time.perf_counter()
    failures = []
    for spec in FINITE_SPECS:
        g = make_group(spec)
        for backend, exact in ((exact_backend(g), True), (make_backend("float"), False)):
            for build in (function_algebra, group_algebra):
                for c in itertools.chain(*check_hopf_axioms(build(g, backend))):
                    bad = not c.passed or (c.residual != 0.0 if exact else c.residual > 1e-9)
                    if bad:
                        failures.append((g.label, backend.name, c.name))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 5.0
    conclude(capsys, 1, "hopf axiom suite", ok,
             f"5 groups x 2 algebras x duals, exact and float, {elapsed:.2f}s"
             + (f"; failures {failures[:3]}" if failures else ""))


def test_criterion_02_fourier_duality(capsys):
    failures = []
    for spec in FINITE_SPECS[:4]:
        g = make_group(spec)
        phi = fourier(g, exact_backend(g))
        for c in itertools.chain(*check_linear_hom(phi)):
            if not c.passed or c.residual != 0.0:
                failures.append((g.label, c.name))
        u = unitarity_check(phi)
        if not u.passed or u.residual != 0.0:
            failures.append((g.label, "unitarity"))
    conclude(capsys, 2, "fourier transform is a hopf hom with exact unitarity",
             not failures, "4 abelian groups, 5 hom conditions on the map and on its transpose"
             + (f"; failures {failures}" if failures else ""))


def abelian_specs_up_to_12():
    specs = []
    for orders in ([1], [2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4], [2, 2, 2],
                   [9], [3, 3], [10], [11], [12], [2, 6]):
        specs.append(GroupSpec.finite_abelian(orders))
    return specs


def test_criterion_03_duality_cycle(capsys):
    failures = []
    count = 0
    for spec in abelian_specs_up_to_12():
        g = make_group(spec)
        count += 1
        cyc = duality_cycle(g, exact_backend(g))
        for s in cyc.stages:
            if not s.passed or s.residual != 0.0:
                failures.append((g.label, s.name))
        tampered = duality_cycle(g, exact_backend(g), perturb=(g.order - 1, 0))
        if tampered.passed:
            failures.append((g.label, "perturbation missed"))
    conclude(capsys, 3, "duality cycle closes to literal identity",
             not failures, f"{count} abelian groups of order <= 12, perturbations detected"
             + (f"; failures {failures}" if failures else ""))


def test_criterion_04_group_part(capsys):
    failures = []
    for spec in FINITE_SPECS:
        g = make_group(spec)
        h = group_algebra(g, exact_backend(g))
        res = group_part(h)
        deltas = {frozenset(h.basis(i).items()) for i in range(h.dim)}
        got = {frozenset(v.items()) for v in res.vectors}
        if res.count != g.order or got != deltas or not res.verified:
            failures.append((g.label, "convolution side"))
    s3 = make_group(GroupSpec.symmetric(3))
    fun = group_part(function_algebra(s3, exact_backend(s3)))
    if fun.count != 2 or not fun.verified:
        failures.append(("S3", f"function side count {fun.count}"))
    conclude(capsys, 4, "group parts: delta bases and the two S3 characters",
             not failures, "5 convolution algebras + functions on S3"
             + (f"; failures {failures}" if failures else ""))


def test_criterion_05_heisenberg_counterexample(capsys):
    heis = make_group(GroupSpec.heisenberg())
    rep = heisenberg_witness(heis, 20, 1)
    products_ok = rep.products_pass and all(r.product == (0, 0, r.n * r.n) for r in rep.rows)
    # the log comparison n^2 ln 2 vs 4n never comes within 0.9 of a tie for n <= 20
    gap = min(abs(n * n * math.log(2) - 4 * n) for n in range(1, 21))
    ok = products_ok and rep.first_violation == 6 and gap > 0.5
    conclude(capsys, 5, "heisenberg identity and first envelope crossing", ok,
             f"n = 1..20 exact, first violation n = {rep.first_violation}")


def scanned_compositions(n, j):
    """Compositions of n into j positive parts, counted on the integer grid of the first j - 1."""
    return sum(1 for t in itertools.product(range(1, n - j + 2), repeat=j - 1) if sum(t) < n)


def test_criterion_06_composition_count(capsys):
    failures = []
    for n in range(1, 13):
        total = sum(scanned_compositions(n, j) for j in range(1, n + 1))
        binomials = sum(math.comb(n - 1, j - 1) for j in range(1, n + 1))
        if not total == sphere_bound(n) == binomials:
            failures.append((n, total, sphere_bound(n)))
    conclude(capsys, 6, "compositions of n number sphere_bound(n) = sum of binomial(n-1, j-1)",
             not failures, "product scan over 1 <= j <= n <= 12"
             + (f"; failures {failures[:3]}" if failures else ""))


def test_criterion_07_sphere_bounds(capsys):
    failures = []
    worst_partial = 0.0
    for spec in GEOMETRY_SPECS:
        g = make_group(spec)
        gens = standard_generators(g)
        weights = WeightFunction.enumerated(len(gens.elements))
        rep = explore_ball(g, gens, weights, radius=RADIUS, element_cap=ELEMENT_CAP)
        spheres = sphere_bound_check(rep)
        if not spheres.passed or spheres.max_level < RADIUS:
            failures.append((g.label, "sphere bound"))
        for row in spheres.rows:
            if row.count > row.bound:
                failures.append((g.label, f"level {row.level}"))
        summ = summability_partial_sums(rep)
        worst_partial = max(worst_partial, summ.partial)
        if summ.partial > SUMMABILITY_BOUND + 1e-12:
            failures.append((g.label, f"partial {summ.partial}"))
    conclude(capsys, 7, "sphere cardinality and summability bounds",
             not failures,
             f"4 groups to level {RADIUS}, worst partial {worst_partial:.6f} <= {SUMMABILITY_BOUND:.6f}"
             + (f"; failures {failures}" if failures else ""))


def test_criterion_08_nuclearity_witness(capsys):
    failures = []
    worst_partial = 0.0
    for spec in GEOMETRY_SPECS:
        g = make_group(spec)
        gens = standard_generators(g)
        weights = WeightFunction.enumerated(len(gens.elements))
        rep = nuclearity_witness(g, gens, weights, radius=RADIUS, element_cap=ELEMENT_CAP)
        if not rep.counts_pass:
            failures.append((g.label, "difference counts"))
        worst_partial = max(worst_partial, rep.partial)
        if rep.partial > NUCLEARITY_BOUND + 1e-12:
            failures.append((g.label, f"partial {rep.partial}"))
        if abs(rep.closed_form - NUCLEARITY_BOUND) > 1e-12:
            failures.append((g.label, "closed form"))
    conclude(capsys, 8, "nuclearity difference-sphere bounds",
             not failures,
             f"4 groups, worst partial {worst_partial:.6f} <= {NUCLEARITY_BOUND:.6f}"
             + (f"; failures {failures}" if failures else ""))


def test_criterion_09_weighted_property_trials(capsys):
    z = make_group(GroupSpec.free_abelian(1))
    rep = explore_ball(z, standard_generators(z), WeightFunction.enumerated(2), radius=RADIUS)
    half = [x for x, v in rep.lengths.items() if 2 * v <= RADIUS]
    out = weighted_property_trials(ExpLength(rep), Constant(3), half, trials=1000, seed=2024)
    by_name = {c.name: c for c in out}
    ok = all(c.passed for c in out) and by_name["extremizer-optimal"].residual <= 1e-12
    conclude(capsys, 9, "weighted convolution properties", ok,
             "1000 trials x 5 properties, extremizer tight to 1e-12")


def test_criterion_10_seminorm_checks(capsys):
    z = make_group(GroupSpec.free_abelian(1))
    rep = explore_ball(z, standard_generators(z), WeightFunction.enumerated(2), radius=8)
    region = [x for x, _ in rep.final_items()]
    rng = np.random.default_rng(2024)
    failures = []
    for i in range(20):
        size = int(rng.integers(1, min(8, len(region)) + 1))
        picks = rng.choice(len(region), size=size, replace=False)
        support = tuple(region[int(j)] for j in picks)
        q = SubmultiplicativeSeminorm(
            support=support,
            weights={x: float(rng.uniform(1.0, 4.0)) for x in support},
            scale=float(rng.uniform(1.0, 3.0)),
        )
        for c in seminorm_support_check(q, rng, trials=200):
            if not c.passed:
                failures.append((i, c.name))
        dom = domination_check(q, rng, trials=200)
        if not dom.passed:
            failures.append((i, "domination"))
    conclude(capsys, 10, "seminorm support and domination checks",
             not failures, "20 seminorms x 200 tables"
             + (f"; failures {failures}" if failures else ""))


def test_criterion_11_cli_suite(capsys, tmp_path):
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, f"no fixture configs found in {CONFIG_DIR}"
    start = time.perf_counter()
    failures = []
    runs = {}
    for round_name in ("first", "second"):
        for cfg in configs:
            out = tmp_path / round_name / cfg.stem
            code = main(["--config", str(cfg), "--out", str(out)])
            if code != 0:
                failures.append((cfg.name, f"exit {code}"))
            artifacts = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            if round_name == "first":
                runs[cfg.name] = artifacts
            elif runs[cfg.name] != artifacts:
                failures.append((cfg.name, "nondeterministic output"))
        if round_name == "first":
            elapsed = time.perf_counter() - start
    capsys.readouterr()  # swallow the per-command PASS lines
    ok = not failures and elapsed < 120.0
    conclude(capsys, 11, "full command-line suite", ok,
             f"{len(configs)} configs in {elapsed:.2f}s, byte-identical on re-run"
             + (f"; failures {failures}" if failures else ""))
