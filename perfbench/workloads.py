"""The benchmark's four workloads: fixed lists of duality-lab configs.

Every committed ``configs/*.json`` belongs to exactly one workload and runs
verbatim. The other instances are generated here; the ones marked ``seeded``
take part of their input from the workload seed, so their bytes match the
golden digests only at ``DEFAULT_SEED``. Why each workload was chosen is in
``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Instance:
    name: str
    config: dict | None = None     # generated config; None for a committed one
    committed: str | None = None   # file name under configs/
    sweep: bool = False            # a point of the workload's size sweep
    seeded: bool = False           # report bytes depend on the workload seed


@dataclass(frozen=True)
class Workload:
    name: str
    size_variable: str   # what the sweep's size axis measures
    size_key: str        # report.json "results" field holding that size
    largest: str         # the instance behind largest_s: the sweep's top point
    instances: tuple[Instance, ...]

    def smallest(self) -> "Workload":
        """The two smallest sweep points: enough to emit every metric."""
        points = [i for i in self.instances if i.sweep][:2]
        return Workload(self.name, self.size_variable, self.size_key, points[-1].name,
                        tuple(points))


def _abelian(*orders):
    return {"kind": "finite_abelian", "orders": list(orders)}


def _symmetric(degree):
    return {"kind": "symmetric", "degree": degree}


def _cycle(backend, *orders, **extra):
    return {"command": "duality-cycle", "group": _abelian(*orders), "backend": backend, **extra}


def _exact_duality(seed: int) -> Workload:
    rng = random.Random(seed)
    entry = [rng.randrange(12), rng.randrange(12)]
    return Workload(
        name="exact-duality",
        size_variable="group order |G|",
        size_key="order",
        largest="cycle-z16",
        instances=(
            Instance("duality_cycle_z6", committed="duality_cycle_z6.json"),
            Instance("duality_cycle_perturbed", committed="duality_cycle_perturbed.json"),
            Instance("cycle-z8", _cycle("cyclotomic", 8), sweep=True),
            Instance("cycle-z12", _cycle("cyclotomic", 12), sweep=True),
            Instance("cycle-z16", _cycle("cyclotomic", 16), sweep=True),
            Instance("cycle-z2xz8", _cycle("cyclotomic", 2, 8)),
            Instance("cycle-z3xz6", _cycle("cyclotomic", 3, 6)),
            Instance("cycle-z12-perturbed", _cycle("cyclotomic", 12, perturb=entry), seeded=True),
        ),
    )


def _float_duality(seed: int) -> Workload:
    return Workload(
        name="float-duality",
        size_variable="group order |G|",
        size_key="order",
        largest="cycle-float-z48",
        instances=(
            Instance("duality_cycle_z2xz2_float", committed="duality_cycle_z2xz2_float.json"),
            Instance("cycle-float-z24", _cycle("float", 24), sweep=True),
            Instance("cycle-float-z32", _cycle("float", 32), sweep=True),
            Instance("cycle-float-z48", _cycle("float", 48), sweep=True),
        ),
    )


def _hopf_axioms(seed: int) -> Workload:
    def axioms(group, backend="cyclotomic"):
        return {"command": "hopf-axioms", "group": group, "algebra": "both", "backend": backend}

    def part(algebra):
        return {"command": "group-part", "group": _symmetric(4), "algebra": algebra, "mode": "both"}

    return Workload(
        name="hopf-axioms",
        size_variable="algebra dimension (= |G|)",
        size_key="order",
        largest="axioms-s4",
        instances=(
            Instance("hopf_axioms_s3", committed="hopf_axioms_s3.json", sweep=True),
            Instance("hopf_axioms_z4_float", committed="hopf_axioms_z4_float.json"),
            Instance("group_part_s3_function", committed="group_part_s3_function.json"),
            Instance("group_part_s3_group", committed="group_part_s3_group.json"),
            Instance("tensor_iso_z2_z3", committed="tensor_iso_z2_z3.json"),
            Instance("axioms-z12", axioms(_abelian(12)), sweep=True),
            Instance("axioms-s4", axioms(_symmetric(4)), sweep=True),
            Instance("axioms-z2xz2xz4", axioms(_abelian(2, 2, 4))),
            Instance("axioms-s4-float", axioms(_symmetric(4), backend="float")),
            Instance("group-part-s4-function", part("function")),
            Instance("group-part-s4-group", part("group")),
            Instance("tensor-iso-z4-z6", {"command": "tensor-iso", "left": _abelian(4),
                                          "right": _abelian(6), "backend": "cyclotomic"}),
        ),
    )


def _search_suites(seed: int) -> Workload:
    heisenberg = {"kind": "heisenberg"}
    z2 = {"kind": "free_abelian", "rank": 2}

    def cayley(group, radius, **extra):
        return {"command": "cayley", "group": group, "radius": radius, "seed": seed, **extra}

    return Workload(
        name="search-suites",
        size_variable="settled elements",
        size_key="settled",
        largest="cayley-heisenberg-r36",
        instances=(
            Instance("cayley_free2", committed="cayley_free2.json"),
            Instance("cayley_heisenberg", committed="cayley_heisenberg.json"),
            Instance("cayley_z2", committed="cayley_z2.json"),
            Instance("counterexample", committed="counterexample.json"),
            Instance("nuclearity_z", committed="nuclearity_z.json"),
            Instance("polar_suite_z", committed="polar_suite_z.json"),
            Instance("seminorm_suite_z", committed="seminorm_suite_z.json"),
            Instance("cayley-heisenberg-r20", cayley(heisenberg, 20, samples=2000),
                     sweep=True, seeded=True),
            Instance("cayley-heisenberg-r28", cayley(heisenberg, 28, samples=2000),
                     sweep=True, seeded=True),
            Instance("cayley-heisenberg-r36", cayley(heisenberg, 36, samples=2000),
                     sweep=True, seeded=True),
            Instance("cayley-free2-r18", cayley({"kind": "free", "rank": 2}, 18), seeded=True),
            Instance("cayley-z2-rational-r40",
                     cayley(z2, 40, weights=[[1, 2], [2, 3], [3, 4], [5, 6]]), seeded=True),
            Instance("nuclearity-heisenberg-r28",
                     {"command": "nuclearity", "group": heisenberg, "radius": 28}),
            Instance("polar-suite-z2", {"command": "polar-suite", "group": z2, "trials": 1000,
                                        "seed": seed}, seeded=True),
            Instance("seminorm-suite-z2", {"command": "seminorm-suite", "group": z2,
                                           "seed": seed}, seeded=True),
        ),
    )


_WORKLOADS = {
    "exact-duality": _exact_duality,
    "float-duality": _float_duality,
    "hopf-axioms": _hopf_axioms,
    "search-suites": _search_suites,
}

NAMES = tuple(_WORKLOADS)


def workload(name: str, seed: int) -> Workload:
    """The named workload's instances for this seed."""
    return _WORKLOADS[name](seed)
