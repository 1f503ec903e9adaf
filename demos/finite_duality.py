"""
Finite-group duality from structure tensors to the closed cycle
===============================================================

Build the two Hopf algebras attached to a finite group, check every axiom
with exact cyclotomic scalars, and watch the Fourier transform close the
duality cycle to a literal identity matrix.
"""

from dualitylab import (
    GroupSpec,
    check_hopf_axioms,
    check_linear_hom,
    dual_hopf,
    duality_cycle,
    fourier,
    group_part,
    hopf_equal,
    make_backend,
    make_group,
    unitarity_check,
)
from dualitylab.hopf import function_algebra, group_algebra

# Z6 is the smallest group whose character table mixes second and third
# roots of unity, so the exact backend works in the sixth cyclotomic field.
group = make_group(GroupSpec.finite_abelian([6]))
backend = make_backend("cyclotomic", order=6)

# the function algebra: pointwise products, coproduct over factorizations
functions = function_algebra(group, backend)
print("axioms for functions on Z6:")
for check in check_hopf_axioms(functions)[0]:
    print(f"  {check.name:18s} passed={check.passed} residual={check.residual}")

# the group algebra: convolution of point masses, diagonal coproduct
masses = group_algebra(group, backend)
print("axioms for the group algebra of Z6:")
for check in check_hopf_axioms(masses)[0]:
    print(f"  {check.name:18s} passed={check.passed} residual={check.residual}")

# transposing all five tensors swaps the two constructions exactly
same, residual = hopf_equal(dual_hopf(functions), masses)
print(f"dual of functions equals the group algebra: {same} (residual {residual})")

# the Fourier matrix evaluates every character on every element; it is a
# Hopf homomorphism and satisfies M conj(M^T) = |G| I with no rounding
phi = fourier(group, backend)
for check in check_linear_hom(phi)[0]:
    print(f"  fourier {check.name:16s} passed={check.passed}")
print("unitarity:", unitarity_check(phi))

# four steps -- transform, transpose, dual transform, identification --
# compose to the identity matrix, entry for entry
cycle = duality_cycle(group, backend)
for stage in cycle.stages:
    print(f"  cycle stage {stage.name:18s} passed={stage.passed}")

# a single corrupted matrix entry breaks the closure, which is the point
tampered = duality_cycle(group, backend, perturb=(1, 2))
print("perturbed cycle still closes?", tampered.passed)

# group-like elements: every point mass on the convolution side, and just
# the multiplicative functions on the function side
print("group part of the group algebra:", group_part(masses).count, "vectors")
print("group part of functions on Z6:", group_part(functions).count, "vectors")
