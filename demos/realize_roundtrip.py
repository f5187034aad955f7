"""Realize orbit spaces as torus actions and verify the round trip.

Starting from a weighted disk, find explicit action parameters on a product
of two 3-spheres, recompute the isotropy diagram of the induced action, and
check it reproduces the input up to equivalence.
"""

from torusorbits.biquotient import (
    WZ_TORUS,
    Z_CIRCLE,
    induced_orbit_space,
    realize_dim4,
    realize_dim5,
    torus_weight_matrix,
)
from torusorbits.orbit_space import WeightedOrbitSpace, are_equivalent, canonical_form


def show(label, s):
    canon = canonical_form(s)
    print(f"{label}: weights {','.join(str(w) for w in s.weights)}")
    print(f"  canonical form {','.join(str(w) for w in canon.weights)}")


def roundtrip_dim4(weights):
    s = WeightedOrbitSpace(2, weights)
    show("rank-2 input", s)
    params = realize_dim4(s)
    print(f"  realized by {params}")
    diagram = induced_orbit_space(torus_weight_matrix(params), WZ_TORUS)
    arcs = list(diagram.orbit_space.weights)
    print(f"  induced arc weights {','.join(str(w) for w in arcs)}")
    print(f"  equivalent to input: {are_equivalent(diagram.orbit_space, s)}")
    print()


def roundtrip_dim5(weights):
    s = WeightedOrbitSpace(3, weights)
    show("rank-3 input", s)
    params = realize_dim5(s)
    print(f"  realized by {params}")
    diagram = induced_orbit_space(torus_weight_matrix(params), Z_CIRCLE)
    arcs = list(diagram.orbit_space.weights)
    print(f"  induced arc weights {','.join(str(w) for w in arcs)}")
    print(f"  equivalent to input: {are_equivalent(diagram.orbit_space, s)}")
    print()


def main():
    roundtrip_dim4(((1, 0), (0, 1), (1, 0), (4, 1)))
    roundtrip_dim4(((3, 1), (7, 2), (3, 1), (2, 1)))
    roundtrip_dim5(((1, 0, 0), (0, 1, 0), (1, 1, 1), (0, 0, 1)))
    roundtrip_dim5(((1, 0, 0), (0, 1, 0), (1, 1, 3), (2, 1, 2)))


if __name__ == "__main__":
    main()
