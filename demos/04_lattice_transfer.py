#!/usr/bin/env python3
"""The lattice side: coprime-to-3 representation and transfer arguments.

Whether u is a value of an octagonal form is a question about one diagonal
lattice: u -> p8(a) iff 3u + sum(a) is a sum of a_i * y_i^2 with every y_i
prime to 3.  Hard congruence classes are then settled by pushing
representations between lattices in one genus.
"""

import numpy as np

from octaforms import represents
from octaforms.fixtures import load_fixtures
from octaforms.lattice import (
    GramMatrix,
    check_bad_partition,
    check_prec,
    count_representations,
    octagonal_via_lattice,
    represents_coprime3,
    residues,
    transfer_matrices,
)

# The correspondence in action.
a, u = (2, 3, 4, 5), 2
print(f"u={u} -> p8{a}: {represents(a, u)} (search) / "
      f"{octagonal_via_lattice(a, u)} (lattice)")
print("3u + sum(a) =", 3 * u + sum(a), "as 2+3+4+5 with units prime to 3:",
      represents_coprime3(a, 3 * u + sum(a)))

# Plain lattice representation, with counts.
cube = GramMatrix.diagonal((1, 1, 1))
print("\nsums of three squares: 9 has", count_representations(cube, 9),
      "representations, 7 has", count_representations(cube, 7))

# Residue vectors split a lattice's values into progressions; residues
# returns them as int64 rows in lexicographic order.
print("odd-value residues of the cube mod 2:", residues(cube, 2, 1).tolist())

# A similitude of ratio d^2 pushes values of N into M when it kills the
# residues; the bundled fixtures record every instance used by the tables.
fixtures = load_fixtures()
inst = fixtures.prec["113-n2-a1"]
print(f"\ntransfer {inst.name}: classes {inst.a} mod {inst.d} of N flow into M:",
      check_prec(inst.M, inst.N, inst.d, inst.a))
mats = transfer_matrices(inst.M, inst.N, inst.d)
print(f"  ({len(mats)} similitudes of ratio {inst.d ** 2} exist; first:",
      np.array(mats[0]).tolist(), ")")

# When some residues refuse to transfer, an infinite-order self-similitude
# of N recycles them, losing only one square class along its fixed line.
inst = fixtures.bad["234-n1-a3"]
print(f"\nstable-vector instance {inst.name}: excluded classes",
      check_bad_partition(inst), "- every other value of N in the class transfers")
