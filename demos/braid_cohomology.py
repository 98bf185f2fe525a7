"""Walk through the cohomology pipeline on the four strand braid group.

The group is an iterated extension of free groups of ranks 1, 2, 3.  The
script builds its commutator presentation, extracts the quadratic relations
of the cohomology ring, and checks the ring dimensions against the rank
polynomial.
"""

from math import comb

from almostdirect.adp import build_presentation, pure_braid, relation_keys
from almostdirect.exterior import CohomologyRing, e
from almostdirect.homology import h2_matrix, kernel_basis
from almostdirect.invariants import poincare_vector


def main():
    spec = pure_braid(4)
    print("blocks:", spec.ranks)

    # every pair of generators in distinct blocks contributes one relation
    # x(j,q) x(i,p) = x(i,p) x(j,q) w with w a commutator word in block j
    # the presentation is a table of the words w of the relations with
    # nontrivial tails only, keyed (i, j, p, q)
    words = build_presentation(spec)
    relations = len(relation_keys(spec.ranks))
    print("\nrelations with nontrivial tails:")
    for (i, j, p, q), word in words.items():
        print("  x(%d,%d) x(%d,%d): w = %s" % (j, q, i, p, word))

    # the integral H2 matrix has one row per relation; its kernel gives the
    # quadratic relations of the cohomology ring.  Each row is read off the
    # image of x(j,q), which has the degree-two Magnus coefficients of w.  A
    # relation with w = 1 has the unit row e(i,p) e(j,q), which the matrix
    # implies without storing.  h2_matrix raises RowStructureError unless
    # every row has its unit in its own mixed column, which gives full row
    # rank; a column is a product of two generators
    matrix = h2_matrix(spec.ranks, spec.images)
    print("\nmatrix: %d rows, of which %d are stored and %d are unit rows;"
          " %d columns"
          % (relations, len(matrix.rows), relations - len(matrix.rows),
             comb(sum(spec.ranks), 2)))
    etas = kernel_basis(matrix)
    print("kernel elements:", len(etas))

    # the kernel is a table of etas keyed by leading pair, which the ring
    # checks and keeps as its quadratic relations
    ring = CohomologyRing(spec.ranks, etas)
    print("\nideal generators:")
    for el in ring.eta_elements():
        print("  ", el)

    # normal forms never carry two generators of the same block
    sample = e(3, 1) * e(3, 2)
    print("\nnormal form of %s:" % sample)
    print("  ", ring.normal_form(sample))

    dims = tuple(ring.dimension(k) for k in range(len(spec.ranks) + 1))
    print("\ndimensions by degree:", dims)
    print("rank polynomial coefficients:", poincare_vector(spec.ranks))

    # verify runs this certificate: every product e(j,r) eta(j;p,q) with
    # r <= q has normal form zero, summed block by block from the rules,
    # so the relations are a Groebner basis
    print("rewriting rules certified:", ring.critical_pair_verify() is None)


if __name__ == "__main__":
    main()
