"""Certify topological complexity across the builtin families.

The lower bound counts the standard zero divisors in the tensor square of
the cohomology ring, whose product has a term with coefficient +-1 and so
is never zero; the upper bound counts blocks.
The bounds meet whenever every block has rank at least two, so groups with
a rank-1 block are certified through their quotient by the center times a
circle.
"""

from almostdirect.adp import (
    extend_with_torus,
    partial_pure_braid,
    pure_braid,
    pure_braid_mod_center,
    upper_mccool_mod_center,
)
from almostdirect.exterior import cohomology_ring
from almostdirect.invariants import tc_certificate, zcl_witness


def show(label, cert):
    value = cert.exact if cert.exact is not None else "in [%d, %d]" % (
        cert.lower_bound, cert.upper_bound)
    print("  %-28s tc = %s" % (label, value))


def main():
    print("pure braid groups, certified via the quotient by the center:")
    for l in range(3, 7):
        cert = tc_certificate(extend_with_torus(pure_braid_mod_center(l), 1))
        show("%d strands" % l, cert)

    print("\nthe direct certificate on the braid group itself is loose,")
    print("because the rank-1 block only contributes one zero divisor:")
    show("3 strands, direct", tc_certificate(pure_braid(3)))

    print("\nbraids over a disc with k punctures (all ranks >= 2):")
    for k in (2, 3):
        for l in (1, 2, 3):
            show("l=%d, k=%d" % (l, k), tc_certificate(partial_pure_braid(l, k)))

    print("\nupper McCool groups via their center quotient:")
    for n in (4, 5, 6):
        cert = tc_certificate(extend_with_torus(upper_mccool_mod_center(n), 1))
        show("n = %d" % n, cert)

    # the lower bound comes from a nonzero product of zero divisors;
    # here is the product for the smallest quotient
    ring = cohomology_ring(pure_braid_mod_center(4))
    wit = zcl_witness(ring)
    print("\nwitness for the 4 strand quotient: %d factors, element:" % wit.num_factors)
    print("  ", wit.element)


if __name__ == "__main__":
    main()
