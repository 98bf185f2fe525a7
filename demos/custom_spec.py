"""Define a product from scratch, round trip it through the file format,
and run the verification battery on it.

The spec has three blocks of ranks 1, 2, 2.  The first block conjugates
the second, and both act on the third by powers of a single automorphism,
which keeps the iterated action consistent.
"""

import os
import tempfile

from almostdirect.adp import MAGNUS, AdpSpec, build_presentation, relation_keys
from almostdirect.cli import format_spec, main, parse_spec
from almostdirect.exterior import cohomology_ring
from almostdirect.words import IAWord


def build():
    sigma = IAWord.parse(2, "B(1,2)")
    actions = {
        (1, 2, 1): (MAGNUS, IAWord.parse(2, "B(2,1)")),
        (1, 3, 1): (MAGNUS, sigma),
        (2, 3, 1): (MAGNUS, sigma),
        (2, 3, 2): (MAGNUS, sigma.inverse()),
    }
    return AdpSpec((1, 2, 2), actions, name="demo")


def main_demo():
    spec = build()
    text = format_spec(spec)
    print("file form:")
    print(text)
    assert parse_spec(text) == spec

    # only the words of the moved relations, those with a commutator tail,
    # are stored
    words = build_presentation(spec)
    print("relations: %d total, %d with commutator tails"
          % (len(relation_keys(spec.ranks)), len(words)))

    ring = cohomology_ring(spec)
    dims = [ring.dimension(k) for k in range(4)]
    print("ring dimensions:", dims)

    # the command line verifier certifies the matrix, the rewriting rules
    # and the file round trip
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "demo_spec.adp")
        with open(path, "w") as fh:
            fh.write(text)
        print("\nalmostdirect verify %s:" % path)
        print("exit code:", main(["verify", path]))


if __name__ == "__main__":
    main_demo()
