"""Exact computations for almost-direct products of free groups.

The pipeline: an :class:`~almostdirect.adp.AdpSpec` describes an iterated
semidirect product of free groups with IA actions;
:func:`~almostdirect.adp.build_presentation` computes its commutator
presentation; :func:`~almostdirect.homology.h2_matrix` and
:func:`~almostdirect.homology.kernel_basis` read the ring's quadratic
relations off the action images, or off the Johnson homomorphism of a magnus
action; :func:`~almostdirect.exterior.cohomology_ring`
packages them as an exterior algebra quotient with certified normal forms;
and :mod:`~almostdirect.invariants` reads off Hilbert series, lower central
series ranks, and topological complexity certificates.

Everything is exact: integers, rationals, and Laurent polynomials over Z.
"""

from .words import Word, x, commutator, commutator_decompose, beta, theta, IAWord
from .laurent import LaurentPoly, t
from .fox import fox_derivative, fox_gradient, abel_gradient, abelianize
from .adp import (
    AdpSpec,
    build_presentation,
    pure_braid,
    partial_pure_braid,
    upper_mccool,
    pure_braid_mod_center,
    upper_mccool_mod_center,
    extend_with_torus,
    random_spec,
)
from .homology import (
    chain_a2,
    delta2,
    verify_chain_map,
    h2_matrix,
    kernel_basis,
    H2Matrix,
)
from .exterior import (
    ExtElem,
    e,
    mono_mul,
    CohomologyRing,
    cohomology_ring,
)
from .invariants import (
    poincare_vector,
    lcs_ranks,
    lcs_identity_holds,
    TensorElem,
    zcl_witness,
    witness_term,
    tc_certificate,
)
from .cli import parse_spec, format_spec, load_spec

__version__ = "0.1.0"
