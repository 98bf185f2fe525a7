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
series ranks, and topological complexity certificates.  The names below are
that pipeline and the words that specs are written in; the Fox calculus and
the Laurent chain map of :mod:`~almostdirect.fox` and
:mod:`~almostdirect.homology` are the oracles of the tests.

Everything is exact: integers and rationals.
"""

from .words import Word, x, commutator, commutator_decompose, beta, theta, IAWord
from .adp import (
    AdpSpec,
    build_presentation,
    pure_braid,
    partial_pure_braid,
    upper_mccool,
    pure_braid_mod_center,
    upper_mccool_mod_center,
    extend_with_torus,
)
from .homology import h2_matrix, kernel_basis, H2Matrix
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
    zcl_witness,
    witness_term,
    tc_certificate,
)
from .cli import parse_spec, format_spec, load_spec

__version__ = "0.1.0"
