"""relcat: exact verification and synthesis for nondeterministic protocols.

The model is possibilistic: systems are finite sets, computations are binary
relations, and public information lives in a second, region-like layer built
from matrices of sets and matrices of relations.  Everything is evaluated
exactly over boolean matrices, large products kept as their Kronecker
factors; there are no probabilities anywhere.
"""

from relcat.relations import (
    FiniteSet,
    Permutation,
    Rel,
    RelProperties,
    ShapeError,
    compose,
    converse,
    make,
    predicates,
    product,
)
from relcat.cells import (
    OneCell,
    TwoCell,
    equal,
    hcompose_one,
    hcompose_two,
    identity_one_cell,
    identity_two_cell,
    tensor,
    vcompose,
)
from relcat.generators import (
    ControlledOp,
    DualityPair,
    RegionStructure,
    canonical_cup,
    classify_cups,
    controlled,
    create,
    cup_from_permutation,
    delete,
    region_structure,
)

__version__ = "0.1.0"
