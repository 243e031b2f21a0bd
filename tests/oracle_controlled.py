"""The copy-then-compare form of a controlled operation, an oracle for
`relcat.generators.controlled`.

The region is copied, the boundary form of the operation runs against the
fresh copy, and the copies are compared back together.  The library builds
the same two-cell directly, with one family member on each diagonal
component.
"""

from __future__ import annotations

from relcat.cells import TwoCell, hcompose_two, identity_two_cell, tensor, vcompose
from relcat.generators import (
    ControlledOp,
    controlled_at_left_boundary,
    region_structure,
    wire_cell,
)


def copy_rewrite(op: ControlledOp) -> TwoCell:
    rs = region_structure(op.public_carrier)
    copied = tensor(rs.copy, wire_cell(op.in_private))
    acted = hcompose_two(
        identity_two_cell(rs.boundary_right), controlled_at_left_boundary(op)
    )
    compared = tensor(rs.compare, wire_cell(op.out_private))
    return vcompose(vcompose(copied, acted), compared)
