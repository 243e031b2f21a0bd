"""The snake equations evaluated as string diagrams, an oracle for
`relcat.generators.snake_equations_hold`.

Each zig-zag is built literally: the cup is placed beside a wire with
`product`, the cap eats the two legs that meet, and the composite is
compared with the identity wire.  The library decides the same law as two
boolean matrix products.
"""

from __future__ import annotations

from relcat.relations import FiniteSet, Rel, compose, identity, product


def snake_equations_hold(carrier: FiniteSet, cup: Rel, cap: Rel) -> bool:
    n = carrier.size
    if cup.src.size != 1 or cup.dst.size != n * n:
        return False
    if cap.src.size != n * n or cap.dst.size != 1:
        return False
    wire = identity(carrier)
    # cup attached on the left of the wire, cap eats the right two legs
    left_zig = compose(product(cup, wire), product(wire, cap))
    # cup attached on the right, cap eats the left two legs
    right_zig = compose(product(wire, cup), product(cap, wire))
    return left_zig == wire and right_zig == wire
