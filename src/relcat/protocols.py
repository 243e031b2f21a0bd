"""One-time-pad encryption, secret sharing, and key exchange as cell equations.

An encryption scheme here is a triple: an encryption relation from
(plaintext, key) pairs to ciphertexts, a decryption operation controlled by
the public ciphertext, and a pad creation step (a duality cup on the key
set) that nondeterministically hands matching keys to the two parties.
Correctness and the security properties are equations between composite
two-cells; each checker builds both sides concretely and compares them bit
for bit, reporting a located witness on failure.  The statements depend on
one another (the decryption inverse and secret sharing need a correct
scheme, the rebuild needs the inverse, non-invertibility needs S1), so a
`Verification` record decides each check of one instance at most once and
reads its preconditions from the same record.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from relcat import relations
from relcat.cells import (
    CellDifference,
    TwoCell,
    equal,
    hcompose_one,
    hcompose_two,
    identity_one_cell,
    identity_two_cell,
    scalar_one_cell,
    scalar_two_cell,
    tensor,
    tensor_many,
    vcompose,
    vcompose_many,
)
from relcat.generators import (
    ControlledOp,
    DualityPair,
    RegionStructure,
    canonical_cup,
    controlled_at_left_boundary,
    controlled_at_right_boundary,
    controlled_scalar,
    controlled_scalar_mirror,
    create_cell,
    cup_cell,
    delete_cell,
    region_structure,
    swap_cell,
    wire_cell,
)
from relcat.relations import (
    MAX_DENSE_BITS,
    FiniteSet,
    Rel,
    dense_size,
    identity,
    make,
    predicates,
    product,
    product_set,
)

__all__ = [
    "DHInstance",
    "EquationVerdict",
    "ImplicationReport",
    "OTP_CHECKS",
    "PreconditionError",
    "ProtocolInstance",
    "SECURITY_PROPERTIES",
    "SecretSharingInstance",
    "SecretSharingResult",
    "Verification",
    "check_correctness",
    "check_correctness_protocol_form",
    "check_dh",
    "check_encryption_not_invertible",
    "check_security",
    "derive_decryption_inverse",
    "dh_instance",
    "group_instance",
    "instance_bits",
    "rebuild_encryption",
    "refuse_oversized",
    "secret_sharing_from_otp",
    "security_implications",
    "single_bit_instance",
]


class PreconditionError(RuntimeError):
    """A check was invoked on an instance that fails its precondition."""


@dataclass(frozen=True)
class EquationVerdict:
    name: str
    holds: bool
    witness: Optional[str] = None
    difference: Optional[CellDifference] = None
    # a precondition failed, so the equation was not evaluated; the
    # witness is the `PreconditionError` text
    refused: bool = False

    def __post_init__(self) -> None:
        assert (self.witness is None) == self.holds


def _verdict(name: str, lhs: TwoCell, rhs: TwoCell) -> EquationVerdict:
    res = equal(lhs, rhs)
    if res.equal:
        return EquationVerdict(name, True)
    return EquationVerdict(name, False, res.difference.describe(), res.difference)


@dataclass(frozen=True)
class ProtocolInstance:
    """An encrypted-communication scheme over finite carriers."""

    plaintexts: FiniteSet
    keys: FiniteSet
    ciphertexts: FiniteSet
    encrypt: Rel  # plaintexts x keys -> ciphertexts
    decrypt: ControlledOp  # public ciphertext, private keys -> plaintexts
    pad: DualityPair  # on the key set

    def __post_init__(self) -> None:
        if self.encrypt.src.size != self.plaintexts.size * self.keys.size:
            raise ValueError("encryption source is not plaintexts x keys")
        if self.encrypt.dst.size != self.ciphertexts.size:
            raise ValueError("encryption target is not the ciphertext set")
        if self.decrypt.public_carrier.size != self.ciphertexts.size:
            raise ValueError("decryption is not controlled by the ciphertext")
        if (
            self.decrypt.in_private.size != self.keys.size
            or self.decrypt.out_private.size != self.plaintexts.size
        ):
            raise ValueError("decryption must take keys to plaintexts")
        if self.pad.carrier.size != self.keys.size:
            raise ValueError("pad creation must live on the key set")


def _labeled(prefix: str, n: int) -> FiniteSet:
    return FiniteSet(n, tuple(f"{prefix}{i}" for i in range(n)))


def single_bit_instance() -> ProtocolInstance:
    """The simplest nontrivial scheme: one-time pad on a single bit.

    Transcribed literally: encryption is addition in the two-element group,
    decryption applies the identity or the bit flip depending on the public
    ciphertext, and the pad cup creates the key pairs (0,0) and (1,1).
    """
    p, k, c = _labeled("p", 2), _labeled("k", 2), _labeled("c", 2)
    encrypt = make(product_set(p, k), c, [(0, 0), (1, 1), (2, 1), (3, 0)])
    decrypt = ControlledOp(
        c, k, p, (make(k, p, [(0, 0), (1, 1)]), make(k, p, [(0, 1), (1, 0)]))
    )
    pad = DualityPair(
        k,
        make(FiniteSet(1), product_set(k, k), [(0, 0), (0, 3)]),
        make(product_set(k, k), FiniteSet(1), [(0, 0), (3, 0)]),
    )
    return ProtocolInstance(p, k, c, encrypt, decrypt, pad)


def group_instance(n: int) -> ProtocolInstance:
    """Modular-addition one-time pad on n symbols."""
    if n < 1:
        raise ValueError(f"carrier size must be at least 1, got {n}")
    p, k, c = _labeled("p", n), _labeled("k", n), _labeled("c", n)
    encrypt = make(
        product_set(p, k),
        c,
        [(i * n + j, (i + j) % n) for i in range(n) for j in range(n)],
    )
    decrypt = ControlledOp(
        c,
        k,
        p,
        tuple(
            make(k, p, [(j, (i - j) % n) for j in range(n)]) for i in range(n)
        ),
    )
    return ProtocolInstance(p, k, c, encrypt, decrypt, canonical_cup(k))


# ---------------------------------------------------------------------------
# Cell presentations of the instance pieces.
# ---------------------------------------------------------------------------


def _enc_published_split(inst: ProtocolInstance) -> TwoCell:
    """Encryption followed by publication, with the input wires presented
    as separate factors (key to the right of the plaintext) and the output
    presented as a region bubble."""
    rs = region_structure(inst.ciphertexts)
    dom = hcompose_one(
        scalar_one_cell(inst.keys), scalar_one_cell(inst.plaintexts)
    )
    bubble = hcompose_one(rs.boundary_left, rs.boundary_right)
    return TwoCell(dom, bubble, ((inst.encrypt,),))


def _cup_split(pad: DualityPair) -> TwoCell:
    """Pad creation with the two legs presented as separate wire factors."""
    k = pad.carrier
    cod = hcompose_one(scalar_one_cell(k), scalar_one_cell(k))
    return TwoCell(identity_one_cell(FiniteSet(1)), cod, ((pad.cup,),))


def _cap_split(pad: DualityPair) -> TwoCell:
    k = pad.carrier
    dom = hcompose_one(scalar_one_cell(k), scalar_one_cell(k))
    return TwoCell(dom, identity_one_cell(FiniteSet(1)), ((pad.cap,),))


# ---------------------------------------------------------------------------
# Correctness.
# ---------------------------------------------------------------------------


def check_correctness(inst: ProtocolInstance) -> EquationVerdict:
    """Compact correctness equation.

    Left side: create the pad, encrypt with one key, publish, then decrypt
    the other key under the published value.  Right side: create a fresh
    public value and hand the plaintext over unchanged.
    """
    rs = region_structure(inst.ciphertexts)
    p_wire, k_wire = wire_cell(inst.plaintexts), wire_cell(inst.keys)
    lhs = vcompose_many(
        tensor(p_wire, cup_cell(inst.pad)),
        tensor(scalar_two_cell(inst.encrypt), k_wire),
        tensor(rs.publish, k_wire),
        controlled_scalar(inst.decrypt),
    )
    rhs = tensor(rs.create_region, p_wire)
    return _verdict("correctness", lhs, rhs)


def check_correctness_protocol_form(inst: ProtocolInstance) -> EquationVerdict:
    """Correctness in its communication-shaped layering.

    Same equation, built differently: the sender's encrypt-and-publish is
    one box, the public value then travels to the receiver through an
    explicit do-nothing step, and decryption is whiskered against the
    region boundaries directly.
    """
    rs = region_structure(inst.ciphertexts)
    p_wire, k_wire = wire_cell(inst.plaintexts), wire_cell(inst.keys)
    sender = tensor(vcompose(scalar_two_cell(inst.encrypt), rs.publish), k_wire)
    first_half = vcompose(tensor(p_wire, cup_cell(inst.pad)), sender)
    transit = identity_two_cell(first_half.codomain)
    receive = hcompose_two(controlled_at_left_boundary(inst.decrypt), rs.id_right)
    lhs = vcompose_many(first_half, transit, receive)
    rhs_core = tensor(rs.create_region, p_wire)
    rhs = vcompose(rhs_core, identity_two_cell(rhs_core.codomain))
    return _verdict("correctness_protocol_form", lhs, rhs)


# ---------------------------------------------------------------------------
# Security properties.
# ---------------------------------------------------------------------------

SECURITY_PROPERTIES = {
    "S1": "deleting the unused pad key leaves a random public value",
    "S2": "encrypting with a random key leaves a random public value",
    "S3": "encrypting a random message leaves a random public value",
    "S4": "decrypting with a random key can produce any message",
}


def check_security(inst: ProtocolInstance, which: str) -> EquationVerdict:
    builders = {
        "S1": _security_key_deleted,
        "S2": _security_random_key,
        "S3": _security_random_message,
        "S4": _security_keyless_attacker,
    }
    if which not in builders:
        raise ValueError(f"unknown security property {which!r}")
    return builders[which](inst)


def _security_key_deleted(inst: ProtocolInstance) -> EquationVerdict:
    rs = region_structure(inst.ciphertexts)
    p_wire, k_wire = wire_cell(inst.plaintexts), wire_cell(inst.keys)
    bubble_id = identity_two_cell(
        hcompose_one(rs.boundary_left, rs.boundary_right)
    )
    lhs = vcompose_many(
        tensor(p_wire, cup_cell(inst.pad)),
        tensor(scalar_two_cell(inst.encrypt), k_wire),
        tensor(rs.publish, k_wire),
        tensor(bubble_id, delete_cell(inst.keys)),
    )
    rhs = vcompose(delete_cell(inst.plaintexts), rs.create_region)
    return _verdict("S1", lhs, rhs)


def _security_random_key(inst: ProtocolInstance) -> EquationVerdict:
    rs = region_structure(inst.ciphertexts)
    lhs = vcompose_many(
        tensor(wire_cell(inst.plaintexts), create_cell(inst.keys)),
        scalar_two_cell(inst.encrypt),
        rs.publish,
    )
    rhs = vcompose(delete_cell(inst.plaintexts), rs.create_region)
    return _verdict("S2", lhs, rhs)


def _security_random_message(inst: ProtocolInstance) -> EquationVerdict:
    rs = region_structure(inst.ciphertexts)
    lhs = vcompose_many(
        tensor(create_cell(inst.plaintexts), wire_cell(inst.keys)),
        scalar_two_cell(inst.encrypt),
        rs.publish,
    )
    rhs = vcompose(delete_cell(inst.keys), rs.create_region)
    return _verdict("S3", lhs, rhs)


def _security_keyless_attacker(inst: ProtocolInstance) -> EquationVerdict:
    """With the key chosen blindly, decryption can yield every plaintext,
    whatever the public value says: checked per region value."""
    rs = region_structure(inst.ciphertexts)
    lhs = vcompose(
        hcompose_two(create_cell(inst.keys), rs.id_left),
        controlled_at_left_boundary(inst.decrypt),
    )
    rhs = hcompose_two(create_cell(inst.plaintexts), rs.id_left)
    return _verdict("S4", lhs, rhs)


@dataclass(frozen=True)
class ImplicationReport:
    s1: EquationVerdict
    s2: EquationVerdict
    s3: EquationVerdict
    s4: EquationVerdict
    vacuous: bool
    implication_holds: bool


# ---------------------------------------------------------------------------
# Invertibility of the two halves.
# ---------------------------------------------------------------------------


def _decryption_inverse(record: Verification) -> EquationVerdict:
    """Build the decryption inverse out of the encryption relation.

    The wiring: alongside the ambient public region, create a fresh pad,
    encrypt the incoming plaintext with one leg and publish, compare the
    published value against the ambient one (halting on mismatch), and
    return the surviving pad leg, kept as `record.inverse`.  The result is
    verified to be a two-sided inverse of the decryption boundary cell, and
    every decryption fiber is required to be a bijection.
    """
    inst = record.inst
    rs = region_structure(inst.ciphertexts)
    k_wire = wire_cell(inst.keys)

    dom = hcompose_one(scalar_one_cell(inst.plaintexts), rs.boundary_left)
    step1 = hcompose_two(_cup_split(inst.pad), identity_two_cell(dom))
    step2 = hcompose_two(hcompose_two(k_wire, _enc_published_split(inst)), rs.id_left)
    keep = identity_two_cell(hcompose_one(scalar_one_cell(inst.keys), rs.boundary_left))
    step3 = hcompose_two(keep, rs.compare)
    dinv = record.inverse = vcompose_many(step1, step2, step3)

    dec = controlled_at_left_boundary(inst.decrypt)
    left = _verdict(
        "decrypt_then_inverse", vcompose(dec, dinv), identity_two_cell(dec.domain)
    )
    right = _verdict(
        "inverse_then_decrypt", vcompose(dinv, dec), identity_two_cell(dinv.domain)
    )
    if left.holds and right.holds and record.fibers_bijective:
        return EquationVerdict("decryption_invertible", True)
    reasons = [v.witness for v in (left, right) if not v.holds and v.witness]
    if not record.fibers_bijective:
        reasons.append("a decryption fiber is not a bijection")
    reasons = "; ".join(reasons) or "failed"
    return EquationVerdict("decryption_invertible", False, reasons)


def rebuild_encryption_from(inst: ProtocolInstance, dinv: TwoCell) -> EquationVerdict:
    """Reassemble encryption from a decryption inverse.

    Create a fresh public value, run the inverse on the plaintext against
    it, and verify the resulting key against the incoming key wire; what
    survives is exactly encrypt-then-publish.
    """
    rs = region_structure(inst.ciphertexts)
    k_wire = wire_cell(inst.keys)
    pk_cell = identity_two_cell(
        hcompose_one(scalar_one_cell(inst.keys), scalar_one_cell(inst.plaintexts))
    )
    bubble = hcompose_one(rs.boundary_left, rs.boundary_right)

    step1 = hcompose_two(pk_cell, rs.create_region)
    dinv_scalar = hcompose_two(dinv, rs.id_right)
    step2 = hcompose_two(k_wire, dinv_scalar)
    step3 = hcompose_two(_cap_split(inst.pad), identity_two_cell(bubble))
    rebuilt = vcompose_many(step1, step2, step3)

    target = TwoCell(pk_cell.domain, bubble, ((inst.encrypt,),))
    return _verdict("encryption_rebuilt_from_inverse", rebuilt, target)


def _not_invertible(record: Verification) -> EquationVerdict:
    """Encryption admits no relational inverse unless messages are trivial."""
    inst = record.inst
    trivial = inst.plaintexts.size <= 1
    # the isomorphisms of Rel are exactly the bijections; a trivial message
    # space is the only way to be invertible, and a nontrivial one never is
    if predicates(inst.encrypt).is_bijection == trivial:
        return EquationVerdict("encryption_not_invertible", True)
    if trivial:
        witness = "message space is trivial yet no inverse was found"
    else:
        witness = "encryption has a two-sided inverse on a nontrivial message space"
    return EquationVerdict("encryption_not_invertible", False, witness)


# ---------------------------------------------------------------------------
# Secret sharing.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecretSharingInstance:
    message_set: FiniteSet
    share_pad: DualityPair
    share_decrypt: ControlledOp
    recombine: Rel


@dataclass(frozen=True)
class SecretSharingResult:
    instance: SecretSharingInstance
    recombination: EquationVerdict
    erase_left_share: EquationVerdict
    erase_right_share: EquationVerdict


def _sharing(record: Verification) -> tuple[EquationVerdict, ...]:
    """Read the encryption scheme as a two-share secret sharing procedure.

    A pre-existing public message controls the decryption of one pad leg;
    the two resulting private values are the shares, and the recombination
    step publishes them back through the encryption relation.  Correctness
    is the requirement that this copies the original public message; the
    security equations say that erasing either share makes the other
    uniformly random.  The three equations share their first layers, so
    they are decided together.
    """
    inst = record.inst
    rs = region_structure(inst.ciphertexts)
    id_bl = rs.id_left
    k_wire = wire_cell(inst.keys)

    prepare = hcompose_two(_cup_split(inst.pad), id_bl)
    adjust = hcompose_two(k_wire, controlled_at_left_boundary(inst.decrypt))
    combine = hcompose_two(_enc_published_split(inst), id_bl)
    after_adjust = vcompose(prepare, adjust)
    lhs = vcompose(after_adjust, combine)
    rhs = hcompose_two(id_bl, rs.copy)
    recombination = _verdict("sharing_recombination", lhs, rhs)

    p_bl = identity_two_cell(
        hcompose_one(scalar_one_cell(inst.plaintexts), rs.boundary_left)
    )
    erase_right = vcompose(after_adjust, hcompose_two(delete_cell(inst.keys), p_bl))
    rhs_right = hcompose_two(create_cell(inst.plaintexts), id_bl)
    erase_right_share = _verdict("sharing_erase_right_share", erase_right, rhs_right)

    erase_left = vcompose(
        after_adjust,
        hcompose_two(k_wire, hcompose_two(delete_cell(inst.plaintexts), id_bl)),
    )
    rhs_left = hcompose_two(create_cell(inst.keys), id_bl)
    erase_left_share = _verdict("sharing_erase_left_share", erase_left, rhs_left)
    return recombination, erase_right_share, erase_left_share


# ---------------------------------------------------------------------------
# One record of verdicts per instance.
# ---------------------------------------------------------------------------

_SHARING = (
    "sharing_recombination", "sharing_erase_left_share", "sharing_erase_right_share"
)
# name -> (hypothesis, decider), in the order of `verify-otp`'s report.  The
# hypothesis names the check this one presupposes and the words of the
# refusal; the decider returns the verdict, or several decided together.
# Checks without a hypothesis are decided through their public names.
_CHECKS: dict[str, tuple[Optional[tuple[str, str]], Callable]] = {
    "correctness": (None, lambda r: check_correctness(r.inst)),
    "correctness_protocol_form": (
        None, lambda r: check_correctness_protocol_form(r.inst)
    ),
    **{
        w: (None, lambda r, w=w: check_security(r.inst, w))
        for w in SECURITY_PROPERTIES
    },
    "decryption_invertible": (
        ("correctness", "decryption inverse requires correctness"),
        _decryption_inverse,
    ),
    "encryption_rebuilt_from_inverse": (
        ("decryption_invertible", "reconstruction requires an invertible decryption"),
        lambda r: rebuild_encryption_from(r.inst, r.inverse),
    ),
    "encryption_not_invertible": (
        ("S1", "non-invertibility is asserted under the key-deletion property"),
        _not_invertible,
    ),
    **dict.fromkeys(
        _SHARING,
        (("correctness", "secret sharing is derived from a correct scheme"), _sharing),
    ),
}
OTP_CHECKS = tuple(name for name in _CHECKS if name not in _SHARING)


class Verification:
    """Every verdict about one instance, each decided at most once.

    ``record[name]`` decides the check `name` (a key of `_CHECKS`) on first
    use, after its hypothesis.  If the hypothesis fails, the check is not
    evaluated: its verdict is `refused`, and the witness is the text of the
    `PreconditionError` that its public function raises.  The record keeps
    verdicts and the derived inverse cell, never the sides of an equation.
    ``given`` names checks the caller already knows to hold, such as the
    search's correctness; they are recorded as holding, never decided.
    """

    def __init__(self, inst: ProtocolInstance, given: Iterable[str] = ()):
        self.inst = inst
        self.inverse: Optional[TwoCell] = None
        self.fibers_bijective = all(
            predicates(f).is_bijection for f in inst.decrypt.family
        )
        self._verdicts = {name: EquationVerdict(name, True) for name in given}

    def __getitem__(self, name: str) -> EquationVerdict:
        if name not in self._verdicts:
            hypothesis, decide = _CHECKS[name]
            needed = hypothesis and self[hypothesis[0]]
            if needed and not needed.holds:
                # a refused hypothesis passes its refusal on in its own words
                why = needed.witness
                if not needed.refused:
                    why = f"{hypothesis[1]}; {why}"
                decided = EquationVerdict(name, False, why, refused=True)
            else:
                decided = decide(self)
            for verdict in decided if isinstance(decided, tuple) else (decided,):
                self._verdicts[verdict.name] = verdict
        return self._verdicts[name]

    def check(self, name: str) -> EquationVerdict:
        """The verdict of `name`; raises `PreconditionError` if refused."""
        verdict = self[name]
        if verdict.refused:
            raise PreconditionError(verdict.witness)
        return verdict

    def implications(self) -> ImplicationReport:
        """S1 through S4, decided independently, and whether S1 forces the rest."""
        s1, *rest = (self[w] for w in SECURITY_PROPERTIES)
        vacuous = not s1.holds
        holds = vacuous or all(v.holds for v in rest)
        return ImplicationReport(s1, *rest, vacuous, holds)


def instance_bits(p: int, k: int, c: int) -> int:
    """The largest matrix, in bits, that the checks of an instance of
    sizes p x k x c build.

    Correctness and S1 build the pad beside the plaintext wire, (p·k)²
    bits, and the protocol form builds identities on a ciphertext paired
    with a key or a plaintext, (k·c)² and (p·c)² bits.  The rebuild of
    encryption, reached only when p = k, builds p·k³·c bits.  Larger
    Kronecker products, such as the rebuild's (p·k·c)², are contracted and
    never built (`relations.compose`), except that a product of at most
    `relations._BOOL_MATMUL_MAX_WORK` cells is built when it is made.  The
    region on the ciphertexts is charged c³, as the DSL charges it: its
    c x c copy and compare tuples and the c² paths `hcompose_two` walks
    through it are Python-level work that no single matrix shows.
    """
    bits = max(
        (p * k) ** 2,
        (k * c) ** 2,
        (p * c) ** 2,
        min((p * k * c) ** 2, relations._BOOL_MATMUL_MAX_WORK),
        c**3,
    )
    if p == k:
        bits = max(bits, p * k**3 * c)
    return bits


def refuse_oversized(p: int, k: int, c: int) -> None:
    """Refuse sizes whose checks would build one matrix of more than
    `MAX_DENSE_BITS` bits (`instance_bits`)."""
    _refuse_over_limit(
        instance_bits(p, k, c), f"an instance of sizes {p}x{k}x{c} builds a matrix"
    )


def _refuse_over_limit(bits: int, checking: str) -> None:
    if bits > MAX_DENSE_BITS:
        raise ValueError(
            f"checking {checking} of {dense_size(bits)}, over the limit of "
            f"{MAX_DENSE_BITS}"
        )


def security_implications(inst: ProtocolInstance) -> ImplicationReport:
    return Verification(inst).implications()


def derive_decryption_inverse(
    inst: ProtocolInstance,
) -> tuple[TwoCell, EquationVerdict]:
    """The decryption inverse cell and its verdict."""
    record = Verification(inst)
    verdict = record.check("decryption_invertible")
    return record.inverse, verdict


def rebuild_encryption(inst: ProtocolInstance) -> EquationVerdict:
    return Verification(inst).check("encryption_rebuilt_from_inverse")


def check_encryption_not_invertible(inst: ProtocolInstance) -> EquationVerdict:
    return Verification(inst).check("encryption_not_invertible")


def secret_sharing_from_otp(inst: ProtocolInstance) -> SecretSharingResult:
    record = Verification(inst)
    return SecretSharingResult(
        SecretSharingInstance(inst.ciphertexts, inst.pad, inst.decrypt, inst.encrypt),
        *(record.check(name) for name in _SHARING),
    )


# ---------------------------------------------------------------------------
# Key exchange.
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


@dataclass(frozen=True)
class DHInstance:
    """Key exchange over a cyclic group of prime order.

    Group elements are powers of a generator; exponents are the private
    keys.  The controlled operation raises a public base element to a
    private exponent.
    """

    group_order: int
    elements: FiniteSet
    exponents: FiniteSet
    exp_op: ControlledOp
    base_set: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_prime(self.group_order):
            raise ValueError(f"group order must be prime, got {self.group_order}")


def _dh_bits(q: int) -> int:
    """The bits of the largest cell a key exchange check of order q holds:
    after each layer the left side holds a q⁴-bit state of four private
    wires on each of q region values.  No matrix built is larger than q⁴
    but products small enough to be built when made (`relations._kron`)."""
    return q * max(q**4, relations._BOOL_MATMUL_MAX_WORK)


def dh_instance(q: int, include_identity: bool = False) -> DHInstance:
    # the size first: the primality test tries up to √q divisions
    _refuse_over_limit(_dh_bits(q), f"key exchange over order {q} holds a cell")
    if not _is_prime(q):
        raise ValueError(f"group order must be prime, got {q}")
    elements = FiniteSet(
        q, tuple("1" if i == 0 else "g" if i == 1 else f"g^{i}" for i in range(q))
    )
    exponents = FiniteSet(q, tuple(str(i) for i in range(q)))
    family = tuple(
        make(exponents, elements, [(x, (a * x) % q) for x in range(q)])
        for a in range(q)
    )
    exp_op = ControlledOp(elements, exponents, elements, family)
    base_set = tuple(range(q)) if include_identity else tuple(range(1, q))
    return DHInstance(q, elements, exponents, exp_op, base_set)


def _dh_sides(
    dh: DHInstance, erase_published: bool
) -> tuple[TwoCell, TwoCell]:
    """Both sides of the exchange, as two-cells out of the ambient region.

    Each side starts from the region's copy and takes one layer at a time,
    so that only one layer is alive at once.
    """
    rs = region_structure(dh.elements)
    lhs = rs.copy
    for layer in _dh_layers(dh, rs, erase_published):
        lhs = vcompose(lhs, layer)
    rhs = vcompose(rs.copy, _in_zone(rs, cup_cell(canonical_cup(dh.elements))))
    return lhs, rhs


def _in_zone(rs: RegionStructure, step: TwoCell) -> TwoCell:
    """A scalar step whiskered between the boundaries of the ambient region."""
    return hcompose_two(hcompose_two(rs.id_right, step), rs.id_left)


def _dh_layers(
    dh: DHInstance, rs: RegionStructure, erase_published: bool
) -> Iterator[TwoCell]:
    g, z = dh.elements, dh.exponents
    fam = dh.exp_op.family
    g_wire, z_wire = wire_cell(g), wire_cell(z)
    pad = cup_cell(canonical_cup(z))

    def zone_op(family: list[Rel]) -> ControlledOp:
        return ControlledOp(g, family[0].src, family[0].dst, tuple(family))

    # both parties draw and duplicate a private exponent
    yield _in_zone(rs, tensor(pad, pad))
    # sender's exponentiation against the ambient base at the left boundary
    id_rest = product(identity(z), product(identity(z), identity(z)))
    yield hcompose_two(
        rs.id_right,
        controlled_at_left_boundary(zone_op([product(f, id_rest) for f in fam])),
    )
    yield _in_zone(rs, tensor_many(rs.publish, z_wire, z_wire, z_wire))
    # receiver's exponentiation against the ambient base at the right boundary
    id_pre = product(identity(g), product(identity(z), identity(z)))
    yield hcompose_two(
        controlled_at_right_boundary(zone_op([product(id_pre, f) for f in fam])),
        rs.id_left,
    )
    yield _in_zone(rs, tensor_many(g_wire, z_wire, z_wire, rs.publish))
    # the sender's published value travels across the first kept exponent
    yield _in_zone(rs, tensor_many(swap_cell(g, z), z_wire, g_wire))
    # receiver raises the received value to the kept exponent
    yield _in_zone(
        rs, tensor_many(z_wire, controlled_scalar(dh.exp_op), g_wire)
    )
    if erase_published:
        yield _in_zone(
            rs, tensor_many(z_wire, rs.delete_region, g_wire, g_wire)
        )
        yield _in_zone(rs, tensor_many(z_wire, swap_cell(g, g)))
        yield _in_zone(
            rs, tensor(controlled_scalar_mirror(dh.exp_op), g_wire)
        )
        yield _in_zone(rs, tensor_many(g_wire, rs.delete_region, g_wire))
    else:
        yield _in_zone(rs, tensor_many(z_wire, g_wire, swap_cell(g, g)))
        yield _in_zone(rs, tensor_many(z_wire, swap_cell(g, g), g_wire))
        yield _in_zone(
            rs,
            tensor_many(controlled_scalar_mirror(dh.exp_op), g_wire, g_wire),
        )


def check_dh(dh: DHInstance, erase_published: bool = True) -> EquationVerdict:
    """Key exchange correctness, compared base by base.

    For every admissible base, running the exchange and erasing the
    published values must equal the base's region unchanged beside a
    matched, uniformly random pair of group elements.  Both sides are
    ordinary two-cells: the region's copy, then each step of the exchange
    whiskered between the region's boundaries (the two exponentiations
    as controlled operations at the left and at the right boundary),
    composed with `vcompose` and `hcompose_two`.
    """
    lhs, rhs = _dh_sides(dh, erase_published)
    if lhs.codomain.fiber(0, 0).size != rhs.codomain.fiber(0, 0).size:
        bases = ", ".join(dh.elements.label(b) for b in dh.base_set)
        return EquationVerdict(
            "key_exchange",
            False,
            f"published data retained: sides have different shapes (bases {bases})",
        )
    for b in dh.base_set:
        if lhs.component(b, b) != rhs.component(b, b):
            return EquationVerdict(
                "key_exchange",
                False,
                f"base {dh.elements.label(b)}: exchanged keys are not "
                f"uniform over the group",
            )
    return EquationVerdict("key_exchange", True)
