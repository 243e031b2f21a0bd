"""Reference checker for the relcat benchmark.

Shares no code with relcat.  Relations are sets of pairs and every
property is computed from its set formula, the way `tests/oracle_naive.py`
does for the synthesiser.  A scheme is a plaintext count ``p``, a key count
``k`` and a ciphertext count ``c``, plus:

- ``enc``: a set of triples ``(x, key, cipher)``;
- ``dec``: one set of ``(key, x)`` pairs per ciphertext;
- ``pad``: a set of ``(key1, key2)`` pairs, where ``key1`` goes to
  encryption and ``key2`` to decryption.

All pads the benchmark generates are graphs of involutions, so the two pad
legs may be exchanged without changing any formula below.
"""

from __future__ import annotations

from dataclasses import dataclass

SECURITY = ("S1", "S2", "S3", "S4")


@dataclass(frozen=True)
class Scheme:
    p: int
    k: int
    c: int
    enc: frozenset  # (x, key, cipher)
    dec: tuple  # per cipher: frozenset of (key, x)
    pad: frozenset  # (key1, key2)

    def encrypt_image(self, x: int, key: int) -> set:
        return {cc for xx, kk, cc in self.enc if xx == x and kk == key}

    def decrypt_image(self, cipher: int, key: int) -> set:
        return {x for kk, x in self.dec[cipher] if kk == key}


def group_scheme(n: int) -> Scheme:
    """Modular addition on ``n`` symbols with the diagonal pad."""
    enc = frozenset((x, key, (x + key) % n) for x in range(n) for key in range(n))
    dec = tuple(
        frozenset((key, (cc - key) % n) for key in range(n)) for cc in range(n)
    )
    return Scheme(n, n, n, enc, dec, frozenset((key, key) for key in range(n)))


def correctness(s: Scheme) -> bool:
    """Pad, encrypt with one leg, decrypt the other under the ciphertext:
    every message must come back under every ciphertext and nothing else."""
    for x in range(s.p):
        got = {
            (cc, y)
            for k1, k2 in s.pad
            for cc in s.encrypt_image(x, k1)
            for y in s.decrypt_image(cc, k2)
        }
        if got != {(cc, x) for cc in range(s.c)}:
            return False
    return True


def security(s: Scheme, which: str) -> bool:
    every_cipher = set(range(s.c))
    if which == "S1":
        return all(
            {cc for k1, _ in s.pad for cc in s.encrypt_image(x, k1)} == every_cipher
            for x in range(s.p)
        )
    if which == "S2":
        return all(
            {cc for key in range(s.k) for cc in s.encrypt_image(x, key)}
            == every_cipher
            for x in range(s.p)
        )
    if which == "S3":
        return all(
            {cc for x in range(s.p) for cc in s.encrypt_image(x, key)}
            == every_cipher
            for key in range(s.k)
        )
    if which == "S4":
        return all({x for _, x in block} == set(range(s.p)) for block in s.dec)
    raise ValueError(which)


def is_bijection(pairs, n_src: int, n_dst: int) -> bool:
    images = [{b for a, b in pairs if a == x} for x in range(n_src)]
    preimages = [{a for a, b in pairs if b == y} for y in range(n_dst)]
    return all(len(i) == 1 for i in images) and all(
        len(p) == 1 for p in preimages
    )


def fibres_bijective(s: Scheme) -> bool:
    return all(is_bijection(block, s.k, s.p) for block in s.dec)


def _compose(r, t) -> set:
    return {(a, c) for a, b in r for b2, c in t if b == b2}


def _inverse_block(s: Scheme, cipher: int) -> set:
    """The decryption inverse under one public ciphertext: the pad leg that
    survives encrypting the message with the other leg to this ciphertext."""
    return {
        (x, k2)
        for k1, k2 in s.pad
        for x in range(s.p)
        if cipher in s.encrypt_image(x, k1)
    }


def decryption_inverse(s: Scheme) -> bool:
    """Decryption and its derived inverse compose to identities both ways."""
    id_k = {(key, key) for key in range(s.k)}
    id_p = {(x, x) for x in range(s.p)}
    for cc in range(s.c):
        inv = _inverse_block(s, cc)
        if _compose(s.dec[cc], inv) != id_k or _compose(inv, s.dec[cc]) != id_p:
            return False
    return fibres_bijective(s)


def rebuilt_encryption(s: Scheme) -> bool:
    """Encryption reassembled from the inverse: a free ciphertext, the
    inverse on the message, and the key matched against the pad."""
    rebuilt = {
        (x, key, cc)
        for cc in range(s.c)
        for x, k2 in _inverse_block(s, cc)
        for key, k2b in s.pad
        if k2b == k2
    }
    return rebuilt == set(s.enc)


def encryption_invertible(s: Scheme) -> bool:
    """A relation has a two-sided relational inverse iff it is a bijection."""
    pairs = {(x * s.k + key, cc) for x, key, cc in s.enc}
    return is_bijection(pairs, s.p * s.k, s.c)


def expected_verify_otp(s: Scheme) -> dict:
    """The verdicts `verify-otp` must report, keyed as in its JSON output."""
    ok = correctness(s)
    sec = {w: security(s, w) for w in SECURITY}
    results = {"correctness": ok, "correctness_protocol_form": ok, **sec}
    if ok and decryption_inverse(s):
        results["decryption_invertible"] = True
        results["encryption_rebuilt_from_inverse"] = rebuilt_encryption(s)
    else:
        results["decryption_invertible"] = False
    if sec["S1"]:
        trivial = s.p <= 1
        results["encryption_not_invertible"] = trivial == encryption_invertible(s)
    else:
        results["encryption_not_invertible"] = False
    implication = (not sec["S1"]) or (sec["S2"] and sec["S3"] and sec["S4"])
    passed = all(results.values()) and implication
    return {
        "results": results,
        "implication_s1_gives_rest": implication,
        "status": "pass" if passed else "fail",
        "sizes": [s.p, s.k, s.c],
    }


def expected_sharing(s: Scheme) -> dict:
    """Secret sharing read off the scheme, per public message ``m``."""
    recombination = all(
        {
            cc
            for k1, k2 in s.pad
            for y in s.decrypt_image(m, k2)
            for cc in s.encrypt_image(y, k1)
        }
        == {m}
        for m in range(s.c)
    )
    erase_right = all(
        {y for _, k2 in s.pad for y in s.decrypt_image(m, k2)} == set(range(s.p))
        for m in range(s.c)
    )
    erase_left = all(
        {k1 for k1, k2 in s.pad if s.decrypt_image(m, k2)} == set(range(s.k))
        for m in range(s.c)
    )
    return {
        "recombination": recombination,
        "erase_left_share": erase_left,
        "erase_right_share": erase_right,
    }


# ---------------------------------------------------------------------------
# Key exchange.
# ---------------------------------------------------------------------------


def power_label(i: int) -> str:
    """Name of the group element g^i."""
    return "1" if i == 0 else "g" if i == 1 else f"g^{i}"


def dh_key_pairs(q: int, base: int) -> set:
    """{(b^(xy), b^(yx))} with elements written as exponents of g."""
    return {((base * x * y) % q, (base * y * x) % q) for x in range(q) for y in range(q)}


def expected_dh(q: int, include_identity: bool, erase: bool) -> dict:
    """Verdict of `verify-dh`: keys must be matched and uniform for every
    base; keeping the published values changes the equation's shape."""
    bases = list(range(q)) if include_identity else list(range(1, q))
    uniform = {(e, e) for e in range(q)}
    failing = [b for b in bases if dh_key_pairs(q, b) != uniform]
    if not erase:
        reason = "shape"
    elif failing:
        reason = f"base {power_label(failing[0])}"
    else:
        reason = None
    return {
        "bases": [power_label(b) for b in bases],
        "holds": reason is None,
        "reason": reason,
    }


# ---------------------------------------------------------------------------
# Synthesis records.
# ---------------------------------------------------------------------------


def scheme_from_record(record: dict) -> Scheme:
    """Read a solution record: matrix rows are targets, columns sources,
    and a (message, key) source is numbered message * k + key."""
    p, k, c = record["sizes"]
    enc = frozenset(
        (col // k, col % k, row)
        for row, bits in enumerate(record["encrypt"])
        for col, bit in enumerate(bits)
        if bit == "1"
    )
    dec = tuple(
        frozenset(
            (col, row)
            for row, bits in enumerate(rows)
            for col, bit in enumerate(bits)
            if bit == "1"
        )
        for rows in record["decrypt"]
    )
    pad = frozenset(enumerate(record["pad"]))
    return Scheme(p, k, c, enc, dec, pad)


def holds(s: Scheme, constraint: str) -> bool:
    return correctness(s) if constraint == "correctness" else security(s, constraint)


def recheck_record(record: dict, constraints) -> list[str]:
    """Problems with one solution record; empty when it is a solution."""
    s = scheme_from_record(record)
    problems = []
    if sorted(record["pad"]) != list(range(s.k)):
        problems.append(f"pad {record['pad']} is not a permutation")
    for name in constraints:
        if not holds(s, name):
            problems.append(f"{name} does not hold")
    if record["verdicts"] != {name: True for name in constraints}:
        problems.append(f"verdicts {record['verdicts']} do not match {constraints}")
    return problems


def theorem_counterexamples(s: Scheme) -> list[str]:
    """The structural theorems on a correct scheme, from the set formulas."""
    out = []
    if not fibres_bijective(s):
        out.append("decryption fibre is not a bijection")
    if not (decryption_inverse(s) and rebuilt_encryption(s)):
        out.append("encryption not rebuilt from the inverse")
    if security(s, "S1") and not all(security(s, w) for w in SECURITY[1:]):
        out.append("S1 holds but a derived property fails")
    if s.p > 1 and security(s, "S1") and encryption_invertible(s):
        out.append("encryption is invertible on a nontrivial message space")
    return out
