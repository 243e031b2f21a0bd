"""Independent brute-force enumerator used as an oracle for the search module.

Deliberately shares no code with the library: relations are sets of pairs,
composition is a nested-loop comprehension, and the bit-code interchange
format is reimplemented from its documentation (row-major over the
target x source matrix, first entry most significant; pairs encode
mixed-radix with the left factor high).

Run as a script to print the frozen golden counts:

    python3 tests/oracle_naive.py
"""

from __future__ import annotations

import itertools
import math


def rel_from_code(n_src: int, n_dst: int, code: int) -> frozenset:
    n = n_src * n_dst
    pairs = []
    for i in range(n):
        if code >> (n - 1 - i) & 1:
            b, a = divmod(i, n_src)
            pairs.append((a, b))
    return frozenset(pairs)


def rel_to_code(n_src: int, n_dst: int, rel: frozenset) -> int:
    code = 0
    for b in range(n_dst):
        for a in range(n_src):
            code = (code << 1) | ((a, b) in rel)
    return code


def image(rel: frozenset, x) -> set:
    return {b for a, b in rel if a == x}


def compose_sets(r: frozenset, s: frozenset) -> frozenset:
    return frozenset(
        (a, c) for a, b in r for b2, c in s if b == b2
    )


def correctness_holds(
    p: int, k: int, c: int, enc: frozenset, dec: list[frozenset], pad: tuple
) -> bool:
    """Pad, encrypt with the first leg, decrypt the second leg under the
    ciphertext; must equal a free ciphertext beside the untouched message."""
    want = {(cc, x) for cc in range(c) for x in range(p)}
    got_by_message = {}
    for x in range(p):
        got = set()
        for key in range(k):
            other = pad[key]
            for cc in image(enc, (x, key)):
                for y in image(dec[cc], other):
                    got.add((cc, y))
        got_by_message[x] = got
    return all(
        got_by_message[x] == {(cc, x) for cc in range(c)} for x in range(p)
    )


def s1_holds(p: int, k: int, c: int, enc: frozenset, pad: tuple) -> bool:
    full = set(range(c))
    return all(
        {cc for key in range(k) for cc in image(enc, (x, key))} == full
        for x in range(p)
    )


def s2_holds(p: int, k: int, c: int, enc: frozenset) -> bool:
    """Each message reaches every ciphertext under some key."""
    return all(
        any(cc in image(enc, (x, key)) for key in range(k))
        for x in range(p)
        for cc in range(c)
    )


def s3_holds(p: int, k: int, c: int, enc: frozenset) -> bool:
    """Each key reaches every ciphertext under some message."""
    return all(
        any(cc in image(enc, (x, key)) for x in range(p))
        for key in range(k)
        for cc in range(c)
    )


def s4_holds(p: int, dec: list[frozenset]) -> bool:
    """Under every ciphertext, decrypting a freshly created key reaches
    every message: the image of each decryption block is all of P."""
    return all({y for _, y in d} == set(range(p)) for d in dec)


def enumerate_triples(p: int, k: int, c: int, constraints=("correctness",)):
    """All (encrypt code, decrypt codes, pad mapping) triples satisfying the
    constraints, ascending."""
    out = []
    enc_bits = p * k * c
    dec_bits = k * p
    pads = list(itertools.permutations(range(k)))
    for enc_code in range(1 << enc_bits):
        enc_pairs = rel_from_code(p * k, c, enc_code)
        enc = frozenset(
            ((a // k, a % k), b) for a, b in enc_pairs
        )
        for dec_codes in itertools.product(
            range(1 << dec_bits), repeat=c
        ):
            dec = [rel_from_code(k, p, code) for code in dec_codes]
            for pad in pads:
                ok = True
                for name in constraints:
                    if name == "correctness":
                        ok = correctness_holds(p, k, c, enc, dec, pad)
                    elif name == "S1":
                        ok = s1_holds(p, k, c, enc, pad)
                    elif name == "S2":
                        ok = s2_holds(p, k, c, enc)
                    elif name == "S3":
                        ok = s3_holds(p, k, c, enc)
                    elif name == "S4":
                        ok = s4_holds(p, dec)
                    else:
                        raise ValueError(name)
                    if not ok:
                        break
                if ok:
                    out.append((enc_code, dec_codes, pad))
    return out


def relabel_triple(p, k, c, triple, sp, sk, sc):
    enc_code, dec_codes, pad = triple
    enc = rel_from_code(p * k, c, enc_code)
    enc2 = frozenset(
        (sp[a // k] * k + sk[a % k], sc[b]) for a, b in enc
    )
    dec2 = []
    for new_c in range(c):
        old = rel_from_code(k, p, dec_codes[sc.index(new_c)])
        dec2.append(
            rel_to_code(k, p, frozenset((sk[a], sp[b]) for a, b in old))
        )
    pad2 = [0] * k
    for j in range(k):
        pad2[sk[j]] = sk[pad[j]]
    return (rel_to_code(p * k, c, enc2), tuple(dec2), tuple(pad2))


def dedup_triples(p, k, c, triples):
    reps = set()
    for t in triples:
        orbit = [
            relabel_triple(p, k, c, t, sp, sk, sc)
            for sp in itertools.permutations(range(p))
            for sk in itertools.permutations(range(k))
            for sc in itertools.permutations(range(c))
        ]
        reps.add(min(orbit))
    return sorted(reps)


def _cycle_type(perm) -> tuple[int, ...]:
    seen, lengths = set(), []
    for start in range(len(perm)):
        length, x = 0, start
        while x not in seen:
            seen.add(x)
            x, length = perm[x], length + 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def _conjugacy_classes(n):
    """One permutation of each cycle type of S_n, with its class size."""
    classes = {}
    for perm in itertools.permutations(range(n)):
        rep, size = classes.get(_cycle_type(perm), (perm, 0))
        classes[_cycle_type(perm)] = (rep, size + 1)
    return list(classes.values())


def burnside_orbit_count(p, k, c, triples):
    """Orbits of a relabeling-closed set of triples, by Burnside's lemma:
    the mean, over every relabeling g in S_p x S_k x S_c, of the triples
    that g fixes.  Conjugate relabelings fix equally many triples of a
    closed set, so one g per conjugacy class is tried, weighted by the
    class size.  A fixed triple's pad commutes with sk, which is checked
    before the triple is relabeled."""
    total = 0
    for (sp, n_p), (sk, n_k), (sc, n_c) in itertools.product(
        *(_conjugacy_classes(n) for n in (p, k, c))
    ):
        fixed = sum(
            relabel_triple(p, k, c, t, sp, sk, sc) == t
            for t in triples
            if all(t[2][sk[j]] == sk[t[2][j]] for j in range(k))
        )
        total += n_p * n_k * n_c * fixed
    order = math.factorial(p) * math.factorial(k) * math.factorial(c)
    count, rest = divmod(total, order)
    assert rest == 0, "the set of triples is not closed under relabeling"
    return count


if __name__ == "__main__":
    correct = enumerate_triples(2, 2, 2, ("correctness",))
    both = enumerate_triples(2, 2, 2, ("correctness", "S1"))
    deduped = dedup_triples(2, 2, 2, both)
    print(f"(2,2,2) correctness count: {len(correct)}")
    print(f"(2,2,2) correctness+S1 count: {len(both)}")
    print(f"(2,2,2) correctness+S1 deduped count: {len(deduped)}")
    print("first five:", correct[:5])
