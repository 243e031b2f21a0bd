"""Independent recount of the synthesiser's solutions.

Shares no code with relcat or with its brute-force oracle.  Correctness
splits per ciphertext: for a fixed encryption and pad, the decryption
block of ciphertext c must send the partner key of every key that
encrypts message x to c back to x alone.  So the solutions are the product,
over ciphertexts, of the blocks that pass that test, which is a different
route from relcat's whole-candidate loop.  S4 is per ciphertext as well;
S1 to S3 depend on encryption and pad only.

Usage:

    python3 relbench/count_synth.py --sizes 2,2,2
    python3 relbench/count_synth.py --sizes 2,2,2 --constraints correctness,S1 --dedup
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402


def _rows(pairs, n_src: int, n_dst: int) -> tuple[str, ...]:
    """Matrix rows (one per target) of a set of (source, target) pairs."""
    return tuple(
        "".join("1" if (a, b) in pairs else "0" for a in range(n_src))
        for b in range(n_dst)
    )


def _sort_key(triple) -> tuple:
    enc_rows, dec_rows, pad = triple
    return (
        int("".join(enc_rows), 2),
        tuple(int("".join(rows), 2) for rows in dec_rows),
        pad,
    )


def candidate_count(p: int, k: int, c: int) -> int:
    return math.factorial(k) * 2 ** (p * k * c) * 2 ** (c * k * p)


def solutions(p: int, k: int, c: int, constraints) -> list[tuple]:
    """Every (encrypt rows, decrypt rows per ciphertext, pad) solution,
    ascending on the (encrypt, decrypt, pad) bit codes."""
    need = set(constraints)
    everything = set(range(p))
    blocks = []
    for bits in itertools.product((0, 1), repeat=k * p):
        pairs = frozenset(
            (key, x) for (key, x), b in zip(itertools.product(range(k), range(p)), bits) if b
        )
        blocks.append(pairs)
    if "S4" in need:
        blocks = [b for b in blocks if {x for _, x in b} == everything]
    src = [(x, key) for x in range(p) for key in range(k)]
    out = []
    for bits in itertools.product((0, 1), repeat=p * k * c):
        enc = frozenset(
            (x, key, cc)
            for (cc, (x, key)), b in zip(itertools.product(range(c), src), bits)
            if b
        )
        probe = reference.Scheme(p, k, c, enc, (), frozenset())
        if any(w in need and not reference.security(probe, w) for w in ("S2", "S3")):
            continue
        image = {(x, key): probe.encrypt_image(x, key) for x, key in src}
        for pad in itertools.permutations(range(k)):
            pad_probe = reference.Scheme(p, k, c, enc, (), frozenset(enumerate(pad)))
            if "S1" in need and not reference.security(pad_probe, "S1"):
                continue
            per_cipher = []
            for cc in range(c):
                # messages whose encryption reaches cc, by the decrypting key
                sent = {x: {pad[key] for key in range(k) if cc in image[(x, key)]} for x in range(p)}
                ok = []
                for block in blocks:
                    if "correctness" in need and not all(
                        {y for kk, y in block if kk in sent[x]} == {x} for x in range(p)
                    ):
                        continue
                    ok.append(block)
                per_cipher.append(ok)
            enc_rows = _rows({((x * k + key), cc) for x, key, cc in enc}, p * k, c)
            for choice in itertools.product(*per_cipher):
                dec_rows = tuple(_rows(block, k, p) for block in choice)
                out.append((enc_rows, dec_rows, pad))
    out.sort(key=_sort_key)
    return out


def relabel(triple, p: int, k: int, c: int, sp, sk, sc) -> tuple:
    """The same scheme with message x renamed sp[x], key j renamed sk[j]
    and ciphertext i renamed sc[i]."""
    enc_rows, dec_rows, pad = triple
    enc = {
        (sp[col // k] * k + sk[col % k], sc[row])
        for row, bits in enumerate(enc_rows)
        for col, b in enumerate(bits)
        if b == "1"
    }
    new_dec = [None] * c
    for cc, rows in enumerate(dec_rows):
        block = {
            (sk[col], sp[row])
            for row, bits in enumerate(rows)
            for col, b in enumerate(bits)
            if b == "1"
        }
        new_dec[sc[cc]] = _rows(block, k, p)
    new_pad = [0] * k
    for j in range(k):
        new_pad[sk[j]] = sk[pad[j]]
    return (_rows(enc, p * k, c), tuple(new_dec), tuple(new_pad))


def orbit_representatives(found: list[tuple], p: int, k: int, c: int) -> list[tuple]:
    """Least member, by bit codes, of each relabelling orbit, ascending."""
    reps = set()
    for triple in found:
        orbit = (
            relabel(triple, p, k, c, sp, sk, sc)
            for sp in itertools.permutations(range(p))
            for sk in itertools.permutations(range(k))
            for sc in itertools.permutations(range(c))
        )
        reps.add(min(orbit, key=_sort_key))
    return sorted(reps, key=_sort_key)


def as_scheme(triple, p: int, k: int, c: int) -> reference.Scheme:
    enc_rows, dec_rows, pad = triple
    return reference.scheme_from_record(
        {
            "sizes": [p, k, c],
            "encrypt": list(enc_rows),
            "decrypt": [list(r) for r in dec_rows],
            "pad": list(pad),
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", required=True, metavar="P,K,C")
    parser.add_argument("--constraints", default="correctness")
    parser.add_argument("--dedup", action="store_true")
    args = parser.parse_args(argv)
    p, k, c = (int(v) for v in args.sizes.split(","))
    constraints = [x for x in args.constraints.split(",") if x]
    found = solutions(p, k, c, constraints)
    report = {
        "sizes": [p, k, c],
        "constraints": sorted(constraints),
        "candidates": candidate_count(p, k, c),
        "solutions": len(found),
    }
    if args.dedup:
        report["orbits"] = len(orbit_representatives(found, p, k, c))
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
