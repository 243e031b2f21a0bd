"""The benchmark's workloads: seeded inputs and the checks on their outputs.

`build` makes a workload's operations from the seed; it is the part of
set-up the benchmark times along with importing relcat.  relcat sees only
CLI arguments and generated `.rcat` text, plus the group order given to
`protocols.group_instance` for secret sharing.  `expectations` then works
out, with the reference checker alone, what every operation must return.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import count_synth
import reference

WORKLOADS = ("otp", "dh", "synth", "files")

OTP_ORDERS = tuple(range(1, 11))
DH_PRIMES = (2, 3, 5, 7)
DH_VARIANTS = ((), ("--include-identity",), ("--no-erase",))
SYNTH_SAMPLES = 2000
FILE_ORDERS = (2, 3, 4, 5, 6)
# per group order: one renamed scheme left intact, and one each with a
# pair added to or removed from encrypt or a decrypt block, or two pad
# partners traded
FILE_KINDS = ("none", "encrypt+", "encrypt-", "decrypt+", "decrypt-", "pad")


@dataclass
class Op:
    """One call into relcat: a CLI argument list, or a library call named
    by ``call`` with its argument."""

    label: str
    argv: list[str] | None = None
    call: tuple[str, int] | None = None
    data: object = None  # what the reference needs to judge the output
    check: object = field(default=None, repr=False)


@dataclass
class Outcome:
    code: int | None
    stdout: str
    value: object = None  # what a library call returned


def build(name: str, seed: int, workdir: Path, root: Path) -> list[Op]:
    rng = random.Random(seed)
    if name == "otp":
        ops = [
            Op(f"verify-otp --group {n}", ["verify-otp", "--group", str(n), "--format", "json"], data=n)
            for n in OTP_ORDERS
        ] + [Op(f"sharing {n}", call=("secret_sharing_from_otp", n), data=n) for n in OTP_ORDERS]
    elif name == "dh":
        ops = [
            Op(
                f"verify-dh --prime {q} {' '.join(variant)}".strip(),
                ["verify-dh", "--prime", str(q), *variant, "--format", "json"],
                data=(q, variant),
            )
            for q in DH_PRIMES
            for variant in DH_VARIANTS
        ]
    elif name == "synth":
        enum = ["enumerate", "--threads", "1", "--sizes"]
        ops = [
            Op("enumerate 2,2,2", enum + ["2,2,2"], data=((2, 2, 2), ["correctness"], False)),
            Op(
                "enumerate 2,2,2 all constraints",
                enum + ["2,2,2", "--constraints", "correctness,S1,S2,S3,S4"],
                data=((2, 2, 2), ["S1", "S2", "S3", "S4", "correctness"], False),
            ),
            Op("enumerate 2,2,2 --dedup", enum + ["2,2,2", "--dedup"], data=((2, 2, 2), ["correctness"], True)),
            Op("enumerate 1,2,3", enum + ["1,2,3"], data=((1, 2, 3), ["correctness"], False)),
            Op(
                "theorems 2,2,2",
                ["theorems", "--threads", "1", "--sizes", "2,2,2", "--format", "json"],
                data=((2, 2, 2), None),
            ),
            Op(
                "theorems 3,3,3 sampled",
                ["theorems", "--threads", "1", "--sizes", "3,3,3", "--samples", str(SYNTH_SAMPLES),
                 "--seed", str(seed), "--format", "json"],
                data=((3, 3, 3), SYNTH_SAMPLES),
            ),
        ]
    elif name == "files":
        workdir.mkdir(parents=True, exist_ok=True)
        ops = []
        for n in FILE_ORDERS:
            for i, kind in enumerate(FILE_KINDS):
                scheme = perturbed_scheme(n, kind, rng)
                path = workdir / f"scheme-{n}-{i}-{kind}.rcat"
                path.write_text(rcat_text(scheme, kind), encoding="utf-8")
                ops.append(
                    Op(f"verify-otp --file order {n} {kind}",
                       ["verify-otp", "--file", str(path), "--format", "json"], data=scheme)
                )
        for spec in sorted((root / "src" / "relcat" / "specs").glob("*.rcat")):
            ops.append(Op(f"check {spec.name}", ["check", str(spec), "--format", "json"], data="spec"))
    else:
        raise ValueError(f"unknown workload {name!r}")
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# .rcat inputs for the files workload.
# ---------------------------------------------------------------------------


def perturbed_scheme(n: int, kind: str, rng: random.Random) -> reference.Scheme:
    """A modular-addition scheme under a random renaming of messages, keys
    and ciphertexts, with one pair of one relation changed."""
    sp, sk, sc = (rng.sample(range(n), n) for _ in range(3))
    base = reference.group_scheme(n)
    enc = {(sp[x], sk[key], sc[cc]) for x, key, cc in base.enc}
    dec = [set() for _ in range(n)]
    for cc, block in enumerate(base.dec):
        dec[sc[cc]] = {(sk[key], sp[x]) for key, x in block}
    pad = {(key, key) for key in range(n)}
    if kind == "encrypt+":
        enc.add(rng.choice(sorted(set(itertools.product(range(n), repeat=3)) - enc)))
    elif kind == "encrypt-":
        enc.remove(rng.choice(sorted(enc)))
    elif kind in ("decrypt+", "decrypt-"):
        block = dec[rng.randrange(n)]
        if kind == "decrypt+":
            block.add(rng.choice(sorted(set(itertools.product(range(n), repeat=2)) - block)))
        else:
            block.remove(rng.choice(sorted(block)))
    elif kind == "pad":
        # the partners of two keys trade places: one pair moves, and the
        # pad stays the graph of a permutation (an involution)
        i, j = rng.sample(range(n), 2)
        pad = (pad - {(i, i), (j, j)}) | {(i, j), (j, i)}
    return reference.Scheme(
        n, n, n, frozenset(enc), tuple(frozenset(b) for b in dec), frozenset(pad)
    )


def rcat_text(s: reference.Scheme, kind: str) -> str:
    def names(prefix, count):
        return ", ".join(f"{prefix}{i}" for i in range(count))

    def data(pairs):
        return "{" + ", ".join(pairs) + "}"

    enc = data(f"(m{x},k{key})->c{cc}" for x, key, cc in sorted(s.enc))
    blocks = ", ".join(
        f"c{cc}: " + data(f"k{key}->m{x}" for key, x in sorted(block))
        for cc, block in enumerate(s.dec)
    )
    if kind == "pad":
        pad = "gen pad : 1 -> K * K = " + data(f"()->(k{a},k{b})" for a, b in sorted(s.pad))
    else:
        pad = "builtin pad = cup(K)"
    return (
        f"# order {s.p} modular-addition scheme, renamed; perturbed: {kind}\n"
        f"set P = {{{names('m', s.p)}}}\n"
        f"set K = {{{names('k', s.k)}}}\n"
        f"set C = {{{names('c', s.c)}}}\n"
        f"gen encrypt : P * K -> C = {enc}\n"
        f"builtin decrypt = controlled(C, K -> P, {{{blocks}}})\n"
        f"{pad}\n"
    )


# ---------------------------------------------------------------------------
# Expected outputs, from the reference checker only.
# ---------------------------------------------------------------------------


def expectations(name: str, ops: list[Op]) -> None:
    """Attach to every operation a check returning its list of problems."""
    synth_refs: dict = {}
    for op in ops:
        if name == "otp" and op.argv:
            op.check = _verify_otp_check(reference.expected_verify_otp(reference.group_scheme(op.data)), op.data)
        elif name == "otp":
            op.check = _sharing_check(reference.expected_sharing(reference.group_scheme(op.data)), op.data)
        elif name == "dh":
            q, variant = op.data
            op.check = _dh_check(
                reference.expected_dh(q, "--include-identity" in variant, "--no-erase" not in variant), q
            )
        elif name == "synth":
            sizes, rest = op.data[0], op.data[1:]
            if op.argv[0] == "enumerate":
                constraints, dedup = rest
                key = (sizes, tuple(constraints))
                if key not in synth_refs:
                    synth_refs[key] = count_synth.solutions(*sizes, constraints)
                op.check = _enumerate_check(sizes, constraints, dedup, synth_refs[key])
            elif rest[0] is None:
                found = count_synth.solutions(*sizes, ["correctness"])
                op.check = _exhaustive_theorems_check(sizes, found)
            else:
                op.check = _sampled_theorems_check(sizes, rest[0])
        elif op.data == "spec":
            op.check = _spec_check
        else:
            op.check = _verify_otp_check(reference.expected_verify_otp(op.data), op.data.p)


def _json(outcome: Outcome) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(outcome.stdout), []
    except ValueError:
        return None, [f"output is not one JSON object: {outcome.stdout[:200]!r}"]


def _verdict_problems(report: dict, want: dict) -> list[str]:
    problems = []
    got = report.get("results", {})
    if set(got) != set(want["results"]):
        problems.append(f"verdicts {sorted(got)}, expected {sorted(want['results'])}")
    for key, holds in want["results"].items():
        verdict = got.get(key)
        if verdict is None:
            continue
        if verdict["holds"] != holds:
            problems.append(f"{key}: holds={verdict['holds']}, reference says {holds}")
        if (verdict["witness"] is None) != holds:
            problems.append(f"{key}: witness {verdict['witness']!r} with holds={verdict['holds']}")
    for key in ("implication_s1_gives_rest", "status", "sizes"):
        if report.get(key) != want[key]:
            problems.append(f"{key}={report.get(key)!r}, reference says {want[key]!r}")
    return problems


def _exit_code(outcome: Outcome, passed: bool) -> list[str]:
    want = 0 if passed else 1
    return [] if outcome.code == want else [f"exit code {outcome.code}, expected {want}"]


def _verify_otp_check(want: dict, n: int):
    def check(outcome: Outcome) -> list[str]:
        report, problems = _json(outcome)
        if report is None:
            return problems
        problems += _verdict_problems(report, want) + _exit_code(outcome, want["status"] == "pass")
        # a trivial message space is exempt from non-invertibility, with a note
        noted = set(report.get("notes", {}))
        if noted != ({"encryption_not_invertible"} if n == 1 else set()):
            problems.append(f"notes {sorted(noted)} at order {n}")
        correctness = report.get("results", {}).get("correctness", {})
        if correctness.get("holds") is False and "component (" not in correctness["witness"]:
            problems.append(f"correctness witness is not located: {correctness['witness']!r}")
        return problems

    return check


def _sharing_check(want: dict, n: int):
    def check(outcome: Outcome) -> list[str]:
        result = outcome.value
        problems = []
        if result.instance.message_set.size != n:
            problems.append(f"message set of size {result.instance.message_set.size}")
        for key, holds in want.items():
            verdict = getattr(result, key)
            if verdict.holds != holds:
                problems.append(f"{key}: holds={verdict.holds}, reference says {holds}")
        return problems

    return check


def _dh_check(want: dict, q: int):
    def check(outcome: Outcome) -> list[str]:
        report, problems = _json(outcome)
        if report is None:
            return problems
        for key in ("bases", "holds"):
            if report.get(key) != want[key]:
                problems.append(f"{key}={report.get(key)!r}, reference says {want[key]!r}")
        if report.get("prime") != q or report.get("status") != ("pass" if want["holds"] else "fail"):
            problems.append(f"prime or status wrong: {report}")
        witness = report.get("witness")
        if want["holds"]:
            if witness is not None:
                problems.append(f"witness {witness!r} on a passing exchange")
        elif want["reason"] == "shape":
            if not witness or "shape" not in witness:
                problems.append(f"witness {witness!r} does not name the shape")
        elif not witness or not witness.startswith(want["reason"] + ":"):
            problems.append(f"witness {witness!r} does not name {want['reason']}")
        return problems + _exit_code(outcome, want["holds"])

    return check


def _sort_key(record: dict) -> tuple:
    return (
        int("".join(record["encrypt"]), 2),
        tuple(int("".join(rows), 2) for rows in record["decrypt"]),
        tuple(record["pad"]),
    )


def _triple(record: dict) -> tuple:
    return (tuple(record["encrypt"]), tuple(tuple(r) for r in record["decrypt"]), tuple(record["pad"]))


def _enumerate_check(sizes, constraints, dedup: bool, found: list[tuple]):
    p, k, c = sizes
    want = count_synth.orbit_representatives(found, p, k, c) if dedup else found

    def check(outcome: Outcome) -> list[str]:
        problems = _exit_code(outcome, True)
        try:
            lines = [json.loads(line) for line in outcome.stdout.splitlines()]
        except ValueError:
            return problems + ["output is not JSON lines"]
        if not lines or "summary" not in lines[-1]:
            return problems + ["no summary line"]
        records, summary = lines[:-1], lines[-1]["summary"]
        expected_summary = {
            "sizes": list(sizes),
            "constraints": sorted(constraints),
            "dedup": dedup,
            "candidates": count_synth.candidate_count(p, k, c),
            "solutions": len(want),
        }
        if summary != expected_summary:
            problems.append(f"summary {summary}, expected {expected_summary}")
        for record in records:
            problems += reference.recheck_record(record, sorted(constraints))
            encrypt_code, decrypt_codes, _ = _sort_key(record)
            own = {"encrypt_code": encrypt_code, "decrypt_codes": list(decrypt_codes), "pad": record["pad"]}
            if dedup and record.get("canonical") != own:
                problems.append(f"deduplicated record is not its own canonical form: {record}")
        if [_triple(r) for r in records] != want:
            problems.append(f"{len(records)} records differ from the {len(want)} recounted independently")
        if [_sort_key(r) for r in records] != sorted(_sort_key(r) for r in records):
            problems.append("records are not ascending on (encrypt, decrypt, pad)")
        return problems

    return check


def _exhaustive_theorems_check(sizes, found: list[tuple]):
    p, k, c = sizes
    schemes = [count_synth.as_scheme(t, p, k, c) for t in found]
    want = {
        "sizes": list(sizes),
        "candidates": count_synth.candidate_count(p, k, c),
        "solutions": len(found),
        "with_primary_security": sum(reference.security(s, "S1") for s in schemes),
        "sampled": None,
        "counterexamples": [],
        "status": "pass",
    }
    reference_counterexamples = [x for s in schemes for x in reference.theorem_counterexamples(s)]

    def check(outcome: Outcome) -> list[str]:
        report, problems = _json(outcome)
        if report is None:
            return problems
        if reference_counterexamples:
            problems.append(f"reference finds counterexamples: {reference_counterexamples[:3]}")
        if report != want:
            problems.append(f"theorem report {report}, expected {want}")
        return problems + _exit_code(outcome, True)

    return check


def _sampled_theorems_check(sizes, samples: int):
    def check(outcome: Outcome) -> list[str]:
        report, problems = _json(outcome)
        if report is None:
            return problems
        if report.get("counterexamples") != [] or report.get("status") != "pass":
            problems.append(f"sampled theorem check failed: {report.get('counterexamples')}")
        if report.get("sampled") != samples or report.get("candidates") != samples:
            problems.append(f"sampled {report.get('sampled')} of {report.get('candidates')}, asked {samples}")
        if not 0 <= report.get("with_primary_security", -1) <= report.get("solutions", -1) <= samples:
            problems.append(f"inconsistent counts {report}")
        if report.get("sizes") != list(sizes):
            problems.append(f"sizes {report.get('sizes')}")
        return problems + _exit_code(outcome, True)

    return check


def _spec_check(outcome: Outcome) -> list[str]:
    report, problems = _json(outcome)
    if report is None:
        return problems
    checks = report.get("checks", [])
    if report.get("status") != "pass" or report.get("error") is not None or not checks:
        problems.append(f"spec did not pass: {report}")
    problems += [f"{c['name']}: {c['verdict']}" for c in checks if c["verdict"] != "equal"]
    return problems + _exit_code(outcome, True)
