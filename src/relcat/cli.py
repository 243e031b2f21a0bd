"""Command-line interface: check source files, verify protocol instances,
and enumerate implementations.

Exit codes are uniform across subcommands: 0 when every check passes, 1
when some check fails, 2 on usage, parse, or budget errors.  A command
checks only its own options; the library refuses what it cannot run, and
`main` alone turns any refusal (a `ValueError` or `OSError`) into one
``error:`` line on stderr and exit code 2.  JSON output is
byte-identical across runs for the same inputs and seed; wall-clock timings
are only included when explicitly requested.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Iterator, Optional

from relcat import dsl, protocols, search
from relcat.generators import cup_from_permutation, pad_permutation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_DH_CAP = 19
THREADS_HELP = "accepted for compatibility; the search runs in one process"


def _integer(text: str) -> int:
    """An integer in ASCII digits with an optional leading minus; `int`
    alone also reads other scripts' digits, underscores and spaces."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer value: {text!r}")
    return int(text)


_integer.__name__ = "integer"  # argparse names the type in its message


def _budget() -> int:
    raw = os.environ.get("RELCAT_BUDGET")
    if not raw:
        return search.DEFAULT_BUDGET
    try:
        budget = _integer(raw)
    except ValueError:
        raise ValueError(f"RELCAT_BUDGET must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ValueError(f"RELCAT_BUDGET must not be negative, got {budget}")
    return budget


# `json.dumps` builds an encoder per call when given options; one is enough
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _emit_json(payload: dict, stream) -> None:
    stream.write(_ENCODER.encode(payload) + "\n")


class _Rendered(dict):
    """The JSON text of each key, rendered by `render` at its first lookup."""

    def __init__(self, render) -> None:
        super().__init__()
        self.render = render

    def __missing__(self, key):
        text = self[key] = self.render(key)
        return text


def _bit_rows(code: int, width: int, count: int) -> list[str]:
    """The `count` rows of `width` bits of a code as 0/1 strings, most
    significant first: the matrix rows of a relation's bit code."""
    bits = format(code, f"0{width * count}b")
    return [bits[i * width : (i + 1) * width] for i in range(count)]


def _shape_texts(sizes: tuple[int, int, int]) -> tuple:
    """For records of these sizes: the text of the sizes, and the texts of
    encryption row codes and of decryption codes, each rendered at its
    first lookup."""
    p, k, _ = sizes
    encode = _ENCODER.encode
    return (
        encode(list(sizes)),
        _Rendered(lambda row: encode(format(row, f"0{p * k}b"))),
        _Rendered(lambda d: encode(_bit_rows(d, k, p))),
    )


def _record_lines(records) -> Iterator[str]:
    """One JSON line per solution record, keys sorted, as `_ENCODER` writes
    the record's object: ``canonical`` (the orbit's least triple, on
    records that `--dedup` kept), ``decrypt`` (per ciphertext, the rows of
    its K -> P block as 0/1 strings), ``encrypt`` (the P x K row of each
    ciphertext as a 0/1 string), ``pad``, ``sizes`` and ``verdicts``.

    A value inside an object is encoded as it is alone, so each line is
    joined from texts encoded once: each distinct pad and verdict map (by
    identity) once per call, and each distinct row code and decryption code
    once per run of records of one sizes triple (a search's records share
    one).  Records with one encryption code are adjacent in the search's
    order, so its text is kept from the record before.  Nothing is kept
    between calls.
    """
    encode = _ENCODER.encode
    pads = _Rendered(lambda pad: encode(list(pad)))
    verdicts: dict = {}  # id -> (map, text); holding the map keeps its id
    sizes = e_code = None
    for rec in records:
        if rec.sizes != sizes:
            sizes, e_code = rec.sizes, None
            sizes_text, rows, blocks = _shape_texts(sizes)
            p, k, c = sizes
            mask = (1 << p * k) - 1
            shifts = range((c - 1) * p * k, -1, -p * k)
        if rec.encrypt_code != e_code:
            e_code = rec.encrypt_code
            e_text = ",".join([rows[e_code >> s & mask] for s in shifts])
        held = verdicts.get(id(rec.verdicts))
        if held is None:
            held = verdicts[id(rec.verdicts)] = (
                rec.verdicts, encode(dict(rec.verdicts))
            )
        if rec.canonical is None:
            head = "{"
        else:
            ce, cds, cp = rec.canonical
            canonical = encode(
                {"decrypt_codes": list(cds), "encrypt_code": ce, "pad": list(cp)}
            )
            head = f'{{"canonical":{canonical},'
        yield (
            f'{head}"decrypt":[{",".join(map(blocks.__getitem__, rec.decrypt_codes))}],'
            f'"encrypt":[{e_text}],"pad":{pads[rec.pad_mapping]},'
            f'"sizes":{sizes_text},"verdicts":{held[1]}}}\n'
        )


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as handle:
        text = handle.read()
    report = dsl.run_source(text)
    if args.format == "json":
        payload = {
            "file": args.file,
            "status": "error"
            if report.error
            else ("pass" if report.exit_code == 0 else "fail"),
            "error": report.error,
            "checks": [
                {"name": c.name, "verdict": c.verdict, "detail": c.detail}
                for c in report.checks
            ],
        }
        _emit_json(payload, sys.stdout)
    else:
        if report.error:
            print(f"error: {report.error}", file=sys.stderr)
        for c in report.checks:
            suffix = f": {c.detail}" if c.detail else ""
            print(f"check {c.name}: {c.verdict.upper()}{suffix}")
    return report.exit_code


# ---------------------------------------------------------------------------
# verify-otp
# ---------------------------------------------------------------------------


def _instance_from_file(path: str) -> protocols.ProtocolInstance:
    with open(path, "r", encoding="utf-8") as handle:
        env = dsl.elaborate(dsl.parse(handle.read()))
    missing = [n for n in ("encrypt", "decrypt", "pad") if n not in env.cells]
    if missing:
        raise ValueError(
            f"instance file must declare cells named 'encrypt', 'decrypt' "
            f"and 'pad'; missing {missing}"
        )
    decrypt = env.controlled.get("decrypt")
    if decrypt is None:
        raise ValueError("'decrypt' must be a controlled builtin")
    keys, plaintexts = decrypt.in_private, decrypt.out_private
    ciphertexts = decrypt.public_carrier
    encrypt = dsl.evaluate_name(env, "encrypt").scalar()

    pad = cup_from_permutation(
        pad_permutation(keys, dsl.evaluate_name(env, "pad").scalar())
    )
    return protocols.ProtocolInstance(
        plaintexts, keys, ciphertexts, encrypt, decrypt, pad
    )


def cmd_verify_otp(args) -> int:
    if args.group is None:
        inst, source = _instance_from_file(args.file), args.file
    else:
        inst = protocols.group_instance(args.group)
        source = f"group of order {args.group}"
    record = protocols.Verification(inst)
    results = {name: record[name] for name in protocols.OTP_CHECKS}
    if results["encryption_rebuilt_from_inverse"].refused:
        # the rebuild's refusal is reported as the inverse's verdict
        results["decryption_invertible"] = results.pop(
            "encryption_rebuilt_from_inverse"
        )
    notes: dict[str, str] = {}
    if inst.plaintexts.size <= 1 and results["encryption_not_invertible"].holds:
        notes["encryption_not_invertible"] = (
            "message space is trivial: encryption is invertible, "
            "which the statement exempts"
        )
    implications = record.implications()

    all_pass = implications.implication_holds and all(v.holds for v in results.values())
    if args.format == "json":
        payload = {
            "source": source,
            "sizes": [inst.plaintexts.size, inst.keys.size, inst.ciphertexts.size],
            "results": {
                k: {"holds": v.holds, "witness": v.witness} for k, v in results.items()
            },
            "implication_s1_gives_rest": implications.implication_holds,
            "notes": notes,
            "status": "pass" if all_pass else "fail",
        }
        _emit_json(payload, sys.stdout)
    else:
        print(f"instance: {source}")
        for name, verdict in results.items():
            mark = "ok" if verdict.holds else "FAIL"
            extra = f" ({verdict.witness})" if verdict.witness else ""
            note = f" [{notes[name]}]" if name in notes else ""
            print(f"  {name}: {mark}{extra}{note}")
        print(
            "  primary security implies the rest: "
            + ("ok" if implications.implication_holds else "FAIL")
        )
    return EXIT_PASS if all_pass else EXIT_FAIL


# ---------------------------------------------------------------------------
# verify-dh
# ---------------------------------------------------------------------------


def cmd_verify_dh(args) -> int:
    if args.prime > args.max_prime:
        raise ValueError(f"prime {args.prime} exceeds the cap of {args.max_prime}")
    inst = protocols.dh_instance(args.prime, args.include_identity)
    verdict = protocols.check_dh(inst, erase_published=not args.no_erase)
    if args.format == "json":
        payload = {
            "prime": args.prime,
            "bases": [inst.elements.label(b) for b in inst.base_set],
            "erase_published": not args.no_erase,
            "holds": verdict.holds,
            "witness": verdict.witness,
            "status": "pass" if verdict.holds else "fail",
        }
        _emit_json(payload, sys.stdout)
    else:
        bases = ", ".join(inst.elements.label(b) for b in inst.base_set)
        print(f"key exchange over order {args.prime}, bases {{{bases}}}")
        if verdict.holds:
            print("  exchange equation: ok")
        else:
            print(f"  exchange equation: FAIL ({verdict.witness})")
    return EXIT_PASS if verdict.holds else EXIT_FAIL


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _parse_sizes(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError("--sizes expects three comma-separated integers")
    p, k, c = (_integer(x) for x in parts)
    return p, k, c


def _refuse_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"--threads must be at least 1, got {threads}")


def cmd_enumerate(args) -> int:
    sizes = _parse_sizes(args.sizes)
    _refuse_threads(args.threads)
    constraints = frozenset(
        x for x in (args.constraints or "correctness").split(",") if x
    )
    spec = search.SearchSpec(
        *sizes,
        constraints=constraints,
        dedup=args.dedup,
        budget=_budget(),
    )
    started = time.perf_counter()
    records = search.enumerate_solutions(spec)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    sys.stdout.writelines(_record_lines(records))
    summary = {
        "summary": {
            "sizes": list(sizes),
            "constraints": sorted(constraints),
            "dedup": args.dedup,
            "candidates": search.candidate_count(spec),
            "solutions": len(records),
        }
    }
    if args.timings:
        summary["summary"]["elapsed_ms"] = round(elapsed_ms, 3)
    _emit_json(summary, sys.stdout)
    return EXIT_PASS


# ---------------------------------------------------------------------------
# theorems
# ---------------------------------------------------------------------------


def cmd_theorems(args) -> int:
    sizes = _parse_sizes(args.sizes)
    if args.samples < 0:
        raise ValueError(f"--samples must not be negative, got {args.samples}")
    if args.seed < 0:
        # random.Random(-s) draws the stream of random.Random(s)
        raise ValueError(f"--seed must not be negative, got {args.seed}")
    _refuse_threads(args.threads)
    spec = search.SearchSpec(*sizes, budget=_budget())
    if args.samples > spec.budget:
        raise ValueError(
            f"{args.samples} samples exceed the budget of {spec.budget}; "
            f"raise RELCAT_BUDGET to override"
        )
    if args.samples:
        report = search.sample_candidates(sizes, args.samples, seed=args.seed)
    else:
        report = search.verify_theorems(spec)
    payload = {
        "sizes": list(report.sizes),
        "candidates": report.candidates,
        "solutions": report.solutions,
        "with_primary_security": report.with_primary_security,
        "sampled": report.sampled,
        "counterexamples": list(report.counterexamples),
        "status": "pass" if report.passed else "fail",
    }
    if args.format == "json":
        _emit_json(payload, sys.stdout)
    else:
        mode = f"sampled {report.sampled}" if report.sampled else "exhaustive"
        print(
            f"theorem check at sizes {report.sizes} ({mode}): "
            f"{report.solutions} solutions, "
            f"{len(report.counterexamples)} counterexamples"
        )
        for cex in report.counterexamples:
            print(f"  counterexample: {cex}")
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "json"), default="human")


def _check_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("file")
    _add_format(p)


def _verify_otp_arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--group", type=_integer, help="modular scheme of this order")
    group.add_argument("--file", help="source file declaring encrypt/decrypt/pad")
    _add_format(p)


def _verify_dh_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--prime", type=_integer, required=True)
    p.add_argument("--include-identity", action="store_true")
    p.add_argument(
        "--no-erase",
        action="store_true",
        help="keep the published values (the equation is expected to fail)",
    )
    p.add_argument(
        "--max-prime",
        type=_integer,
        default=DEFAULT_DH_CAP,
        help="refuse larger primes (default %(default)s; the check at 19 "
        "takes about 0.4 s)",
    )
    _add_format(p)


def _enumerate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", required=True, metavar="P,K,C")
    p.add_argument(
        "--constraints",
        default="correctness",
        help="comma-separated subset of correctness,S1,S2,S3,S4",
    )
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--threads", type=_integer, default=1, help=THREADS_HELP)
    p.add_argument(
        "--timings", action="store_true", help="include wall-clock time in the summary"
    )


def _theorems_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sizes", required=True, metavar="P,K,C")
    p.add_argument(
        "--samples",
        type=_integer,
        default=0,
        help="sample this many candidates instead of exhausting the space",
    )
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--threads", type=_integer, default=1, help=THREADS_HELP)
    _add_format(p)


# name -> (help text, adds the command's arguments, handler)
COMMANDS = {
    "check": ("run the checks in a source file", _check_arguments, cmd_check),
    "verify-otp": (
        "verify an encryption scheme end to end",
        _verify_otp_arguments,
        cmd_verify_otp,
    ),
    "verify-dh": (
        "verify key exchange at a prime order",
        _verify_dh_arguments,
        cmd_verify_dh,
    ),
    "enumerate": (
        "print all implementations at given sizes once the search finishes",
        _enumerate_arguments,
        cmd_enumerate,
    ),
    "theorems": (
        "confirm the structural theorems over a solution space",
        _theorems_arguments,
        cmd_theorems,
    ),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The command line.  When `command` names a command, only that
    command is registered, and the metavar lists every command, so the
    usage line is the same whatever `command` is.  Otherwise every command
    is registered, and the help and the choice and missing-command errors
    list them all."""
    parser = argparse.ArgumentParser(
        prog="relcat",
        description=(
            "verify and synthesize nondeterministic protocols over finite "
            "relations"
        ),
    )
    if command in COMMANDS:
        names, metavar = [command], "{" + ",".join(COMMANDS) + "}"
    else:
        names, metavar = list(COMMANDS), None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    # counterexamples name relations by their bit codes, which pass
    # Python's default limit of 4300 digits from about 14,300 bits
    sys.set_int_max_str_digits(0)
    if argv is None:
        argv = sys.argv[1:]
    # a parser per call, with the subparser of the command it runs only
    parser = build_parser(argv[0] if argv else None)
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at /dev/null so that
        # the flush at interpreter shutdown cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        # every refusal, by a command's own option checks or by the library
        # it calls, is one line on stderr
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
