"""Command-line interface: check source files, verify protocol instances,
and enumerate implementations.

Exit codes are uniform across subcommands: 0 when every check passes, 1
when some check fails, 2 on usage, parse, or budget errors.  JSON output is
byte-identical across runs for the same inputs and seed; wall-clock timings
are only included when explicitly requested.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional

from relcat import dsl, protocols, search
from relcat.generators import cup_from_permutation, pad_permutation

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DEFAULT_DH_CAP = 11
THREADS_HELP = "accepted for compatibility; the search runs in one process"


def _budget() -> int:
    raw = os.environ.get("RELCAT_BUDGET")
    if not raw:
        return search.DEFAULT_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"RELCAT_BUDGET must be an integer, got {raw!r}") from None


def _emit_json(payload: dict, stream) -> None:
    stream.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def cmd_check(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    decrypt = env.cells["decrypt"].controlled
    if decrypt is None:
        raise ValueError("'decrypt' must be a controlled builtin")
    keys, plaintexts = decrypt.in_private, decrypt.out_private
    ciphertexts = decrypt.public_carrier
    encrypt = dsl.evaluate_name(env, "encrypt").scalar()

    pad_binding = env.cells["pad"]
    if pad_binding.duality is not None:
        pad = pad_binding.duality
    else:
        rel = dsl.evaluate_name(env, "pad").scalar()
        pad = cup_from_permutation(pad_permutation(keys, rel))
    return protocols.ProtocolInstance(
        plaintexts, keys, ciphertexts, encrypt, decrypt, pad
    )


def _verdict_json(v: protocols.EquationVerdict) -> dict:
    return {"holds": v.holds, "witness": v.witness}


def cmd_verify_otp(args) -> int:
    try:
        if args.group is not None:
            inst = protocols.group_instance(args.group)
            source = f"group of order {args.group}"
        else:
            inst = _instance_from_file(args.file)
            source = args.file
    except (ValueError, OSError, dsl.ParseError, dsl.ElaborationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    results: dict[str, protocols.EquationVerdict] = {}
    results["correctness"] = protocols.check_correctness(inst)
    results["correctness_protocol_form"] = (
        protocols.check_correctness_protocol_form(inst)
    )
    for which in ("S1", "S2", "S3", "S4"):
        results[which] = protocols.check_security(inst, which)
    notes: dict[str, str] = {}
    try:
        dinv, inv = protocols.derive_decryption_inverse(inst)
        results["decryption_invertible"] = inv
        results["encryption_rebuilt_from_inverse"] = (
            protocols.rebuild_encryption(inst, (dinv, inv))
        )
    except protocols.PreconditionError as exc:
        results["decryption_invertible"] = protocols.EquationVerdict(
            "decryption_invertible", False, str(exc)
        )
    try:
        results["encryption_not_invertible"] = (
            protocols.check_encryption_not_invertible(inst, results["S1"])
        )
        if inst.plaintexts.size <= 1:
            notes["encryption_not_invertible"] = (
                "message space is trivial: encryption is invertible, "
                "which the statement exempts"
            )
    except protocols.PreconditionError as exc:
        results["encryption_not_invertible"] = protocols.EquationVerdict(
            "encryption_not_invertible", False, str(exc)
        )
    implications = protocols.ImplicationReport.from_verdicts(
        *(results[which] for which in ("S1", "S2", "S3", "S4"))
    )

    all_pass = all(v.holds for v in results.values()) and (
        implications.implication_holds
    )
    if args.format == "json":
        payload = {
            "source": source,
            "sizes": [
                inst.plaintexts.size,
                inst.keys.size,
                inst.ciphertexts.size,
            ],
            "results": {k: _verdict_json(v) for k, v in results.items()},
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
        print(
            f"error: prime {args.prime} exceeds the cap of {args.max_prime}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    try:
        inst = protocols.dh_instance(args.prime, args.include_identity)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    p, k, c = (int(x) for x in parts)
    return p, k, c


def cmd_enumerate(args) -> int:
    try:
        sizes = _parse_sizes(args.sizes)
        constraints = frozenset(
            x for x in (args.constraints or "correctness").split(",") if x
        )
        spec = search.SearchSpec(
            *sizes,
            constraints=constraints,
            dedup=args.dedup,
            budget=_budget(),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    started = time.perf_counter()
    try:
        records = search.enumerate_solutions(spec)
    except search.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    for record in records:
        _emit_json(record.to_json(), sys.stdout)
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
    try:
        sizes = _parse_sizes(args.sizes)
        if args.samples < 0:
            raise ValueError(f"--samples must not be negative, got {args.samples}")
        spec = search.SearchSpec(*sizes, budget=_budget())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.samples:
        report = search.sample_candidates(sizes, args.samples, seed=args.seed)
    else:
        try:
            report = search.verify_theorems(spec)
        except search.BudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relcat",
        description=(
            "verify and synthesize nondeterministic protocols over finite "
            "relations"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("human", "json"), default="human"
        )

    p_check = sub.add_parser("check", help="run the checks in a source file")
    p_check.add_argument("file")
    add_format(p_check)
    p_check.set_defaults(func=cmd_check)

    p_otp = sub.add_parser(
        "verify-otp", help="verify an encryption scheme end to end"
    )
    group = p_otp.add_mutually_exclusive_group(required=True)
    group.add_argument("--group", type=int, help="modular scheme of this order")
    group.add_argument("--file", help="source file declaring encrypt/decrypt/pad")
    add_format(p_otp)
    p_otp.set_defaults(func=cmd_verify_otp)

    p_dh = sub.add_parser("verify-dh", help="verify key exchange at a prime order")
    p_dh.add_argument("--prime", type=int, required=True)
    p_dh.add_argument("--include-identity", action="store_true")
    p_dh.add_argument(
        "--no-erase",
        action="store_true",
        help="keep the published values (the equation is expected to fail)",
    )
    p_dh.add_argument("--max-prime", type=int, default=DEFAULT_DH_CAP)
    add_format(p_dh)
    p_dh.set_defaults(func=cmd_verify_dh)

    p_enum = sub.add_parser(
        "enumerate",
        help="print all implementations at given sizes once the search finishes",
    )
    p_enum.add_argument("--sizes", required=True, metavar="P,K,C")
    p_enum.add_argument(
        "--constraints",
        default="correctness",
        help="comma-separated subset of correctness,S1,S2,S3,S4",
    )
    p_enum.add_argument("--dedup", action="store_true")
    p_enum.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    p_enum.add_argument(
        "--timings", action="store_true", help="include wall-clock time in the summary"
    )
    p_enum.set_defaults(func=cmd_enumerate)

    p_thm = sub.add_parser(
        "theorems", help="confirm the structural theorems over a solution space"
    )
    p_thm.add_argument("--sizes", required=True, metavar="P,K,C")
    p_thm.add_argument(
        "--samples",
        type=int,
        default=0,
        help="sample this many candidates instead of exhausting the space",
    )
    p_thm.add_argument("--seed", type=int, default=0)
    p_thm.add_argument("--threads", type=int, default=1, help=THREADS_HELP)
    add_format(p_thm)
    p_thm.set_defaults(func=cmd_theorems)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early.  Point it at /dev/null so that
        # the flush at interpreter shutdown cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    sys.exit(main())
