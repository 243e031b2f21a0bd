import argparse
import collections
import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import time

import jsonschema
import pytest

import oracle_record
from relcat import protocols, search
from relcat.cli import _record_lines, main

SPEC_DIR = os.path.join(
    os.path.dirname(__file__), "..", "src", "relcat", "specs"
)
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
DOCS_DIR = os.path.join(os.path.dirname(__file__), "..", "docs")


def spec(name: str) -> str:
    return os.path.join(SPEC_DIR, name)


def data(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def schema(name: str) -> dict:
    with open(os.path.join(DOCS_DIR, name), "r", encoding="utf-8") as handle:
        return json.load(handle)


class TestCheck:
    def test_passing_file_exit_zero(self, capsys):
        assert main(["check", spec("otp_correctness_compact.rcat")]) == 0
        assert "EQUAL" in capsys.readouterr().out

    def test_failing_check_exit_one(self, capsys):
        assert main(["check", data("otp_broken_decryption.rcat")]) == 1
        assert "UNEQUAL" in capsys.readouterr().out

    def test_syntax_error_exit_two(self, capsys):
        assert main(["check", data("syntax_error.rcat")]) == 2
        assert "expected" in capsys.readouterr().err

    def test_type_error_exit_two(self):
        assert main(["check", data("type_error.rcat")]) == 2

    def test_missing_file_exit_two(self, capsys):
        assert main(["check", "/nonexistent.rcat"]) == 2

    @pytest.mark.parametrize(
        "text",
        [
            f"set A = 1\ngen g : A{' * A' * 2999} -> 1 = {{}}\ncheck g == g\n",
            f"set A = 1\ndef x = id(A{' * A' * 2999})\ncheck x == x\n",
            f"set A = 1\nbuiltin x = copy(A{' * A' * 2999})\ncheck x == x\n",
        ],
        ids=["gen", "def", "builtin"],
    )
    def test_long_product_types_check(self, capsys, tmp_path, text):
        # a product type is flattened and printed without recursion, so
        # 3,000 factors do not nest
        path = tmp_path / "input.rcat"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) == 0
        captured = capsys.readouterr()
        assert "EQUAL" in captured.out and captured.err == ""

    @pytest.mark.parametrize(
        "text", ["", "set A = 2\n", "set A = 2\ndef x = id(A)\n"]
    )
    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_source_without_checks_is_an_error(self, capsys, tmp_path, text, fmt):
        path = tmp_path / "input.rcat"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path), "--format", fmt]) == 2
        captured = capsys.readouterr()
        if fmt == "json":
            payload = json.loads(captured.out)
            jsonschema.validate(payload, schema("check_report.schema.json"))
            assert payload["status"] == "error" and payload["checks"] == []
            assert payload["error"] == "the source has no check statement"
        else:
            assert captured.out == ""
            assert captured.err == "error: the source has no check statement\n"

    @pytest.mark.parametrize(
        "name",
        [
            "otp_constant_encryption.rcat",
            "otp_labelled_extra_decryption.rcat",
            "otp_single_message.rcat",
        ],
    )
    def test_instance_file_without_checks_is_an_error(self, capsys, name):
        # these files declare an instance for verify-otp --file
        assert main(["check", data(name)]) == 2
        assert capsys.readouterr().err.count("error: ") == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "set A = 2\nbuiltin f = id(A)\n"
                f"def x = {'(' * 3000}f{')' * 3000}\ncheck x == x\n",
                "nested too deeply",
            ),
            # a chain nests only through parentheses: `f ; f ; f` is read
            # in a loop, `f ; (f ; (f))` by recursion
            (
                "set A = 2\nbuiltin f = id(A)\n"
                f"def x = f{' ; (f' * 3000}{')' * 3000}\ncheck x == x\n",
                "nested too deeply",
            ),
            (
                "set A = 3000\ndef x = id(A * A)\ncheck x == x\n",
                "81000000000000 dense bits (73.7 TiB)",
            ),
            (
                "set A = 3000\ndef x = id(A) * id(A)\ncheck x == x\n",
                "81000000000000 dense bits (73.7 TiB)",
            ),
            # one element above each builtin's limit of 2^28 bits
            (
                "set A = 646\ndef x = copy(A)\ncheck x == x\n",
                "269586136 dense bits (257.1 MiB)",
            ),
            (
                "set A = 646\nset B = 1\n"
                "builtin x = controlled(A, B -> B, {0: {}})\n",
                "269586136 dense bits (257.1 MiB)",
            ),
            (
                "set A = 2\nset B = 8193\n"
                "builtin x = controlled(A, B -> B, {0: {}, 1: {}})\n",
                "268500996 dense bits (256.1 MiB)",
            ),
            (
                "set A = 16385\ndef x = cup(A)\ncheck x == x\n",
                "268468225 dense bits (256.0 MiB)",
            ),
            (
                "set A = 268435457\ndef x = delete(A)\ncheck x == x\n",
                "268435457 dense bits (256.0 MiB)",
            ),
            (b"\xff\xfe\x00bad", "can't decode byte 0xff"),
            # digits are ASCII: a superscript two or an Arabic-Indic three
            # is not a number
            ("set A = \u00b2\n", "1:9: unexpected character '\u00b2'"),
            (
                "set A = \u0663\ndef x = id(A)\ncheck x == x\n",
                "1:9: unexpected character '\u0663'",
            ),
            (
                "set A = {a, b, a}\ndef x = id(A)\ncheck x == x\n",
                "1:1: set 'A': labels must be pairwise distinct",
            ),
            (
                f"set A = 1{'0' * 170}\ndef x = id(A)\ncheck x == x\n",
                "2:9: cell of about 2^1129 dense bits exceeds",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["check", "verify-otp"])
    def test_refused_input_exit_two(self, capsys, tmp_path, text, message, command):
        path = tmp_path / "input.rcat"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        argv = [command, str(path)] if command == "check" else [
            command, "--file", str(path)
        ]
        started = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]

    @pytest.mark.parametrize(
        "text",
        [
            "set S = 48\ndef x = copy(S)\ncheck x == x\n",
            "set A = 2000\ndef loop = cup(A) ; cap(A)\ndef unit = id(1)\n"
            "check loop == unit\n",
            "set A = 10000000\ndef x = delete(A)\ncheck x == x\n",
        ],
    )
    def test_large_builtins_are_checked_at_once(self, capsys, tmp_path, text):
        # no builtin proves its own laws again while it is built
        path = tmp_path / "input.rcat"
        path.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        assert main(["check", str(path)]) == 0
        assert time.perf_counter() - started < 2.0
        assert "EQUAL" in capsys.readouterr().out

    def test_region_copy_at_two_hundred_is_checked_at_once(self, capsys, tmp_path):
        # each junction of the copy's 200 x 200 gap is ranked once per cell
        path = tmp_path / "input.rcat"
        text = "set S = 200\ndef x = copy(S)\ncheck x == x\n"
        path.write_text(text, encoding="utf-8")
        started = time.perf_counter()
        assert main(["check", str(path)]) == 0
        assert time.perf_counter() - started < 1.0
        assert "EQUAL" in capsys.readouterr().out

    def test_json_matches_schema(self, capsys):
        assert main(["check", spec("snake_equations.rcat"), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema("check_report.schema.json"))
        assert payload["status"] == "pass"


class TestVerifyOtp:
    def test_group_two_passes(self, capsys):
        assert main(["verify-otp", "--group", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema("verify_otp_report.schema.json"))
        assert all(entry["holds"] for entry in payload["results"].values())

    def test_group_one_reports_exemption(self, capsys):
        assert main(["verify-otp", "--group", "1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "encryption_not_invertible" in payload["notes"]

    def test_group_five_passes(self):
        assert main(["verify-otp", "--group", "5"]) == 0

    def test_instance_file(self):
        assert main(["verify-otp", "--file", data("instance_twisted_pad.rcat")]) == 0

    def test_group_thirty_runs_in_bounded_time_and_memory(self, record_built):
        # the rebuild contracts its (p·k·c)^2 product, which is never built:
        # no matrix larger than the charge is made, which bounds the work
        # without reading a clock that other load on the machine moves
        with record_built() as built:
            assert main(["verify-otp", "--group", "30"]) == 0
        assert max(built) <= protocols.instance_bits(30, 30, 30) < (30**3) ** 2
        # a wrapper process reads the peak memory of its one child
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        wrapper = (
            "import resource, subprocess, sys\n"
            "code = subprocess.call([sys.executable, '-m', 'relcat.cli', 'verify-otp',"
            " '--group', '30'], stdout=subprocess.DEVNULL)\n"
            "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", wrapper], env=env, capture_output=True, text=True
        )
        code, peak_kib = out.stdout.split()
        assert int(code) == 0, out.stderr
        assert int(peak_kib) < 400 * 1024

    @pytest.mark.parametrize(
        "pad, message",
        [
            ("gen pad : 1 -> K * K = {()->(0,0), ()->(0,1), ()->(1,0)}",
             "'pad' is not the graph of a permutation"),
            ("gen pad : 1 -> K * K = {()->(0,0), ()->(1,0)}",
             "'pad' is not the graph of a permutation"),
            ("gen pad : 1 -> K * K = {()->(0,0)}", "'pad' is not total"),
            ("gen pad : 1 -> K = {()->0, ()->1}",
             "'pad' must go from 1 to keys * keys"),
            # a cap goes from keys * keys to 1, so it is no pad
            ("builtin pad = cap(K)", "'pad' must go from 1 to keys * keys"),
        ],
    )
    def test_pad_is_not_a_permutation_exit_two(self, capsys, tmp_path, pad, message):
        with open(data("instance_twisted_pad.rcat"), encoding="utf-8") as handle:
            text = handle.read()
        lines = [pad if ln.startswith("gen pad") else ln for ln in text.splitlines()]
        path = tmp_path / "pad.rcat"
        path.write_text("\n".join(lines[:lines.index(pad) + 1]) + "\n", encoding="utf-8")
        assert main(["verify-otp", "--file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_invalid_group(self, capsys):
        assert main(["verify-otp", "--group", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @staticmethod
    def _decisions(monkeypatch, argv) -> collections.Counter:
        # every equation is decided through `_verdict`: count them by name
        calls = collections.Counter()

        def counted(name, *sides, _verdict=protocols._verdict):
            calls[name] += 1
            return _verdict(name, *sides)

        monkeypatch.setattr(protocols, "_verdict", counted)
        main(["verify-otp", *argv])
        return calls

    def test_large_ciphertext_region_is_checked_at_once(self, capsys, tmp_path):
        # one message, one key and 48 ciphertexts, of which only 0 is used
        blocks = ", ".join(["0: {0->0}"] + [f"{c}: {{}}" for c in range(1, 48)])
        path = tmp_path / "wide.rcat"
        path.write_text(
            "set P = 1\nset K = 1\nset C = 48\n"
            "gen encrypt : P * K -> C = {(0,0)->0}\n"
            f"builtin decrypt = controlled(C, K -> P, {{{blocks}}})\n"
            "builtin pad = cup(K)\n",
            encoding="utf-8",
        )
        started = time.perf_counter()
        assert main(["verify-otp", "--file", str(path)]) == 1
        assert time.perf_counter() - started < 2.0
        assert "correctness: FAIL" in capsys.readouterr().out

    def test_each_derivation_runs_once(self, monkeypatch):
        assert self._decisions(monkeypatch, ["--group", "4"]) == collections.Counter([
            "correctness", "correctness_protocol_form", "S1", "S2", "S3", "S4",
            "decrypt_then_inverse", "inverse_then_decrypt",
            "encryption_rebuilt_from_inverse",
        ])

    @pytest.mark.parametrize(
        "stem, decided",
        [
            # correct, but the inverse fails, so the rebuild is refused
            ("otp_single_message", ["decrypt_then_inverse", "inverse_then_decrypt"]),
            # incorrect, so no inverse is built
            ("otp_constant_encryption", []),
        ],
    )
    def test_each_derivation_runs_once_when_a_hypothesis_fails(
        self, monkeypatch, stem, decided
    ):
        argv = ["--file", data(f"{stem}.rcat")]
        assert self._decisions(monkeypatch, argv) == collections.Counter([
            "correctness", "correctness_protocol_form", "S1", "S2", "S3", "S4",
            *decided,
        ])

    @pytest.mark.parametrize(
        "stem",
        [
            "otp_broken_decryption",
            "instance_twisted_pad",
            "otp_labelled_extra_decryption",
            "otp_single_message",
            "otp_constant_encryption",
        ],
    )
    def test_json_output_is_pinned(self, capsys, monkeypatch, stem):
        # run from the data directory so the reported source path is stable
        monkeypatch.chdir(DATA_DIR)
        with open(
            os.path.join("golden", f"verify_otp_{stem}.json"), "r", encoding="utf-8"
        ) as handle:
            want = handle.read()
        code = main(["verify-otp", "--file", f"{stem}.rcat", "--format", "json"])
        assert capsys.readouterr().out == want
        assert code == (0 if json.loads(want)["status"] == "pass" else 1)

    # stdout of passing groups, written by the commit before two-cell
    # components were built by the one Kronecker kernel
    @pytest.mark.parametrize(
        "order, form",
        [(1, "json"), (2, "json"), (5, "json"), (10, "json"), (2, "human")],
    )
    def test_group_output_is_pinned(self, capsys, order, form):
        suffix = "json" if form == "json" else "txt"
        golden = data(os.path.join("golden", f"verify_otp_group_{order}.{suffix}"))
        with open(golden, "r", encoding="utf-8") as handle:
            want = handle.read()
        assert main(["verify-otp", "--group", str(order), "--format", form]) == 0
        assert capsys.readouterr().out == want


class TestVerifyDh:
    def test_prime_five(self, capsys):
        assert main(["verify-dh", "--prime", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema("verify_dh_report.schema.json"))

    def test_identity_base_fails(self, capsys):
        code = main(
            ["verify-dh", "--prime", "5", "--include-identity", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"].startswith("base 1")

    def test_non_prime_usage_error(self, capsys):
        assert main(["verify-dh", "--prime", "4"]) == 2

    def test_cap_enforced(self, capsys):
        for prime in ("23", "29"):
            assert main(["verify-dh", "--prime", prime]) == 2

    def test_no_erase_fails(self):
        assert main(["verify-dh", "--prime", "3", "--no-erase"]) == 1

    @pytest.mark.parametrize("variant", ["", "include_identity", "no_erase"])
    def test_prime_thirteen(self, capsys, variant):
        # past the goldens: the same bases, verdict and witness as at 2..11
        flags = ["--" + variant.replace("_", "-")] if variant else []
        code = main(["verify-dh", "--prime", "13", *flags, "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        generators = ["g"] + [f"g^{i}" for i in range(2, 13)]
        bases = ["1", *generators] if variant == "include_identity" else generators
        assert payload["bases"] == bases
        assert payload["erase_published"] == (variant != "no_erase")
        assert payload["holds"] == (variant == "")
        assert code == (0 if variant == "" else 1)
        if variant == "":
            assert payload["witness"] is None
        elif variant == "include_identity":
            assert payload["witness"].startswith("base 1: ")
        else:
            assert payload["witness"].startswith(
                "published data retained: sides have different shapes (bases g, "
            )

    @pytest.mark.parametrize("prime", [2, 3, 5, 7, 11])
    @pytest.mark.parametrize("variant", ["", "include_identity", "no_erase"])
    def test_json_output_is_pinned(self, capsys, prime, variant):
        name = "_".join(x for x in ("verify_dh", str(prime), variant) if x)
        with open(data(os.path.join("golden", name + ".json")), encoding="utf-8") as f:
            want = f.read()
        flags = ["--" + variant.replace("_", "-")] if variant else []
        code = main(["verify-dh", "--prime", str(prime), *flags, "--format", "json"])
        assert capsys.readouterr().out == want
        assert code == (0 if json.loads(want)["holds"] else 1)


# stdout of each command, written by the whole-candidate search that the
# per-ciphertext one replaced
GOLDEN_SEARCH_RUNS = {
    "enumerate_2_2_2.jsonl": ["enumerate", "--sizes", "2,2,2"],
    "enumerate_2_2_2_dedup.jsonl": ["enumerate", "--sizes", "2,2,2", "--dedup"],
    # written by relabeling every record through numpy arrays
    "enumerate_2_3_2_dedup.jsonl": ["enumerate", "--sizes", "2,3,2", "--dedup"],
    "enumerate_2_2_2_all.jsonl": [
        "enumerate", "--sizes", "2,2,2", "--constraints", "correctness,S1,S2,S3,S4"
    ],
    "enumerate_1_2_3.jsonl": ["enumerate", "--sizes", "1,2,3"],
    "theorems_2_2_2.json": ["theorems", "--sizes", "2,2,2", "--format", "json"],
    "theorems_3_3_3_samples_2000_seed_1.json": [
        "theorems", "--sizes", "3,3,3", "--samples", "2000", "--seed", "1",
        "--format", "json",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SEARCH_RUNS))
def test_search_output_is_pinned(capsys, name):
    with open(data(os.path.join("golden", name)), "r", encoding="utf-8") as handle:
        want = handle.read()
    argv = GOLDEN_SEARCH_RUNS[name]
    assert main([argv[0], "--threads", "1", *argv[1:]]) == 0
    assert capsys.readouterr().out == want


# every statement is applied at every size, so unequal sizes fail; stdout
# written by the commit before theorems were decided on one record, and
# 2,3,1 by the commit before counterexamples were read off the bit codes
@pytest.mark.parametrize(
    "sizes, count", [("1,2,1", 36), ("1,2,2", 276), ("2,3,1", 720)]
)
def test_theorem_counterexamples_are_pinned(capsys, sizes, count):
    name = f"theorems_{sizes.replace(',', '_')}.json"
    with open(data(os.path.join("golden", name)), "r", encoding="utf-8") as handle:
        want = handle.read()
    assert main(["theorems", "--sizes", sizes, "--format", "json"]) == 1
    assert capsys.readouterr().out == want
    assert len(json.loads(want)["counterexamples"]) == count


# stdout written by the commit before theorems were decided on the bit
# codes, where the run took over 6 s
def test_exhaustive_theorems_at_three_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("RELCAT_BUDGET", str(10**21))
    golden = data(os.path.join("golden", "theorems_3_3_3.json"))
    with open(golden, "r", encoding="utf-8") as handle:
        want = handle.read()
    started = time.perf_counter()
    assert main(["theorems", "--sizes", "3,3,3", "--format", "json"]) == 0
    assert time.perf_counter() - started < 2.0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize(
    "name", ["theorems_2_2_2.json", "theorems_3_3_3_samples_2000_seed_1.json"]
)
def test_passing_theorems_build_no_cells(capsys, monkeypatch, name):
    # every record passes, so no record reaches the whole-cell checks
    def refuse(inst):
        raise AssertionError("a passing record was checked through cells")

    monkeypatch.setattr(protocols, "Verification", refuse)
    test_search_output_is_pinned(capsys, name)


@pytest.mark.parametrize("sizes, count", [("1,2,2", 276), ("2,3,1", 720)])
def test_failing_theorems_build_no_security_cells(capsys, monkeypatch, sizes, count):
    # S1-S4 are read off the bit codes; cells only locate the failed inverse
    def refuse(inst, which):
        raise AssertionError(f"{which} was checked through cells")

    monkeypatch.setattr(protocols, "check_security", refuse)
    test_theorem_counterexamples_are_pinned(capsys, sizes, count)


@pytest.mark.parametrize("sizes, count", [("1,2,2", 276), ("2,3,1", 720)])
def test_failing_theorems_build_no_correctness_cells(capsys, monkeypatch, sizes, count):
    # every record is correct by construction; cells never decide it again
    def refuse(inst):
        raise AssertionError("correctness was checked through cells")

    monkeypatch.setattr(protocols, "check_correctness", refuse)
    test_theorem_counterexamples_are_pinned(capsys, sizes, count)


class TestEnumerate:
    def test_singleton(self, capsys):
        assert main(["enumerate", "--sizes", "1,1,1", "--threads", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # one record, one summary
        record = json.loads(lines[0])
        jsonschema.validate(record, schema("solution_record.schema.json"))
        summary = json.loads(lines[1])
        jsonschema.validate(summary, schema("enumerate_summary.schema.json"))

    def test_timings_add_only_the_elapsed_time(self, capsys):
        summaries, streams = [], []
        for extra in ([], ["--timings"]):
            assert main(["enumerate", "--sizes", "2,2,2", *extra]) == 0
            records, _, summary = capsys.readouterr().out.rstrip("\n").rpartition("\n")
            streams.append(records)
            summaries.append(json.loads(summary))
            jsonschema.validate(summaries[-1], schema("enumerate_summary.schema.json"))
        plain, timed = summaries
        assert streams[0] and streams[0] == streams[1]
        assert "elapsed_ms" not in plain["summary"]
        elapsed = timed["summary"].pop("elapsed_ms")
        assert type(elapsed) in (int, float) and elapsed >= 0
        assert timed == plain

    def test_stream_contains_single_bit_triple(self, capsys):
        assert (
            main(
                [
                    "enumerate",
                    "--sizes",
                    "2,2,2",
                    "--constraints",
                    "correctness",
                    "--threads",
                    "1",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        assert {"encrypt": ["1001", "0110"]}.items() <= records[-1].items() or any(
            r["encrypt"] == ["1001", "0110"]
            and r["decrypt"] == [["10", "01"], ["01", "10"]]
            and r["pad"] == [0, 1]
            for r in records
        )

    def test_dedup_count_matches_golden(self, capsys):
        assert (
            main(
                [
                    "enumerate",
                    "--sizes",
                    "2,2,2",
                    "--constraints",
                    "correctness,S1",
                    "--dedup",
                    "--threads",
                    "1",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])["summary"]
        assert summary["solutions"] == 4

    def test_budget_refusal(self, capsys):
        assert main(["enumerate", "--sizes", "3,3,3", "--threads", "1"]) == 2
        assert "budget" in capsys.readouterr().err

    def test_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("RELCAT_BUDGET", "1")
        assert main(["enumerate", "--sizes", "1,1,1", "--threads", "1"]) == 2

    def test_bad_sizes_usage_error(self, capsys):
        assert main(["enumerate", "--sizes", "2,2", "--threads", "1"]) == 2

    def test_output_is_byte_deterministic(self, capsys):
        args = [
            "enumerate",
            "--sizes",
            "2,2,2",
            "--constraints",
            "correctness",
            "--threads",
            "1",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second


def _oracle_lines(records) -> list[str]:
    return [
        json.dumps(oracle_record.record_json(r), sort_keys=True, separators=(",", ":"))
        + "\n"
        for r in records
    ]


class TestRecordLines:
    """`_record_lines` against the dict that each record's JSON object was
    built as, field by field, before the writer rendered pieces once."""

    @pytest.mark.parametrize("dedup", [False, True], ids=["all", "dedup"])
    @pytest.mark.parametrize(
        "sizes", [(1, 1, 1), (2, 2, 2), (1, 2, 3)], ids=["1,1,1", "2,2,2", "1,2,3"]
    )
    def test_every_constraint_subset(self, sizes, dedup):
        for n in range(len(search.CONSTRAINT_NAMES) + 1):
            for subset in itertools.combinations(search.CONSTRAINT_NAMES, n):
                spec = search.SearchSpec(
                    *sizes, constraints=frozenset(subset), dedup=dedup
                )
                records = search.enumerate_solutions(spec)
                assert list(_record_lines(records)) == _oracle_lines(records), subset

    def test_canonical_records(self):
        records = search.enumerate_solutions(search.SearchSpec(2, 3, 2, dedup=True))
        assert len(records) == 634
        assert all(r.canonical is not None for r in records)
        assert list(_record_lines(records)) == _oracle_lines(records)

    def test_codes_with_leading_zero_rows(self):
        shared = {"correctness": True, "S1": False}
        records = [
            search.SolutionRecord((2, 2, 3), 0b0000_0000_0110, (0, 0b0001, 0b1000),
                                  (1, 0), shared),
            search.SolutionRecord((2, 2, 3), 0, (0, 0, 0), (0, 1), shared),
            search.SolutionRecord((2, 2, 3), 0, (0, 0, 1), (0, 1), {},
                                  (0, (0, 0, 1), (0, 1))),
            # the same encryption code at other sizes has other rows
            search.SolutionRecord((1, 2, 6), 0, (0, 0, 0, 0, 0, 1), (1, 0), shared),
            search.SolutionRecord((1, 3, 2), 0b000_001, (0, 0b100), (2, 0, 1),
                                  {"S4": True}, (1, (0, 4), (2, 0, 1))),
            search.SolutionRecord((2, 2, 3), 0, (0, 0, 0), (0, 1), shared),
        ]
        lines = list(_record_lines(records))
        assert lines == _oracle_lines(records)
        assert json.loads(lines[1])["encrypt"] == ["0000", "0000", "0000"]
        assert json.loads(lines[3])["encrypt"] == ["00"] * 6
        assert json.loads(lines[4])["decrypt"] == [["000"], ["100"]]

    def test_enumerate_2_3_2_is_pinned(self, capsys):
        # sha256 of the whole stdout of `relcat enumerate --sizes 2,3,2`,
        # written when each record was encoded from its own dict
        assert main(["enumerate", "--sizes", "2,3,2"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 13_825
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "0aef608364da5fa2dddabf9e187442aa524c44eb46678488b744371bf04c60cd"
        )


class TestTheorems:
    def test_exhaustive(self, capsys):
        assert (
            main(
                [
                    "theorems",
                    "--sizes",
                    "2,2,2",
                    "--threads",
                    "1",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, schema("theorem_report.schema.json"))
        assert payload["solutions"] == 8
        assert payload["counterexamples"] == []

    def test_sampled(self, capsys):
        assert (
            main(
                [
                    "theorems",
                    "--sizes",
                    "3,3,3",
                    "--samples",
                    "2000",
                    "--seed",
                    "3",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["sampled"] == 2000

    def test_zero_samples_is_exhaustive(self, capsys):
        # 0, the default, means "check every candidate", not "sample none"
        printed = []
        for extra in ([], ["--samples", "0"]):
            assert main(["theorems", "--sizes", "2,2,2", *extra]) == 0
            printed.append(capsys.readouterr())
        assert printed[0] == printed[1]
        assert "sampled" not in printed[0].out

    def test_counterexamples_with_long_codes_are_printed(self, capsys):
        # an encryption code of 14,400 bits has 4,335 decimal digits
        assert main(["theorems", "--sizes", "1,300,48", "--samples", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "counterexample: triple" in captured.out

    def test_sampled_with_many_keys_is_fast(self, capsys):
        # each pad is unranked from one draw, not picked from all 12! pads
        started = time.perf_counter()
        main(["theorems", "--sizes", "2,12,2", "--samples", "5"])
        assert time.perf_counter() - started < 2.0
        assert "sampled 5" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (["--sizes", "0,2,2"], None),
            (["--sizes", "0,2,2", "--samples", "3"], None),
            (["--sizes", "2,2,2"], "abc"),
            (["--sizes", "2,2,2", "--samples", "-5"], None),
            (["--sizes", "2,2,2", "--samples", "5", "--seed", "-1"], None),
            (["--sizes", "2,2,2", "--seed", "-1"], None),
        ],
    )
    def test_usage_errors(self, capsys, monkeypatch, argv, budget):
        if budget is not None:
            monkeypatch.setenv("RELCAT_BUDGET", budget)
        assert main(["theorems", "--threads", "1", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--sizes", "3,3,3"], "space of 108086391056891904 composite"),
        (["enumerate", "--sizes", "200,200,1"], "space of about 2^81245 composite"),
        (["enumerate", "--sizes", "1000,1000,1000"], "about 2^2000008529"),
        (["theorems", "--sizes", "10,10,100"], "about 2^20022"),
        # one element above the limit of each term of the instance cost
        # (`protocols.refuse_oversized`): the rebuild's p·k³·c, n^5 for a
        # group, then (p·k)^2 here and (k·c)^2 and the region's c^3 below
        (["verify-otp", "--group", "49"], "282475249 dense bits (269.4 MiB)"),
        (["theorems", "--sizes", "2,8193,1", "--samples", "2"],
         "268500996 dense bits (256.1 MiB)"),
        (["verify-dh", "--prime", "23"], "exceeds the cap of 19"),
        (["theorems", "--sizes", "1,129,129", "--samples", "2"],
         "276922881 dense bits (264.1 MiB)"),
        (["theorems", "--sizes", "1,1,646", "--samples", "2"],
         "269586136 dense bits (257.1 MiB)"),
        (["theorems", "--sizes", "1,1,1", "--samples", "2000000000"],
         "2000000000 samples exceed the budget of 1073741824"),
        # past 1024 PiB a matrix is sized by its nearest power of two
        (["verify-otp", "--group", f"1{'0' * 70}"], "of about 2^1163 dense bits,"),
        (["theorems", "--sizes", f"1,1{'0' * 160},1", "--samples", "1"],
         "of about 2^1063 dense bits,"),
        # a sampled counterexample builds the region on the ciphertexts,
        # charged c^3
        (["theorems", "--sizes", "1,2,3000", "--samples", "2"],
         "27000000000 dense bits (25.1 GiB)"),
        # past the time cap, the first prime whose key exchange check is
        # charged over 2^28: its left side holds 53^4 bits on each of 53
        # region values (`protocols._dh_bits`)
        (["verify-dh", "--prime", "53", "--max-prime", "53"],
         "order 53 holds a cell of 418195493 dense bits (398.8 MiB)"),
        # charged before the primality test, which would try 3.2e7 divisors
        (["verify-dh", "--prime", "1000000000000037",
          "--max-prime", "1000000000000037"], "order 1000000000000037 holds a cell"),
    ],
)
def test_oversized_input_is_refused_at_once(capsys, monkeypatch, argv, message):
    # each refusal is decided from the sizes, before any search or check
    monkeypatch.delenv("RELCAT_BUDGET", raising=False)
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


@pytest.mark.parametrize(
    "argv, budget",
    [
        (["enumerate", "--sizes", "٣,1,1"], None),  # an Arabic-Indic 3
        (["theorems", "--sizes", "1_0,1,1"], None),
        (["verify-otp", "--group", "٣"], None),
        (["verify-dh", "--prime", "٣"], None),
        (["verify-dh", "--prime", "3", "--max-prime", "1_9"], None),
        (["theorems", "--sizes", "2,2,2", "--samples", " 5"], None),
        (["theorems", "--sizes", "2,2,2", "--samples", "5", "--seed", "+1"], None),
        (["enumerate", "--sizes", "1,1,1"], "1_0"),
    ],
)
def test_integers_are_ascii_digits(capsys, monkeypatch, argv, budget):
    if budget is None:
        monkeypatch.delenv("RELCAT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RELCAT_BUDGET", budget)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses an option's value
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "integer" in errors[0]


def _cli_surface() -> list[dict]:
    with open(data(os.path.join("golden", "cli_surface.json")), encoding="utf-8") as f:
        return json.load(f)


@pytest.mark.parametrize(
    "case", _cli_surface(), ids=lambda case: " ".join(case["argv"]) or "no arguments"
)
def test_help_usage_and_errors_are_pinned(capsys, monkeypatch, case):
    # the golden was written by `python -m relcat.cli` with COLUMNS=80, the
    # width argparse wraps help to
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit"], case["stdout"], case["stderr"]
    )


def test_each_call_builds_its_own_parser(capsys, monkeypatch):
    # no parser is kept between calls: each stands for a fresh process
    built = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "relcat":
            built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    for _ in range(2):
        assert main(["enumerate", "--sizes", "1,1,1"]) == 0
    assert len(built) == 2 and built[0] is not built[1]


@pytest.mark.parametrize(
    "argv, parsers",
    [
        # the command's subparser only
        (["enumerate", "--sizes", "1,1,1"], 2),
        # every command, for the choice error that lists them all
        (["bogus"], 6),
    ],
)
def test_a_call_builds_the_parsers_it_needs(capsys, monkeypatch, argv, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
    try:
        main(argv)
    except SystemExit:
        pass
    assert len(built) == parsers


@pytest.mark.parametrize("command", ["enumerate", "theorems"])
def test_a_negative_budget_is_refused(capsys, monkeypatch, command):
    monkeypatch.setenv("RELCAT_BUDGET", "-5")
    assert main([command, "--sizes", "1,1,1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: RELCAT_BUDGET must not be negative, got -5\n"


@pytest.mark.parametrize(
    "argv, budget, message",
    [
        # 2^29 candidates, within the default budget
        (["enumerate", "--sizes", "1,2,7", "--constraints", "S1"], None,
         "71663616 solutions at sizes 1,2,7 exceed the cap of 4194304 records"),
        (["enumerate", "--sizes", "3,3,2", "--constraints", "S1,S3"], str(10**21),
         "110454374400 solutions at sizes 3,3,2"),
        (["theorems", "--sizes", "1,2,8"], str(10**21),
         "11529602 solutions at sizes 1,2,8"),
    ],
)
def test_too_many_records_are_refused_at_once(
    capsys, monkeypatch, argv, budget, message
):
    if budget is None:
        monkeypatch.delenv("RELCAT_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RELCAT_BUDGET", budget)
    started = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]


def test_a_negative_seed_is_refused(capsys):
    # random.Random(-1) draws the stream of random.Random(1), so --seed -1
    # would print what --seed 1 prints
    argv = ["theorems", "--sizes", "3,3,3", "--samples", "2000"]
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must not be negative, got -1\n"
    assert main([*argv, "--seed", "1"]) == 0


@pytest.mark.parametrize("command", ["enumerate", "theorems"])
@pytest.mark.parametrize("threads", ["٣", " 1_0 ", "-5", "0"])
def test_threads_is_a_positive_ascii_integer(capsys, command, threads):
    try:
        code = main([command, "--sizes", "1,1,1", "--threads", threads])
    except SystemExit as exc:  # argparse refuses the spelling
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and "--threads" in errors[0], captured.err


class TestConsoleScript:
    @staticmethod
    def _start(argv, **environ):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        # default stdout buffering, so small outputs reach the pipe only
        # when the command flushes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        env.update(environ)
        return subprocess.Popen(
            [sys.executable, "-m", "relcat.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", data("otp_broken_decryption.rcat")],
            ["verify-otp", "--file", data("otp_labelled_extra_decryption.rcat"),
             "--format", "json"],
            ["verify-otp", "--group", "5", "--format", "json"],
            ["verify-dh", "--prime", "5", "--include-identity"],
            ["enumerate", "--sizes", "2,2,2", "--dedup"],
            ["theorems", "--sizes", "1,2,2"],
        ],
    )
    def test_output_is_the_same_under_every_hash_seed(self, argv):
        # no verdict, witness or refusal may follow the order of a set
        procs = [self._start(argv, PYTHONHASHSEED=seed) for seed in "01"]
        (out, err, code), other = ((*p.communicate(), p.returncode) for p in procs)
        assert out and (out, err, code) == other

    def test_closed_pipe_after_first_line(self):
        # like `relcat enumerate --sizes 2,3,2 | head -1`: 13,824 records
        # overflow the pipe, so a write fails while the command runs
        proc = self._start(["enumerate", "--sizes", "2,3,2"])
        first = proc.stdout.readline()
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait() == 1
        assert json.loads(first)["sizes"] == [2, 3, 2]
        assert err == b""

    def test_closed_pipe_before_any_output(self):
        # the few records fit in the stdout buffer, so the failing write is
        # the final flush
        proc = self._start(["enumerate", "--sizes", "1,1,1"])
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.wait() == 1
        assert err == b""

    def test_deep_parentheses_are_refused_by_the_parser(self, tmp_path):
        # parentheses nest for real, so the parser refuses the one that
        # opens level dsl.MAX_NESTING + 1
        path = tmp_path / "deep.rcat"
        path.write_text(
            f"set A = 2\ndef x = {'(' * 3000}id(A){')' * 3000}\ncheck x == x\n",
            encoding="utf-8",
        )
        proc = self._start(["check", str(path)])
        out, err = proc.communicate()
        assert proc.returncode == 2 and out == b""
        assert re.fullmatch(
            rb"error: 2:109: terms nested too deeply, found '\('\n", err
        )

    def test_module_invocation(self):
        out = subprocess.run(
            [
                sys.executable,
                "-m",
                "relcat.cli",
                "check",
                spec("region_bubble.rcat"),
            ],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert "EQUAL" in out.stdout
