import collections
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from relcat import protocols
from relcat.cli import main

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
        "text, message",
        [
            (
                "set A = 2\nbuiltin f = id(A)\n"
                f"def x = {'(' * 3000}f{')' * 3000}\ncheck x == x\n",
                "nested too deeply",
            ),
            (
                "set A = 2\nbuiltin f = id(A)\n"
                f"def x = f{' ; f' * 3000}\ncheck x == x\n",
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
        ],
    )
    @pytest.mark.parametrize("command", ["check", "verify-otp"])
    def test_refused_input_exit_two(self, capsys, tmp_path, text, message, command):
        path = tmp_path / "input.rcat"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)] if command == "check" else [
            command, "--file", str(path)
        ]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]

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

    def test_each_derivation_runs_once(self, monkeypatch):
        calls = collections.Counter()
        for name in ("derive_decryption_inverse", "check_security"):

            def counted(*args, _name=name, _call=getattr(protocols, name)):
                calls[(_name, *args[1:])] += 1
                return _call(*args)

            monkeypatch.setattr(protocols, name, counted)
        assert main(["verify-otp", "--group", "3"]) == 0
        assert calls[("derive_decryption_inverse",)] == 1
        assert [
            calls[("check_security", w)] for w in ("S1", "S2", "S3", "S4")
        ] == [1, 1, 1, 1]

    @pytest.mark.parametrize(
        "stem",
        [
            "otp_broken_decryption",
            "instance_twisted_pad",
            "otp_labelled_extra_decryption",
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
        for prime in ("13", "17"):
            assert main(["verify-dh", "--prime", prime]) == 2

    def test_no_erase_fails(self):
        assert main(["verify-dh", "--prime", "3", "--no-erase"]) == 1

    @pytest.mark.parametrize("prime", [2, 3, 5, 7])
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


class TestEnumerate:
    def test_singleton(self, capsys):
        assert main(["enumerate", "--sizes", "1,1,1", "--threads", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # one record, one summary
        record = json.loads(lines[0])
        jsonschema.validate(record, schema("solution_record.schema.json"))
        summary = json.loads(lines[1])
        jsonschema.validate(summary, schema("enumerate_summary.schema.json"))

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

    @pytest.mark.parametrize(
        "argv, budget",
        [
            (["--sizes", "0,2,2"], None),
            (["--sizes", "0,2,2", "--samples", "3"], None),
            (["--sizes", "2,2,2"], "abc"),
            (["--sizes", "2,2,2", "--samples", "-5"], None),
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


class TestConsoleScript:
    @staticmethod
    def _start(argv):
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        # default stdout buffering, so small outputs reach the pipe only
        # when the command flushes
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(
            [src, *filter(None, [env.get("PYTHONPATH")])]
        )
        return subprocess.Popen(
            [sys.executable, "-m", "relcat.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )

    def test_closed_pipe_after_first_line(self):
        # like `relcat enumerate --sizes 2,3,2 | head -1`: 13,824 records
        # overflow the pipe, so a write fails while the command runs
        proc = self._start(["enumerate", "--sizes", "2,3,2"])
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
        assert json.loads(first)["sizes"] == [2, 3, 2]
        assert err == b""

    def test_closed_pipe_before_any_output(self):
        # the few records fit in the stdout buffer, so the failing write is
        # the final flush
        proc = self._start(["enumerate", "--sizes", "1,1,1"])
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait() == 1
        assert err == b""

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
