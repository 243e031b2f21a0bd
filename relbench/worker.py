"""One workload in one single-threaded process; started by `run.py`.

With ``--probe`` it only times set-up in this fresh interpreter: importing
relcat and building the workload's inputs.  Otherwise it runs whole rounds
of the workload's operations while the next round is expected to end
within ``--seconds``, checks every output against the reference, and
prints one JSON summary line.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402

# per-layer metrics and their units, in the order they are printed
PER_LAYER = {
    "relations.compose.calls": "count",
    "relations.compose.self_s": "s",
    "relations.product.calls": "count",
    "relations.product.self_s": "s",
    "relations.bits_out": "bit",
    "relations.max_bits": "bit",
    "cells.hcompose_two.calls": "count",
    "cells.hcompose_two.self_s": "s",
    "cells.hcompose_one.calls": "count",
    "cells.hcompose_one.self_s": "s",
    "cells.vcompose.calls": "count",
    "cells.vcompose.self_s": "s",
    "cells.tensor.calls": "count",
    "cells.tensor.self_s": "s",
    "cells.equal.calls": "count",
    "cells.equal.self_s": "s",
    "generators.region_structure.calls": "count",
    "generators.region_structure.self_s": "s",
    "generators.controlled.calls": "count",
    "generators.controlled.self_s": "s",
    "protocols.derive_decryption_inverse.calls": "count",
    "protocols.derive_decryption_inverse.self_s": "s",
    "protocols.checks.calls": "count",
    "protocols.checks.self_s": "s",
    "protocols.check_dh.self_s": "s",
    "search.candidates": "count",
    "search.solutions": "count",
    "search.solutions_per_candidate": "ratio",
    "search.enumerate.self_s": "s",
    "search.dedup.self_s": "s",
    "search.theorems.self_s": "s",
    "dsl.parse.self_s": "s",
    "dsl.elaborate.self_s": "s",
    "dsl.evaluate.self_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def import_relcat():
    import relcat.cli
    import relcat.protocols

    return relcat.cli, relcat.protocols


def memo_caches() -> list:
    """Every memo cache of relcat's modules, found by its `cache_clear`."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "relcat" or name.startswith("relcat."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


# The machine's speed swings by up to half for seconds or minutes at a
# time, with the load of programs outside this one.  A fixed piece of work,
# timed right before and after each operation, measures the speed of the
# moment: an operation's time is scaled by REFERENCE_CALIBRATION_S over the
# mean of the two calibration times.  README.md gives the spreads of raw
# and scaled times over the same runs.
REFERENCE_CALIBRATION_S = 0.004


def calibration() -> float:
    """Wall time of fixed interpreter and small-numpy work, about 4 ms."""
    import numpy as np

    gc_was_enabled = gc.isenabled()
    gc.disable()
    started = time.perf_counter()
    bits = np.eye(8, dtype=bool)
    slots = [0] * 64
    total = 0
    for i in range(16000):
        slots[i & 63] = total
        total += (i * 7) % 13
        if i % 40 == 0:
            bits = (bits.astype(np.int32) @ bits.astype(np.int32)) > 0
    elapsed = time.perf_counter() - started
    if gc_was_enabled:
        gc.enable()
    return elapsed


class Runner:
    def __init__(self, cli, protocols, ops):
        self.cli, self.protocols, self.ops = cli, protocols, ops
        self.caches = memo_caches()

    def run_op(self, op):
        """One operation, started with relcat's memo caches empty as in a
        fresh `relcat` process.  Returns (outcome, traceback or None)."""
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if op.argv is not None:
                    code, value = self.cli.main(op.argv), None
                else:
                    fn_name, n = op.call
                    code = 0
                    value = getattr(self.protocols, fn_name)(self.protocols.group_instance(n))
        except SystemExit as exc:
            code, value = exc.code, None
        except Exception:
            return None, traceback.format_exc()
        return workloads.Outcome(code, out.getvalue(), value), None

    def round(self):
        """All operations once.  Returns the round's time at reference speed,
        its wall time, and the outcomes.  Calibration is not counted."""
        outcomes, scaled, wall = [], 0.0, 0.0
        before = calibration()
        for op in self.ops:
            started = time.perf_counter()
            outcomes.append(self.run_op(op))
            spent = time.perf_counter() - started
            after = calibration()
            wall += spent
            scaled += spent * 2 * REFERENCE_CALIBRATION_S / (before + after)
            before = after
        return scaled, wall, outcomes

    def judge(self, outcomes, tally):
        for op, (outcome, crash) in zip(self.ops, outcomes):
            tally["attempted"] += 1
            if crash is not None:
                tally["failed"] += 1
                _note(f"{op.label}: raised\n{crash}")
                continue
            problems = op.check(outcome)
            if problems:
                tally["correct"] = False
                _note(f"{op.label}: " + "; ".join(problems[:5]))


def _note(message: str) -> None:
    print(message, file=sys.stderr)


def per_layer(summaries, traced_rounds, untraced_rounds) -> dict:
    """Counts from the first traced round, times as medians over them."""
    first = summaries[0]
    if any(s[k] != first[k] for s in summaries for k in first if not k.endswith("self_s")):
        _note("warning: counts differ between traced rounds")
    values = {key: statistics.median(s[key] for s in summaries) for key in first if key.endswith("self_s")}
    values = {**first, **values, "cli.self_s": values["cli.main.self_s"]}
    candidates = first["search.candidates"]
    values["search.solutions_per_candidate"] = first["search.solutions"] / candidates if candidates else 0.0
    values["trace.overhead_s"] = statistics.median(traced_rounds) - statistics.median(untraced_rounds)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the spans of the last traced round")
    parser.add_argument("--probe", action="store_true", help="time set-up only")
    args = parser.parse_args()
    workdir = Path(args.workdir)

    cli, protocols = import_relcat()
    ops = workloads.build(args.workload, args.seed, workdir, ROOT)
    if args.probe:
        wall = time.perf_counter() - T0
        shutil.rmtree(workdir, ignore_errors=True)
        speed = statistics.median(calibration() for _ in range(3))
        print(json.dumps({"setup_s": wall * REFERENCE_CALIBRATION_S / speed, "wall_s": wall}))
        return 0

    workloads.expectations(args.workload, ops)
    runner = Runner(cli, protocols, ops)
    tally = {"attempted": 0, "failed": 0, "correct": True}
    scaled, traced, raw, summaries = [], [], [], []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    # whole rounds (with tracing, pairs of an untraced and a traced round)
    # for as long as the next one is expected to end within --seconds
    started = time.perf_counter()
    units = 0
    while True:
        round_s, wall, outcomes = runner.round()
        scaled.append(round_s)
        raw.append(wall)
        runner.judge(outcomes, tally)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                round_s, _, outcomes = runner.round()
            finally:
                tracer.remove()
            traced.append(round_s)
            summaries.append(tracer.summary())
            runner.judge(outcomes, tally)
        units += 1
        if (time.perf_counter() - started) * (units + 1) / units > args.seconds:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    if tracer is not None:
        metrics = per_layer(summaries, traced, scaled)
        if args.spans:
            tracer.write(Path(args.spans))
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "wall_s": {"value": statistics.median(scaled), "unit": "s"},
            "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MB"},
        }
    rounds = {"round_s": scaled, "round_wall_s": raw, "traced_round_s": traced}
    print(json.dumps({**tally, **rounds, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
