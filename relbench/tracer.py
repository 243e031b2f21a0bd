"""Spans around the calls into each relcat layer, recorded from outside.

`Tracer.install` replaces each traced function in its defining module and
in every loaded relcat module that imported it by name, so calls made
through either name are recorded; `Tracer.remove` puts the originals
back.  One span per call holds its layer name, start, end and the index of
the span that was open when it began.  Spans live in flat arrays until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

# layer name -> (module, public functions); each call of one opens a span
LAYERS = {
    "relations.compose": ("relcat.relations", ("compose",)),
    "relations.product": ("relcat.relations", ("product",)),
    "cells.hcompose_two": ("relcat.cells", ("hcompose_two",)),
    "cells.hcompose_one": ("relcat.cells", ("hcompose_one",)),
    "cells.vcompose": ("relcat.cells", ("vcompose",)),
    "cells.tensor": ("relcat.cells", ("tensor",)),
    "cells.equal": ("relcat.cells", ("equal",)),
    "generators.region_structure": ("relcat.generators", ("region_structure",)),
    "generators.controlled": (
        "relcat.generators",
        (
            "controlled",
            "controlled_at_left_boundary",
            "controlled_at_right_boundary",
            "controlled_scalar",
            "controlled_scalar_mirror",
        ),
    ),
    "protocols.derive_decryption_inverse": (
        "relcat.protocols",
        ("derive_decryption_inverse",),
    ),
    "protocols.checks": (
        "relcat.protocols",
        (
            "check_correctness",
            "check_correctness_protocol_form",
            "check_security",
            "check_encryption_not_invertible",
            "security_implications",
            "rebuild_encryption",
            "secret_sharing_from_otp",
        ),
    ),
    "protocols.check_dh": ("relcat.protocols", ("check_dh",)),
    "search.enumerate": ("relcat.search", ("enumerate_solutions", "enumerate_shard")),
    "search.dedup": ("relcat.search", ("dedup_records",)),
    "search.theorems": ("relcat.search", ("verify_theorems", "sample_candidates")),
    "dsl.parse": ("relcat.dsl", ("parse",)),
    "dsl.elaborate": ("relcat.dsl", ("elaborate",)),
    "dsl.evaluate": ("relcat.dsl", ("evaluate", "evaluate_name", "check_equation")),
    "cli.main": ("relcat.cli", ("main",)),
}

# layers whose results are dense relations: their cells count as bits built
BIT_LAYERS = ("relations.compose", "relations.product")


class Tracer:
    def __init__(self) -> None:
        self.names = list(LAYERS)
        self._installed: list[tuple[object, str, object]] = []
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        """Forget recorded spans and counters; installed wrappers stay."""
        for spans in (self.layer, self.parent, self.start, self.end):
            del spans[:]
        self._stack.clear()
        self.bits_out = 0
        self.max_bits = 0
        self.candidates = 0
        self.solutions = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        search = sys.modules["relcat.search"]
        replacements = {}
        for layer_id, (name, (module_name, functions)) in enumerate(LAYERS.items()):
            module = sys.modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                replacements[id(original)] = self._wrap(
                    original, layer_id, name in BIT_LAYERS, self._search_hook(search, fn_name)
                )
        for module_name, module in list(sys.modules.items()):
            if module_name != "relcat" and not module_name.startswith("relcat."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    self._installed.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _search_hook(self, search, fn_name: str):
        """Counts of candidates examined and solutions found, read from the
        arguments and results of the search entry points."""
        if fn_name == "enumerate_solutions":
            def hook(args, result):
                self.candidates += search.candidate_count(args[0])
        elif fn_name == "enumerate_shard":
            def hook(args, result):
                self.solutions += len(result)
        elif fn_name == "sample_candidates":
            def hook(args, result):
                self.candidates += result.candidates
                self.solutions += result.solutions
        else:
            return None
        return hook

    def _wrap(self, fn, layer_id: int, counts_bits: bool, hook):
        layer, parent, start, end = self.layer, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(layer)
            layer.append(layer_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if counts_bits:
                size = result.bits.size
                self.bits_out += size
                if size > self.max_bits:
                    self.max_bits = size
            if hook is not None:
                hook(args, result)
            return result

        return traced

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self time per layer, plus the relation and search
        counters.  Self time is a span's duration minus its children's."""
        n_layers = len(self.names)
        calls = [0] * n_layers
        self_s = [0.0] * n_layers
        child = [0.0] * len(self.layer)
        for i in range(len(self.layer) - 1, -1, -1):
            duration = self.end[i] - self.start[i]
            calls[self.layer[i]] += 1
            self_s[self.layer[i]] += duration - child[i]
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration
        out: dict[str, float] = {}
        for layer_id, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[layer_id]
            out[f"{name}.self_s"] = self_s[layer_id]
        out["relations.bits_out"] = self.bits_out
        out["relations.max_bits"] = self.max_bits
        out["search.candidates"] = self.candidates
        out["search.solutions"] = self.solutions
        return out

    def write(self, path: Path) -> None:
        """Spans as tab-separated lines: index, parent, layer, start, end."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\tlayer\tstart_s\tend_s\n")
            for i in range(len(self.layer)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.names[self.layer[i]]}\t"
                    f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n"
                )
