"""Span tracing for the traced benchmark run.

The benchmark never edits the package.  Instead, ``Tracer.install`` replaces
the module attributes through which one bcode module calls another (plus
``search.canonical_form``, which ``exhaustive_min`` looks up as a module
global) with wrappers that record a span per call: name, start, end, the
index of the enclosing span and a small info value.  Spans stay in memory
and are written out once, when the run ends.  ``BitMatrix`` constructions are
counted through a wrapper on ``BitMatrix.__post_init__``.
"""

from __future__ import annotations

import gzip
import json
import math
import statistics
from itertools import combinations
from pathlib import Path
from time import perf_counter_ns

from bcode import cli, construct, decoder, formats, search, simulate
from bcode.bitmatrix import BitMatrix

# Modules whose spans make up the layers reported as <layer>.busy_s / .self_s.
LAYERS = ("cli", "formats", "construct", "properties", "search", "decoder", "simulate")


def _explored(args, kwargs, result):
    return result.explored


def _accepted(args, kwargs, result):
    return bool(result)


def _config_key(args, kwargs, result):
    return result.code, tuple(sorted(result.count_prior.items()))


# (module, attribute, span name, info taken from the call).  A function
# defined in one module but called from another is wrapped where it is
# looked up, and its span carries the name of the module that defines it.
PATCHES = (
    (cli, "main", "cli.main", None),
    (cli, "find_violation", "properties.find_violation", None),
    (cli, "DecoderConfig", "decoder.config", _config_key),
    (cli, "decode", "decoder.decode", None),
    (formats, "load", "formats.load", None),
    (formats, "dumps", "formats.dumps", None),
    (construct, "build", "construct.build", None),
    (construct, "separable_search", "construct.separable_search", None),
    (construct, "is_separable", "properties.is_separable", _accepted),
    (construct, "find_btc_violation", "properties.find_btc_violation", None),
    (search, "exhaustive_min", "search.exhaustive_min", _explored),
    (search, "canonical_form", "search.canonical_form", None),
    (search, "find_violation", "properties.find_violation", None),
    (simulate, "sweep", "simulate.sweep", None),
    (simulate, "run_trials", "simulate.run_trials", None),
    (simulate, "dirichlet_profiles", "simulate.dirichlet_profiles", None),
    (simulate, "synth_confusion", "simulate.synth_confusion", None),
    (simulate, "sample_outputs", "simulate.sample_outputs", None),
    (simulate, "decode", "decoder.decode", None),
    (simulate, "majority_vote", "decoder.majority_vote", None),
    (decoder, "decode", "decoder.decode", None),
    (decoder, "attack_posterior", "decoder.attack_posterior", None),
    (decoder, "label_posterior", "decoder.label_posterior", None),
    (decoder, "attacker_posterior", "decoder.attacker_posterior", None),
)


class Tracer:
    """In-memory span recorder; one per traced run.

    A span is ``[name, start_ns, end_ns, parent_index, info]``.  Spans are
    appended when they open, so a parent always precedes its children.  A
    call that raises keeps the exception's class name as its info.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._constructed = [0]

    @property
    def constructed(self) -> int:
        """BitMatrix instances built since ``install``."""
        return self._constructed[0]

    def step(self, name: str, fn, *args):
        """Run one harness step inside a root span ``bench.<name>``; its info
        is the number of BitMatrix instances built during the step."""
        before = self.constructed
        index = len(self.spans)
        try:
            return self._wrap(fn, "bench." + name, None)(*args)
        finally:
            if self.spans[index][4] is None:
                self.spans[index][4] = self.constructed - before

    def _wrap(self, fn, name: str, info):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, info in PATCHES:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, info))
        counter = self._constructed
        post_init = BitMatrix.__post_init__

        def counted(matrix):
            counter[0] += 1
            post_init(matrix)

        self._saved.append((BitMatrix, "__post_init__", post_init))
        BitMatrix.__post_init__ = counted

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every span as ``[name index, start ns, end ns, parent]``."""
        names: dict[str, int] = {}
        rows = [[names.setdefault(s[0], len(names)), s[1], s[2], s[3]] for s in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows}, fh, separators=(",", ":"))


def config_size(code: BitMatrix, count_prior: tuple[tuple[int, float], ...]) -> tuple[int, int]:
    """Supports and distinct compromised-model masks a decoder config enumerates.

    Counted from the code's public column masks, independently of the
    decoder's internal tables.
    """
    cols = code.column_masks
    supports = 0
    masks = set()
    for count, prob in count_prior:
        if prob <= 0.0:
            continue
        supports += math.comb(code.n, count)
        for combo in combinations(range(code.n), count):
            mask = 0
            for j in combo:
                mask |= cols[j]
            masks.add(mask)
    return supports, len(masks)


class SpanStats:
    """Per (step, span name) totals over a list of spans.

    A step is the harness span at the root of the tree (``bench.<step>``).
    Self time is a span's duration minus the time its direct children
    cover; a layer's busy time counts only spans with no enclosing span of
    the same layer, so nested calls are not counted twice.
    """

    def __init__(self, spans: list[list]) -> None:
        n = len(spans)
        child_ns = [0] * n
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        step = [""] * n
        path: list[frozenset] = [frozenset()] * n
        # (step, name) -> [calls, total ns, self ns, infos]
        self.by_step: dict[tuple[str, str], list] = {}
        self._durations: dict[str, list[int]] = {}
        self.busy_ns = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        for i, (name, start, end, parent, info) in enumerate(spans):
            layer = name.split(".", 1)[0]
            if parent < 0:
                step[i] = name.removeprefix("bench.")
                above = frozenset()
            else:
                step[i] = step[parent]
                above = path[parent]
            path[i] = above if layer in above else above | {layer}
            dur = end - start
            self._durations.setdefault(name, []).append(dur)
            entry = self.by_step.setdefault((step[i], name), [0, 0, 0, []])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child_ns[i]
            if info is not None:
                entry[3].append(info)
            if layer in self.busy_ns:
                self.self_ns[layer] += dur - child_ns[i]
                if layer not in above:
                    self.busy_ns[layer] += dur

    def _entries(self, name: str, steps):
        return [e for (s, nm), e in self.by_step.items() if nm == name and (steps is None or s in steps)]

    def calls(self, name: str, steps=None) -> int:
        return sum(e[0] for e in self._entries(name, steps))

    def seconds(self, name: str, steps=None) -> float:
        return sum(e[1] for e in self._entries(name, steps)) / 1e9

    def self_seconds(self, name: str, steps=None) -> float:
        return sum(e[2] for e in self._entries(name, steps)) / 1e9

    def infos(self, name: str, steps=None) -> list:
        return [i for e in self._entries(name, steps) for i in e[3]]

    def median_ms(self, name: str) -> float:
        durations = self._durations.get(name)
        return statistics.median(durations) / 1e6 if durations else 0.0


def per_layer_metrics(stats: SpanStats, rounds: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced phase of ``rounds`` rounds.

    Totals are per round.  Each metric is scoped to the step whose
    end-to-end metric it should move (see bench/README.md).
    """
    walk, canon, build = ("search_walk",), ("search_canon",), ("construct",)
    verify = ("verify_bcc", "verify_btc")
    accepted = [ok for ok in stats.infos("properties.is_separable", build) if isinstance(ok, bool)]
    sizes = [config_size(*key) for key in set(stats.infos("decoder.config")) if isinstance(key, tuple)]
    decodes = stats.infos("decoder.decode")
    constructed = [n for n in stats.infos("bench.search_walk") if isinstance(n, int)]
    explored = [n for n in stats.infos("search.exhaustive_min", walk) if isinstance(n, int)]
    per = 1.0 / rounds
    metrics = {
        "search.canonical_form.calls": (stats.calls("search.canonical_form", canon) * per, "count"),
        "search.canonical_form.s": (stats.seconds("search.canonical_form", canon) * per, "s"),
        "search.exhaustive_min.s": (stats.seconds("search.exhaustive_min", walk) * per, "s"),
        "search.exhaustive_min.self_s": (stats.self_seconds("search.exhaustive_min", walk) * per, "s"),
        "search.exhaustive_min.explored": (sum(explored) * per, "count"),
        "bitmatrix.constructed": (sum(constructed) * per, "count"),
        "properties.find_violation.search.calls": (stats.calls("properties.find_violation", walk) * per, "count"),
        "properties.find_violation.search.s": (stats.seconds("properties.find_violation", walk) * per, "s"),
        "properties.find_violation.cli.s": (stats.seconds("properties.find_violation", verify) * per, "s"),
        "construct.separable_search.s": (stats.seconds("construct.separable_search", build) * per, "s"),
        "construct.separable_search.self_s": (stats.self_seconds("construct.separable_search", build) * per, "s"),
        "properties.is_separable.calls": (len(accepted) * per, "count"),
        "properties.is_separable.s": (stats.seconds("properties.is_separable", build) * per, "s"),
        "construct.accept_ratio": (sum(accepted) / len(accepted) if accepted else 0.0, "ratio"),
        "decoder.config.build_s": (stats.seconds("decoder.config") * per, "s"),
        "decoder.config.supports": (max((s for s, _ in sizes), default=0), "count"),
        "decoder.config.masks": (max((m for _, m in sizes), default=0), "count"),
        "decoder.attack_posterior.ms": (stats.median_ms("decoder.attack_posterior"), "ms"),
        "decoder.label_posterior.ms": (stats.median_ms("decoder.label_posterior"), "ms"),
        "decoder.attacker_posterior.ms": (stats.median_ms("decoder.attacker_posterior"), "ms"),
        "decoder.decode.calls": (stats.calls("decoder.decode") * per, "count"),
        "decoder.decode.s": (stats.seconds("decoder.decode") * per, "s"),
        "decoder.degenerate": (decodes.count("DegenerateEvidenceError") * per, "count"),
        "simulate.run_trials.self_s": (stats.self_seconds("simulate.run_trials") * per, "s"),
        "simulate.majority_vote.s": (stats.seconds("decoder.majority_vote") * per, "s"),
        "simulate.sample_outputs.ms": (stats.median_ms("simulate.sample_outputs"), "ms"),
        "formats.load.s": (stats.seconds("formats.load") * per, "s"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (stats.busy_ns[layer] / 1e9 * per, "s")
        metrics[f"{layer}.self_s"] = (stats.self_ns[layer] / 1e9 * per, "s")
    return metrics
