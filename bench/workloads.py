"""The three benchmark workloads and the session a run repeats.

Each workload is one closed-loop caller: a step starts when the previous one
returns.  A round runs every step once, on inputs derived from
``(seed, round)``; rounds repeat until the run's time is up.  Steps drive the
program only through ``bcode.cli.main(argv)`` (in-process, stdout captured)
and, for online decoding, ``bcode.decoder.decode`` on a prebuilt config.

Every workload runs every kind of step, because every end-to-end metric is
reported on every workload; what differs is the input size, and so which
layer dominates.  The simulate workloads run small construct, verify and
search steps in the style of the README walkthrough; the design workload
simulates and decodes online on the correction code it verifies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
from array import array
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import hostprobe
from bcode import cli, decoder, formats, simulate
from bcode.bitmatrix import BitMatrix
from bcode.construct import general_bcc
from bcode.errors import DegenerateEvidenceError

CLASSES = 10
ALPHA = 0.1
# CLI defaults of decode and simulate; the prebuilt configs use the same.
ATTACK_RATE = 0.5
SUCCESS_RATE = 0.99
# Online decodes of the first round compared with the naive oracle (whose
# 2^n loop makes it affordable only on the 8-user code).
ORACLE_CASES = 4


@dataclass(frozen=True)
class Search:
    """One ``search`` command with its expected result and exact work."""

    kind: str
    k: int
    r: int
    n: int
    max_m: int
    min_rows: int
    classes: int
    explored: int
    canonical_calls: int

    def argv(self) -> list[str]:
        return [
            "search", "--kind", self.kind, "--k", str(self.k), "--r", str(self.r),
            "--n", str(self.n), "--max-m", str(self.max_m), "--out", "search.json",
        ]


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload.  Codes are ``general_bcc(k, r, n)`` triples."""

    name: str
    sim_code: tuple[int, int, int]  # simulate, online decode and set-up
    sim_q: int  # attacker-count prior uniform:0:q
    sim_config: tuple[int, int]  # supports, masks of its decoder config
    attackers: tuple[int, ...]  # simulate --attackers
    trials: int  # simulate --trials (one run per call)
    decode_chunk: int  # online decodes per round
    construct: tuple[str, int, int, int]  # construct --kind/--k/--r/--n
    verify_code: tuple[int, int, int]  # verified as bcc (pass) and btc (fail)
    search_canon: Search
    search_walk: Search
    decode_code: tuple[int, int, int]  # the one-shot decode command
    decode_q: int
    decode_config: tuple[int, int]  # supports, masks of that command's config
    oracle: bool  # compare online decodes with the naive oracle


# Small searches for both simulate workloads: the README walkthrough's bdc
# search (walk) and a separable search of the same size (canonical form).
README_CANON = Search("separable", 1, 1, 4, 8, min_rows=2, classes=1, explored=105, canonical_calls=12)
README_WALK = Search("bdc", 2, 2, 4, 8, min_rows=6, classes=1, explored=5, canonical_calls=1)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="simulate-readme",
            sim_code=(2, 4, 8),
            sim_q=3,
            sim_config=(93, 12),
            attackers=(0, 1, 2, 3),
            trials=100,
            decode_chunk=100,
            construct=("bcc", 2, 4, 8),
            verify_code=(2, 4, 8),
            search_canon=README_CANON,
            search_walk=README_WALK,
            decode_code=(2, 4, 8),
            decode_q=3,
            decode_config=(93, 12),
            oracle=True,
        ),
        Workload(
            name="simulate-wide",
            sim_code=(3, 4, 24),
            sim_q=3,
            sim_config=(2325, 15),
            attackers=(0, 1, 2, 3),
            trials=40,
            decode_chunk=80,
            construct=("bcc", 3, 4, 24),
            verify_code=(3, 4, 24),
            search_canon=README_CANON,
            search_walk=README_WALK,
            decode_code=(3, 4, 24),
            decode_q=3,
            decode_config=(2325, 15),
            oracle=False,
        ),
        Workload(
            name="design",
            sim_code=(4, 4, 24),
            sim_q=2,
            sim_config=(301, 16),
            attackers=(0, 1, 2),
            trials=100,
            decode_chunk=250,
            construct=("btc", 2, 4, 16),
            verify_code=(4, 4, 24),
            search_canon=Search("separable", 1, 1, 5, 8, min_rows=3, classes=16, explored=4495, canonical_calls=1120),
            search_walk=Search("bcc", 2, 2, 6, 12, min_rows=4, classes=1, explored=47887, canonical_calls=15),
            decode_code=(4, 4, 40),
            decode_q=4,
            decode_config=(102091, 31),
            oracle=False,
        ),
    )
}

# Round steps in execution order; each CLI step is one cli.main call.
CLI_STEPS = ("construct", "verify_bcc", "verify_btc", "search_canon", "search_walk", "decode_cold", "simulate")


def synth_config(code: BitMatrix, q: int, seed: int) -> decoder.DecoderConfig:
    """The config the CLI builds for ``--confusion synth:0.1`` (decode) or
    ``--alpha 0.1`` (simulate) with ``--seed seed`` and ``--q uniform:0:q``."""
    return decoder.DecoderConfig(
        code=code,
        confusions=synth_confusions(code, seed),
        attack_prior=ATTACK_RATE,
        success_rate=SUCCESS_RATE,
        count_prior=decoder.uniform_count_prior(0, q),
        num_classes=CLASSES,
    )


def synth_confusions(code: BitMatrix, seed: int) -> np.ndarray:
    profile = simulate.dirichlet_profiles(ALPHA, code.n, CLASSES, seed)
    return simulate.synth_confusion(code, profile)


def draw_outputs(rng: np.random.Generator, code: BitMatrix, confusions: np.ndarray, attackers) -> np.ndarray:
    """One output vector from a scenario drawn like ``run_trials`` draws them."""
    n = code.n
    count = attackers[int(rng.integers(len(attackers)))]
    support = sorted(int(j) for j in rng.choice(n, size=count, replace=False))
    label = int(rng.integers(CLASSES))
    target = int(rng.integers(CLASSES - 1))
    target += target >= label
    scenario = simulate.Scenario.from_support(n, support, target, label)
    return simulate.sample_outputs(code, scenario, confusions, SUCCESS_RATE, int(rng.integers(2**32)))


@dataclass
class Capture:
    """What one CLI call returned: exit status, stdout and its report files."""

    rc: int
    stdout: str
    files: dict[str, bytes]
    error: str | None = None

    def digest(self) -> str:
        h = hashlib.sha256(f"{self.rc}\n{self.stdout}".encode())
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name])
        return h.hexdigest()


@dataclass
class RoundResult:
    """Measured times of one round; ``windows`` holds each step's
    ``perf_counter`` start and end, for scaling by the host-speed probes."""

    seconds: dict[str, float]  # per CLI step
    windows: dict[str, tuple[float, float]]  # per CLI step
    trials: int  # simulated by the simulate step
    decodes: list[tuple[float, float, array]]  # (start, end, ms per call) per probe group
    digests: dict[str, str]  # per step
    wall_s: float


class Session:
    """One benchmark run of one workload; owns inputs, timings and checks.

    The caller must have made a scratch directory the current directory: the
    CLI writes its reports there, and relative paths keep stdout identical
    across checkouts.  ``tracer`` is set while a round runs traced.
    """

    def __init__(self, wl: Workload, seed: int, posteriors: bool = False) -> None:
        self.wl = wl
        self.seed = seed
        self.tracer = None
        self.posteriors = posteriors  # also time the three public posteriors
        self.attempted = 0
        self.failures: dict[tuple, str] = {}
        self.captures: dict[tuple[int, str], Capture] = {}
        self.decode_inputs: dict[int, str] = {}
        self.oracle_cases: list[tuple[np.ndarray, decoder.DecodeResult | None]] = []
        for path, (k, r, n) in (
            ("sim.bcode", wl.sim_code),
            ("verify.bcode", wl.verify_code),
            ("decode.bcode", wl.decode_code),
        ):
            formats.save(path, general_bcc(k, r, n), "BCC", k, r)
        self.cfg = synth_config(general_bcc(*wl.sim_code), wl.sim_q, seed)
        self.probes: list[tuple[float, float]] = []  # (perf_counter, probe ms)
        self._probe()

    # -- failures -------------------------------------------------------

    def fail(self, op: tuple, reason: str) -> None:
        self.failures.setdefault(op, reason)

    # -- steps ----------------------------------------------------------

    def _run(self, name: str, fn, *args):
        if self.tracer is None:
            return fn(*args)
        return self.tracer.step(name, fn, *args)

    def _probe(self, after_s: float = 0.0) -> None:
        """Host-speed probes between two steps; more after a long step."""
        for _ in range(hostprobe.probes_after(after_s)):
            self.probes.append((perf_counter(), hostprobe.probe_ms()))

    def _cli(self, r: int, step: str, argv: list[str], outputs: tuple[str, ...]) -> tuple[float, float]:
        """Run one CLI call; returns its start and end times."""
        self.attempted += 1
        for path in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        out = io.StringIO()
        error = None
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = self._run(step, cli.main, argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback is a failed operation, not a crash
            rc, error = -1, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        files = {}
        for path in outputs:
            try:
                with open(path, "rb") as fh:
                    files[path] = fh.read()
            except OSError:
                pass
        self.captures[(r, step)] = Capture(rc, out.getvalue(), files, error)
        return start, end

    def _online(self, r: int, rng: np.random.Generator, n: int, digest) -> list[tuple[float, float, array]]:
        """Decode ``n`` sampled vectors, probing host speed every few calls.

        Returns, per group of calls between two probes, the group's start
        and end (``perf_counter``) and each call's ms.
        """
        cfg, groups = self.cfg, []
        vectors = [
            self._run("sample", draw_outputs, rng, cfg.code, cfg.confusions, self.wl.attackers)
            for _ in range(n)
        ]
        for i, y in enumerate(vectors):
            if i % hostprobe.DECODES_PER_PROBE == 0:
                self._probe()
                groups.append([perf_counter(), 0.0, array("d")])
            self.attempted += 1
            start = perf_counter()
            try:
                result = self._run("online", decoder.decode, y, cfg)
            except DegenerateEvidenceError:
                result = None
            end = perf_counter()
            groups[-1][1] = end
            groups[-1][2].append((end - start) * 1e3)
            if self.posteriors:
                self._public_posteriors(y)
            self._check_decode(("online", r, i), result, digest)
            if self.wl.oracle and r == 0 and len(self.oracle_cases) < ORACLE_CASES:
                self.oracle_cases.append((y, result))
        self._probe()
        return [tuple(g) for g in groups]

    def _public_posteriors(self, y: np.ndarray) -> None:
        for fn in (decoder.attack_posterior, decoder.label_posterior, decoder.attacker_posterior):
            try:
                self._run("online", fn, y, self.cfg)
            except DegenerateEvidenceError:
                pass

    def _check_decode(self, op, result, digest) -> None:
        if result is None:
            digest.update(b"degenerate\n")
            return
        labels = result.label_posterior
        digest.update(repr((result.attack_posterior, result.decoded_label, result.decoded_attackers)).encode())
        digest.update(np.ascontiguousarray(labels).tobytes())
        if not 0.0 <= result.attack_posterior <= 1.0:
            self.fail(op, "attack posterior outside [0, 1]")
        if abs(float(labels.sum()) - 1.0) > 1e-9 or result.decoded_label != int(np.argmax(labels)):
            self.fail(op, "label posterior not normalized or decoded label not its argmax")
        if result.attacker_posterior and abs(sum(result.attacker_posterior.values()) - 1.0) > 1e-9:
            self.fail(op, "attacker posterior not normalized")

    def run_round(self, r: int) -> RoundResult:
        wl = self.wl
        rseed = self.seed * 1000 + r
        rng = np.random.default_rng([self.seed, r])
        kind, k, rw, n = wl.construct
        construct_argv = ["construct", "--kind", kind, "--k", str(k), "--r", str(rw), "--n", str(n)]
        if kind == "btc":
            construct_argv += ["--seed", str(rseed)]
        construct_argv += ["-o", "constructed.bcode", "--out", "construct.json"]
        vk, vr, _ = wl.verify_code
        decode_matrix = general_bcc(*wl.decode_code)
        y = draw_outputs(rng, decode_matrix, synth_confusions(decode_matrix, rseed), wl.attackers)
        self.decode_inputs[r] = ",".join(map(str, y.tolist()))
        sim_counts = ",".join(map(str, wl.attackers))

        start = perf_counter()
        seconds, windows = {}, {}

        def cli_step(step: str, argv: list[str], outputs: tuple[str, ...] = ()) -> None:
            windows[step] = self._cli(r, step, argv, outputs)
            seconds[step] = windows[step][1] - windows[step][0]
            self._probe(seconds[step])

        cli_step("construct", construct_argv, ("constructed.bcode", "construct.json"))
        for step, verify_kind in (("verify_bcc", "bcc"), ("verify_btc", "btc")):
            argv = ["verify", "--kind", verify_kind, "--k", str(vk), "--r", str(vr), "verify.bcode", "--out", "verify.json"]
            cli_step(step, argv, ("verify.json",))
        cli_step("search_canon", wl.search_canon.argv(), ("search.json",))
        cli_step("search_walk", wl.search_walk.argv(), ("search.json",))
        cli_step("decode_cold", [
            "decode", "--code", "decode.bcode", "--outputs", self.decode_inputs[r],
            "--classes", str(CLASSES), "--confusion", f"synth:{ALPHA}",
            "--q", f"uniform:0:{wl.decode_q}", "--seed", str(rseed),
        ])
        cli_step("simulate", [
            "simulate", "--code", "sim.bcode", "--alpha", str(ALPHA), "--classes", str(CLASSES),
            "--attackers", sim_counts, "--q", f"uniform:0:{wl.sim_q}", "--threads", "1",
            "--trials", str(wl.trials), "--runs", "1", "--seed", str(rseed), "--out", "sim",
        ], ("sim.json", "sim.csv"))
        online_digest = hashlib.sha256()
        decodes = self._online(r, rng, wl.decode_chunk, online_digest)
        wall = perf_counter() - start

        digests = {step: self.captures[(r, step)].digest() for step in CLI_STEPS}
        digests["online"] = online_digest.hexdigest()
        trials = wl.trials * len(wl.attackers)
        return RoundResult(seconds, windows, trials, decodes, digests, wall)

