"""bcode benchmark: one workload per process, all workloads, or a self-check.

    python3 bench/run.py --workload design --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --all [--seed 0] [--seconds 30]
    python3 bench/run.py --self-check

Run from the root of a checkout.  A workload run prints its environment,
the CPU-speed probe, its digest and a metric table, then, as the last line,
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics of a
traced run with ``--trace 1``.  See bench/README.md.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; child processes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3
# Online decodes per run, at least: leaves 11 samples beyond p99.
MIN_DECODES = 1100
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", help="run one workload in this process")
    mode.add_argument("--all", action="store_true", help="run every workload, one process each")
    mode.add_argument("--self-check", action="store_true", dest="self_check",
                      help="short runs on seeds 0 and 1: metrics, exact counts, digests")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_probe_ms() -> float:
    """Median of 20 host-speed probes, reported before and after a run."""
    from hostprobe import probe_ms

    return statistics.median(probe_ms() for _ in range(20))


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((str(SRC), str(BENCH)))
    return env


def measure_setup(session) -> list[tuple[float, float]]:
    """Fresh-process set-up (measured seconds, reference-host factor) pairs;
    one warm-up process is discarded."""
    wl = session.wl
    argv = [sys.executable, str(BENCH / "setup_probe.py"), "sim.bcode", str(wl.sim_q), str(session.seed)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        session.attempted += 1
        try:
            done = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                                  timeout=CHILD_TIMEOUT_S, check=True)
            if i:
                seconds, factor = map(float, done.stdout.split())
                times.append((seconds, factor))
        except (subprocess.SubprocessError, ValueError) as exc:
            session.fail(("setup", i), f"set-up process failed: {exc}")
    return times


def play(session, r: int, tracer=None):
    """Run round ``r``, traced when a tracer is given.  Then check its
    outputs, untraced and outside its timed steps, and drop them, so harness
    memory does not grow with the number of rounds."""
    import checks

    if tracer is not None:
        session.tracer = tracer
        tracer.install()
    try:
        result = session.run_round(r)
    finally:
        if tracer is not None:
            tracer.uninstall()
            session.tracer = None
    checks.check_round(session, r)
    session.captures.clear()
    return result


def timed_rounds(session, seconds: float) -> list:
    """Rounds 0, 1, ... and then round 0 again, all within ``seconds``.

    A new round starts only while it and the closing rerun of round 0 still
    fit (judged by the last round's length), but there are at least
    ``MIN_ROUNDS`` rounds before the rerun and ``MIN_DECODES`` decodes.  The
    rerun counts as a measured round; its digests must equal round 0's.
    """
    rounds, decodes = [], 0
    start = perf_counter()
    while (len(rounds) < MIN_ROUNDS or decodes < MIN_DECODES
           or perf_counter() - start + 2 * rounds[-1].wall_s <= seconds):
        rounds.append(play(session, len(rounds)))
        decodes += sum(len(ms) for _, _, ms in rounds[-1].decodes)
    rounds.append(play(session, 0))
    compare_digests(session, rounds[0], rounds[-1])
    return rounds


def traced_rounds(session, tracer, seconds: float) -> tuple[list, list]:
    """Run each round untraced, then again traced, until the time is up.

    Pairing the two runs of a round keeps host-speed drift out of the
    tracing overhead; the pair's digests must agree.
    """
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        r = len(traced)
        untraced.append(play(session, r))
        traced.append(play(session, r, tracer))
        compare_digests(session, untraced[-1], traced[-1], r)
    return untraced, traced


def compare_digests(session, first, again, r: int = 0) -> None:
    for step, digest in first.digests.items():
        if again.digests[step] != digest:
            session.fail((step, r, "rerun"), f"{step}: rerun with the same inputs changed its output")


def workload_digest(first) -> str:
    return hashlib.sha256("".join(first.digests[s] for s in sorted(first.digests)).encode()).hexdigest()


def end_to_end_metrics(rounds, probes, setup: list[tuple[float, float]], peak_mb: float) -> dict:
    """End-to-end metrics, every time scaled to the reference host."""
    import numpy as np
    from hostprobe import SpeedTrace

    speed = SpeedTrace(probes)

    def scaled(r, step: str) -> float:
        return r.seconds[step] * speed.factor(*r.windows[step])

    def median(key) -> float:
        return statistics.median(key(r) for r in rounds)

    samples = [ms * speed.factor(start, end) for r in rounds for start, end, group in r.decodes for ms in group]
    p50, p99 = np.percentile(samples, [50, 99])
    return {
        "setup_s": (statistics.median(s * f for s, f in setup) if setup else 0.0, "s"),
        "trials_per_s": (median(lambda r: r.trials / scaled(r, "simulate")), "1/s"),
        "decode_ms_p50": (float(p50), "ms"),
        "decode_ms_p99": (float(p99), "ms"),
        "construct_s": (median(lambda r: scaled(r, "construct")), "s"),
        "verify_s": (median(lambda r: scaled(r, "verify_bcc") + scaled(r, "verify_btc")), "s"),
        "search_canon_s": (median(lambda r: scaled(r, "search_canon")), "s"),
        "search_walk_s": (median(lambda r: scaled(r, "search_walk")), "s"),
        "decode_cold_s": (median(lambda r: scaled(r, "decode_cold")), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def trace_counts(stats, rounds: int) -> dict:
    """Exact work counts of the traced phase, for the self-check."""
    from tracing import config_size

    configs = {}
    for step in ("decode_cold", "simulate"):
        keys = [k for k in stats.infos("decoder.config", (step,)) if isinstance(k, tuple)]
        configs[step] = list(config_size(*keys[0])) if keys else None
    return {
        step: {
            "explored": stats.infos("search.exhaustive_min", (step,))[0],
            "canonical_calls": stats.calls("search.canonical_form", (step,)) / rounds,
        }
        for step in ("search_canon", "search_walk")
    } | {"configs": configs}


def run_workload(args) -> int:
    import checks
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    print(f"workload {wl.name} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(environment()))
    workdir = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        probe_before = cpu_probe_ms()
        session = workloads.Session(wl, args.seed, posteriors=bool(args.trace))
        setup = [] if args.trace else measure_setup(session)
        if args.trace:
            tracer = tracing.Tracer()
            untraced, rounds = traced_rounds(session, tracer, args.seconds)
        else:
            rounds = timed_rounds(session, args.seconds)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probe_after = cpu_probe_ms()
        checks.check_oracle(session)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"cpu_probe_ms before {probe_before:.3f} after {probe_after:.3f}")
    print(f"rounds {len(rounds)} decode_samples {sum(len(ms) for r in rounds for _, _, ms in r.decodes)}")
    print(f"digest {workload_digest(rounds[0])}")
    if args.trace:
        stats = tracing.SpanStats(tracer.spans)
        metrics = tracing.per_layer_metrics(stats, len(rounds))
        overhead = sum(r.wall_s for r in rounds) / sum(r.wall_s for r in untraced)
        metrics["trace.overhead"] = (overhead, "ratio")
        metrics["host.cpu_probe_ms.before"] = (probe_before, "ms")
        metrics["host.cpu_probe_ms.after"] = (probe_after, "ms")
        print(f"tracing overhead {overhead:.3f}x over {len(rounds)} round pairs")
        print("counts " + json.dumps(trace_counts(stats, len(rounds))))
        trace_path = WORK / "traces" / f"{wl.name}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        print(f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end_metrics(rounds, session.probes, setup, peak_mb)

    for (step, *_), reason in list(session.failures.items())[:10]:
        print(f"FAILED {step}: {reason}", file=sys.stderr)
    failed = len(session.failures)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'fail_ratio':<40} {failed / session.attempted:>14.6g} ({failed}/{session.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[int, list[str]]:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    sys.stderr.write(done.stderr)
    return done.returncode, done.stdout.splitlines()


def run_all(args) -> int:
    import workloads

    ok = True
    for name in workloads.WORKLOADS:
        rc, lines = run_child(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if rc == 0 and lines else {"correct": False}
        ok &= result["correct"]
        print(f"== {name}: {'correct' if result['correct'] else 'INCORRECT'} (exit {rc})\n")
    return 0 if ok else 1


def self_check(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_units = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                  1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    reference = json.loads((BENCH / "digests.json").read_text())
    problems, digests = [], {}
    # Seed 1 is held out: it was not used while the benchmark was tuned.
    for entry in spec["workloads"]:
        wl = workloads.WORKLOADS[entry["name"]]
        for seed in (0, 1):
            for trace in (0, 1):
                where = f"{wl.name} seed {seed} trace {trace}"
                rc, lines = run_child(wl.name, seed, 1, trace)
                if rc != 0 or not lines:
                    problems.append(f"{where}: exit {rc}")
                    continue
                result = json.loads(lines[-1])
                if not result["correct"] or result["failed"]:
                    problems.append(f"{where}: {result['failed']} failed operations")
                units = {name: m["unit"] for name, m in result["metrics"].items()}
                if units != want_units[trace]:
                    problems.append(f"{where}: metrics or units differ from BENCHMARK.json")
                digest = next(line.split()[1] for line in lines if line.startswith("digest "))
                digests.setdefault(wl.name, {})[str(seed)] = digest
                if reference.get(wl.name, {}).get(str(seed)) != digest:
                    problems.append(f"{where}: digest {digest} differs from bench/digests.json")
                if trace:
                    counts = json.loads(next(line[7:] for line in lines if line.startswith("counts ")))
                    want = {
                        step: {"explored": s.explored, "canonical_calls": s.canonical_calls}
                        for step, s in (("search_canon", wl.search_canon), ("search_walk", wl.search_walk))
                    } | {"configs": {"decode_cold": list(wl.decode_config), "simulate": list(wl.sim_config)}}
                    if counts != want:
                        problems.append(f"{where}: counts {counts} != {want}")
                print(f"{where}: done")
    print("digests " + json.dumps(digests, sort_keys=True))
    for problem in problems:
        print("PROBLEM " + problem)
    print("self-check " + ("passed" if not problems else f"FAILED ({len(problems)} problems)"))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bcode").is_dir() or not (ROOT / "tests" / "oracles.py").is_file():
        print("error: run from a bcode checkout; src/bcode or tests/oracles.py is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.self_check:
        return self_check(args)
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
