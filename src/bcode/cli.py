"""Command-line front end: construct, verify, search, decode, simulate.

Exit statuses are stable and disjoint:

* 0: success,
* 1: a valid negative answer (verifier says no, or the decoder found the
  observation impossible under every hypothesis),
* 2: usage error (bad flags, malformed input files, invalid parameters),
* 3: resource limit, construction budget or memory exhausted.

Every subcommand is pure with respect to (flags, input files, seed):
repeated invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

import numpy as np

from . import construct, formats, search, simulate
from .bitmatrix import BitMatrix, min_row_weight
from .decoder import (
    DecoderConfig,
    decode,
    identity_confusions,
    uniform_count_prior,
)
from .errors import ConstructionError, DegenerateEvidenceError, ResourceLimitError
from .properties import CodeKind, find_violation, verify

_VERIFY_KINDS = sorted(kind.value.lower() for kind in CodeKind)

# Most entries (models x classes x classes) of the confusion stack `decode`
# and `simulate` build from --classes: 128 MiB of floats, of which the
# decoder keeps two more arrays (its copy and its log table) and the
# `simulate` sampler one (its CDF table).
MAX_CONFUSION_ENTRIES = 1 << 24


def _write_report(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _parse_count_prior(spec: str, n: int) -> dict[int, float]:
    """The uniform count prior of ``spec``; counts above the ``n`` users are
    refused before the prior is built, since the range may be huge."""
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "uniform":
        raise ValueError(f"count prior must look like uniform:<lo>:<hi>, got {spec!r}")
    lo, hi = int(parts[1]), int(parts[2])
    if 0 <= lo <= hi and hi > n:
        raise ValueError(f"attacker count {max(lo, n + 1)} exceeds the {n} users")
    return uniform_count_prior(lo, hi)


def _int_list(spec: str) -> list[int]:
    """Argument type of the comma-separated integer flags."""
    try:
        return [int(p) for p in spec.split(",") if p != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be comma-separated integers: {spec!r}") from None


def _check_classes(m: int, c: int) -> None:
    """Refuse an m x c x c confusion stack over the budget before it, or the
    class profiles it comes from, is built."""
    entries = m * max(c, 0) ** 2
    if entries > MAX_CONFUSION_ENTRIES:
        raise ResourceLimitError(
            f"{c} classes on {m} models need {entries} confusion entries "
            f"(> {MAX_CONFUSION_ENTRIES})"
        )


def _profile(alpha: str, n: int, args: argparse.Namespace) -> np.ndarray:
    """Per-user class profiles of an ``iid`` or Dirichlet-concentration spec."""
    if alpha == "iid":
        return simulate.uniform_profile(n, args.classes)
    return simulate.dirichlet_profiles(float(alpha), n, args.classes, args.seed)


def _decoder_config(
    args: argparse.Namespace, code: BitMatrix, confusions: np.ndarray
) -> DecoderConfig:
    return DecoderConfig(
        code=code,
        confusions=confusions,
        attack_prior=args.attack_rate,
        success_rate=args.success_rate,
        count_prior=_parse_count_prior(args.q, code.n),
        num_classes=args.classes,
    )


def cmd_construct(args: argparse.Namespace) -> int:
    _, names, claimed = construct.CONSTRUCTIONS[args.kind]
    seeded = "seed" in names
    matrix = construct.build(
        args.kind, k=args.k, r=args.r, n=args.n, m=args.m, row_weight=args.row_weight,
        seed=args.seed, max_rows=args.max_rows, attempts_per_m=args.attempts,
    )
    if seeded:
        print(f"seed: {args.seed}")

    weight = min_row_weight(matrix)
    if claimed is None:
        file_kind, header_k, header_r, verified = "RAW", 0, weight, None
    else:
        file_kind, header_k, header_r = claimed.value, args.k, args.r
        verified = verify(matrix, claimed, args.k, args.r)
    text = formats.dumps(matrix, file_kind, header_k, header_r)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(text)

    print(f"rows: {matrix.m}  columns: {matrix.n}  min row weight: {weight}")
    if verified is not None:
        print(f"verifier {file_kind}(k={args.k}, r={args.r}): {'PASS' if verified else 'FAIL'}")
    if args.out:
        _write_report(
            args.out,
            {
                "kind": file_kind,
                "m": matrix.m,
                "n": matrix.n,
                "minRowWeight": weight,
                "verified": verified,
                "seed": args.seed if seeded else None,
            },
        )
    return 0 if verified in (None, True) else 1


def cmd_verify(args: argparse.Namespace) -> int:
    doc = formats.load(args.file)
    violation = find_violation(doc.matrix, CodeKind(args.kind.upper()), args.k, args.r)
    if violation is None:
        print(f"PASS: {args.file} is {args.kind}(k={args.k}, r={args.r})")
        if args.out:
            _write_report(args.out, {"result": "pass", "kind": args.kind, "k": args.k, "r": args.r})
        return 0
    print(f"FAIL: {violation}")
    if args.out:
        _write_report(
            args.out,
            {
                "result": "fail",
                "kind": args.kind,
                "witness": {
                    "reason": violation.reason,
                    "columnSets": [list(s) for s in violation.column_sets],
                },
            },
        )
    return 1


def cmd_search(args: argparse.Namespace) -> int:
    kind = CodeKind(args.kind.upper())
    result = search.exhaustive_min(kind, args.k, args.r, args.n, args.max_m)
    if result.min_rows is None:
        print(f"minRows=not-found (searched up to m={args.max_m}), explored={result.explored}")
    else:
        print(f"minRows={result.min_rows}, classes={len(result.codes)}, explored={result.explored}")
    blocks = [formats.dumps(code, "RAW", 0, 0) for code in result.codes]
    for i, block in enumerate(blocks):
        print(f"-- witness {i} --")
        sys.stdout.write(block)
    if args.out:
        _write_report(
            args.out,
            {
                "kind": args.kind,
                "k": args.k,
                "r": args.r,
                "n": args.n,
                "maxM": args.max_m,
                "minRows": result.min_rows,
                "classes": len(result.codes),
                "explored": result.explored,
                "codes": blocks,
            },
        )
    return 0


def cmd_decode(args: argparse.Namespace) -> int:
    code = formats.load(args.code).matrix
    _check_classes(code.m, args.classes)
    synth = args.confusion.startswith("synth:")
    if args.confusion == "id":
        confusions = identity_confusions(code.m, args.classes)
    elif synth:
        profile = _profile(args.confusion.removeprefix("synth:"), code.n, args)
        confusions = simulate.synth_confusion(code, profile)
    else:
        confusions = formats.load_confusions(args.confusion)
    result = decode(args.outputs, _decoder_config(args, code, confusions), args.threshold)
    if synth:  # printed only once the decode succeeds, as ``simulate`` does
        print(f"seed: {args.seed}")
    print(f"attack posterior: {result.attack_posterior:.6f}")
    print(f"decoded label: {result.decoded_label}")
    print("label posterior: " + ", ".join(f"{p:.6f}" for p in result.label_posterior))
    print("decoded attackers: {" + ",".join(map(str, result.decoded_attackers)) + "}")
    if args.out:
        _write_report(
            args.out,
            {
                "attackPosterior": result.attack_posterior,
                "decodedLabel": result.decoded_label,
                "labelPosterior": [float(p) for p in result.label_posterior],
                "decodedAttackers": list(result.decoded_attackers),
                "attackerPosterior": {
                    "".join(map(str, key)): prob
                    for key, prob in sorted(result.attacker_posterior.items())
                },
            },
        )
    return 0


def _point_dict(p: simulate.SweepPoint) -> dict:
    return {
        "attackerCount": p.attacker_count,
        "runs": p.runs,
        "trialsPerRun": p.trials_per_run,
        "decodeAccuracy": {"mean": p.decode_acc_mean, "sd": p.decode_acc_sd},
        "majorityAccuracy": {"mean": p.majority_acc_mean, "sd": p.majority_acc_sd},
        "tp": {"mean": p.tp_mean, "sd": p.tp_sd},
        "fp": {"mean": p.fp_mean, "sd": p.fp_sd},
        "degenerate": p.degenerate,
    }


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cmd_simulate(args: argparse.Namespace) -> int:
    code = formats.load(args.code).matrix
    _check_classes(code.m, args.classes)
    profile = _profile(args.alpha, code.n, args)
    confusions = simulate.synth_confusion(code, profile, args.a_max, args.kappa)
    cfg = _decoder_config(args, code, confusions)
    points = simulate.sweep(
        cfg,
        args.attackers,
        trials=args.trials,
        runs=args.runs,
        seed=args.seed,
        workers=_usable_cpus() if args.threads is None else args.threads,
    )
    print(f"seed: {args.seed}")
    header = (
        f"{'attackers':>9}  {'decode':>14}  {'majority':>14}  "
        f"{'TP':>12}  {'FP':>12}  {'degen':>5}"
    )
    print(header)
    for p in points:
        print(
            f"{p.attacker_count:>9}  "
            f"{p.decode_acc_mean:.4f}+-{p.decode_acc_sd:.4f}  "
            f"{p.majority_acc_mean:.4f}+-{p.majority_acc_sd:.4f}  "
            f"{p.tp_mean:.3f}+-{p.tp_sd:.3f}  "
            f"{p.fp_mean:.3f}+-{p.fp_sd:.3f}  "
            f"{p.degenerate:>5}"
        )
    if args.out:
        payload = {
            "code": args.code,
            "alpha": args.alpha,
            "classes": args.classes,
            "trials": args.trials,
            "runs": args.runs,
            "seed": args.seed,
            "attackRate": args.attack_rate,
            "successRate": args.success_rate,
            "points": [_point_dict(p) for p in points],
        }
        _write_report(args.out + ".json", payload)
        with open(args.out + ".csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                [
                    "code",
                    "alpha",
                    "attackerCount",
                    "decodeAccuracy",
                    "majorityAccuracy",
                    "tpMean",
                    "tpSd",
                    "fpMean",
                    "fpSd",
                ]
            )
            for p in points:
                stats = (p.decode_acc_mean, p.majority_acc_mean, p.tp_mean, p.tp_sd,
                         p.fp_mean, p.fp_sd)
                writer.writerow([args.code, args.alpha, p.attacker_count,
                                 *(f"{v:.6f}" for v in stats)])
        print(f"wrote {args.out}.json and {args.out}.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcode",
        description="Binary subset-selection codes for backdoor-robust ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a code matrix and write it as .bcode")
    p.add_argument("--kind", required=True, choices=list(construct.CONSTRUCTIONS))
    p.add_argument("--k", type=int, help="max cooperating attackers")
    p.add_argument("--r", type=int, help="row weight")
    p.add_argument("--n", type=int, help="number of users")
    p.add_argument("--m", type=int, help="number of models (partition/random)")
    p.add_argument("--row-weight", type=int, dest="row_weight", help="ones per row (random)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed for randomized kinds")
    p.add_argument("--max-rows", type=int, dest="max_rows", default=construct.BTC_MAX_ROWS,
                   help="row budget for the separable-matrix search (btc)")
    p.add_argument("--attempts", type=int, default=construct.BTC_ATTEMPTS,
                   help="candidate draws per height in the separable search (btc)")
    p.add_argument("-o", "--output", help="output .bcode path (default: stdout)")
    p.add_argument("--out", help="machine-readable JSON report path")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="check a .bcode file against a code property")
    p.add_argument("--kind", required=True, choices=_VERIFY_KINDS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("file")
    p.add_argument("--out", help="machine-readable JSON report path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive minimum-row code search")
    p.add_argument("--kind", required=True, choices=_VERIFY_KINDS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-m", type=int, dest="max_m", required=True)
    p.add_argument("--out", help="machine-readable JSON report path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("decode", help="decode one ensemble output vector")
    p.add_argument("--code", required=True, help=".bcode file")
    p.add_argument("--outputs", type=_int_list, required=True,
                   help="comma-separated class indices, one per model")
    p.add_argument("--confusion", default="id",
                   help="'id', 'synth:<alpha|iid>', or a confusion JSON path")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--attack-rate", type=float, dest="attack_rate", default=0.5)
    p.add_argument("--success-rate", type=float, dest="success_rate", default=0.99)
    p.add_argument("--q", default="uniform:0:3", help="attacker-count prior, uniform:<lo>:<hi>")
    p.add_argument("--threshold", type=float, default=0.5, help="attack decision threshold")
    p.add_argument("--seed", type=int, default=0, help="seed for synth confusions")
    p.add_argument("--out", help="machine-readable JSON report path")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="Monte-Carlo evaluation with synthetic models")
    p.add_argument("--code", required=True, help=".bcode file")
    p.add_argument("--alpha", default="iid", help="Dirichlet concentration, or 'iid'")
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--attackers", type=_int_list, default="0,1,2,3",
                   help="comma-separated attacker counts")
    p.add_argument("--attack-rate", type=float, dest="attack_rate", default=0.5)
    p.add_argument("--success-rate", type=float, dest="success_rate", default=0.99)
    p.add_argument("--q", default="uniform:0:3", help="decoder attacker-count prior")
    p.add_argument("--a-max", type=float, dest="a_max", default=0.99,
                   help="saturating accuracy ceiling of synthetic models")
    p.add_argument("--kappa", type=float, default=0.05,
                   help="data mass at which synthetic accuracy reaches half its ceiling")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int,
                   help="worker processes for repeated runs (results are identical)")
    p.add_argument("--out", help="report path prefix; writes <out>.json and <out>.csv")
    p.set_defaults(func=cmd_simulate)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parsing leaves it unchanged, and nothing in
    it depends on the host, so ``main`` builds it only once."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (formats.BcodeFormatError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResourceLimitError, ConstructionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DegenerateEvidenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
