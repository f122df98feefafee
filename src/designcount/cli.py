"""Batch command-line front end.

Subcommands: count (exact enumeration), bounds (log-space bound
evaluation), verify (reveal-law verdicts), entropy (chain-rule upper
estimates).  Output goes to stdout in json, csv, or text form and never
contains wall-clock fields, so a fixed seed and flag set produces
byte-identical output across runs and across --jobs values.  count and
bounds run without numpy; verify and entropy import it when they run.
Exit codes: 0 success, 1 usage or validation error, 2 node budget
exhausted.

The optional cache is a JSON-lines file appended under an exclusive
advisory lock; a re-run whose key matches an existing entry must
reproduce the stored result exactly or the run fails loudly.
"""

from __future__ import annotations

import argparse
import fcntl
import functools
import json
import math
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .errors import DesignError   # each subcommand imports the modules it runs when it runs


class CacheMismatchError(DesignError):
    """A cached entry with the same key holds a different result."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


# a line is parsed by one call of the C scanner: json.loads adds a Python layer
_SCAN = json.JSONDecoder().scan_once


def _append_cache(path: str, entry: dict, key_fields: tuple[str, ...],
                  value_fields: tuple[str, ...]) -> None:
    """Append one JSON line; fail loudly if a matching key disagrees.

    The file is read at once, with universal newlines.  Every non-blank
    line, stripped, must be one JSON object and nothing after it."""
    key = tuple(map(entry.get, key_fields))
    with open(path, "a+", encoding="utf-8", errors="replace") as f:
        fcntl.flock(f, fcntl.LOCK_EX)
        try:
            f.seek(0)
            for lineno, line in enumerate(f.read().split("\n"), 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    old, end = _SCAN(line, 0)
                except (StopIteration, json.JSONDecodeError):
                    old = end = None
                if end != len(line) or not isinstance(old, dict):
                    raise DesignError(
                        f"cache {path}: line {lineno} is not a JSON object")
                if tuple(map(old.get, key_fields)) == key:
                    for v in value_fields:
                        if old.get(v) != entry.get(v):
                            raise CacheMismatchError(
                                f"cache {path}: key "
                                f"{ {k: entry.get(k) for k in key_fields} } stored "
                                f"{v}={old.get(v)!r}, recomputed {entry.get(v)!r}")
            f.seek(0, 2)
            f.write(json.dumps(entry, sort_keys=False, separators=(",", ":")) + "\n")
        finally:
            fcntl.flock(f, fcntl.LOCK_UN)


def _utc_now() -> str:
    return datetime.now(timezone.utc).replace(microsecond=0).isoformat()


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _cmd_count(args) -> int:
    from .enumeration import (SearchConfig, count_latin_squares,
                              count_one_factorizations, count_triple_systems)
    if args.labeled and args.object != "1f":
        raise DesignError(f"--labeled applies to --object 1f only, got {args.object}")
    cfg = SearchConfig(jobs=args.jobs, node_budget=args.node_budget)
    if args.object == "sts":
        result = count_triple_systems(args.n, cfg)
    elif args.object == "1f":
        result = count_one_factorizations(args.n, labeled=args.labeled, config=cfg)
    else:
        result = count_latin_squares(args.n, cfg)

    doc = {
        "kind": result.kind,
        "n": result.n,
        "labeled": result.labeled,
        "count": str(result.count),
        "complete": result.complete,
        "nodes": result.nodes,
    }
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    elif args.format == "csv":
        print("kind,n,labeled,count,complete,nodes")
        print(f"{doc['kind']},{doc['n']},{doc['labeled']},{doc['count']},"
              f"{doc['complete']},{doc['nodes']}")
    else:
        state = "exact" if result.complete else "PARTIAL (budget exhausted)"
        label = {True: " labeled", False: " unordered", None: ""}[result.labeled]
        print(f"{result.kind}{label} n={result.n}: {result.count} "
              f"[{state}, {result.nodes} nodes]")

    if args.cache:
        entry = {
            "kind": result.kind,
            "n": result.n,
            "labeled": result.labeled,
            "count": str(result.count),
            "version": __version__,
            "timestamp": _utc_now(),
            "runtime_seconds": round(result.seconds, 6),
            "nodes": result.nodes,
        }
        # a partial count is budget-dependent; only complete runs are cached
        if result.complete:
            _append_cache(args.cache, entry, ("kind", "n", "labeled"), ("count",))
    return 0 if result.complete else 2


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _exact_bases_for_cameron(n: int):
    from .enumeration import count_latin_squares, count_one_factorizations
    m = n // 2
    latin = count_latin_squares(m).count if 1 <= m <= 6 else None
    onef = None
    if m >= 2 and m % 2 == 0 and m <= 8:
        onef = count_one_factorizations(m, labeled=False).count
    return latin, onef


def _cmd_bounds(args) -> int:
    from .bounds import bound_report
    names = [s.strip() for s in args.list.split(",") if s.strip()]
    if not names:
        raise DesignError("--list needs at least one bound name")
    latin = onef = None
    if "cameron-lower" in names and args.n % 4 == 0:   # the bound refuses other n
        latin, onef = _exact_bases_for_cameron(args.n)
    report = bound_report(args.n, names, latin_count=latin, onef_count=onef)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        for name, ls in report.bounds.items():
            note = report.notes.get(name, "")
            suffix = f"  ({note})" if note else ""
            print(f"{name:>18s}  n={report.n}  log={ls.value:.6f}  "
                  f"{ls.magnitude()}{suffix}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    from .entropylab import verdicts_to_csv, verdicts_to_json, verify_suite
    verdicts = verify_suite(args.lemma, args.variant, args.n, args.mode,
                            samples=args.samples, seed=args.seed)
    if args.format == "json":
        print(verdicts_to_json(verdicts))
    else:
        sys.stdout.write(verdicts_to_csv(verdicts))
    gate = [v for v in verdicts if not v.informational]
    deviations = [v for v in verdicts if v.informational and not v.passed]
    for v in deviations:
        sys.stderr.write(
            f"note: {v.lemma} {dict(sorted(v.conditioning.items()))} "
            f"formula {v.formula} != measured {v.observed}; {v.note}\n")
    return 0 if all(v.passed for v in gate) else 1


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def _cmd_entropy(args) -> int:
    from .entropylab.rates import STREAM, entropy_upper_estimate
    t0 = time.perf_counter()
    est = entropy_upper_estimate(args.variant, args.n, args.samples,
                                 seed=args.seed, jobs=args.jobs)
    runtime = time.perf_counter() - t0
    # the sampled pool is complete, so its size is the exact labeled count
    if args.variant == "sts":
        log_labeled, log_unordered = math.log(est.designs), None
    else:
        log_unordered = math.log(est.designs // math.factorial(args.n - 1))
        log_labeled = log_unordered + math.lgamma(args.n)
    slack = 3.0 * est.se + 1e-9   # 1e-9 absorbs float roundoff of the sum
    verdict = "PASS" if est.estimate >= log_labeled - slack else "FAIL"
    doc = {
        "variant": est.variant,
        "n": est.n,
        "samples": est.samples,
        "seed": est.seed,
        "exact": est.exact,
        "estimate": est.estimate,
        "se": est.se,
        "log_count": log_labeled,
        "log_count_unordered": log_unordered,
        "verdict": verdict,
    }
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    else:
        mode = "exact enumeration" if est.exact else f"{est.samples} samples"
        print(f"{est.variant} n={est.n}: estimate {est.estimate:.6f} "
              f"+- {est.se:.6f} ({mode})")
        print(f"exact log-count {log_labeled:.6f} -> inequality {verdict}")
    if args.cache:
        entry = {
            "kind": "entropy",
            "variant": est.variant,
            "n": est.n,
            "samples": est.samples,
            "seed": est.seed,
            "stream": STREAM,
            "estimate": est.estimate,
            "se": est.se,
            "version": __version__,
            "timestamp": _utc_now(),
            "runtime_seconds": round(runtime, 6),
        }
        _append_cache(args.cache, entry,
                      ("kind", "variant", "n", "samples", "seed", "stream"),
                      ("estimate", "se"))
    return 0 if verdict == "PASS" else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged,
    and each subcommand looks its count functions up when it runs."""
    parser = _Parser(prog="designcount", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact enumeration counts")
    p.add_argument("--object", required=True, choices=["sts", "1f", "latin"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--labeled", action="store_true",
                   help="count proper edge colorings instead of partitions (1f)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--node-budget", type=int, default=None)
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("bounds", help="log-space bound evaluation")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--list", required=True,
                   help="comma-separated bound names")
    p.add_argument("--format", choices=["json", "csv", "text"], default="text")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="reveal-law verification verdicts")
    p.add_argument("--lemma", required=True,
                   choices=["dist-p", "exp-m", "dist-p-2", "exp-m-2", "q-law", "n-law"])
    p.add_argument("--variant", required=True, choices=["1f", "sts"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--mode", required=True, choices=["exact", "mc"])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("entropy", help="chain-rule upper estimates")
    p.add_argument("--variant", required=True, choices=["1f", "sts"])
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--samples", required=True, type=int,
                   help="0 selects exact full enumeration where sizes allow")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.add_argument("--cache", default=None)
    p.set_defaults(func=_cmd_entropy)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (DesignError, OSError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
