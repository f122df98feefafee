"""The benchmark's three workloads: fixed op lists, each op checked.

An op is one closed-loop step a CLI user would wait on.  It calls the
public functions of one or more designcount modules, wraps every call in
a span, and raises ``CheckError`` when a result is wrong.  Checks compare
values (published counts, an independent lgamma evaluation of the
bounds, the literal reveal oracle), never output bytes, and hold for any
workload seed: the seed only feeds Monte-Carlo seeds, sampling seeds and
the reveal orders that ``verify_suite`` picks.

Why these workloads:

* search: the count-mode bitmask DFS and the prefix-split process pool
  take almost all of it; ``bounds`` and ``cli`` ride along; the
  Monte-Carlo kernels are not run.
* montecarlo: the per-sample Python of the reveal-sum estimator and of
  the lemma samplers; enumeration is a few percent, and the pool is
  pickled into every estimator block, a different use of the process
  pool than search's.
* exact: the write/read side -- collect mode of the same DFS, ``core``
  validation and JSON lines, memory -- plus exact lemma verdicts and the
  exact estimator checked against the reveal oracle; no Monte Carlo.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

from designcount import (
    SearchConfig,
    bound_report,
    count_latin_squares,
    count_one_factorizations,
    count_triple_systems,
    enumerate_pool,
    sample_uniform,
)
from designcount import cli
from designcount.bounds import BOUND_NAMES
from designcount.enumeration import pool_from_jsonl, pool_to_jsonl
from designcount.entropylab import (
    entropy_upper_estimate,
    make_reveal_order,
    reveal_sets_1f,
)
from designcount.entropylab.lemmas import verify_suite

from tracing import Tracer

# Published values (OEIS A002860, A000438, A030128) the counts must match.
LATIN = {1: 1, 2: 2, 3: 12, 4: 576, 5: 161280}
ONEF_UNORDERED = {2: 1, 4: 1, 6: 6, 8: 6240}
STS = {7: 30, 9: 840}
ONEF_LABELED = {4: 6, 6: 720}

# Sizes of one pass.  Changing any of them changes what the benchmark
# measures, so it is a benchmark change, not a speedup.
CACHE_LINES = 200          # count --cache appends per search pass
CACHE_TAIL = 20            # cli.cache.append_ms averages the last appends
MC_ENTROPY_SAMPLES = 24576  # six estimator blocks of 4096
MC_VERIFY_SAMPLES = {"exp-m": 8000, "dist-p-2": 100_000, "n-law": 2000}
UNIFORM_DRAWS = 100_000
CLI_ENTROPY_SAMPLES = 4096


class CheckError(Exception):
    """An op's result differs from its independent reference."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass
class Ctx:
    """What every op sees: the seed, the worker cap, a temp dir, spans."""

    seed: int
    jobs: int
    tmpdir: str
    tracer: Tracer

    def seed_for(self, label: str) -> int:
        """A per-call seed derived from the workload seed, stable across runs."""
        return random.Random(f"{self.seed}/{label}").getrandbits(31)


@dataclass(frozen=True)
class Op:
    name: str
    layer: str
    group: str | None           # end-to-end group the op's time counts toward
    run: Callable[[Ctx, dict], None]


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _count_op(family: str, n: int, expected: int, count, **kwargs) -> Op:
    def run(ctx: Ctx, state: dict) -> None:
        nodes = []
        for parallel, jobs in ((False, 1), (True, ctx.jobs)):
            with ctx.tracer.span(count.__name__, "enumeration", family=family, n=n,
                                 parallel=parallel) as s:
                r = count(n, config=SearchConfig(jobs=jobs), **kwargs)
                s["nodes"] = r.nodes
            check(r.complete and r.count == expected,
                  f"{family} n={n} jobs={jobs}: count {r.count}, published {expected}")
            nodes.append(r.nodes)
        check(nodes[0] == nodes[1], f"{family} n={n}: nodes differ across jobs: {nodes}")
    return Op(f"count {family} n={n}", "enumeration", "count", run)


def _reference_bounds(n: int) -> dict[str, float]:
    """Every named bound at n, from math.lgamma and the published bases."""
    ln, lg = math.log, math.lgamma

    def vdw(k):
        return 2 * k * lg(k + 1) - k * k * ln(k)

    m = n // 2
    log_l = ln(LATIN[m]) if m in LATIN else vdw(m)
    return {
        "wilson-lower": n * n / 6 * (ln(n) - 2 - 1.5 * ln(3)),
        "wilson-upper": n * n / 6 * (ln(n) - 0.5),
        "kahn-lovasz": n * lg(n) / (2 * (n - 1)),
        "peel": sum(n / (2 * d) * lg(d + 1) for d in range(1, n)),
        "vdw-latin-lower": vdw(n),
        "cameron-lower": log_l + 2 * ln(ONEF_UNORDERED[m]),
        "conjecture-6": n * n / 6 * (ln(n) - 2),
        "conjecture-2": n * n / 2 * (ln(n) - 2),
        "conjecture-1": n * n * (ln(n) - 2),
    }


def _check_bounds(n: int, got: dict[str, float]) -> None:
    want = _reference_bounds(n)
    check(set(got) == set(want), f"bounds n={n}: names {sorted(got)}")
    for name, value in want.items():
        check(math.isclose(got[name], value, rel_tol=1e-9),
              f"bounds n={n} {name}: {got[name]!r} vs lgamma {value!r}")


def _bounds_op(n: int) -> Op:
    def run(ctx: Ctx, state: dict) -> None:
        m = n // 2   # cameron-lower recounts L(m) and unordered F(m) exactly
        latin = None
        if m in LATIN:
            with ctx.tracer.span("count_latin_squares", "enumeration", n=m):
                latin = count_latin_squares(m).count
        with ctx.tracer.span("count_one_factorizations", "enumeration", n=m):
            onef = count_one_factorizations(m).count
        with ctx.tracer.span("bound_report", "bounds", n=n):
            report = bound_report(n, BOUND_NAMES, latin_count=latin, onef_count=onef)
        _check_bounds(n, {k: v.value for k, v in report.bounds.items()})
    return Op(f"bounds n={n}", "bounds", None, run)


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


def _cli(ctx: Ctx, argv: list[str], **attrs) -> tuple[int, str]:
    out = io.StringIO()
    with ctx.tracer.span("cli.main", "cli", cmd=argv[0], **attrs), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_count(ctx: Ctx, state: dict) -> None:
    code, out = _cli(ctx, ["count", "--object", "sts", "--n", "9", "--format", "json"])
    doc = json.loads(out)
    check(code == 0 and doc["count"] == str(STS[9]) and doc["complete"],
          f"cli count sts 9: exit {code}, {out.strip()}")


def _cli_bounds(ctx: Ctx, state: dict) -> None:
    code, out = _cli(ctx, ["bounds", "--n", "16", "--list", ",".join(BOUND_NAMES),
                           "--format", "json"])
    check(code == 0, f"cli bounds: exit {code}")
    _check_bounds(16, json.loads(out)["bounds"])


def _cli_verify(ctx: Ctx, state: dict) -> None:
    code, out = _cli(ctx, ["verify", "--lemma", "dist-p", "--variant", "1f", "--n", "6",
                           "--mode", "exact", "--format", "json"])
    docs = json.loads(out)
    check(code == 0 and docs and all(d["pass"] for d in docs if not d["informational"]),
          f"cli verify dist-p 1f 6: exit {code}")


def _cli_entropy(ctx: Ctx, state: dict) -> None:
    seed = ctx.seed_for("cli-entropy")
    code, out = _cli(ctx, ["entropy", "--variant", "1f", "--n", "6", "--samples",
                           str(CLI_ENTROPY_SAMPLES), "--seed", str(seed), "--format", "json"])
    doc = json.loads(out)
    check(code == 0 and doc["verdict"] == "PASS"
          and doc["estimate"] >= math.log(ONEF_LABELED[6]) - 3 * doc["se"],
          f"cli entropy 1f 6 seed {seed}: exit {code}, {out.strip()}")


def _cli_cache(ctx: Ctx, state: dict) -> None:
    path = os.path.join(ctx.tmpdir, "cache.jsonl")
    argv = ["count", "--object", "sts", "--n", "7", "--format", "json", "--cache", path]
    try:
        for line in range(1, CACHE_LINES + 1):
            code, _ = _cli(ctx, argv, cache_line=line)
            check(code == 0, f"cli count --cache append {line}: exit {code}")
        with open(path, encoding="utf-8") as f:
            entries = [json.loads(raw) for raw in f]
    finally:
        _remove(path)
    check(len(entries) == CACHE_LINES and all(e["count"] == str(STS[7]) for e in entries),
          f"cache holds {len(entries)} entries, wanted {CACHE_LINES} of count {STS[7]}")


def search_ops() -> list[Op]:
    return [
        _count_op("latin", 5, LATIN[5], count_latin_squares),
        _count_op("1f", 8, ONEF_UNORDERED[8], count_one_factorizations),
        _count_op("1f", 6, ONEF_LABELED[6], count_one_factorizations, labeled=True),
        _count_op("sts", 9, STS[9], count_triple_systems),
        _bounds_op(8),
        _bounds_op(16),
        Op("cli count", "cli", None, _cli_count),
        Op("cli bounds", "cli", None, _cli_bounds),
        Op("cli verify", "cli", None, _cli_verify),
        Op("cli entropy", "cli", None, _cli_entropy),
        Op("cli count --cache", "cli", None, _cli_cache),
    ]


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def _pool(ctx: Ctx, kind: str, n: int, expected: int):
    with ctx.tracer.span("enumerate_pool", "enumeration", kind=kind, n=n) as s:
        pool = enumerate_pool(kind, n)
        s["designs"] = len(pool)
    check(len(pool) == expected, f"{kind} n={n} pool has {len(pool)}, count {expected}")
    return pool


def _mc_pools(ctx: Ctx, state: dict) -> None:
    state["sts"] = _pool(ctx, "sts", 9, STS[9])
    state["1f-labeled"] = _pool(ctx, "1f-labeled", 6, ONEF_LABELED[6])


def _estimate(ctx: Ctx, variant: str, n: int, samples: int, seed: int, pool,
              jobs: int, parallel: bool):
    with ctx.tracer.span("entropy_upper_estimate", "entropylab.rates", variant=variant,
                         n=n, samples=samples, parallel=parallel):
        return entropy_upper_estimate(variant, n, samples, seed=seed, jobs=jobs, pool=pool)


def _check_upper(est, count: int) -> None:
    """The chain rule makes the reveal sum's mean an upper bound on log count."""
    check(est.estimate >= math.log(count) - 3 * est.se,
          f"{est.variant} n={est.n} seed {est.seed}: estimate {est.estimate} "
          f"+- {est.se} below log count {math.log(count)}")


def _mc_entropy_sts(ctx: Ctx, state: dict) -> None:
    est = _estimate(ctx, "sts", 9, MC_ENTROPY_SAMPLES, ctx.seed_for("entropy-sts-9"),
                    state["sts"], 1, False)
    _check_upper(est, STS[9])


def _mc_entropy_1f(ctx: Ctx, state: dict) -> None:
    seed = ctx.seed_for("entropy-1f-6")
    serial, parallel = (
        _estimate(ctx, "1f", 6, MC_ENTROPY_SAMPLES, seed, state["1f-labeled"], jobs, flag)
        for flag, jobs in ((False, 1), (True, ctx.jobs)))
    check((serial.estimate, serial.se) == (parallel.estimate, parallel.se),
          f"1f n=6 seed {seed}: jobs=1 {serial} != jobs={ctx.jobs} {parallel}")
    _check_upper(serial, ONEF_LABELED[6])


# The position laws draw one stream for all their verdicts; the other
# laws draw ``samples`` per verdict.
_ONE_STREAM = ("dist-p", "dist-p-2", "q-law")


def _verify_op(lemma: str, variant: str, n: int, mode: str) -> Op:
    samples = MC_VERIFY_SAMPLES[lemma] if mode == "mc" else 0   # exact mode ignores it

    def run(ctx: Ctx, state: dict) -> None:
        seed = ctx.seed_for(f"verify-{lemma}-{variant}-{n}-{mode}")
        with ctx.tracer.span("verify_suite", "entropylab.lemmas", lemma=lemma, mode=mode) as s:
            verdicts = verify_suite(lemma, variant, n, mode, samples=samples, seed=seed)
        gating = [v for v in verdicts if not v.informational]
        calls = 1 if lemma in _ONE_STREAM else len(gating)
        s.update(verdicts=len(verdicts), draws=calls * samples,
                 accepted=sum(v.samples for v in gating[:calls]))
        failed = [v.conditioning for v in gating if not v.passed]
        check(gating and not failed,
              f"{lemma} {variant} n={n} {mode} seed {seed}: failed at {failed}")
    return Op(f"verify {lemma} {variant} n={n} {mode}", "entropylab.lemmas",
              "verify" if mode == "mc" else None, run)


def montecarlo_ops() -> list[Op]:
    return [
        Op("pools sts 9, 1f-labeled 6", "enumeration", None, _mc_pools),
        Op("entropy sts n=9", "entropylab.rates", "entropy", _mc_entropy_sts),
        Op("entropy 1f n=6", "entropylab.rates", "entropy", _mc_entropy_1f),
        _verify_op("exp-m", "1f", 6, "mc"),
        _verify_op("dist-p-2", "sts", 7, "mc"),
        _verify_op("n-law", "sts", 9, "mc"),
    ]


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def _pool_op(kind: str, n: int, expected: int) -> Op:
    def run(ctx: Ctx, state: dict) -> None:
        state[kind] = _pool(ctx, kind, n, expected)
    return Op(f"enumerate_pool {kind} n={n}", "enumeration", "pool", run)


def _jsonl_op(kind: str, n: int) -> Op:
    def run(ctx: Ctx, state: dict) -> None:
        pool = state[kind]
        path = os.path.join(ctx.tmpdir, f"pool-{kind}-{n}.jsonl")
        try:
            with ctx.tracer.span("pool_to_jsonl", "core", kind=kind, designs=len(pool)):
                text = pool_to_jsonl(pool)
            with open(path, "w", encoding="utf-8") as f:
                f.write(text)
            del text
            nbytes = os.path.getsize(path)
            with open(path, encoding="utf-8") as f:
                text = f.read()
        finally:
            _remove(path)
        with ctx.tracer.span("pool_from_jsonl", "core", kind=kind, designs=len(pool),
                             bytes=nbytes):
            back = pool_from_jsonl(kind, n, text)
        check(back.items == pool.items, f"{kind} n={n}: JSONL round trip changed the pool")
    return Op(f"jsonl round trip {kind} n={n}", "core", "pool", run)


def _sample_uniform(ctx: Ctx, state: dict) -> None:
    pool = state["latin"]
    seed = ctx.seed_for("sample-uniform")
    draws = []
    for _ in range(2):
        with ctx.tracer.span("sample_uniform", "enumeration", draws=UNIFORM_DRAWS):
            draws.append(sample_uniform(pool, seed, UNIFORM_DRAWS))
    members = {id(x) for x in pool.items}
    first, again = draws
    check(len(first) == UNIFORM_DRAWS and all(id(x) in members for x in first),
          "sample_uniform drew outside the pool")
    check(all(a is b for a, b in zip(first, again)),
          f"sample_uniform seed {seed} not reproducible")


def _reveal_oracle(pool) -> tuple[float, int, int]:
    """Mean over every design and reveal order of sum log N, by the definition."""
    n = pool.n
    total, reveals, calls = 0.0, 0, 0
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for X in pool.items:
        for vo in itertools.permutations(range(1, n + 1)):
            stars = [itertools.permutations(vo[p + 1:]) for p in range(n)]
            for combo in itertools.product(*stars):
                order = make_reveal_order(n, vo, dict(zip(vo, combo)))
                total += sum(math.log(reveal_sets_1f(X, order, i, j).N) for i, j in pairs)
                reveals += 1
                calls += len(pairs)
    return total / reveals, reveals, calls


def _exact_entropy(ctx: Ctx, state: dict) -> None:
    pool = _pool(ctx, "1f-labeled", 4, ONEF_LABELED[4])
    with ctx.tracer.span("entropy_upper_estimate", "entropylab.rates", variant="1f", n=4,
                         samples=0) as rates:
        est = entropy_upper_estimate("1f", 4, 0, pool=pool)
    with ctx.tracer.span("reveal_sets_1f", "entropylab.reveal") as oracle:
        mean, reveals, calls = _reveal_oracle(pool)
    rates["reveals"] = reveals
    oracle["calls"] = calls
    check(est.exact and math.isclose(est.estimate, mean, rel_tol=1e-12),
          f"exact entropy 1f n=4 {est.estimate!r} != reveal oracle {mean!r}")
    check(est.estimate >= math.log(ONEF_LABELED[4]) - 1e-9,
          f"exact entropy {est.estimate} below log {ONEF_LABELED[4]}")


def exact_ops() -> list[Op]:
    return [
        _pool_op("latin", 5, LATIN[5]),
        _jsonl_op("latin", 5),
        _pool_op("sts", 9, STS[9]),
        _jsonl_op("sts", 9),
        _pool_op("1f-labeled", 6, ONEF_LABELED[6]),
        _jsonl_op("1f-labeled", 6),
        Op("sample_uniform latin n=5", "enumeration", "pool", _sample_uniform),
        _verify_op("dist-p", "1f", 6, "exact"),
        _verify_op("exp-m", "1f", 6, "exact"),
        _verify_op("n-law", "1f", 6, "exact"),
        _verify_op("dist-p-2", "sts", 7, "exact"),
        _verify_op("exp-m-2", "sts", 7, "exact"),
        _verify_op("q-law", "sts", 7, "exact"),
        _verify_op("n-law", "sts", 7, "exact"),
        Op("exact entropy 1f n=4 vs reveal oracle", "entropylab.rates", None, _exact_entropy),
    ]


WORKLOADS = {"search": search_ops, "montecarlo": montecarlo_ops, "exact": exact_ops}
