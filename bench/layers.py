"""Per-layer metrics, computed from the spans of one traced pass.

The layers are designcount's modules.  Each metric comes from the spans
the benchmark put around its public calls, so it is that call's wall
time (children included) over the work the call reports.  A metric
whose call is not in the workload reads 0: the workloads are built to
exercise different layers, and the JSON line needs every name.
"""

from __future__ import annotations

from tracing import Span
from workloads import CACHE_LINES, CACHE_TAIL

LAYERS = ("core", "enumeration", "bounds", "entropylab.reveal",
          "entropylab.rates", "entropylab.lemmas", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], failed: dict[str, int]) -> dict[str, float]:
    """Every per-layer metric, with ``failed`` ops counted per layer."""

    def pick(name: str, **attrs) -> list[Span]:
        return [s for s in spans if s.name == name
                and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def secs(sel: list[Span]) -> float:
        return sum(s.seconds for s in sel)

    def attr(sel: list[Span], key: str) -> int:
        return sum(s.attrs[key] for s in sel)

    m: dict[str, float] = {}

    counts = [s for s in spans if "family" in s.attrs]
    for family in ("latin", "1f", "sts"):
        serial = [s for s in counts if s.attrs["family"] == family and not s.attrs["parallel"]]
        m[f"enumeration.count.{family}.nodes_per_s"] = _ratio(attr(serial, "nodes"), secs(serial))
        m[f"enumeration.count.{family}.nodes"] = attr(serial, "nodes")
    m["enumeration.count.jobs2_speedup"] = _ratio(
        secs([s for s in counts if not s.attrs["parallel"]]),
        secs([s for s in counts if s.attrs["parallel"]]))

    for kind, n in (("latin", 5), ("sts", 9), ("1f-labeled", 6)):
        m[f"enumeration.pool.{kind}.s"] = secs(pick("enumerate_pool", kind=kind, n=n))
    latin_pool = pick("enumerate_pool", kind="latin", n=5)
    m["enumeration.pool.latin.designs_per_s"] = _ratio(attr(latin_pool, "designs"),
                                                       secs(latin_pool))
    draws = pick("sample_uniform")
    m["enumeration.sample_uniform.us_per_draw"] = 1e6 * _ratio(secs(draws), attr(draws, "draws"))

    dumps, loads = pick("pool_to_jsonl"), pick("pool_from_jsonl")
    m["core.jsonl.dump_us_per_design"] = 1e6 * _ratio(secs(dumps), attr(dumps, "designs"))
    m["core.jsonl.load_us_per_design"] = 1e6 * _ratio(secs(loads), attr(loads, "designs"))
    m["core.jsonl.bytes_per_design"] = _ratio(attr(loads, "bytes"), attr(loads, "designs"))

    reports = pick("bound_report")
    m["bounds.report.ms_per_call"] = 1e3 * _ratio(secs(reports), len(reports))

    for variant in ("sts", "1f"):
        serial = pick("entropy_upper_estimate", variant=variant, parallel=False)
        m[f"entropylab.rates.mc.{variant}.us_per_sample"] = 1e6 * _ratio(
            secs(serial), attr(serial, "samples"))
    m["entropylab.rates.mc.jobs2_speedup"] = _ratio(
        secs(pick("entropy_upper_estimate", variant="1f", parallel=False)),
        secs(pick("entropy_upper_estimate", variant="1f", parallel=True)))
    exact = pick("entropy_upper_estimate", samples=0)
    m["entropylab.rates.exact.us_per_reveal"] = 1e6 * _ratio(secs(exact), attr(exact, "reveals"))

    for lemma in ("exp-m", "dist-p-2", "n-law"):
        sel = pick("verify_suite", lemma=lemma, mode="mc")
        m[f"entropylab.lemmas.mc.{lemma}.us_per_draw"] = 1e6 * _ratio(secs(sel), attr(sel, "draws"))
        m[f"entropylab.lemmas.mc.{lemma}.accept_ratio"] = _ratio(attr(sel, "accepted"),
                                                                 attr(sel, "draws"))
    sel = pick("verify_suite", mode="exact")
    m["entropylab.lemmas.exact.verdicts_per_s"] = _ratio(attr(sel, "verdicts"), secs(sel))

    oracle = pick("reveal_sets_1f")
    m["entropylab.reveal.sets_us_per_call"] = 1e6 * _ratio(secs(oracle), attr(oracle, "calls"))

    single = [s for s in pick("cli.main") if "cache_line" not in s.attrs]
    m["cli.main.ms_per_call"] = 1e3 * _ratio(secs(single), len(single))
    tail = [s for s in pick("cli.main")
            if s.attrs.get("cache_line", 0) > CACHE_LINES - CACHE_TAIL]
    m["cli.cache.append_ms"] = 1e3 * _ratio(secs(tail), len(tail))

    for layer in LAYERS:
        m[f"{layer}.failed"] = failed.get(layer, 0)
    return m
