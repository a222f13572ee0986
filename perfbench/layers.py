"""Per-layer metrics: the traced run's measurements of single modules.

Every metric is a span total divided by a count of work done.  Where the
traced workload itself reaches a layer (``certify`` the separability and
bridge calls, ``refute`` the adversaries), ``round_metrics`` takes that
layer's metrics from the spans and counts of the workload's own traced round.
Every other metric comes from a probe below, which calls one module's public
functions from here, inside spans, on inputs drawn from the workload seed, so
that a traced run of any workload reports every per-layer metric.
"""
from __future__ import annotations

import json
import math
import os
import random
import statistics
import subprocess
import sys
import tracemalloc
from itertools import islice

import limitlearn as ll
from limitlearn import bridge as B
from limitlearn.presentations import reorder_items

from oracle import class_sizes, greedy_embeds, plain, require
from speed import kernel_s, scale
from workloads import ANTICHAINS, FIVE_OMEGA, HORIZON, NONSEPARABLE, WINDOW, corpus, kron

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SWEEP = {4: 24, 16: 12, 64: 6}  # exceptions per census -> base censuses
INFORMANT_SAMPLE = ("kron6", "example1", "tails3")
TEXT_SAMPLE = ("example1", "tails3", "kron3")
DIAGONALIZE_STAGES = 60
LOCKING_DEPTH = 400
CERTIFY_REPEATS = 5
JUDGE_REPEATS = 7


def _sweep_censuses(rng: random.Random, k: int, n: int) -> list[dict]:
    """n finite censuses with k class sizes each, and for every one a census
    it embeds into (every class one larger), so both verdicts occur."""
    out = []
    for _ in range(n):
        base = {size: rng.randint(1, 3) for size in rng.sample(range(1, 4 * k + 1), k)}
        out += [base, {size + 1: count for size, count in base.items()}]
    return out


def structures_sweep(tr, rng, stream_seeds) -> dict:
    metrics = {}
    for k, n in SWEEP.items():
        raw = _sweep_censuses(rng, k, n)
        chars = [ll.Character.make(0, c, 0) for c in raw]
        pairs = [(a, b) for a in range(len(chars)) for b in range(len(chars))]
        with tr.span(f"structures.embeds.k{k}"):
            verdicts = [ll.embeds(chars[a], chars[b]) for a, b in pairs]
        for (a, b), verdict in zip(pairs, verdicts):
            require(verdict == greedy_embeds(class_sizes(raw[a]), class_sizes(raw[b])),
                    f"embeds disagrees with greedy matching on {raw[a]} -> {raw[b]}")
        metrics[f"structures.embeds_per_s.k{k}"] = (len(pairs) / tr.total(f"structures.embeds.k{k}"), "calls/s")
    return metrics


class _Fixed:
    """A learner that does no work: it conjectures the target at every stage,
    so that ``run_simulation`` on it costs only its own loop and judging."""

    mode = ll.INFORMANT

    def __init__(self, target):
        self.target = target

    def reset(self):
        pass

    def conjecture(self):
        return self.target

    def feed(self, item):
        return self.target


def informant_layers(tr, rng, stream_seeds) -> dict:
    families = corpus()
    items_total = revisions = constructed = 0
    judge_s = 0.0
    for name in INFORMANT_SAMPLE:
        members = families[name]
        for target in members:
            seed = rng.choice(stream_seeds)
            with tr.span("presentations.fair_informant"):
                items = list(islice(ll.fair_informant(target, seed), HORIZON))
            items_total += len(items)
            with tr.span("presentations.PrefixState.feed"):
                state = ll.PrefixState(ll.INFORMANT)
                for item in items:
                    state.feed(item)
            revisions += state.struct_rev
            # embeds(census, member) at every structural revision, as the
            # min-embed learner inside the separator learner asks it
            replay, seen = ll.PrefixState(ll.INFORMANT), 0
            for item in items:
                replay.feed(item)
                if replay.struct_rev != seen:
                    seen = replay.struct_rev
                    census = replay.char()
                    with tr.span("structures.embeds.revision"):
                        for member in members:
                            ll.embeds(census, member)
            with tr.span("learners.construct"):
                learner = ll.learner_separator(members)
                ll.learner_min_embed(members)
                if name in ANTICHAINS:
                    ll.learner_one_shot(members)
            constructed += 1
            with tr.span("learners.feed.informant"):
                feed = learner.feed
                for item in items:
                    feed(item)
            require(plain(learner.conjecture()) == plain(target), f"{name}: separator probe")
            # run_simulation's own loop and judging, median of a few repeats
            fixed, runs = _Fixed(target), []
            for _ in range(JUDGE_REPEATS):
                with tr.span("learners.run_simulation.fixed") as span:
                    res = ll.run_simulation(fixed, items, HORIZON, target, "iso", WINDOW)
                runs.append(span.seconds)
            require(res.converged, f"{name}: fixed-learner probe")
            judge_s += statistics.median(runs)
    feed_s = tr.total("learners.feed.informant")
    return {
        "structures.revision_embeds_s": (tr.total("structures.embeds.revision"), "s"),
        "presentations.informant_items_per_s": (items_total / tr.total("presentations.fair_informant"), "items/s"),
        "presentations.decode_items_per_s": (items_total / tr.total("presentations.PrefixState.feed"), "items/s"),
        "presentations.struct_revisions": (revisions, "count"),
        "learners.informant_feed_s": (feed_s, "s"),
        "learners.informant_us_per_revision": (feed_s / revisions * 1e6, "us"),
        "learners.judge_ns_per_stage": (judge_s / (constructed * HORIZON) * 1e9, "ns"),
        "learners.construct_ms": (tr.total("learners.construct") / constructed * 1e3, "ms"),
    }


def text_layers(tr, rng, stream_seeds) -> dict:
    families = corpus()
    items_total = reordered = revisions = 0
    for name in TEXT_SAMPLE:
        members = families[name]
        for target in members:
            seed = rng.choice(stream_seeds)
            with tr.span("presentations.fair_text"):
                items = list(islice(ll.fair_text(target, seed), HORIZON))
            items_total += len(items)
            state, seen = ll.PrefixState(ll.TEXT), 0
            for item in items:
                state.feed(item)
                if state.struct_rev != seen:
                    seen = state.struct_rev
                    with tr.span("presentations.reorder_items"):
                        reordered += len(reorder_items(state.blocks()))
            revisions += state.struct_rev
            learner = ll.learner_from_text(ll.learner_separator(members))
            with tr.span("learners.feed.text"):
                feed = learner.feed
                for item in items:
                    feed(item)
            require(plain(learner.conjecture()) == plain(target), f"{name}: text probe")
    feed_s = tr.total("learners.feed.text")
    return {
        "presentations.text_items_per_s": (items_total / tr.total("presentations.fair_text"), "items/s"),
        "presentations.reorder_items_per_s": (reordered / tr.total("presentations.reorder_items"), "items/s"),
        "learners.text_feed_s": (feed_s, "s"),
        "learners.text_us_per_revision": (feed_s / revisions * 1e6, "us"),
    }


def adversary_memory(tr, rng, stream_seeds) -> dict:
    tracemalloc.start()
    try:
        rep = ll.diagonalize(ll.learner_echo(), 2, DIAGONALIZE_STAGES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    require(rep.ok, "diagonalize probe")
    return {"adversaries.diagonalize_peak_mb": (peak / 2**20, "MB")}


def adversary_layers(tr, rng, stream_seeds) -> dict:
    with tr.span("adversaries.diagonalize"):
        rep = ll.diagonalize(ll.learner_echo(), 2, DIAGONALIZE_STAGES)
    require(rep.ok, "diagonalize probe")
    del rep
    pair = list(NONSEPARABLE)
    roster = [ll.learner_constant(FIVE_OMEGA), ll.learner_min_embed(pair, enforce=False),
              ll.learner_separator(pair, enforce=False), ll.learner_split_on_negative(), ll.learner_echo()]
    for learner in roster:
        with tr.span("adversaries.LimitAdversary.run"):
            rep = ll.limit_adversary(learner, FIVE_OMEGA, pair).run(HORIZON)
        require(rep.defeated(5), f"limit probe {learner.name}")
    families = corpus()
    nf_items = 0
    for name, index in (("example1", 0), ("example1", 1), ("kron3", 1)):
        members, seed = families[name], rng.choice(stream_seeds)
        target = members[index]
        with tr.span("adversaries.locking_transform.simulation"):
            res = ll.run_simulation(ll.locking_transform(ll.learner_separator(members)),
                                    ll.fair_informant(target, seed), 5000, target, "iso", WINDOW)
        require(res.converged, "locking normal form probe")
        nf_items += 5000
    with tr.span("adversaries.weak_locking_search"):
        res = ll.weak_locking_search(ll.learner_constant(FIVE_OMEGA), FIVE_OMEGA,
                                     ll.informant_prefix(), LOCKING_DEPTH, 8)
    require(res.kind == "candidate", "weak locking probe")
    return {
        "adversaries.diagonalize_stages_per_s": (DIAGONALIZE_STAGES / tr.total("adversaries.diagonalize"), "stages/s"),
        "adversaries.limit_items_per_s": (len(roster) * HORIZON / tr.total("adversaries.LimitAdversary.run"), "items/s"),
        "adversaries.locking_nf_items_per_s": (nf_items / tr.total("adversaries.locking_transform.simulation"), "items/s"),
        "adversaries.locking_probes_per_s": (res.probes / tr.total("adversaries.weak_locking_search"), "probes/s"),
    }


def certify_layers(tr, rng, stream_seeds) -> dict:
    # the bridge probe runs first, while the bridge's caches are cold
    langs = [B.size_sequence_of(m) for m in corpus()["kron6"]]
    with tr.span("bridge.language_closure"):
        closure = B.language_closure(langs, 12)
    for lang in langs:
        with tr.span("bridge.telltale_search"):
            B.telltale_search(lang, closure, 64)
    families = 0
    for _ in range(CERTIFY_REPEATS):
        for members in (*corpus().values(), NONSEPARABLE):
            with tr.span("separability.certificate"):
                if ll.finitely_separable(members).separable:
                    for m in members:
                        ll.separator_of(m, members)
                ll.fin_antichain(members)
            families += 1
    calls = 0
    for _ in range(CERTIFY_REPEATS):
        for cand, gen in [(kron(i), "kronecker") for i in range(8)] + [(FIVE_OMEGA, "five_n_tail")]:
            with tr.span("separability.generated_limit_verdict"):
                ll.generated_limit_verdict(cand, ll.Family(generator=gen), 32)
            calls += 1
    candidates = len(langs) * math.comb(12, 2)
    return {
        "separability.certificates_per_s": (families / tr.total("separability.certificate"), "families/s"),
        "separability.limit_verdicts_per_s": (calls / tr.total("separability.generated_limit_verdict"), "calls/s"),
        "bridge.closure_candidates_per_s": (candidates / tr.total("bridge.language_closure"), "candidates/s"),
        "bridge.telltale_searches_per_s": (len(langs) / tr.total("bridge.telltale_search"), "calls/s"),
    }


def cli_layer(tr, rng, stream_seeds) -> dict:
    """Criterion 12's configuration through the command line, files included."""
    out = os.path.join(HERE, "out", "cli")
    os.makedirs(out, exist_ok=True)
    family = os.path.join(out, "family.json")
    with open(family, "w") as fh:
        json.dump({"members": [[[5, "omega"], [6, 2]], [[5, "omega"], [7, 1]]]}, fh)
    cmd = [sys.executable, "-m", "limitlearn.cli", "simulate", "--family", family,
           "--learner", "separator", "--target", "1", "--seed", "13", "--horizon", "4000", "--out", out]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tr.span("cli.simulate"):
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=60)
    require(proc.returncode == 0, f"cli simulate exited {proc.returncode}: {proc.stderr[-500:]!r}")
    with open(os.path.join(out, "summary.json")) as fh:
        require(json.load(fh)["converged"], "cli simulate did not converge")
    return {"cli.simulate_s": (tr.total("cli.simulate"), "s")}


def round_metrics(workload: str, tr) -> dict:
    """The metrics of the layers a workload reaches itself, from the spans and
    counts of its traced round."""
    c = tr.counts
    if workload == "certify":
        certificate = tr.total("separability.finitely_separable", "separability.separator_of",
                               "separability.fin_antichain")
        return {
            "separability.certificates_per_s": (c["separability.families"] / certificate, "families/s"),
            "separability.limit_verdicts_per_s": (
                tr.number("separability.generated_limit_verdict")
                / tr.total("separability.generated_limit_verdict"), "calls/s"),
            "bridge.closure_candidates_per_s": (
                c["bridge.closure_candidates"] / tr.total("bridge.language_closure"), "candidates/s"),
            "bridge.telltale_searches_per_s": (
                tr.number("bridge.telltale_search") / tr.total("bridge.telltale_search"), "calls/s"),
        }
    if workload == "refute":
        return {
            "adversaries.diagonalize_stages_per_s": (
                c["adversaries.diagonalize.stages"] / tr.total("adversaries.diagonalize"), "stages/s"),
            "adversaries.limit_items_per_s": (
                c["adversaries.limit.items"] / tr.total("adversaries.LimitAdversary.run"), "items/s"),
            "adversaries.locking_nf_items_per_s": (
                c["adversaries.locking_transform.items"]
                / tr.total("adversaries.locking_transform.simulation"), "items/s"),
            "adversaries.locking_probes_per_s": (
                c["adversaries.weak_locking_search.probes"] / tr.total("adversaries.weak_locking_search"),
                "probes/s"),
        }
    return {}


# the probe that stands in for each workload's round_metrics on other workloads
REPLACED = {"certify": certify_layers, "refute": adversary_layers}
# certify_layers runs first, while the bridge's caches are cold
PROBES = (certify_layers, structures_sweep, informant_layers, text_layers,
          adversary_layers, adversary_memory, cli_layer)


def measure(workload: str, seed: int, stream_seeds, tr) -> dict:
    """Every probe but the one the workload's own traced round replaces, each
scaled to the reference speed by the kernel times on either side of it."""
    rng = random.Random(seed)
    metrics = {}
    for probe in PROBES:
        if probe is not REPLACED.get(workload):
            before = kernel_s()
            found = probe(tr, rng, stream_seeds)
            metrics.update(scale(found, (before + kernel_s()) / 2))
    return metrics
