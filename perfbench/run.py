"""Run one workload of the limitlearn benchmark and print its metrics.

    python3 perfbench/run.py --workload informant --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every repetition runs in a fresh
interpreter (``worker.py``), one after another on a single thread, so that no
warm cache or memoized census carries over and each repetition's peak RSS is
its own.  Times are scaled to a reference machine speed (``speed.py``).
``--trace 0`` repeats whole rounds of the workload as often as would fit in
``--seconds`` (at least once) and reports the end-to-end metrics; ``--trace 1``
runs alternating pairs of untraced and traced rounds and the per-layer
probes, and reports the per-layer metrics and the tracing overhead.  The last
line of standard output is the JSON result; the lines before it are a
readable report, also written with the spans under ``perfbench/out/``.
"""
import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import REFERENCE_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# text is not in BENCHMARK.json (see the README); it runs when asked for
WORKLOADS = ("informant", "text", "refute", "certify")
SETUP_REPEATS = 8
# the share of --seconds each round is allotted, near a round's duration at
# the reference speed: a run makes --seconds // ROUND_S rounds (at least one),
# the same number whatever the machine's speed
ROUND_S = {"informant": 10.0, "text": 25.0, "refute": 20.0, "certify": 4.0}
# alternating pairs of an untraced and a traced round in a traced run: more
# where rounds are short, and one for text, whose two pairs would not fit in
# BUDGET_S
TRACED_PAIRS = {"informant": 2, "text": 1, "refute": 2, "certify": 4}
# a run must end within 180 s; leave room for the interpreter to exit
BUDGET_S = 170.0
LIMITS = ("shared CPU with other tenants (their load is not visible here); "
          "no hardware performance counters; no CPU isolation or frequency pinning; "
          "wall-clock times, scaled by a speed kernel timed in the same process (speed.py)")


class WorkerError(RuntimeError):
    pass


def per_op(rounds: list, key: str = "times") -> list:
    """Each operation's median time over rounds of the same operation list.

    Not the fastest: a scaled time is low also when the kernel happened to
    run slow next to the operation, and the fastest round picks such errors.
    """
    ops = zip(*(r[key] for r in rounds))
    return [statistics.median(ts) for ts in ([t for t in op if t is not None] for op in ops) if ts]


def tail_note(times: list) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(times) < 40:
        return "fewer than 40 samples: no tail percentile"
    p = 100 * (len(times) - 10) // len(times)
    return f"p{p} {sorted(times)[math.ceil(p * len(times) / 100) - 1]:.6f} s"


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


class Runner:
    def __init__(self, args):
        self.args = args
        self.started = time.monotonic()
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def spawn(self, mode: str, spans: str = "") -> dict:
        """Run one worker and return its result, with ``setup_s`` added."""
        left = BUDGET_S - (time.monotonic() - self.started)
        if left <= 1:
            raise WorkerError("time budget exhausted")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, self.args.workload,
               str(self.args.seed), self.args.stream_seeds, spans]
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                                  cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired:
            raise WorkerError(f"{mode} worker exceeded the time budget")
        if proc.returncode != 0:
            raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_wall_s"] = result["ready"] - launched
        if "kernel_s" in result:
            result["setup_s"] = result["setup_wall_s"] * REFERENCE_S / result["kernel_s"]
        return result

    def untraced(self):
        starts = [self.spawn("setup") for _ in range(SETUP_REPEATS)]
        count = max(1, int(self.args.seconds // ROUND_S[self.args.workload]))
        rounds = [self.spawn("round") for _ in range(count)]
        times, wall = per_op(rounds), per_op(rounds, "wall")
        starts += rounds
        setups = [r["setup_s"] for r in starts]
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "verdicts_per_s": (len(times) / sum(times), "1/s"),
            "verdict_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in rounds) / 1024, "MB"),
        }
        notes = [f"rounds: {len(rounds)} of {len(times)} operations; each operation timed by "
                 f"its median round, scaled to the reference speed",
                 f"setup samples: {len(setups)}; verdict_p50_s samples: {len(times)}; "
                 + tail_note(times),
                 f"unscaled wall times: setup {statistics.median(r['setup_wall_s'] for r in starts):.4f} s, "
                 f"{len(wall) / sum(wall):.4f} verdicts/s, p50 {statistics.median(wall):.4f} s; "
                 f"speed kernel median {statistics.median(r['kernel_s'] for r in starts) * 1e3:.3f} ms "
                 f"(reference {REFERENCE_S * 1e3:.3f} ms)"]
        return rounds, metrics, notes

    def traced(self):
        os.makedirs(OUT, exist_ok=True)
        stem = os.path.join(OUT, f"spans-{self.args.workload}-seed{self.args.seed}")
        # untraced and traced rounds alternate, the untraced one first in even pairs
        pairs = []
        for i in range(TRACED_PAIRS[self.args.workload]):
            if i % 2 == 0:
                plain = self.spawn("round")
                traced = self.spawn("traced", f"{stem}-{i}.json")
            else:
                traced = self.spawn("traced", f"{stem}-{i}.json")
                plain = self.spawn("round")
            pairs.append((plain, traced))
        # per operation, so that one long operation's slowdown cannot decide it
        ratios = [(t / p - 1) * 100 for plain, traced in pairs
                  for p, t in zip(plain["times"], traced["times"]) if p is not None and t is not None]
        overhead = statistics.median(ratios)
        per_pair = [(sum(per_op([t])) / sum(per_op([p])) - 1) * 100 for p, t in pairs]
        probes = self.spawn("layers", stem + "-layers.json")
        first = pairs[0][1]
        metrics = {name: tuple(value) for name, value in {**probes["metrics"], **first["metrics"]}.items()}
        metrics = {name: metrics[name] for name in sorted(metrics)}
        metrics["trace.overhead_pct"] = (overhead, "%")
        notes = [f"tracing overhead: {overhead:+.2f}%, median over the operations of {len(pairs)} "
                 f"alternating pair(s) of traced over untraced scaled time; over whole rounds: "
                 + ", ".join(f"{o:+.2f}%" for o in per_pair),
                 "from the workload's own traced round: " + (", ".join(first["metrics"]) or "none"),
                 f"spans: {stem}-<pair>.json, {stem}-layers.json",
                 "self time per span name in the first traced round (s): " + ", ".join(
                     f"{k}={v:.3f}" for k, v in sorted(first["self_s"].items(), key=lambda kv: -kv[1]))]
        return [r for pair in pairs for r in pair], metrics, notes

    def run(self) -> dict:
        rounds, metrics, notes = self.traced() if self.args.trace else self.untraced()
        failed = [f for r in rounds for f in r["failed"]]
        wrong = [w for r in rounds for w in r["wrong"]]
        attempted = sum(len(r["times"]) for r in rounds)
        report = {
            "workload": self.args.workload, "seed": self.args.seed,
            "stream_seeds": self.args.stream_seeds, "trace": self.args.trace,
            "git_revision": git_revision(), "python": platform.python_version(),
            "cpu_count": os.cpu_count(), "cannot_measure": LIMITS, "notes": notes,
            "failed": failed, "wrong": wrong,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        os.makedirs(OUT, exist_ok=True)
        name = f"report-{self.args.workload}-seed{self.args.seed}-trace{self.args.trace}.json"
        with open(os.path.join(OUT, name), "w") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
        for key in ("workload", "seed", "stream_seeds", "git_revision", "python", "cpu_count", "cannot_measure"):
            print(f"{key}: {report[key]}")
        for line in notes + failed + wrong:
            print(line)
        for k, (v, u) in metrics.items():
            print(f"{k:45s} {v:14.6f} {u}")
        return {"correct": not wrong, "attempted": attempted, "failed": len(failed),
                "metrics": report["metrics"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--stream-seeds", default="0:20",
                        help="range lo:hi of stream seeds the workload seed draws from; "
                             "20:40 is held out for confirming a claimed gain")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "limitlearn", "__init__.py")):
        print(f"no limitlearn sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        result = Runner(args).run()
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
