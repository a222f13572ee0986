"""Growth-order sweeps: how cost grows with horizon, family size and stages.

    python3 perfbench/sweeps.py            # every sweep, table to stdout
    python3 perfbench/sweeps.py horizon    # one sweep: horizon, kron or diagonalize

Each point runs in a fresh interpreter so that its peak RSS is its own.
Results are also written to perfbench/out/sweeps.json.  The diagonalizer's
300-stage point takes tens of seconds and about 1.6 GB.
"""
import json
import os
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SWEEPS = {
    # separator learner on every kron6 member, fair informant, stream seed 0
    "horizon": (1_000, 3_000, 10_000, 30_000, 100_000),
    # separator learner on kron slice m, target kron(0), horizon 10^4, plus the
    # slice's language closure at 12 positions
    "kron": (2, 3, 4, 5, 6, 7, 8),
    # diagonalize(echo, 2, stages)
    "diagonalize": (50, 100, 150, 200, 300),
}


def point(kind: str, value: int) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import limitlearn as ll
    from limitlearn import bridge as B
    from workloads import corpus, kron_slice

    start = time.perf_counter()
    out = {}
    if kind == "horizon":
        members = corpus()["kron6"]
        runs = [ll.run_simulation(ll.learner_separator(members), ll.fair_informant(t, 0),
                                  value, t, "iso", 200) for t in members]
        out["converged"] = sum(r.converged for r in runs)
        out["runs"] = len(runs)
    elif kind == "kron":
        members = kron_slice(value)
        res = ll.run_simulation(ll.learner_separator(members), ll.fair_informant(members[0], 0),
                                10_000, members[0], "iso", 200)
        out["converged"] = res.converged
        out["simulate_s"] = time.perf_counter() - start
        mid = time.perf_counter()
        out["closure_size"] = len(B.language_closure([B.size_sequence_of(m) for m in members], 12))
        out["closure_s"] = time.perf_counter() - mid
    else:
        rep = ll.diagonalize(ll.learner_echo(), 2, value)
        out["ok"] = rep.ok
        out["items"] = len(rep.sigma_prefix) + len(rep.tau_prefix)
    out["seconds"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def main(argv) -> int:
    if argv[:1] == ["--point"]:
        print(json.dumps(point(argv[1], int(argv[2]))))
        return 0
    kinds = argv or list(SWEEPS)
    results = {}
    for kind in kinds:
        results[kind] = []
        for value in SWEEPS[kind]:
            proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--point", kind, str(value)],
                                  capture_output=True, text=True, cwd=ROOT, check=True)
            row = {"value": value, **json.loads(proc.stdout.splitlines()[-1])}
            results[kind].append(row)
            print(kind, json.dumps(row), flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "sweeps.json"), "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
