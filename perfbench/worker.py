"""One repetition of a workload, in a fresh interpreter.

    python3 perfbench/worker.py MODE WORKLOAD SEED STREAM_SEEDS [SPANS_PATH]

MODE is ``setup`` (build the operation list and stop), ``round`` (run every
operation once), ``traced`` (the same with spans, written to SPANS_PATH) or
``layers`` (the per-layer probes of ``layers.py``, spans to SPANS_PATH).
The last line of standard output is a JSON object.  ``ready`` is the
``time.monotonic`` reading when the first operation could start, which the
parent compares with its own reading taken just before launch, and
``kernel_s`` the speed kernel's time right after it (see ``speed``).  A round
runs the kernel before the first operation and after every operation; it
reports each operation's wall time (``wall``) and that time scaled to the
reference speed by the mean of the kernel times on either side (``times``),
None where the operation raised.
"""
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv) -> dict:
    mode, workload, seed, stream_spec = argv[:4]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from speed import REFERENCE_S, kernel_s, scale
    from tracing import NO_TRACE, Tracer
    from workloads import build, stream_seed_range

    seed, stream_seeds = int(seed), stream_seed_range(stream_spec)
    if mode == "layers":
        import layers

        tracer = Tracer()
        out = {"ready": time.monotonic(), "metrics": layers.measure(workload, seed, stream_seeds, tracer)}
        tracer.dump(argv[4])
        return out
    ops = build(workload, seed, stream_seeds)
    out = {"ready": time.monotonic(), "kernel_s": kernel_s(), "wall": [], "times": [],
           "failed": [], "wrong": []}
    if mode == "setup":
        return out
    tracer = Tracer() if mode == "traced" else NO_TRACE
    kernels = [out["kernel_s"]]
    for op in ops:
        start = time.perf_counter()
        try:
            with tracer.span("op"):
                result = op.run(tracer)
            wall = time.perf_counter() - start
        except Exception:
            wall = result = None
            out["failed"].append(f"{op.label}: {traceback.format_exc(limit=-3)}")
        kernels.append(kernel_s())
        out["wall"].append(wall)
        out["times"].append(None if wall is None else wall * REFERENCE_S / ((kernels[-2] + kernels[-1]) / 2))
        if wall is None:
            continue
        try:
            op.check(result)
        except AssertionError as exc:
            out["wrong"].append(str(exc))
        del result
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer.enabled:
        import layers

        out["self_s"] = tracer.self_times()
        out["metrics"] = scale(layers.round_metrics(workload, tracer), statistics.median(kernels))
        tracer.dump(argv[4])
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
