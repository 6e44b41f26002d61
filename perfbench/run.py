#!/usr/bin/env python3
"""Repository benchmark: one closed-loop workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload gcd-immdr --seed 1 --seconds 10 --trace 0

Workloads: ``gcd-immdr``, ``corel-gldr``, ``gcd-ingest`` (the ones
``BENCHMARK.json`` declares) and ``gcd-served`` (see
``perfbench/README.md``).  The inputs are generated from ``--seed``;
one client measures for ``--seconds``; every answer is checked against an
exact oracle.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
runs the workload untraced and then traced and prints the per-layer
metrics.  The last stdout line is the result object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by one line of advisory JSON (host-speed probe, sample counts,
exact counts).  Exit status is 0 only for a correct run.
"""

import os

# Pin BLAS / OpenMP pools to one thread before numpy is imported: the run
# is one client process, and threaded BLAS moves both timings and RSS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool,
        setups: int = 3, **sizes) -> dict:
    """Measure one workload; returns the result object, the advisory
    fields and the span recorder (``None`` untraced)."""
    from report import (
        END_TO_END,
        PER_LAYER,
        end_to_end,
        normalized,
        per_layer,
        per_query_medians,
    )
    from workloads import host_probe_s, make_workload, tail

    OUT.mkdir(exist_ok=True)
    probe_before = host_probe_s(reps=10)
    wl = make_workload(workload, OUT, **sizes)
    advisory = {"workload": workload, "seed": seed}
    recorder = None
    if not trace:
        plain = wl.measure(seed, seconds, setups)
        passes = [plain]
        values = end_to_end(plain)
        table = END_TO_END
    else:
        from tracing import SpanRecorder, default_targets

        recorder = SpanRecorder()
        legs = [wl]
        if wl.traced_companion is not None:
            legs.append(make_workload(wl.traced_companion, OUT, **sizes))
        passes = []
        for leg in legs:
            leg_seconds = seconds if leg is wl else seconds / 2
            plain = leg.measure(seed, leg_seconds, 1)
            with recorder.installed(default_targets()):
                traced = leg.measure(seed, leg_seconds, 1, recorder)
            if traced.exact != plain.exact:
                plain.fail(
                    f"{leg.name}: exact counts differ under tracing: "
                    f"{plain.exact} vs {traced.exact}"
                )
            passes += [plain, traced]
        plain = passes[0]
        values = per_layer(
            plain, passes[1], recorder,
            served=passes[3] if len(passes) > 2 else None,
        )
        table = PER_LAYER
    advisory.update({
        "host_probe_ms_before": probe_before * 1e3,
        "host_probe_ms_after": host_probe_s(reps=10) * 1e3,
        "host_probe_ms_median": statistics.median(plain.knn_h) * 1e3,
        "knn_samples": len(plain.knn_s),
        "knn_queries": len(set(plain.knn_q)),
        "knn_tail_percentile": tail(per_query_medians(
            normalized(plain.knn_s, plain.knn_h), plain.knn_q
        ))[1],
        "raw_knn_p50_ms": statistics.median(plain.knn_s) * 1e3,
        "raw_knn_tail_ms": tail(plain.knn_s)[0] * 1e3,
        "raw_knn_qps": len(plain.knn_s) / sum(plain.knn_s),
        "raw_batch_rows_per_s": plain.batch_rows / sum(plain.batch_s),
        "batch_requests": len(plain.batch_s),
        "write_ops": len(plain.write_s),
        "setup_s_all": [round(s, 4) for s in plain.setup_s],
        "measured_s": round(plain.seconds, 3),
        "exact": plain.exact,
        "failures": [r for p in passes for r in p.reasons],
    })
    result = {
        "correct": all(p.failed == 0 for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _ in table
        },
    }
    return {"result": result, "advisory": advisory, "recorder": recorder}


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if out["recorder"] is not None:
        path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
        out["advisory"]["spans_file"] = str(path.relative_to(ROOT))
        out["advisory"]["spans_written"] = out["recorder"].write_jsonl(path)
    print(json.dumps(out["advisory"], sort_keys=True))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
