"""Benchmark of platetx: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-reference

Run from the root of a checkout; platetx is imported from its ``src``.
BLAS/OpenMP threads are pinned to 1 and experiment output goes to a
temporary directory under ``perfbench/_out`` that is removed at the end.
With ``--trace 0`` the end-to-end metrics are measured with tracing off;
with ``--trace 1`` the same units run alternately untraced and traced and
the per-layer metrics come from the spans (the first two traced passes are
written to ``perfbench/_out/spans-<workload>-<seed>.jsonl``). The last line
of standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``; ``failed / attempted`` is the fail_ratio printed above it. The
amplitude probes record a known Picard defect, so they are printed (and
counted as ``probe.failed`` when traced) but kept out of ``failed`` and of
every time. ``--write-reference`` regenerates ``perfbench/reference.json``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
# relative tolerance of the stored reference values. Loosening the scheme's
# tolerances tenfold moves them by 2e-14 (simulate) and 1e-11 (difference,
# whose energy is ~1e-6 of the state's); the margin admits another solver
# that meets the same tolerances.
REFERENCE_RTOL = {"simulate": 1e-9, "difference": 1e-8, "observe": 1e-9}


def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cores": os.cpu_count(),
            "cores_usable": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OMP_NUM_THREADS"]}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(xs):
    return statistics.median(xs) if xs else 0.0


def end_to_end(bench, w, ctx, seed, seconds, setup_s, report):
    outcomes = bench.timed_units(w, ctx, seed, seconds)
    done = [o for o in outcomes if o.seconds > 0]
    # the mean over many units averages out both the seeds' differing work
    # (Picard sweeps) and the machine's speed drift better than a median
    run_s = sum(o.seconds for o in done) / len(done) if done else 0.0
    per_s = w.items / run_s if run_s else 0.0
    report(f"units {len(outcomes)} x {w.items} {w.item_name} "
           f"(run.seed {1000 * seed}..{1000 * seed + len(outcomes) - 1})")
    metrics = {
        "run_s": (run_s, "s"),
        "items_per_s": (per_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return outcomes, metrics


def traced(bench, spans, w, ctx, seed, seconds, report):
    """Untraced and traced runs of the same unit, alternating, for
    ``seconds`` (two pairs at least); per-layer metrics of the first traced
    pass, and a problem for every exact count another pass does not
    repeat. The spans of the first two traced passes are written out."""
    path = OUT / f"spans-{w.name}-{seed}.jsonl"
    path.unlink(missing_ok=True)
    outcomes, plain, timed, passes = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < 2 or time.perf_counter() < deadline:
        o = bench.run_unit(w, ctx, 1000 * seed)
        outcomes.append(o)
        plain.append(o.seconds)
        tracer = spans.Tracer(f"{w.name}-{seed}-{len(passes)}")
        with spans.installed(tracer):
            tctx, _ = bench.setup(w)
            o = bench.run_unit(w, tctx, 1000 * seed)
        outcomes.append(o)
        timed.append(o.seconds)
        if len(passes) < 2:
            tracer.write(path)
        passes.append(spans.layer_metrics(tracer.spans))
    m = passes[0]
    problems = [f"count {k} differs between traced passes: "
                f"{[p[k] for p in passes]}"
                for k in spans.EXACT if k in m
                and any(p[k] != m[k] for p in passes[1:])]
    m["trace.overhead_ratio"] = median(timed) / median(plain)
    report(f"traced {len(passes)} passes of run.seed {1000 * seed}; "
           f"spans in {path.relative_to(ROOT)}")
    if w.kind != "observe":
        report(f"table {w.name}: ms/step {1e3 * median(plain) / w.items:.1f}"
               f"  picard sweeps {m['stepper.picard_sweeps.per_step']:.2f}"
               f"  outer CG its/step {m['stepper.cg_outer.per_step']:.1f}"
               f"  thermal LU solves/step "
               f"{m['stepper.solve_h.per_step']:.1f}")
    return outcomes, problems, {name: (m[name], unit)
                                for name, unit, _, _ in spans.PER_LAYER
                                if name in m}


def run(args, report):
    from perfbench import bench, spans
    w = bench.WORKLOADS[args.workload]
    env = environment()
    report("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    with open(bench.REFERENCE_PATH) as f:
        reference = json.load(f)

    setup_s, ctx = bench.measure_setup(w)
    warm = bench.run_unit(w, ctx, bench.REFERENCE_SEED)
    problems = list(warm.problems)
    if warm.values:
        problems += bench.compare_reference(w, warm.values, reference)

    if args.trace:
        outcomes, count_problems, metrics = traced(
            bench, spans, w, ctx, args.seed, args.seconds, report)
        problems += count_problems
    else:
        outcomes, metrics = end_to_end(bench, w, ctx, args.seed, args.seconds,
                                       setup_s, report)
    outcomes = [warm] + outcomes
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    for o in outcomes:
        problems += o.problems

    probes = bench.run_probes(w, args.seed)
    for amp, err in probes:
        report(f"probe amplitude {amp:g}: "
               + ("ok" if err is None else f"failed ({err})"))
    probe_failed = sum(err is not None for _, err in probes)
    if args.trace:
        metrics["probe.failed"] = (probe_failed, "count")
    names = {"items_per_s": f"{w.item_name}_per_s (items_per_s)"}
    for k, (v, unit) in metrics.items():
        report(f"{names.get(k, k):<30} {v:.6g} {unit}")
    report(f"{'fail_ratio':<30} {failed / attempted:.6g} "
           f"({failed} of {attempted} operations)")
    if probes:
        report(f"{'probe failures':<30} {probe_failed} of {len(probes)} "
               "amplitude probes (outside fail_ratio and every time)")
    for p in problems:
        report("problem: " + p)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def write_reference():
    from perfbench import bench
    ref = {}
    for name, w in bench.WORKLOADS.items():
        ctx, _ = bench.setup(w)
        ref[name] = bench.make_reference(w, ctx, REFERENCE_RTOL[w.kind])
    with open(bench.REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1)
        f.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "platetx").is_dir():
        print(f"perfbench: no platetx sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    for var in THREAD_VARS:
        os.environ[var] = "1"
    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="platetx-", dir=OUT)
    os.environ["PLATETX_OUT"] = tmp
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        if args.write_reference:
            write_reference()
            return 0
        from perfbench import bench
        if args.workload not in bench.WORKLOADS:
            parser.error("--workload must be one of "
                         f"{sorted(bench.WORKLOADS)}")
        result = run(args, print)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
