"""affectkit benchmark: one workload, one process, one JSON result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train_coupled --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs each phase once untraced and once traced, reports the
per-layer metrics and the tracing overhead, and writes the spans to
``.perfbench_out/``. The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
restate every metric with its unit, the failure ratio with its base, and
the environment. ``--scale`` shrinks every input for smoke tests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

# One BLAS thread: the arrays are small, and a fixed count keeps runs steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "final_loss": "loss",
    "eval_samples_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "peak_rss_mb": "MB",
}
# The measuring time is cut into rounds; in each round every phase runs
# until it has used its share of the time so far, so every metric samples
# the whole run rather than one stretch of a shared machine's varying speed.
ROUNDS = 24
SETUP_TOTAL_S = 1.0  # set-up repeats get this much time on top of --seconds
WARMUP_REQUESTS = 64
# Calibration bursts follow every phase slice; requests are short, so the
# serve phase also probes the kernel once every SERVE_PROBE_S and its
# samples use the bursts within SERVE_WINDOW_S rather than WINDOW_S.
WINDOW_S = 1.0
SERVE_PROBE_S = 0.05
SERVE_WINDOW_S = 0.15
TRACE_REQUESTS = 200


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # the config layout differs between numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def _median(values):
    if not values:
        raise RuntimeError("no successful measurement")
    return float(statistics.median(values))


def end_to_end(session, seconds: float, workloads, calibration) -> tuple:
    spec = session.spec
    # Warm-up, not measured: the first jobs give the models the reload
    # check, scoring and serving use; lazy first-call costs are paid here.
    session.train(0.0, min_reps=spec.members)
    session.check_reload()
    session.setup(0.0, min_reps=1)
    session.fusion_weights(session.scoring_models)
    session.score(0.0, min_reps=1)
    session.serve(0.0, min_requests=WARMUP_REQUESTS)
    session.measured = {p: [] for p in session.measured}
    session.sampled_at = {p: [] for p in session.sampled_at}

    share_train, share_score, share_serve = spec.shares
    budget = {
        "train": seconds * share_train,
        "setup": SETUP_TOTAL_S,
        "score": seconds * share_score,
        "serve": seconds * share_serve,
    }
    run_phase = {
        "train": lambda b: session.train(b, min_reps=0),
        "setup": lambda b: session.setup(b, min_reps=0),
        "score": lambda b: session.score(b, min_reps=0),
        "serve": lambda b: session.serve(b, min_requests=0),
    }
    used = dict.fromkeys(budget, 0.0)
    cal = calibration.Calibrator()
    cal.burst()
    for r in range(ROUNDS):
        for phase in budget:
            allowed = budget[phase] * (r + 1) / ROUNDS - used[phase]
            if allowed <= 0:
                continue
            if phase == "serve":
                start = time.perf_counter()
                while True:
                    run_phase[phase](SERVE_PROBE_S)
                    cal.burst(repeats=1)
                    if time.perf_counter() - start >= allowed:
                        break
            else:
                start = time.perf_counter()
                run_phase[phase](allowed)
            used[phase] += time.perf_counter() - start
            cal.burst()

    raw = session.measured
    speed = {
        p: cal.factors(session.sampled_at[p], SERVE_WINDOW_S if p == "serve" else WINDOW_S)
        for p in raw
    }
    setup_times = [t * f for t, f in zip(raw["setup"], speed["setup"])]
    train_rates = [x / f for x, f in zip(raw["train"], speed["train"])]
    score_rates = [x / f for x, f in zip(raw["score"], speed["score"])]
    latencies = [t * f for t, f in zip(raw["serve"], speed["serve"])]
    q, tail = workloads.tail_percentile(latencies)
    values = {
        "setup_s": _median(setup_times),
        "train_samples_per_s": _median(train_rates),
        "final_loss": float(statistics.fmean(session.final_losses)),
        "eval_samples_per_s": _median(score_rates),
        "request_p50_ms": _median(latencies),
        "request_p99_ms": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"setup_s: median of {len(setup_times)} set-ups",
        f"train_samples_per_s: median of {len(train_rates)} train_run jobs, "
        f"{session.n_train} samples x {spec.epochs} epochs each",
        f"final_loss: mean last-epoch loss of {len(session.final_losses)} member(s)",
        f"eval_samples_per_s: median of {len(score_rates)} scoring passes over "
        f"{len(session.heldout)} held-out samples x {len(session.scoring_models)} member(s)",
        f"request_p50_ms / request_p99_ms: {len(latencies)} requests; "
        f"request_p99_ms is the p{q * 100:g}",
        f"calibration: {len(cal.bursts)} kernel bursts; median speed factor "
        + ", ".join(f"{p} {_median(f):.4f}" for p, f in speed.items())
        + f"; uncalibrated medians: setup_s {_median(raw['setup']):.6g}, "
        f"train_samples_per_s {_median(raw['train']):.6g}, "
        f"eval_samples_per_s {_median(raw['score']):.6g}, "
        f"request_p50_ms {_median(raw['serve']):.6g}",
    ]
    samples = {"measured": raw, "sampled_at": session.sampled_at, "speed": speed,
               "bursts": cal.bursts}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, notes, samples


def traced(session, tracing) -> tuple:
    """One untraced and one traced pass over every phase of the workload."""
    n_requests = max(20, int(TRACE_REQUESTS * min(1.0, session.scale)))

    def one_pass(tag: str) -> float:
        start = time.perf_counter()
        session.train(0.0, min_reps=session.spec.members, out_tag=tag)
        session.setup(0.0, min_reps=1)
        session.fusion_weights(session.scoring_models)
        session.score(0.0, min_reps=1, out_tag=tag)
        session.serve(0.0, min_requests=n_requests, max_requests=n_requests)
        return time.perf_counter() - start

    originals = [getattr(o, a, None) for o, a in tracing.patch_targets()]
    one_pass("-warmup")  # first-call costs would otherwise land on the untraced pass
    untraced_s = one_pass("-untraced")
    tracer = tracing.Tracer()
    session.tracer = tracer
    with tracer:
        traced_s = one_pass("-traced")
    session.tracer = None

    tally = session.tally
    tally.attempted += 1
    restored = [getattr(o, a, None) for o, a in tracing.patch_targets()]
    if any(x is not y for x, y in zip(originals, restored)):
        tally.fail("tracer left a wrapper installed")
    for config in session.member_configs:
        tally.attempted += 1
        with open(os.path.join(config.out_dir + "-untraced", "model.ckpt"), "rb") as fh:
            plain = fh.read()
        with open(os.path.join(config.out_dir + "-traced", "model.ckpt"), "rb") as fh:
            seen = fh.read()
        if plain != seen:
            tally.fail(f"{config.out_dir}: traced checkpoint bytes differ from untraced")

    n_eval = len(session.heldout) * len(session.scoring_models)
    metrics = tracing.layer_metrics(tracer, n_eval, untraced_s, traced_s)
    spans_path = os.path.join(OUT, f"spans-{session.spec.name}-seed{session.seed}.jsonl")
    tracer.write_spans(spans_path)
    notes = [
        f"traced pass: {len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}",
        f"untraced pass {untraced_s:.4f} s, traced pass {traced_s:.4f} s",
    ]
    if tracer.missing:
        notes.append("not traced (absent from the program): " + ", ".join(tracer.missing))
    return metrics, notes, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "affectkit", "__init__.py")):
        print(f"perfbench: no affectkit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import calibration
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.scale <= 0:
        print("perfbench: --seconds and --scale must be positive", file=sys.stderr)
        return 2

    env = environment(args)
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        session = workloads.Session(
            workloads.WORKLOADS[args.workload], args.seed, workdir, scale=args.scale
        )
        session.prepare()
        if args.trace:
            metrics, notes, samples = traced(session, tracing)
        else:
            metrics, notes, samples = end_to_end(session, args.seconds, workloads, calibration)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    tally = session.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result_path = os.path.join(
        OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    )
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"env": env, "notes": notes, **result, **samples}, fh)

    print(f"# env {json.dumps(env)}")
    for note in notes:
        print(f"# {note}")
    print(f"# failed_ratio {tally.failed / tally.attempted:.6g} "
          f"({tally.failed} of {tally.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
