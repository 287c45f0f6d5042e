"""Run one workload untraced (end-to-end metrics) or traced (per-layer metrics).

Both modes first time set-up and run the accuracy set, which also warms the
process up. A trace-0 run then runs distinct rounds of units for about
``--seconds``, ends with a repeat of round 0, takes ``peak_rss_mb`` from a
memory probe in a child process, and gates on digests, failures and the
workload's own checks. A trace-1 run runs the units of the
first ``traced_rounds`` rounds, each once untraced and once traced, gates on
equal digests between the two, and reports the per-layer metrics and the
tracing overhead.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time

import espritsim
from environment import environment, source_digest
from tracer import Tracer, layer_metrics
from workloads import MAX_FAILURE_RATE, PER_TRIAL_METHODS, ROOT, WORKLOADS

OUT = ROOT / "perfbench" / "out"
SETUP_MIN_REPS = 7
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPS = 200

# glibc moves the threshold above which malloc maps a block on its own after
# each such block is freed, so whether the rate model's ~31 MiB dense channels
# reuse resident heap or map fresh pages depends on allocation history (the
# process peak flips between two values ~32 MiB apart with PYTHONHASHSEED).
# The probe fixes the threshold, which turns the adjustment off: every large
# array is mapped, returned on free, and the peak is that of the live arrays.
PROBE_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
PROBE_TIMEOUT_S = 120

ACCURACY_METRICS = ("rmse_los_angle_rad_30db", "rmse_pos_m_30db", "rate_bps_hz_30db")

# per-layer counters that must repeat exactly across traced runs of one seed
EXACT_COUNTERS = ("fastsvd.hankel_matvec.calls", "fastsvd.lanczos_steps",
                  "shift.lifted_selectors.calls", "tensor_esprit.cp_iterations",
                  "esprit.auto_pair.beta_redraws", "slac.rate_terms.bytes_computed",
                  "kernels.svd_thin.calls", "kernels.lstsq_pinv.calls")


def time_setup(workload):
    """Median wall time of the per-config set-up over several repetitions."""
    times = []
    deadline = time.perf_counter() + SETUP_MIN_SECONDS
    while len(times) < SETUP_MIN_REPS or (time.perf_counter() < deadline
                                          and len(times) < SETUP_MAX_REPS):
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), len(times)


def memory_probe(name, seed):
    """Child side of ``probe_peak_rss``: set-up once, then the accuracy set on
    one thread, so that no two trials' arrays overlap by chance."""
    workload = WORKLOADS[name](seed)
    workload.threads = 1
    workload.setup()
    accuracy = workload.accuracy()
    return json.dumps({"peak_rss_mb": vm_hwm_mb(), "accuracy": accuracy})


def probe_peak_rss(name, seed):
    """Run ``memory_probe`` in a fresh process under ``PROBE_ENV``; returns its
    peak RSS in MiB and its accuracy metrics."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", "0", "--memory-probe"]
    proc = subprocess.run(cmd, env={**os.environ, **PROBE_ENV}, capture_output=True,
                          text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["peak_rss_mb"], out["accuracy"]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb():
    """Peak RSS of this process image. Unlike ``ru_maxrss``, which a child
    inherits from the parent it was forked from, VmHWM starts afresh at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_round(workload, r, results):
    t0 = time.perf_counter()
    size = workload.round_size
    batch = workload.run_units(range(r * size, (r + 1) * size))
    results.extend(batch)
    return sum(res.attempted for _, res in batch) / (time.perf_counter() - t0)


def run_traced(workload, tracer):
    """The first ``traced_rounds`` rounds twice, each unit untraced and then
    traced, so that a drift in machine speed falls on both sides alike.

    Returns both result lists and both wall times.
    """
    untraced, traced = [], []
    walls = [0.0, 0.0]
    units = range(workload.traced_rounds * workload.round_size)
    for step in [None] + list(units):
        for side, sink in ((0, untraced), (1, traced)):
            if side:
                tracer.install()
            t0 = time.perf_counter()
            try:
                if step is None:
                    workload.begin_pass()
                else:
                    sink.append((step, workload.unit(step)))
            finally:
                walls[side] += time.perf_counter() - t0
                if side:
                    tracer.uninstall()
    return untraced, traced, walls[0], walls[1]


def run_for(workload, seconds):
    """Distinct rounds while one more and the repeat of round 0 still fit in
    ``seconds``, then the repeat. Returns the unit results and the trials/s
    of every round.
    """
    t0 = time.perf_counter()
    workload.begin_pass()
    results = []
    rates = [run_round(workload, 0, results)]
    first = time.perf_counter() - t0
    while time.perf_counter() - t0 + 2 * first <= seconds:
        rates.append(run_round(workload, len(rates), results))
    rates.append(run_round(workload, 0, results))
    return results, rates


def digest_problems(workload, results, seed, source):
    """Units with equal inputs must give equal digests, in this run and across
    earlier runs of the same seed on the same sources (kept in ``out/``)."""
    problems = []
    seen = {}
    for k, res in results:
        key = str(k)
        if seen.setdefault(key, res.digest) != res.digest:
            problems.append(f"unit {key} repeated with a different digest")
    path = OUT / f"digests-{workload.name}-seed{seed}-{source[:16]}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    for key, digest in seen.items():
        if earlier.setdefault(key, digest) != digest:
            problems.append(f"unit {key} digest differs from an earlier run of this seed")
    path.write_text(json.dumps(earlier, indent=1, sort_keys=True))
    return problems


def failure_summary(results):
    """Attempted/failed trials per method, and every error class seen."""
    per_method = {}
    errors = {}
    for _, res in results:
        att, fail = per_method.get(res.method, (0, 0))
        per_method[res.method] = (att + res.attempted, fail + res.failed)
        for name, count in res.errors.items():
            errors[name] = errors.get(name, 0) + count
    problems = [f"{m}: {fail}/{att} trials failed (cap {MAX_FAILURE_RATE:.0%})"
                for m, (att, fail) in sorted(per_method.items())
                if fail > MAX_FAILURE_RATE * att]
    return per_method, errors, problems


def per_method_ms(results):
    out = {}
    for method in PER_TRIAL_METHODS:
        sel = [res for _, res in results if res.method == method]
        trials = sum(r.attempted for r in sel)
        out[f"ms_per_trial.{method}"] = (1e3 * sum(r.seconds for r in sel) / trials
                                         if trials else 0.0)
    return out


def run(name, seed, seconds, trace, blas_vars):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    source = source_digest()
    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed)
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    problems = []

    setup_s, setup_reps = time_setup(workload)
    try:
        accuracy = workload.accuracy()
    except Exception as exc:   # a broken accuracy set fails the gate, not the run
        problems.append(f"accuracy set: {type(exc).__name__}: {exc}")
        accuracy = dict.fromkeys(ACCURACY_METRICS, 0.0)
    detail.update(setup_reps=setup_reps, accuracy=accuracy)
    if not trace:
        results, rates = run_for(workload, seconds)
        process_rss_mb = peak_rss_mb()
        try:
            probe_rss_mb, probe_accuracy = probe_peak_rss(name, seed)
        except Exception as exc:   # a failed probe fails the gate, not the run
            problems.append(f"memory probe: {type(exc).__name__}: {exc}")
            probe_rss_mb, probe_accuracy = 0.0, accuracy
        if probe_accuracy != accuracy:
            problems.append(f"accuracy set on one thread {probe_accuracy} differs "
                            f"from {workload.threads} threads {accuracy}")
        attempted = sum(r.attempted for _, r in results)
        failed = sum(r.failed for _, r in results)
        metrics = {"setup_s": setup_s, "trials_per_s": statistics.median(rates),
                   "peak_rss_mb": probe_rss_mb, **accuracy}
        unit_ms = [1e3 * r.seconds for _, r in results]
        detail.update(process_peak_rss_mb=process_rss_mb, round_trials_per_s=rates,
                      unit_ms_p50=statistics.median(unit_ms),
                      unit_ms_p90=statistics.quantiles(unit_ms, n=10)[-1],
                      unit_count=len(unit_ms), **per_method_ms(results))
        wanted = spec["end_to_end"]
    else:
        tracer = Tracer(espritsim)
        untraced, results, wall_u, wall = run_traced(workload, tracer)
        for (k, a), (_, b) in zip(untraced, results):
            if a.digest != b.digest:
                problems.append(f"unit {k}: traced digest differs from untraced")
        attempted = sum(r.attempted for _, r in results)
        failed = sum(r.failed for _, r in results)
        metrics = layer_metrics(tracer, attempted)
        metrics.update(per_method_ms(untraced))
        metrics["trials_per_s.untraced"] = attempted / wall_u
        metrics["trials_per_s.traced"] = attempted / wall
        metrics["failed_trial_ratio"] = failed / attempted
        problems += counter_problems(name, seed, source, metrics)
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        with open(spans_path, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s.as_dict()) + "\n")
        detail.update(wall_untraced_s=wall_u, wall_traced_s=wall,
                      spans=len(tracer.spans), spans_file=spans_path.name,
                      errors_by_module=sorted({f"{m}.{c}" for m, c in tracer.errors}))
        wanted = spec["per_layer"]

    problems += digest_problems(workload, results, seed, source)
    per_method, errors, fail_problems = failure_summary(results)
    problems += fail_problems
    problems += workload.checks(results)

    out_metrics = {}
    for m in wanted:
        if m["name"] not in metrics:
            raise RuntimeError(f"metric {m['name']} was not produced")
        out_metrics[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
    line = {"correct": not problems, "attempted": int(attempted),
            "failed": int(failed), "metrics": out_metrics}
    detail.update(
        correct=not problems, problems=problems, metrics=metrics,
        trials_per_method={m: {"attempted": a, "failed": f}
                           for m, (a, f) in per_method.items()},
        errors=errors,
        units=[{"unit": k, "method": r.method, "seconds": r.seconds,
                "attempted": r.attempted, "failed": r.failed, "digest": r.digest}
               for k, r in results],
        projector_gap=getattr(workload, "projector_gap", None),
        environment=environment(workload.threads, blas_vars))
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True))
    return json.dumps(line)


def counter_problems(name, seed, source, metrics):
    """Exact counters must match an earlier traced run of the same seed."""
    counters = {k: metrics[k] for k in EXACT_COUNTERS}
    counters.update({k: v for k, v in metrics.items() if ".errors." in k or k == "errors.other"})
    path = OUT / f"counters-{name}-seed{seed}-{source[:16]}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"counter {k}: {earlier.get(k)} earlier, {v} now"
                for k, v in sorted(counters.items()) if earlier.get(k) != v]
    path.write_text(json.dumps(counters, indent=1, sort_keys=True))
    return []
