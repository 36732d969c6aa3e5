"""prolongkit benchmark: closed-loop workloads, end to end and per layer.

Usage, from anywhere inside a checkout:

    python3 bench/run.py --workload all                 # every workload, untraced
    python3 bench/run.py --workload op-battery --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cli-corpus --trace 1   # per-layer metrics
    python3 bench/run.py --write-golden                 # refresh cli goldens

One process, one thread, one case at a time.  Inputs come from --seed and
are generated before the timed window; prolongkit only receives them.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it is the full report with the run's
metadata (also written under bench/out/).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import SpeedProbe
from tracing import COUNTERS, GCD_ROUTES, SPANS, Tracer
from workloads import WORKLOADS, CliCorpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
# outputs, relative to ROOT (the working directory) so that file names in
# CLI output are the same in every checkout
OUT = Path(BENCH.name) / "out"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# at least ten samples beyond p95
MIN_CASES = 200
# fresh processes that repeat set-up; setup_s is the median with our own
SETUP_PROBES = 6
# seconds of cases between two speed probes in the timed window
SEGMENT_S = 0.5
PROBE_TIMEOUT_S = 60

E2E_UNITS = {"cases_per_s": "1/s", "case_ms_p50": "ms", "case_ms_p95": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}


def _git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def _src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def metadata(args, workload: str) -> dict:
    return {
        "workload": workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "src_lines": _src_lines(),
    }


# set-up -------------------------------------------------------------------

def import_package(wl) -> float:
    """Import prolongkit (from this checkout's src/) and the workload's
    modules; returns the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("prolongkit")
    for name in wl.modules:
        importlib.import_module(name)
    elapsed = time.perf_counter() - start
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported prolongkit from {pkg.__file__}, "
                           f"not from {SRC}")
    return elapsed


def run_warmup(wl) -> tuple[float, list[str]]:
    """Generate the warm-up cases (untimed), then run them (timed)."""
    cases = wl.warmup(OUT)
    _, failures, wall = run_cases(wl, cases, count=len(cases))
    return wall, [f"warm-up {msg}" for msg in failures]


def setup_probes(args, count: int) -> list[float]:
    """setup_s of `count` fresh processes, one after another."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


# timed loops --------------------------------------------------------------

def run_case(wl, case, n, failures) -> int:
    """Run and verify one case; returns its latency in ns.  An exception
    fails its case only."""
    t = time.perf_counter_ns()
    try:
        output = wl.execute(case)
        err = None
    except Exception as e:  # a raising case is a failed case
        err = f"{type(e).__name__}: {e}"
    lat = time.perf_counter_ns() - t
    if err is None:
        try:
            err = wl.verify(case, output)
        except Exception as e:  # so is one the verifier cannot read
            err = f"verifier raised {type(e).__name__}: {e}"
    if err:
        failures.append(f"case {n}: {err}")
    return lat


def run_cases(wl, cases, *, count, tracer=None):
    """Closed loop over exactly `count` cases.  Returns (latencies in ns,
    failures, wall seconds)."""
    lat, failures = [], []
    start = time.perf_counter()
    for n in range(count):
        if tracer is not None:
            tracer.case_id = n
        lat.append(run_case(wl, cases[n % len(cases)], n, failures))
    return lat, failures, time.perf_counter() - start


def run_window(wl, cases, seconds, probe):
    """The timed window: a closed loop over cases, in segments of
    SEGMENT_S with a speed probe before each segment and after the last,
    until `seconds` have passed and at least MIN_CASES ran.  Returns
    (raw latencies in ns, speed factor of each case, probe factors,
    failures, wall seconds)."""
    lat, seg_of, failures = [], [], []
    factors = [probe.factor(1)]
    n = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        seg_end = time.perf_counter() + SEGMENT_S
        while True:
            lat.append(run_case(wl, cases[n % len(cases)], n, failures))
            seg_of.append(len(factors) - 1)
            n += 1
            if time.perf_counter() >= seg_end:
                break
        factors.append(probe.factor(1))
        if n >= MIN_CASES and time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    # segment k lies between probes k and k+1; its factor is the median of
    # the probes k-1 .. k+2, so that one disturbed probe does not count
    local = [statistics.median(factors[max(0, k - 1):k + 3])
             for k in range(len(factors) - 1)]
    return lat, [local[k] for k in seg_of], factors, failures, wall


def measure(args, wl) -> dict:
    t_import = import_package(wl)
    t0 = time.perf_counter()
    cases = wl.generate(args.seed, args.seconds, OUT)
    gen_s = time.perf_counter() - t0
    t_warm, failures = run_warmup(wl)
    probe = SpeedProbe()
    own_setup = (t_import + t_warm) / probe.factor()
    fresh = setup_probes(args, SETUP_PROBES)
    # the pre-generated inputs and the probe's table are the benchmark's,
    # not the program's: keep them out of the collector's scans
    gc.collect()
    gc.freeze()
    lat, case_factor, factors, case_failures, wall = run_window(
        wl, cases, args.seconds, probe)
    failures += case_failures
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat_ms = [v / 1e6 / f for v, f in zip(lat, case_factor)]
    raw_ms = [v / 1e6 for v in lat]
    pct = statistics.quantiles(lat_ms, n=100, method="inclusive")
    raw_pct = statistics.quantiles(raw_ms, n=100, method="inclusive")
    n = len(lat)
    values = {
        "cases_per_s": n / (sum(lat_ms) / 1e3),
        "case_ms_p50": pct[49],
        "case_ms_p95": pct[94],
        "setup_s": statistics.median([own_setup] + fresh),
        "peak_rss_mb": rss_kb / 1024,
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    report = {
        "metadata": metadata(args, wl.name),
        "cases": n,
        "distinct_inputs": min(n, len(cases)),
        "latency_samples": n,
        "beyond_p95": sum(1 for v in lat_ms if v > values["case_ms_p95"]),
        "failed_frac": len(case_failures) / n,
        "window_s": wall,
        "speed_factors": {"median": statistics.median(factors),
                          "min": min(factors), "max": max(factors),
                          "probes": len(factors)},
        # the same statistics before dividing by the speed factor
        "unadjusted": {"cases_per_s": n / (sum(raw_ms) / 1e3),
                       "case_ms_p50": raw_pct[49],
                       "case_ms_p95": raw_pct[94],
                       "cases_per_wall_s": n / wall},
        "generate_s": gen_s,
        "setup_samples_s": [own_setup] + fresh,
        "import_s": t_import,
        "warmup_s": t_warm,
        "failures": failures[:20],
    }
    return {"correct": not failures, "attempted": n,
            "failed": len(case_failures), "metrics": metrics, "report": report}


def traced_pass(wl, trace_set):
    """One pass with every wrapper installed; returns the tracer and the
    run_cases results."""
    tracer = Tracer()
    tracer.install()
    try:
        return (tracer, *run_cases(wl, trace_set, count=len(trace_set),
                                   tracer=tracer))
    finally:
        tracer.uninstall()


def check_previous_run(wl, args, calls: dict, trace_cases: int) -> str | None:
    """Compare call counts with the last traced run of this workload and
    seed on the same sources, then record this run's."""
    path = OUT / f"calls-{wl.name}-seed{args.seed}.json"
    record = {"src_sha256": _src_digest(), "trace_cases": trace_cases,
              "calls": calls}
    msg = None
    if path.exists():
        previous = json.loads(path.read_text())
        same_input = all(previous[k] == record[k]
                         for k in ("src_sha256", "trace_cases"))
        if same_input and previous["calls"] != calls:
            msg = (f"call counts differ from the previous traced run with "
                   f"this seed ({path.as_posix()})")
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return msg


def layer_metrics(calls: dict, self_s: dict, overhead: float) -> dict:
    values = {}
    for name, _, _ in SPANS:
        values[f"{name}.calls"] = (calls.get(name, 0), "count")
        values[f"{name}.self_s"] = (
            statistics.median(self_s[name]) if name in self_s else 0.0, "s")
    values["ratfield.RatFunc.new.calls"] = (
        calls.get("ratfield.RatFunc.new", 0), "count")
    for route, name in GCD_ROUTES.items():
        values[f"ratfield.gcd.{route}_calls"] = (calls.get(name, 0), "count")
    probe, modular = GCD_ROUTES["probe"], GCD_ROUTES["modular"]
    values["ratfield.gcd.probe_conclusive_ratio"] = (
        calls.get(probe + ".hit", 0) / max(1, calls.get(probe, 0)), "ratio")
    values["ratfield.gcd.modular_fallback_ratio"] = (
        calls.get(modular + ".hit", 0) / max(1, calls.get(modular, 0)), "ratio")
    values["trace.overhead_s"] = (overhead, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def measure_traced(args, wl) -> dict:
    """Alternate untraced and traced passes over a fixed prefix of the
    cases until --seconds have passed, with at least two traced passes."""
    import_package(wl)
    trace_set = wl.generate(args.seed, args.seconds, OUT)[:wl.trace_cases]
    _, failures = run_warmup(wl)
    gc.collect()
    gc.freeze()
    untraced, traced, self_s = [], [], {}
    calls = tracer = None
    attempted = failed = 0
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        lat, fails, wall = run_cases(wl, trace_set, count=len(trace_set))
        untraced.append(wall)
        tracer, t_lat, t_fails, t_wall = traced_pass(wl, trace_set)
        traced.append(t_wall)
        attempted += len(lat) + len(t_lat)
        failed += len(fails) + len(t_fails)
        failures += fails + t_fails
        totals = tracer.span_totals()
        pass_calls = {name: c for name, (c, _) in totals.items()}
        pass_calls.update(tracer.counts)
        for name, (_, s) in totals.items():
            self_s.setdefault(name, []).append(s)
        if calls is None:
            calls = pass_calls
            failures += [f"hot wrapper {name} recorded no calls"
                         for name in wl.hot
                         if name not in tracer.absent and not calls.get(name)]
        elif pass_calls != calls:
            diff = sorted(k for k in calls if calls[k] != pass_calls.get(k))
            failures.append(f"call counts differ between traced passes: {diff}")
    msg = check_previous_run(wl, args, calls, len(trace_set))
    if msg:
        failures.append(msg)
    spans_path = OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
    span_count = tracer.write_spans(spans_path)
    overhead = statistics.median(traced) - statistics.median(untraced)
    report = {
        "metadata": metadata(args, wl.name),
        "trace_cases": len(trace_set),
        "passes": len(traced),
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "overhead_s": overhead,
        "overhead_frac": overhead / statistics.median(untraced),
        "gcd_routes": {route: "absent" if name in tracer.absent else "present"
                       for route, name in GCD_ROUTES.items()},
        "absent": tracer.absent,
        "wrapped": sorted(name for name, _, _ in SPANS) +
                   sorted(name for name, *_ in COUNTERS),
        "spans_file": spans_path.as_posix(),
        "spans": span_count,
        "failed_frac": failed / attempted,
        "failures": failures[:20],
    }
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": layer_metrics(calls, self_s, overhead),
            "report": report}


# output -------------------------------------------------------------------

def print_result(result: dict, name: str):
    report = result["report"]
    for key, m in result["metrics"].items():
        print(f"{name:14} {key:44} {m['value']:>14.6g} {m['unit']}")
    samples = report.get("latency_samples", report.get("trace_cases"))
    print(f"{name:14} {'failed_frac':44} {report['failed_frac']:>14.6g} "
          f"({result['failed']}/{result['attempted']}; {samples} samples)")
    for msg in report["failures"]:
        print(f"{name:14} FAILED {msg}")
    path = OUT / (f"report-{name}-seed{report['metadata']['seed']}"
                  f"-trace{report['metadata']['trace']}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def run_all(args) -> int:
    """Each workload in its own fresh process; a combined last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-2]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="op-battery, module-suites, cli-corpus or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true",
                        help="write cli-corpus golden outputs for --seed")
    args = parser.parse_args(argv)

    if not (SRC / "prolongkit" / "__init__.py").is_file():
        sys.stderr.write(f"error: no prolongkit sources under {SRC}\n")
        return 2
    os.chdir(ROOT)
    OUT.mkdir(parents=True, exist_ok=True)

    if args.write_golden:
        wl = CliCorpus()
        import_package(wl)
        wl.generate(args.seed, args.seconds, OUT)
        path = wl.golden_path(args.seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(wl.golden_entries(), indent=1,
                                   sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")
        return 0
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    wl = WORKLOADS[args.workload]()
    if args.setup_probe:
        # the parent reports warm-up failures from its own warm-up
        t_import = import_package(wl)
        t_warm, _ = run_warmup(wl)
        factor = SpeedProbe().factor()
        print(json.dumps({"setup_s": (t_import + t_warm) / factor}))
        return 0
    result = measure_traced(args, wl) if args.trace else measure(args, wl)
    print_result(result, wl.name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
