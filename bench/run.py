"""mucut benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload {algebra,spectral,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; mucut is imported from its ``src``. With
``--trace 0`` the workload is set up in five fresh processes spread over
the run, and the middle one runs a closed loop with one client for S
seconds of request time over a seeded cycle of distinct requests, checking
every output outside the timed span. The result carries the end-to-end
metrics of BENCHMARK.json.

Host speed on a shared two-CPU machine swings by up to 2x for seconds to
minutes at a time, for wall and CPU time alike. So every timing is taken
between two runs of a fixed pure-Python probe and scaled by the probe's
reference time over theirs (``worker.probe``): timings read as on a host
where the probe takes 3.5 ms, and the unscaled median and speed factor are
printed alongside. Each distinct request of the cycle then counts once, at
the median of its repeats, in ``ops_per_s`` (distinct requests over the
sum of their latencies), ``latency_p50_ms`` and ``latency_p90_ms``;
``setup_s`` is the median of the five set-ups. ``pass_ratio`` is the share
of distinct requests whose every repeat passed its check (``fail_ratio``
per execution is printed). No timed request hits a known defect; each
workload's known-defect requests run once after the timed loop, untimed,
and their verdicts are printed by name without entering ``attempted`` or
``failed``. Any failure of a timed request makes ``correct`` false.
With ``--trace 1`` one process records a span around every call into a
layer and the result carries the per-layer metrics. ``--smoke`` caps a run
at a few requests and one set-up, for the benchmark's own tests.

Earlier stdout lines are a readable summary; spans, the full report and
the per-seed input record go to ``.bench_out/`` in the checkout. The exit
code is 0 whenever a result line is printed, also when ``correct`` is
false; it is 2 when the checkout holds no mucut sources to measure.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from time import monotonic, perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("algebra", "spectral", "cli")
SETUPS = 5
RUN_BUDGET_S = 170
# ROADMAP re-anchor baselines, in ms, for the traced cross-check
ROADMAP_MS = {
    "crosscheck.raise_power_40": ("Raise**40", 76.0),
    "selftest.run": ("in-process selftest", 1300.0),
    "crosscheck.weyl_dd_rl_1024": ("weyl_compare(D*D+Raise+Lower, 1024)",
                                   2400.0),
    "cli.cold.cone-lens": ("cone-lens cold start", 325.0),
}


class BenchError(Exception):
    pass


def read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError:
        return ""


def environment() -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in read_text("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": model}


def loadavg() -> float:
    fields = read_text("/proc/loadavg").split()
    return float(fields[0]) if fields else -1.0


def spawn(args, mode: str, deadline: float):
    """Run one worker; return ``(spawn time, result)``."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    env = {k: v for k, v in os.environ.items() if k != "MUCUT_SEED"}
    t_spawn = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        # SIGINT first: subprocess.run in the worker then kills and reaps
        # the child it is waiting on before the worker exits
        proc.send_signal(signal.SIGINT)
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        raise BenchError(f"{mode} worker ran past the time budget")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return t_spawn, json.loads(out.decode().splitlines()[-1])


def compare_record(args, digest: str, counters: dict, problems: list):
    """Input counts must repeat exactly for a seed, across processes of
    one run and across runs in one checkout."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"record-{args.workload}-{args.seed}.json")
    record = json.loads(read_text(path) or "{}")
    current = {"digest": digest, **counters}
    for key, value in current.items():
        if key in record and record[key] != value:
            problems.append(f"{key} is {value}, an earlier run with this "
                            f"seed had {record[key]}")
    record.update(current)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True, indent=1)


def failure_summary(failures: list) -> dict:
    kinds = {}
    for f in failures:
        entry = kinds.setdefault(f["kind"], {"count": 0,
                                             "reason": f["reason"]})
        entry["count"] += 1
    return kinds


def run_e2e(args, deadline: float, lines: list) -> tuple:
    results, setups = [], []
    before = 0 if args.smoke else SETUPS // 2
    after = 0 if args.smoke else SETUPS - 1 - before
    for mode in ["setup"] * before + ["e2e"] + ["setup"] * after:
        t_spawn, result = spawn(args, mode, deadline)
        setups.append((result["t_first"] - t_spawn) * result["scale"])
        results.append(result)
        if mode == "e2e":
            main = result
    problems = []
    if any((r["digest"], r["counters"]) != (main["digest"], main["counters"])
           for r in results):
        problems.append("processes with one seed generated different inputs")
    compare_record(args, main["digest"], main["counters"], problems)

    # each distinct request of the cycle counts once, at the median of its
    # repeats scaled to the reference host speed
    cycle = main["cycle"]
    repeats = {}
    for i, (ns, scale) in enumerate(zip(main["latencies_ns"],
                                        main["scales"])):
        repeats.setdefault(i % cycle, []).append(ns * scale / 1e6)
    lat = [statistics.median(v) for v in repeats.values()]
    n = len(main["latencies_ns"])
    raw_ms = [ns / 1e6 for ns in main["latencies_ns"]]
    # inclusive interpolation puts the p90 of cli's 20 requests on the
    # middle of its three weyl runs rather than near the slowest of them
    p90 = (statistics.quantiles(lat, n=10, method="inclusive")[8]
           if len(lat) > 1 else lat[0])
    failures = main["failures"]
    failing = {f["index"] % cycle for f in failures}
    values = {
        "ops_per_s": len(lat) / (sum(lat) / 1e3),
        "latency_p50_ms": statistics.median(lat),
        "latency_p90_ms": p90,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["rss_kb"] / 1024.0,
        "pass_ratio": 1.0 - len(failing) / len(lat),
    }
    lines.append(f"requests {n}: {len(lat)} distinct, {n / len(lat):.2f} "
                 f"repeats each; {sum(x > p90 for x in lat)} distinct lie "
                 f"beyond p90")
    lines.append("setup_s samples " + ", ".join(f"{s:.4f}" for s in setups))
    lines.append(f"unscaled: median latency {statistics.median(raw_ms):.3f} "
                 f"ms, host speed factor median "
                 f"{statistics.median(main['scales']):.3f}")
    report = {"setups_s": setups, "latencies_ns": main["latencies_ns"],
              "scales": main["scales"], "cycle": cycle, "request_ms": lat,
              "digest": main["digest"], "counters": main["counters"]}
    return values, n, failures, main["defects"], problems, report


def run_trace(args, deadline: float, lines: list) -> tuple:
    _, result = spawn(args, "trace", deadline)
    problems = list(result["problems"])
    counters = dict(result["counters"])
    stdout_bytes = result["metrics"].get("cli.stdout_bytes")
    if stdout_bytes is not None:
        counters["cli.stdout_bytes"] = stdout_bytes
    compare_record(args, result["digest"], counters, problems)
    n = result["requests"]
    m = result["metrics"]
    lines.append(f"traced requests {n}; tracing overhead "
                 f"{m['trace.overhead_pct']:.2f}% of ops_per_s "
                 f"({m['trace.untraced_ops_per_s']:.3f} untraced, "
                 f"{m['trace.traced_ops_per_s']:.3f} traced)")
    for key, (label, baseline) in ROADMAP_MS.items():
        samples = result["crosscheck"].get(key)
        if not samples:
            continue
        med = statistics.median(samples)
        inside = min(samples) <= baseline <= max(samples)
        lines.append(f"cross-check {label}: {med:.1f} ms over {len(samples)} "
                     f"samples [{min(samples):.1f}, {max(samples):.1f}] "
                     f"(source {result['sources'].get(key)}), ROADMAP "
                     f"{baseline:.0f} ms"
                     + ("" if inside else
                        f"; gap {100 * (med / baseline - 1):+.1f}%"))
    census = sorted(k for k, v in result["sources"].items()
                    if v == "census")
    lines.append("spans from census: " + ", ".join(census))
    lines.append(f"spans written to {result['spans_file']}")
    report = {"crosscheck": result["crosscheck"],
              "sources": result["sources"], "metrics": m,
              "digest": result["digest"], "counters": counters}
    return m, n, result["failures"], result["defects"], problems, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    deadline = monotonic() + RUN_BUDGET_S

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(ROOT, "src", "mucut", "__init__.py"))
            and os.path.isfile(spec_path)):
        sys.stderr.write("run.py: no src/mucut and BENCHMARK.json here; "
                         "run from the root of a mucut checkout\n")
        return 2
    spec = json.loads(read_text(spec_path))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = environment()
    load_before = loadavg()
    lines = [f"workload {args.workload} seed {args.seed} seconds "
             f"{args.seconds} trace {args.trace}",
             f"python {env['python']} numpy {env['numpy']} nproc "
             f"{env['nproc']} cpu {env['cpu_model']}"]
    try:
        run = run_trace if args.trace else run_e2e
        values, attempted, failures, defects, problems, report = run(
            args, deadline, lines)
    except BenchError as exc:
        sys.stderr.write(f"run.py: {exc}\n")
        return 1
    kinds = failure_summary(failures)
    lines.append(f"fail_ratio {len(failures) / attempted:.6f} ratio"
                 + "".join(f"; {k} x{v['count']} ({v['reason']})"
                           for k, v in sorted(kinds.items())))
    problems += [f"{k}: {v['reason']}" for k, v in kinds.items()]
    for d in defects:
        verdict = ("fixed, now passes" if d["reason"] is None
                   else d["reason"] if d["expected"]
                   else f"NEW FAILURE MODE: {d['reason']}")
        lines.append(f"known defect probe {d['kind']} (untimed): {verdict}")
        if not d["expected"]:
            problems.append(f"known defect probe {d['kind']}: {d['reason']}")
    load_after = loadavg()
    overloaded = max(load_before, load_after) > env["nproc"]
    lines.append(f"load average {load_before:.2f} before, {load_after:.2f} "
                 f"after" + ("; LOAD EXCEEDED NPROC" if overloaded else ""))

    metrics, missing = {}, []
    for item in wanted:
        value = values.get(item["name"])
        if value is None:
            missing.append(item["name"])
            continue
        metrics[item["name"]] = {"value": value, "unit": item["unit"]}
        lines.append(f"{item['name']} {value:.6g} {item['unit']}")
    if missing:
        lines.append("could not measure: " + ", ".join(missing))
    for problem in problems:
        lines.append(f"CHECK FAILED: {problem}")

    report.update(env=env, load_before=load_before, load_after=load_after,
                  overloaded=overloaded, missing=missing, problems=problems,
                  failures=kinds, fail_ratio=len(failures) / attempted,
                  defect_probes=defects)
    os.makedirs(OUT, exist_ok=True)
    name = f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as handle:
        json.dump(report, handle, sort_keys=True, indent=1)

    for line in lines:
        print(line)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
