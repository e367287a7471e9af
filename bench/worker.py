"""One workload process: set up, time, check, report one JSON line.

``run.py`` starts a fresh process per set-up, so import, generation and
memory costs belong to the workload measured. Modes:

- ``setup``: import, generate the seeded inputs, warm up, report when the
  first timed request would start;
- ``e2e``: the same set-up, then a closed loop with one client, every
  output checked outside the timed span and every request followed by a
  host-speed probe (``probe``); after it, the workload's known-defect
  requests once each, untimed (``probe_defects``);
- ``trace``: each request runs once untraced and once traced, in
  alternating order, so tracing overhead is measured on identical work;
  then the workload's traced extras, and a short census of the other
  workloads to fill in layers this one does not exercise.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter, perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("algebra", "spectral", "cli")
LAYERS = ("exact", "operators", "symbols", "cutspace", "cones", "spectral",
          "cli")
SMOKE_REQUESTS = 4
PROBE_REF_S = 0.0035
# spans compared against the ROADMAP re-anchor baselines
CROSSCHECK = ("crosscheck.raise_power_40", "selftest.run",
              "crosscheck.weyl_dd_rl_1024", "cli.cold.cone-lens")

sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
from spans import NULL, Tracer  # noqa: E402


def probe() -> float:
    """Seconds a fixed pure-Python Fraction loop takes right now.

    Host speed here swings by up to 2x for seconds to minutes at a time,
    for wall and CPU time alike, and a fixed loop slows with it. Timings
    are scaled by ``PROBE_REF_S`` over the probes taken around them, so
    they read as on a host where this loop takes 3.5 ms.
    """
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - t0


class Context:
    """Where the checkout is and how its command line is started."""

    def __init__(self, root: str):
        self.root = root
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONPATH", "MUCUT_SEED")}
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.child_env = env


class Failed:
    """Output of a request that raised."""

    def __init__(self, exc: BaseException):
        self.reason = f"raised {type(exc).__name__}: {exc}"


def prepare(name: str, seed: int, ctx: Context):
    mod = importlib.import_module(f"wl_{name}")
    specs = mod.generate(seed)
    runner = mod.Runner(specs, ctx)
    runner.warmup()
    return mod, specs, runner


def run_one(runner, i: int, tr):
    try:
        return runner.run(i, tr)
    except Exception as exc:  # a regression that raises counts as a failure
        return Failed(exc)


def check_one(runner, i: int, out, tr, verdicts: dict):
    """``{index, kind, reason}`` for a failed check, else None."""
    if isinstance(out, Failed):
        reason = out.reason
    else:
        key = None
        fingerprint = getattr(runner, "fingerprint", None)
        if fingerprint is not None:
            key = (i % len(runner.specs), fingerprint(out))
        if key is not None and key in verdicts:
            reason = verdicts[key]
        else:
            with tr.root("bench.check", i):
                try:
                    reason = runner.check(i, out, tr)
                except Exception as exc:
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if key is not None:
                verdicts[key] = reason
    if reason is None:
        return None
    return {"index": i, "kind": runner.kind(i), "reason": reason}


def probe_defects(mod, seed: int, ctx) -> list:
    """Run each of the workload's known-defect requests once, untimed and
    apart from the timed mix: ``{kind, reason, expected}`` per request,
    with ``reason`` None once the defect is fixed and ``expected`` false
    when it fails in a way other than the documented one."""
    specs = mod.defect_probes(seed)
    runner = mod.Runner(specs, ctx) if specs else None
    found = []
    for i in range(len(specs)):
        failure = check_one(runner, i, run_one(runner, i, NULL), NULL, {})
        kind = runner.kind(i)
        reason = failure["reason"] if failure else None
        found.append({"kind": kind, "reason": reason, "expected": (
            reason is None
            or mod.KNOWN_DEFECTS.get(kind) == reason.split(":")[0])})
    return found


def setup(name, seed, ctx):
    """Set up as a fresh process does; the probes before and after are
    reported for scaling and the first one is not counted as set-up."""
    before = probe()
    mod, specs, runner = prepare(name, seed, ctx)
    t_first = perf_counter() - before
    after = probe()
    return mod, specs, runner, {
        "t_first": t_first, "scale": 2 * PROBE_REF_S / (before + after),
        "probe_s": after, "digest": gen.digest(specs),
        "counters": mod.counters(specs)}


def e2e(name, seed, seconds, max_requests, ctx):
    mod, specs, runner, result = setup(name, seed, ctx)
    gc.collect()
    latencies, scales, failures, verdicts = [], [], [], {}
    busy = 0
    i = 0
    before = result["probe_s"]
    while busy < seconds * 1e9 and i < max_requests:
        t0 = perf_counter_ns()
        out = run_one(runner, i, NULL)
        dt = perf_counter_ns() - t0
        after = probe()
        latencies.append(dt)
        scales.append(2 * PROBE_REF_S / (before + after))
        before = after
        busy += dt
        failure = check_one(runner, i, out, NULL, verdicts)
        if failure:
            failures.append(failure)
        del out
        i += 1
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result.update(latencies_ns=latencies, scales=scales, cycle=len(specs),
                  failures=failures, rss_kb=resource.getrusage(who).ru_maxrss,
                  defects=probe_defects(mod, seed, ctx))
    return result


def trace(name, seed, seconds, max_requests, ctx):
    mod, specs, runner = prepare(name, seed, ctx)
    tr = Tracer()
    gc.collect()
    plain, traced, failures, verdicts = [], [], [], {}
    busy = 0
    i = 0
    while busy < seconds * 1e9 and i < max_requests:
        for first_traced in ((False, True) if i % 2 else (True, False)):
            t0 = perf_counter_ns()
            if first_traced:
                with tr.root("bench.request", i):
                    out = run_one(runner, i, tr)
            else:
                run_one(runner, i, NULL)
            dt = perf_counter_ns() - t0
            (traced if first_traced else plain).append(dt)
            busy += dt
            if first_traced:
                kept = out
        failure = check_one(runner, i, kept, tr, verdicts)
        if failure:
            failures.append(failure)
        i += 1
    found, problems = runner.extras(tr, seed, census=False)
    counters = dict(mod.counters(specs))
    if name == "algebra":
        _raise_power_crosscheck(tr)

    tr.source = "census"
    for other in WORKLOADS:
        if other == name:
            continue
        omod, ospecs, orunner = prepare(other, seed, ctx)
        for key, value in omod.counters(ospecs).items():
            counters.setdefault(key, value)
        for j in omod.census(ospecs):
            with tr.root("bench.request", f"census.{other}.{j}"):
                out = run_one(orunner, j, tr)
            failure = check_one(orunner, j, out, tr, {})
            if failure:
                problems.append(f"census {other}: {failure['reason']}")
        ofound, oproblems = orunner.extras(tr, seed, census=True)
        for key, value in ofound.items():
            found.setdefault(key, value)
        problems += oproblems

    durations = tr.durations_ms()
    metrics = {f"{k}_ms": statistics.median(v) for k, v in durations.items()}
    metrics.update(found)
    metrics.update(counters)
    shares = tr.layer_shares()
    for layer in LAYERS:
        metrics[f"{layer}.share"] = shares.get(layer, 0.0)
    ops_plain = len(plain) / (sum(plain) / 1e9)
    ops_traced = len(traced) / (sum(traced) / 1e9)
    metrics["trace.untraced_ops_per_s"] = ops_plain
    metrics["trace.traced_ops_per_s"] = ops_traced
    metrics["trace.overhead_pct"] = 100.0 * (ops_plain - ops_traced) / ops_plain

    os.makedirs(os.path.join(ctx.root, ".bench_out"), exist_ok=True)
    spans_path = os.path.join(ctx.root, ".bench_out",
                              f"spans-{name}-{seed}.jsonl")
    tr.write(spans_path)
    return {"metrics": metrics, "sources": tr.sources(),
            "crosscheck": {key: durations.get(key) for key in CROSSCHECK},
            "requests": len(traced), "failures": failures,
            "defects": probe_defects(mod, seed, ctx),
            "problems": problems, "digest": gen.digest(specs),
            "counters": counters, "spans_file": os.path.relpath(
                spans_path, ctx.root)}


def _raise_power_crosscheck(tr) -> None:
    import mucut as m
    raise_op = m.make_generator("Raise")
    for _ in range(3):
        with tr.root("crosscheck.raise_power_40", "crosscheck"):
            raise_op ** 40


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"),
                        required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    ctx = Context(ROOT)
    import mucut
    if os.path.dirname(os.path.abspath(mucut.__file__)) != os.path.join(
            ROOT, "src", "mucut"):
        sys.stderr.write("worker: mucut was not imported from this checkout\n")
        return 2
    max_requests = SMOKE_REQUESTS if args.smoke else sys.maxsize
    if args.workload == "cli":
        # the probes track the speed of the CPU they run on; keep the
        # command-line children on the same one
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.mode == "setup":
        result = setup(args.workload, args.seed, ctx)[3]
    elif args.mode == "e2e":
        result = e2e(args.workload, args.seed, args.seconds, max_requests,
                     ctx)
    else:
        result = trace(args.workload, args.seed, args.seconds, max_requests,
                       ctx)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
