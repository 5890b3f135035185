#!/usr/bin/env python3
"""Repository benchmark for the Virtual-Link simulator.

Builds perfbench/vlbench from the repository's sources, runs one workload
and prints every metric by name with its unit, the correctness checks and
the run metadata. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with --trace 0 and the per-layer metrics
with --trace 1. Run it from the repository root:

    python3 perfbench/run.py --workload qos-flood --seed 1 --seconds 10 --trace 0

Exit status: 0 when every check passed, 1 when a correctness check failed
(the result is still printed), 2 when the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "vlbench"

WORKLOADS = ("paper-kernels", "qos-flood", "mesh-diurnal")
SEEDLESS = ("paper-kernels",)
SETUP_PROBES = 6  # extra set-up-only processes; setup_s is the median of 7
DEADLINE_S = 170  # every process after the build ends within this

# A metric that does not apply to a workload is reported as this
# placeholder (every run carries every metric); the report marks it n/a.
NOT_APPLICABLE = 1.0

# (name, unit, workloads it applies to)
END_TO_END = [
    ("wall_s", "s", WORKLOADS),
    ("cpu_s", "s", WORKLOADS),
    ("setup_s", "s", WORKLOADS),
    ("peak_rss_mb", "MB", WORKLOADS),
    ("vl_speedup_x", "x", ("paper-kernels",)),
    ("mem_traffic_cut_pct", "%", ("paper-kernels",)),
    ("lat_p50_ticks", "ticks", ("qos-flood", "mesh-diurnal")),
    ("lat_p99_ticks", "ticks", ("qos-flood", "mesh-diurnal")),
    ("slo_attain_pct", "%", ("qos-flood", "mesh-diurnal")),
    ("sim_msgs_per_us", "msgs/us", WORKLOADS),
    ("delivered_pct", "%", WORKLOADS),
]

BACKENDS = ("blfq", "zmq", "vl64", "vlideal", "caf")
KERNELS = ("ping-pong", "halo", "sweep", "incast", "FIR", "bitonic", "pipeline")
SPANS = ("sim.park", "sim.park_any", "sim.credit_wait", "caf.credit_wait",
         "chan.send", "chan.send_many", "chan.recv", "chan.recv_many",
         "shard.epoch")
INSTANTS = ("chan.nack_full", "chan.nack_quota", "vlrd.inject",
            "vlrd.inject_retry", "vlrd.fetch_nack")

PER_LAYER = (
    [("sim.events", "count"), ("sim.events_per_msg", "ev/msg"),
     ("sim.ns_per_event", "ns"), ("sim.events_per_s", "1/s"),
     ("sim.ctx_switches", "count"), ("sim.yields", "count"),
     ("sim.epochs", "count"), ("sim.window_stalls", "count"),
     ("sim.busy_threads", "threads"), ("sim.thread_speedup_x", "x")]
    + [(f"mem.{m}.{b}", u) for b in BACKENDS
       for m, u in (("snoops", "count"), ("dram_txns", "count"),
                    ("c2c", "count"), ("l1_miss_pct", "%"))]
    + [("mem.stash_accept_pct", "%"),
       ("vlrd.pushes", "count"), ("vlrd.push_nack_pct", "%"),
       ("vlrd.quota_nack_pct", "%"), ("vlrd.fetch_nack_pct", "%"),
       ("vlrd.inject_retry_pct", "%")]
    + [(f"squeue.{b}.wall_s", "s") for b in BACKENDS]
    + [("squeue.send_ticks", "ticks"), ("squeue.recv_ticks", "ticks"),
       ("squeue.nacks", "count"), ("squeue.caf_credit_wait_ticks", "ticks"),
       ("traffic.gen_lag_ticks", "ticks"), ("traffic.dropped", "count"),
       ("traffic.cross_shard_pct", "%"), ("traffic.rebalanced", "count"),
       ("traffic.lat_samples", "count"), ("traffic.lat_beyond_p50", "count"),
       ("traffic.lat_beyond_p99", "count")]
    + [(f"workloads.{k}.vl_speedup_x", "x") for k in KERNELS]
    + [("workloads.ping-pong.vl_over_caf_x", "x"),
       ("workloads.pipeline.vl_over_caf_x", "x"),
       ("trace_overhead_pct", "%"), ("trace.perturbed", "count")]
    + [(f"trace.self.{s}", "ticks") for s in SPANS]
    + [(f"trace.instants.{i}", "count") for i in INSTANTS]
)


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the benchmark binary."""
    if not (ROOT / "src" / "workloads" / "runner.hpp").is_file():
        raise RuntimeError(f"simulator sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4",
                    "--target", "vlbench"], stdout=sys.stderr, check=True)


def vlbench(args, deadline):
    """Runs the binary; returns (exit code, its last stdout line as JSON)."""
    cmd = [str(BINARY)] + args + ["--t0", str(time.monotonic_ns())]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=max(1.0, deadline - time.monotonic()))
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited with {p.returncode}")
    return p.returncode, json.loads(lines[-1])


def metadata(raw, seed):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "n/a (not a git checkout)"
    src = hashlib.sha256()
    for f in sorted((ROOT / "src").rglob("*")):
        if f.is_file():
            src.update(str(f.relative_to(ROOT)).encode())
            src.update(f.read_bytes())
    workload = raw["workload"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "compiler": raw["build"]["compiler"],
        "build_type": raw["build"]["build_type"],
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "workload": workload,
        "seed": ("seedless (the seed is ignored)" if workload in SEEDLESS
                 else str(seed)),
        "timed_reps": len(raw["reps"]["wall_s"]),
        "ref_speed": ("n/a: host times of this workload are raw"
                      if "ref_s" not in raw["reps"] else
                      "{:.4f} (median reference-kernel time / nominal; >1 "
                      "means slower than the reference host)".format(
                          statistics.median(raw["reps"]["ref_s"])
                          / raw["reps"]["ref_nominal_s"])),
    }


def end_to_end(raw, setups):
    reps = raw["reps"]
    sim = raw["sim"]
    attempted, failed = raw["attempted"], raw["failed"]
    values = {
        "wall_s": statistics.median(reps["wall_s"]),
        "cpu_s": statistics.median(reps["cpu_s"]),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "delivered_pct": 100.0 * (attempted - failed) / attempted,
    }
    for name, _, applies in END_TO_END:
        if name not in values:
            values[name] = (sim[name] if raw["workload"] in applies
                            else NOT_APPLICABLE)
    return values


def per_layer(raw, e2e):
    layers = dict(raw["layers"])
    reps = raw["reps"]
    wall, cpu = e2e["wall_s"], e2e["cpu_s"]
    events = layers["sim.events"]
    layers["sim.ns_per_event"] = 1e9 * wall / events
    layers["sim.events_per_s"] = events / wall
    layers["sim.busy_threads"] = cpu / wall
    for b in BACKENDS:
        samples = reps["backend_wall_s"].get(b)
        layers[f"squeue.{b}.wall_s"] = statistics.median(samples) if samples else 0.0
    sim = raw["sim"]
    for key in ("lat_samples", "lat_beyond_p50", "lat_beyond_p99"):
        layers[f"traffic.{key}"] = sim.get(key, 0)

    trace = raw.get("trace")
    if trace:
        fold = trace["fold"]
        self_ticks, instants = fold["self_ticks"], fold["instants"]
        for s in SPANS:
            layers[f"trace.self.{s}"] = self_ticks.get(s, 0)
        for i in INSTANTS:
            layers[f"trace.instants.{i}"] = instants.get(i, 0)
        layers["squeue.send_ticks"] = (self_ticks.get("chan.send", 0)
                                       + self_ticks.get("chan.send_many", 0))
        layers["squeue.recv_ticks"] = (self_ticks.get("chan.recv", 0)
                                       + self_ticks.get("chan.recv_many", 0))
        layers["squeue.nacks"] = (instants.get("chan.nack_full", 0)
                                  + instants.get("chan.nack_quota", 0))
        # A credit wait is all parking (sim.park nests inside it), so its
        # self time is 0; the squeue wait metric is the whole span.
        layers["squeue.caf_credit_wait_ticks"] = fold["total_ticks"].get(
            "caf.credit_wait", 0)
        layers["trace_overhead_pct"] = 100.0 * (trace["wall_s"] - wall) / wall
        layers["trace.perturbed"] = len(trace["perturbations"])
        if "seq_wall_s" in trace:
            layers["sim.thread_speedup_x"] = trace["seq_wall_s"] / wall
        for k in ("sim.ctx_switches", "sim.yields"):
            if k in trace:
                layers[k] = trace[k]
    return {name: layers.get(name, 0) for name, _ in PER_LAYER}


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(meta, raw, e2e, layers, setups):
    out = ["== run metadata"]
    out += [f"  {k:<12} {v}" for k, v in meta.items()]
    sim = raw["sim"]
    workload = raw["workload"]
    out.append("== end-to-end metrics")
    for name, unit, applies in END_TO_END:
        line = f"  {name:<20} {fmt(e2e[name]):>14} {unit}"
        if workload not in applies:
            line += "   n/a for this workload (placeholder)"
        elif name.startswith("lat_"):
            beyond = sim["lat_beyond_" + name.split("_")[1]]
            line += (f"   n={sim['lat_samples']} ({sim['lat_population']}), "
                     f"{beyond} beyond")
        elif name in ("wall_s", "cpu_s"):
            line += f"   median of {meta['timed_reps']} runs"
            if "ref_s" in raw["reps"]:
                raw_med = statistics.median(raw["reps"]["raw_" + name])
                line += f" at reference speed; raw median {raw_med:.6g} s"
        elif name == "setup_s":
            line += f"   median of {len(setups)} set-ups"
        fid = raw["fidelity"].get(name)
        if fid and workload in applies:
            line += (f"   paper {fid['paper']:g}, error "
                     f"{fid['error_pct']:+.1f}% (model vs paper, not hardware)")
        out.append(line)
    for name, fid in raw["fidelity"].items():
        if name.startswith("workloads."):
            out.append(f"  {name:<34} {fid['value']:.4g} x   paper "
                       f"{fid['paper']:g}, error {fid['error_pct']:+.1f}%")
    if "trace" in raw:
        out.append("== per-layer metrics")
        for name, unit in PER_LAYER:
            out.append(f"  {name:<34} {fmt(layers[name]):>14} {unit}")
    else:
        out.append("== per-layer metrics: run with --trace 1")
    out.append("== determinism digests (equal on every run with this seed)")
    for key in ("digest_fnv1a", "csv_fnv1a", "shard_digests"):
        if key in sim:
            value = sim[key]
            out.append(f"  {key:<14} "
                       + (" ".join(value) if isinstance(value, list) else value))
    checks = raw["checks"]
    out.append(f"== checks: {checks['run']} run, {checks['failed']} failed")
    out += [f"  FAILED: {f}" for f in checks["failures"]]
    trace = raw.get("trace")
    if trace:
        if trace["perturbations"]:
            out.append("== FLAG: tracing perturbed the simulation "
                       "(zero-perturbation check failed):")
            out += [f"  {p}" for p in trace["perturbations"]]
        else:
            out.append("== zero-perturbation: traced run equals untraced run")
        if trace["fold"]["unbalanced"]:
            out.append(f"== FLAG: {trace['fold']['unbalanced']} unbalanced spans")
    print("\n".join(out), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        build()
        common = ["--workload", a.workload, "--seed", str(a.seed)]
        deadline = time.monotonic() + DEADLINE_S
        setups = [vlbench(common + ["--setup-only"], deadline)[1]["setup_s"]
                  for _ in range(SETUP_PROBES)]
        code, raw = vlbench(common + ["--seconds", str(a.seconds),
                                      "--trace", str(a.trace)], deadline)
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 2
    setups.append(raw["setup_s"])

    e2e = end_to_end(raw, setups)
    layers = per_layer(raw, e2e)
    report(metadata(raw, a.seed), raw, e2e, layers, setups)

    correct = code == 0 and raw["checks"]["failed"] == 0
    chosen = ([(n, u) for n, u, _ in END_TO_END] if a.trace == 0 else PER_LAYER)
    values = e2e if a.trace == 0 else layers
    print(json.dumps({
        "correct": correct,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {n: {"value": values[n], "unit": u} for n, u in chosen},
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
