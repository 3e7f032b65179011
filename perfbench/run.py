#!/usr/bin/env python3
"""Repository benchmark: build, run one workload, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark crate (perfbench/) and
the `wcdma` CLI from source into $CARGO_TARGET_DIR (default .bench_build),
runs one workload in a child process, and prints a human-readable report
followed by one JSON line with exactly the keys `correct`, `attempted`,
`failed` and `metrics`. `--trace 0` reports the end-to-end metrics of
BENCHMARK.json, `--trace 1` its per-layer metrics.

The child's peak resident memory (including any CLI processes it runs and
waits for) is taken from wait4() and reported as `peak_rss_mb`.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bursty-cell", "metro", "campaign-service")
# A run that has not finished by then is killed and reported as failed.
CHILD_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(env):
    """Builds the benchmark and the CLI; both land in CARGO_TARGET_DIR."""
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "wcdma-cli"],
    ]
    for cmd in steps:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(cmd))


def cpu_flags():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    flags = set(line.split(":", 1)[1].split())
                    return {f: f in flags for f in ("avx2", "avx512f")}
    except OSError:
        pass
    return {"avx2": False, "avx512f": False}


def source_commit():
    """The git commit, or a hash of the Rust sources when there is no git."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "src", "crates"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for p in files:
            if p.endswith((".rs", ".toml", ".lock")):
                h.update(os.path.relpath(p, ROOT).encode())
                with open(p, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def run_child(cmd):
    """Runs the workload; returns (exit code, stdout, peak RSS in MB)."""
    out_path = cmd[cmd.index("--work") + 1] + ".out"
    with open(out_path, "w") as out:
        child = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out)
        timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        child.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        text = f.read()
    os.remove(out_path)
    return child.returncode, text, usage.ru_maxrss / 1024.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    build(env)

    work_root = os.path.join(ROOT, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{os.getpid()}")
    os.makedirs(work_root, exist_ok=True)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(target, "release", "wcdma"),
        "--work", work,
    ]
    try:
        code, text, rss_mb = run_child(cmd)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass
    if code != 0:
        die(f"workload exited with code {code}")
    lines = text.strip().splitlines()
    if not lines:
        die("workload printed nothing")
    result = json.loads(lines[-1])

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    ordered = {}
    for m in declared_metrics(args.trace):
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"metric {m['name']} missing or with another unit than BENCHMARK.json")
        ordered[m["name"]] = got
    if set(metrics) != set(ordered):
        die(f"metrics not in BENCHMARK.json: {sorted(set(metrics) - set(ordered))}")

    info = result.get("info", {})
    stamp = {
        "cores": os.cpu_count(),
        **cpu_flags(),
        "simd_backend": info.pop("simd_backend", "?"),
        "canonical_order_version": info.pop("canonical_order_version", "?"),
        "checkpoint_format_version": info.pop("checkpoint_format_version", "?"),
        "available_parallelism": info.pop("available_parallelism", "?"),
        "commit": source_commit(),
    }
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# stamp: " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print("# info: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, m in ordered.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": ordered,
    }))


if __name__ == "__main__":
    main()
