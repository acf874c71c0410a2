#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (the repository's library plus the perfbench binary, Release)
into $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
only bring the build up to date.  The workload then runs in its own
process and this script prints, as the last line of standard output, one
JSON object with exactly the keys correct, attempted, failed and metrics:
every end-to-end metric of BENCHMARK.json with --trace 0, every per-layer
metric with --trace 1 (0 for a layer the workload does not call).

Before that line it prints the run's provenance, the digest of
simulated statistics and the sample counts, and it writes the full
record (with every sample, plus, with --trace 1, the Chrome trace and
its per-layer summary) to .bench_out/.

Exit status: 0 with a result; 2 on bad arguments or a checkout without
the library sources; 3 when the build must not be timed (asserts or
sanitizers); 1 on any other failure.  No result is printed unless the
exit status is 0.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_mixed", "fault_campaign", "opt_flow", "power_mc")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--workers", type=int, default=2,
                   help="serve_mixed service workers (default 2)")
    p.add_argument("--shards", type=int, default=2,
                   help="power_mc shard threads (default 2)")
    args = p.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 3600:
        p.error("--seed must be >= 0 and --seconds in [1, 3600]")
    return args


def build(build_dir):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if os.environ.get("MFM_SANITIZE"):
        log("refusing to time a sanitized build (MFM_SANITIZE is set)")
        sys.exit(3)
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd[1:1] = ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def git_revision():
    """HEAD of the checkout, or "none" when it is not a git work tree of
    its own (an enclosing repository's HEAD would be the wrong one)."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "none"
    return lines[1]


def source_digest():
    """sha256 over the library and benchmark sources: a revision id that
    also works in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def contract_metrics(declared, measured, trace):
    """Maps the binary's metrics onto BENCHMARK.json's declaration."""
    out = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None:
            if not trace:
                raise ValueError("end-to-end metric %s missing" % m["name"])
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            raise ValueError("metric %s: unit %s, declared %s"
                             % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    extra = set(measured) - set(out)
    if extra:
        raise ValueError("undeclared metrics: " + ", ".join(sorted(extra)))
    return out


def main(argv):
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources (src/CMakeLists.txt) in " + ROOT)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.SubprocessError) as e:
        log("build failed: %s" % e)
        return 1

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workers", str(args.workers), "--shards", str(args.shards),
           "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
        return 1
    if proc.returncode != 0:
        log("%s exited with status %d" % (args.workload, proc.returncode))
        return 3 if proc.returncode == 3 else 1

    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["provenance"]["git_revision"] = git_revision()
    record["provenance"]["source_sha256"] = source_digest()
    try:
        metrics = contract_metrics(declared, record["metrics"], args.trace)
    except ValueError as e:
        log(str(e))
        return 1
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(out_dir, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")

    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print("digest: " + json.dumps(record["digest"], sort_keys=True))
    info = record["info"]
    print("wall: " + json.dumps({k: v for k, v in info.items()
                                 if k.startswith("wall_")}, sort_keys=True))
    print("info: " + json.dumps({k: v for k, v in info.items()
                                 if not isinstance(v, list)
                                 and not k.startswith("wall_")},
                                sort_keys=True))
    for failure in record["failures"]:
        print("failure: " + failure)
    result = {
        "correct": bool(record["correct"]) and record["failed"] == 0,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
