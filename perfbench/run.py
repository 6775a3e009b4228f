#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve-drain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. Builds the program and the benchmark
driver from source into .bench_build/ (Release), gives the run a fresh
JIT artifact directory of its own, runs the driver, and relays its
output; the last line of standard output is the one-line JSON result.

The workloads and the metrics (names and units) are the ones
BENCHMARK.json declares; the driver reports exactly those metrics and
fails a run whose metric is missing or in another unit. Deterministic
metrics (modeled device values and counts) must repeat exactly between
runs of the same build, workload, seed and trace mode: each run
compares them with the first such run in this checkout and fails on
any drift.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
# --seconds may be at most MAX_SECONDS. A run also primes its JIT
# directory and checks every op against one epoch of the seed
# interpreter, so the driver is stopped after timeout(seconds).
MAX_SECONDS = 60


def timeout(seconds):
    return 60 + 6 * seconds


def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def child_env():
    """The environment of every child: compilers (the build's and the
    JIT's) keep their temporary files inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configure (once) and build the driver; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=child_env())
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"],
        check=True, stdout=sys.stderr, env=child_env())
    return os.path.join(BUILD, "perfbench")


def check_determinism(args, binary, line):
    """Compare this run's deterministic metrics with the first run of the
    same build, workload, seed and trace mode. Returns the drifted names."""
    current = json.loads(line[len("DETERMINISTIC "):])
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    store = os.path.join(BUILD_ROOT, "determinism", build_id)
    os.makedirs(store, exist_ok=True)
    path = os.path.join(
        store, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    if not os.path.exists(path):
        with open(path + ".tmp", "w") as f:
            json.dump(current, f, sort_keys=True)
        os.replace(path + ".tmp", path)
        return []
    with open(path) as f:
        first = json.load(f)
    return sorted(k for k in set(first) | set(current)
                  if first.get(k) != current.get(k))


def main():
    declared = declaration()
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in declared["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
        p.error("--seed must be >= 0 and --seconds in (0, %d]" % MAX_SECONDS)
    metrics = declared["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    os.makedirs(BUILD_ROOT, exist_ok=True)
    jit_dir = tempfile.mkdtemp(prefix="jit-", dir=BUILD_ROOT)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--jit-dir", jit_dir, "--metrics",
           ",".join("%s:%s" % (m["name"], m["unit"]) for m in metrics)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            env=child_env())
    try:
        out, _ = proc.communicate(timeout=timeout(args.seconds))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: driver stopped after %d s" % timeout(args.seconds),
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        shutil.rmtree(jit_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    result = lines[-1] if lines else ""
    print("\n".join(lines[:-1]))
    if proc.returncode != 0 or not result.startswith("{"):
        print(result)
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1

    res = json.loads(result)
    problems = []
    det = [l for l in lines if l.startswith("DETERMINISTIC ")]
    drift = check_determinism(args, binary, det[-1]) if det else ["(missing)"]
    if drift:
        print("CHECK FAILED: deterministic metrics differ from an earlier "
              "run with this seed: " + ", ".join(drift))
        res["correct"] = False
        print(json.dumps(res))
        return 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
