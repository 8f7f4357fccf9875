#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Run it from the root of a checkout. The first run builds the library and the
benchmark from source with sbt (the build in perfbench/) into .bench_build/;
later runs reuse that build until a source file changes. The benchmark then
runs on one JVM with a local Spark session. Its report goes to standard
output, and the last line is one JSON object with the metrics that
BENCHMARK.json lists: the end-to-end ones with --trace 0, the per-layer ones
with --trace 1. The exit code is 0 only when every operation and every
output check passed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
LIB_SOURCES = os.path.join(ROOT, "src", "main", "scala")
CLASSPATH_FILE = os.path.join(BUILD_DIR, "classpath.txt")
DIGEST_FILE = os.path.join(BUILD_DIR, "sources.sha256")
WORKLOADS = ("supervised-cit2", "active-rest", "serve-cit2")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def sources_digest():
    """Hash of every file the build reads from the checkout."""
    h = hashlib.sha256()
    roots = [LIB_SOURCES, os.path.join(BENCH_DIR, "src")]
    files = [os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    for f in sorted(files):
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def driver_mem():
    """Half the machine's memory in GB, clamped to 2..8, as the tier-1 test command sets it."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    g = int(line.split()[1]) // 2097152
                    return f"{min(8, max(2, g))}g"
    except OSError:
        pass
    return "2g"


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if home:
        return home
    submit = shutil.which("spark-submit")
    if not submit:
        fail("no Spark distribution: set SPARK_HOME or put spark-submit on PATH")
    return os.path.dirname(os.path.dirname(os.path.realpath(submit)))


def build(env):
    """Compiles the library and the benchmark; returns the runtime classpath."""
    digest = sources_digest()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(DIGEST_FILE):
        with open(DIGEST_FILE) as fh:
            if fh.read().strip() == digest:
                with open(CLASSPATH_FILE) as fh:
                    return fh.read().strip()
    if not shutil.which("sbt"):
        fail("sbt is not on PATH")
    os.makedirs(BUILD_DIR, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=BENCH_DIR, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    lines = [l.strip() for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or lines[-1].startswith("["):
        sys.stderr.write(p.stdout[-4000:])
        fail("build failed")
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(lines[-1])
    with open(DIGEST_FILE, "w") as fh:
        fh.write(digest)
    return lines[-1]


def declared_metrics(trace):
    """Names and units BENCHMARK.json declares for this mode, or None without the file."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs (ErSynth.generateTiny); runs in seconds, for the benchmark's own test")
    a = ap.parse_args()

    if not os.path.isdir(LIB_SOURCES) or not os.path.isdir(os.path.join(BENCH_DIR, "src")):
        fail("run from the root of a checkout: the library sources (src/main/scala) and perfbench/ are needed")

    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env["SPARK_DRIVER_MEM"] = driver_mem()
    env["SPARK_LOCAL_DIRS"] = os.path.join(BUILD_DIR, "spark-local")
    classpath = build(env)

    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-XX:-UsePerfData", f"-Xmx{env['SPARK_DRIVER_MEM']}", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(BENCH_DIR, 'log4j2.properties')}", "-cp", classpath,
           "repro.perfbench.Bench", "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.smoke:
        cmd += ["--smoke", "1"]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = out.rstrip("\n").split("\n")
    report, last = lines[:-1], lines[-1] if lines else ""
    print("\n".join(report))
    try:
        result = json.loads(last)
    except ValueError:
        fail(f"no result line (exit code {proc.returncode})")
    declared = declared_metrics(a.trace == "1")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if proc.returncode == 0 and declared is not None and got != declared:
        fail(f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(got))}, "
             f"undeclared {sorted(set(got) - set(declared))}, "
             f"unit mismatch {sorted(k for k in got if k in declared and got[k] != declared[k])}")
    print(last)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
