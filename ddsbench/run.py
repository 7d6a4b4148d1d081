#!/usr/bin/env python3
"""End-to-end benchmark of the DDS engine.

Run from the root of the repository:

    python3 ddsbench/run.py --workload approx-spark --seed 1 --seconds 15 --trace 0
    python3 ddsbench/run.py --workload all --seed 1 --seconds 15

The first call builds the benchmark (an sbt build in ddsbench/ that compiles
the program's sources next to the benchmark's own) into .bench_build/; later
calls reuse the build while no source file has changed. Each run starts one
driver JVM with Spark in local mode, generates the workload's input from the
seed, and measures closed-loop repetitions for the given number of seconds.
The last line of standard output is the result as one JSON object. With
``--workload all`` every workload runs untraced and traced, and the last line
maps each workload to its two results.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ["approx-spark", "exact-powerlaw"]
HEAP = "3g"
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700

# Module access Spark needs on Java 17, as spark-submit grants it.
JAVA_MODULE_OPTIONS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p
    for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    ]
] + ["-Djdk.reflect.useDirectMethodHandle=false"]

# Compile hot methods with C2 after fewer calls than the JVM default, so that
# Spark's driver-side planning code reaches its steady speed within the
# warm-up rather than drifting through the measured repetitions.
JIT_OPTIONS = ["-XX:Tier4InvocationThreshold=1000", "-XX:Tier4MinInvocationThreshold=200",
               "-XX:Tier4CompileThreshold=2000", "-XX:Tier4BackEdgeThreshold=8000"]


def fail(msg, code=2):
    print("ddsbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files(root):
    for top in ["src/main/scala", "ddsbench/src", "ddsbench/build.sbt", "ddsbench/project/build.properties"]:
        path = os.path.join(root, top)
        if os.path.isfile(path):
            yield path
        for d, _, files in sorted(os.walk(path)):
            for f in sorted(files):
                yield os.path.join(d, f)


def build(root, out):
    """Compiles the benchmark and the program; returns the runtime classpath."""
    h = hashlib.sha256()
    for path in source_files(root):
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    stamp = h.hexdigest()
    stamp_file = os.path.join(out, "build.stamp")
    cp_file = os.path.join(out, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as f:
                    return f.read()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.offline=true",
           "-Dsbt.global.base=" + os.path.join(out, "sbt-global"),
           "export Runtime/fullClasspath"]
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=os.path.join(root, "ddsbench"), env=env,
                                  stdout=subprocess.PIPE, stderr=log, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out; see " + log_path, 1)
        log.write(proc.stdout)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines or "classes" not in lines[-1]:
        sys.stderr.write("".join(proc.stdout.splitlines(True)[-40:]))
        fail("build failed; see " + log_path, 1)
    classpath = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(classpath)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath


def git_sha(root):
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(root, out, classpath, workload, seed, seconds, trace):
    """Runs one workload in a fresh JVM; returns (exit code, stdout lines)."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP] + JIT_OPTIONS + JAVA_MODULE_OPTIONS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dspark.local.dir=" + os.path.join(tmp, "spark"),
        "-Dspark.sql.warehouse.dir=" + os.path.join(tmp, "warehouse"),
        "-Dspark.driver.host=127.0.0.1",
        "-Dddsbench.sha=" + git_sha(root),
        "-cp", classpath, "ddsbench.Main",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    # Spark would put its scratch files in SPARK_LOCAL_DIRS over spark.local.dir.
    env = {k: v for k, v in os.environ.items() if k != "SPARK_LOCAL_DIRS"}
    log_path = os.path.join(out, "run.log")
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=log,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("run timed out after %d s; see %s" % (RUN_TIMEOUT_S, log_path), 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
    return proc.returncode, lines


def result_of(lines):
    try:
        r = json.loads(lines[-1])
        return r if set(r) == {"correct", "attempted", "failed", "metrics"} else None
    except (IndexError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isdir(os.path.join(root, "src", "main", "scala", "repro")):
        fail("the program's sources (src/main/scala/repro) are not here; run from the repository root")
    out = os.path.join(root, ".bench_build", "ddsbench")
    os.makedirs(out, exist_ok=True)
    classpath = build(root, out)

    if args.workload != "all":
        code, lines = run_once(root, out, classpath, args.workload, args.seed, args.seconds, args.trace)
        if code != 0 or result_of(lines) is None:
            print("\n".join(lines[:-1]))
            fail("run failed (exit code %d)" % code, code or 1)
        print("\n".join(lines))
        return

    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, lines = run_once(root, out, classpath, workload, args.seed, args.seconds, trace)
            print("\n".join(lines[:-1]))
            if code != 0 or result_of(lines) is None:
                fail("run of %s failed (exit code %d)" % (workload, code), code or 1)
            results.setdefault(workload, {})["trace%d" % trace] = result_of(lines)
    print(json.dumps(results))


if __name__ == "__main__":
    main()
