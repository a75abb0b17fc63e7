#!/usr/bin/env python3
"""Run one Auto-Test benchmark workload from the root of a source tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: train-relational, select-sweep, predict (perfbench/README.md).
The first run builds the program and the benchmark (perfbench/build.py);
every run then starts one JVM with local-mode Spark on all cores. The JVM
prints each metric on its own line and, last, one JSON object {"correct",
"attempted", "failed", "metrics"}; this script passes that output through
and exits non-zero, without a result line, if the build or the run fails.

Two further modes:

    python3 perfbench/run.py --record           # print the outputs to record
    python3 perfbench/run.py --reference        # 3,000-column Table 5 check
"""
import argparse
import json
import os
import signal
import subprocess
import sys
import threading

sys.dont_write_bytecode = True
import build  # noqa: E402  (perfbench/build.py)

RUN_TIMEOUT_S = 170
REFERENCE_TIMEOUT_S = 900
HEAP = "2g"
REFERENCE_HEAP = "4g"

# The module options spark-submit adds on Java 17.
JAVA_MODULE_OPTIONS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--reference", action="store_true")
    a = ap.parse_args()
    if not (a.workload or a.record or a.reference):
        ap.error("--workload is required")
    if a.seconds < 1:
        ap.error("--seconds must be at least 1")
    return a


def jvm_command(classes, a):
    work = os.path.join(build.OUT, "work")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    heap = REFERENCE_HEAP if a.reference else HEAP
    cmd = [build.java(), "-Xms" + heap, "-Xmx" + heap, "-XX:-UsePerfData"] + JAVA_MODULE_OPTIONS + [
        "-Djava.io.tmpdir=" + tmp,
        "-Dperfbench.work=" + work,
        "-Dlog4j2.configurationFile=" + os.path.join(build.HERE, "log4j2.properties"),
        "-cp", os.pathsep.join([classes] + build.spark_jars()),
        "repro.perfbench.Main",
    ]
    if a.record:
        return cmd + ["--record"]
    if a.reference:
        return cmd + ["--reference"]
    return cmd + ["--workload", a.workload, "--seed", str(a.seed),
                  "--seconds", str(a.seconds), "--trace", str(a.trace)]


def main():
    a = parse_args()
    try:
        classes = build.build()
        cmd = jvm_command(classes, a)
    except build.BuildError as e:
        print("build failed: %s" % e, file=sys.stderr)
        return 2

    proc = subprocess.Popen(cmd, cwd=build.ROOT, stdout=subprocess.PIPE, text=True)

    def stop(*_):
        if proc.poll() is None:
            proc.kill()
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, lambda *_: (stop(), sys.exit(130)))
    timer = threading.Timer(REFERENCE_TIMEOUT_S if a.reference else RUN_TIMEOUT_S, stop)
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            line = line.rstrip("\n")
            if not a.workload or not line.startswith("{"):
                print(line, flush=True)
            if line.strip():
                last = line
    finally:
        timer.cancel()
        stop()
        rc = proc.wait()
    if rc != 0:
        print("benchmark JVM exited with code %d" % rc, file=sys.stderr)
        return rc if rc > 0 else 1
    if a.workload and not (a.record or a.reference):
        try:
            result = json.loads(last)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
        except (ValueError, AssertionError):
            print("the run printed no result line", file=sys.stderr)
            return 3
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
