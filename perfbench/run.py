#!/usr/bin/env python3
"""Run one benchmark workload over the synthetic FLIGHTS relation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run builds the program (the
repository's src/main/scala plus the harness in perfbench/src) with sbt
into perfbench/target; later runs reuse that build while the sources are
unchanged. The workload itself runs in one JVM (repro.perfbench.Main),
whose last stdout line is the JSON result. This script checks that the
result names exactly the metrics BENCHMARK.json declares for the chosen
mode (end-to-end with --trace 0, per-layer with --trace 1) before it lets
the line through.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
TARGET = os.path.join(HERE, "target")
STAMP = os.path.join(TARGET, "perfbench-build.stamp")
CLASSPATH = os.path.join(TARGET, "perfbench-classpath.txt")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
JVM_HEAP = ["-Xms2g", "-Xmx2g", "-XX:+UseTransparentHugePages"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Digest of every file the build reads, in a stable order."""
    h = hashlib.sha256()
    inputs = [PROGRAM_SRC, os.path.join(HERE, "src"),
              os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for top in inputs:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_killable(cmd, timeout, **kw):
    """Run `cmd` in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{cmd[0]} did not finish within {timeout} s")
    return proc.returncode, out


def build(digest):
    if os.path.exists(STAMP) and os.path.exists(CLASSPATH):
        with open(STAMP) as f:
            if f.read().strip() == digest:
                return
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        # A Spark distribution's bin/spark-submit sits next to its jars/.
        submit = shutil.which("spark-submit")
        home = os.path.dirname(os.path.dirname(os.path.realpath(submit))) if submit else ""
        if not os.path.isdir(os.path.join(home, "jars")):
            fail("set SPARK_HOME to a Spark distribution: the build compiles against its jars")
        env["SPARK_HOME"] = home
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true")
    code, out = run_killable(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL)
    lines = out.decode().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if code != 0 or not lines:
        fail(f"build failed (sbt exit code {code})")
    os.makedirs(TARGET, exist_ok=True)
    with open(CLASSPATH, "w") as f:
        f.write(lines[-1].strip())
    with open(STAMP, "w") as f:
        f.write(digest)


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"
    except OSError:
        return "none (git not found)"


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec, {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(PROGRAM_SRC, "repro")):
        fail(f"program sources not found under {os.path.relpath(PROGRAM_SRC, ROOT)}", 2)
    spec, expected = declared_metrics(args.trace)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}", 2)

    digest = source_digest()
    build(digest)
    with open(CLASSPATH) as f:
        cp = f.read().strip()

    # Keep the JVM's and Spark's scratch files inside the checkout.
    tmp = os.path.join(HERE, "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(HERE, "out", "spark-local"))
    cmd = ["java", *JVM_HEAP, "-Djava.io.tmpdir=" + tmp,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
           "-cp", cp, "repro.perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--commit", git_commit(), "--source", digest[:16]]
    code, out = run_killable(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             stdin=subprocess.DEVNULL)
    lines = out.decode().splitlines()
    if code != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail(f"benchmark JVM exited with code {code}")
    result = json.loads(lines[-1])
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong_unit = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        fail(f"metrics do not match BENCHMARK.json: missing {missing}, extra {extra}, "
             f"unit differs {wrong_unit}")
    sys.stdout.write(lines[-1] + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
