#!/usr/bin/env python3
"""Build and run the HBBMC benchmark.

    python3 hbbench/run.py --workload suite --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout of the repository. The first run builds
the benchmark and the repository's main sources with sbt into .bench_build/;
later runs reuse that build while the sources are unchanged. The last line
of standard output is the run's result as one JSON object; build logs go to
standard error. See hbbench/README.md.
"""
import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")
PROGRAM = os.path.join(ROOT, "src", "main")
# A run must end within 180 seconds; leave room for JVM shutdown.
RUN_LIMIT_S = 170
HEAP = ["-Xms3g", "-Xmx3g"]  # a fixed heap: no resizing between passes
STACK = "-Xss128m"  # the kernels recurse once per clique vertex


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def source_files():
    """Every file the build reads: the program's and the benchmark's."""
    files = []
    for top in (PROGRAM, os.path.join(BENCH, "src", "main")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names]
    files += [os.path.join(BENCH, "build.sbt"), os.path.join(BENCH, "project", "build.properties")]
    return sorted(files)


def digest():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME")
    return home


def build(stamp):
    """Compile with sbt unless the last build used the same sources."""
    cp_file = os.path.join(BUILD, "classpath.txt")
    stamp_file = os.path.join(BUILD, "stamp")
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                return cp_file
    sbt = shutil.which("sbt")
    if not sbt:
        fail("sbt is not on PATH")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ, SPARK_HOME=spark_home())
    env.setdefault("COURSIER_MODE", "offline")
    opts = env.get("SBT_OPTS", "")
    if "sbt.offline" not in opts:
        opts += " -Dsbt.offline=true"
    env["SBT_OPTS"] = opts + f" -XX:-UsePerfData -Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}"
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={os.path.join(BUILD, 'sbt-global')}", "writeClasspath"]
    print(f"run.py: building ({' '.join(cmd[1:])})", file=sys.stderr)
    done = subprocess.run(cmd, cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL)
    if done.returncode != 0 or not os.path.isfile(cp_file):
        fail(f"build failed (sbt exit code {done.returncode})")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp_file


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or not shutil.which("git"):
        return "none"
    out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser(description="HBBMC benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--record", action="store_true",
                    help="rewrite hbbench/expected.tsv with this run's counts (seed 0 only)")
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(PROGRAM, "scala", "repro", "mce", "Engine.scala")):
        fail(f"the program's sources are missing under {PROGRAM}: run from a full checkout")

    stamp = digest()
    with open(build(stamp)) as fh:
        classpath = fh.read().strip()
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, *HEAP, STACK, "-XX:-UsePerfData",  # no hsperfdata file outside the checkout
           f"-Djava.io.tmpdir={os.path.join(BUILD, 'tmp')}",
           f"-Dhbbench.commit={git_commit()}", f"-Dhbbench.source={stamp}",
           "-cp", classpath, "repro.perf.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", os.path.join(BENCH, "expected.tsv")]
    if args.record:
        cmd.append("--record")
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    # On SIGTERM, exit through the `finally` below, which stops the JVM.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"the run did not finish within {RUN_LIMIT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    print(f"run.py: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    main()
