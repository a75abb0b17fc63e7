#!/usr/bin/env python3
"""Build file of the benchmark package.

Compiles the program's sources (src/main/scala) together with the
benchmark's own (perfbench/src) into one class directory under
.bench_build/perfbench/, using the Scala compiler and the jars of the Spark
distribution (SPARK_HOME, or the one whose spark-submit is on PATH). The
directory name carries a hash of every source and jar, so a tree that has
been built is reused and a changed tree is rebuilt.

    python3 perfbench/build.py        # prints the class directory
"""
import glob
import hashlib
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build", "perfbench")
COMPILE_TIMEOUT_S = 800


class BuildError(Exception):
    pass


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        raise BuildError("no Spark distribution found: set SPARK_HOME")
    return home


def spark_jars():
    jars = sorted(glob.glob(os.path.join(spark_home(), "jars", "*.jar")))
    if not jars:
        raise BuildError("the Spark distribution has no jars")
    return jars


def java():
    home = os.environ.get("JAVA_HOME")
    exe = os.path.join(home, "bin", "java") if home else shutil.which("java")
    if not exe or not os.path.exists(exe):
        raise BuildError("no java found")
    return exe


def sources():
    main = sorted(glob.glob(os.path.join(ROOT, "src", "main", "scala", "**", "*.scala"), recursive=True))
    own = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    if not main:
        raise BuildError("program sources src/main/scala not found")
    if not own:
        raise BuildError("benchmark sources perfbench/src not found")
    return main + own


def build():
    """Return the class directory, compiling it first if needed."""
    srcs = sources()
    jars = spark_jars()
    h = hashlib.sha256()
    for path in srcs:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    for jar in jars:
        h.update(os.path.basename(jar).encode())
    classes = os.path.join(OUT, "classes-" + h.hexdigest()[:16])
    if os.path.exists(os.path.join(classes, ".complete")):
        return classes

    compiler = [j for j in jars if re.match(r"scala-(compiler|library|reflect)-[0-9]", os.path.basename(j))]
    if len(compiler) != 3:
        raise BuildError("the Spark distribution has no Scala compiler jars")
    tmp = "%s.tmp-%d" % (classes, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    argfile = os.path.join(tmp, "scalac.args")
    with open(argfile, "w") as f:
        f.write("-nowarn\n-d\n%s\n-classpath\n%s\n" % (tmp, os.pathsep.join(jars)))
        f.write("".join(s + "\n" for s in srcs))
    cmd = [java(), "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + tmp,
           "-cp", os.pathsep.join(compiler),
           "scala.tools.nsc.Main", "@" + argfile]
    try:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=COMPILE_TIMEOUT_S, check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        shutil.rmtree(tmp, ignore_errors=True)
        raise BuildError("compilation failed: %s" % e)
    os.remove(argfile)
    open(os.path.join(tmp, ".complete"), "w").close()
    try:
        os.rename(tmp, classes)
    except OSError:  # built concurrently by another run
        shutil.rmtree(tmp, ignore_errors=True)
    return classes


if __name__ == "__main__":
    try:
        print(build())
    except BuildError as e:
        print("build failed: %s" % e, file=sys.stderr)
        sys.exit(2)
