"""FEDEX explain benchmark: one closed-loop analyst explaining a notebook.

Usage (from the repository root):

    python3 perfbench/run.py --workload spotify_filter --seed 1 \
        --seconds 10 --trace 0

A run sets up a fresh Spark driver several times (session start, seeded
inputs, ``createDataFrame``), then explains the workload's steps in order
with ``Fedex(FedexConfig()).explain(step)``, starting each step only after the
previous one returned. The first pass runs in the fresh JVM and gives
``notebook_s``; further passes run while
``--seconds`` has not elapsed and must return the same candidates. After
the timed region, each step's top explanation is re-computed with the
literal Def. 3.3 re-run (``naive_contribution``) on the partition it came
from and must agree to 1e-9.

``--trace 1`` wraps the layers of the first pass (see ``tracer.py``) and
reports per-layer metrics instead of end-to-end ones, among them the
first step's latency in the fresh JVM; spans are written to
``perfbench/out/``. ``--smoke`` uses tiny inputs, for the benchmark's own
test. Every metric is printed by name and unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The exit code is non-zero when any check fails.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Two task threads: the explain path is bound by driver-side work per Spark
# job, so local[2] ran as fast as local[4] on a 4-core box and spread less
# between runs; the spare cores go to the driver JVM's JIT and GC threads.
CORES = min(2, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = "64"
SETUPS = 5  # set-ups per run; setup_s is their median
# C1 only: the explain path at 6k rows is short-lived driver code, and C2's
# background compilation was the main cause of runs of the same input
# differing; with C1 only, cold passes ran faster and spread less.
JIT = "-XX:TieredStopAtLevel=1"
TOLERANCE = 1e-9


def configure_spark_env(tmp: Path) -> None:
    """Driver JVM options, read at JVM launch (as in ``conftest.py``). All
    scratch files stay under ``tmp``."""
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LAUNCHER_OPTS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options '-Djava.io.tmpdir={tmp} -XX:-UsePerfData {JIT}' "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--conf spark.local.dir={tmp} pyspark-shell"
    )


def build_session():
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("fedex-perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def machine(spark) -> dict:
    conf = spark.conf
    return {
        "nproc": os.cpu_count(),
        "master": spark.sparkContext.master,
        "driver_memory": DRIVER_MEMORY,
        "spark_version": spark.version,
        "java_version": spark._jvm.java.lang.System.getProperty("java.version"),
        "jit": JIT,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "aqe": conf.get("spark.sql.adaptive.enabled"),
        "arrow": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
    }


def set_up(name: str, seed: int, smoke: bool, spark):
    """One set-up: (re)start the session, generate the seeded tables and
    hand them to Spark. Returns the session, the bundle and timings."""
    from repro.workload.queries import DatasetBundle
    from workloads import tables

    t0 = time.perf_counter()
    if spark is not None:
        spark.stop()
    spark = build_session()
    t1 = time.perf_counter()
    pdfs = tables(seed, smoke)
    bundle = DatasetBundle(name, {k: spark.createDataFrame(v) for k, v in pdfs.items()}, {})
    t2 = time.perf_counter()
    return spark, bundle, t1 - t0, t2 - t1


def explain_pass(sc, fedex, steps, tracer=None):
    """Explain every step once, in order. Per step: (seconds, jobs,
    explanations); the job count is read outside the timed region."""
    from tracer import job_stats

    out = []
    for i, step in enumerate(steps):
        if tracer is None:
            group = f"pass-step#{time.monotonic_ns()}"
            sc.setJobGroup(group, group)
            t = time.perf_counter()
            res = fedex.explain(step)
            dt = time.perf_counter() - t
            jobs = job_stats(sc, group)["jobs"]
        else:
            with tracer.step(i) as attrs:
                t = time.perf_counter()
                res = fedex.explain(step)
                dt = time.perf_counter() - t
            jobs = attrs["jobs"]
        out.append((dt, jobs, res))
    return out


@contextmanager
def keeping_partitions(kept: list):
    """Keep every partition the explain path builds (no timers, no job
    groups), so the check re-runs Def. 3.3 on the partition an explanation
    came from instead of building it again."""
    from repro.core import explain

    orig = explain.partitions_for_attribute

    def keep(*args, **kwargs):
        out = orig(*args, **kwargs)
        kept.extend(out)
        return out

    explain.partitions_for_attribute = keep
    try:
        yield
    finally:
        explain.partitions_for_attribute = orig


def check_top(step, e, kept, perturb: float = 0.0) -> bool:
    """Does the fast contribution of explanation ``e`` equal the literal
    Def. 3.3 re-run (drop the set, re-run the query, re-score)?"""
    from repro.core.contribution import naive_contribution

    key = (e.attr, e.method, e.via, e.n_sets)
    parts = [
        p for p in kept
        if p.base is step.partitioned_input and p.key() == key
        and p.labels.get(e.set_id) == e.set_label
    ]
    if not parts:
        return False
    naive = naive_contribution(step, parts[0], e.column, e.set_id)
    return abs(naive - (e.contribution + perturb)) <= TOLERANCE


def peak_rss_mb() -> float:
    """Peak RSS of the Python driver plus the largest reaped child (the
    driver JVM, once it has exited)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def stop_spark(spark) -> None:
    """Stop the session and the JVM it runs in, and wait for the JVM."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    gateway.shutdown()
    proc = getattr(gateway, "proc", None)
    if proc is not None:
        proc.stdin.close()
        proc.wait(timeout=60)
    SparkContext._gateway = SparkContext._jvm = None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs")
    ap.add_argument("--perturb", type=float, default=0.0,
                    help="add this to each checked contribution (tests the check)")
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "core" / "explain.py").is_file():
        print(f"perfbench: no FEDEX sources at {SRC}", file=sys.stderr)
        return 2
    tmp = OUT / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    configure_spark_env(tmp)
    sys.path.insert(0, str(SRC))

    from repro.core.explain import Fedex, FedexConfig
    from repro.workload.queries import BY_NUM
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    queries = WORKLOADS[args.workload]

    spark = None
    setups, sessions, inputs = [], [], []
    passes, first, attempted, failed = [], [], 0, 0
    try:
        for _ in range(2 if args.smoke else SETUPS):
            spark, bundle, s_sess, s_in = set_up(args.workload, args.seed, args.smoke, spark)
            sessions.append(s_sess)
            inputs.append(s_in)
            setups.append(s_sess + s_in)
        sc = spark.sparkContext
        info = machine(spark)
        steps = [BY_NUM[q].build(bundle) for q in queries]
        fedex = Fedex(FedexConfig())  # the paper's defaults, exact mode
        tracer = Tracer(sc) if args.trace else None

        kept = []
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < args.seconds:
            attempted += len(steps)
            try:
                if passes:
                    passes.append(explain_pass(sc, fedex, steps))
                elif tracer is None:
                    with keeping_partitions(kept):
                        passes.append(explain_pass(sc, fedex, steps))
                else:
                    with keeping_partitions(kept), tracer.installed():
                        passes.append(explain_pass(sc, fedex, steps, tracer))
            except Exception as exc:  # a failed explain is a counted failure
                print(f"perfbench: explain raised {exc!r}", file=sys.stderr)
                failed += len(steps)
                break

        # -- correctness, outside the timed region ---------------------
        first = passes[0] if passes else []
        for i, (_, _, res) in enumerate(first):
            if not res or not check_top(steps[i], res[0], kept, args.perturb):
                print(f"perfbench: step q{queries[i]} failed the Def. 3.3 check",
                      file=sys.stderr)
                failed += 1
        for later in passes[1:]:
            for i, (_, _, res) in enumerate(later):
                if [e.candidate_id for e in res] != [e.candidate_id for e in first[i][2]]:
                    print(f"perfbench: step q{queries[i]} changed candidates "
                          "between passes", file=sys.stderr)
                    failed += 1
        if tracer is not None and tracer.unattributed_jobs():
            print(f"perfbench: {tracer.unattributed_jobs()} Spark jobs ran outside "
                  "the traced layers", file=sys.stderr)
            failed += 1
    finally:
        if spark is not None:
            stop_spark(spark)

    failed = min(failed, attempted)
    if not first:
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1

    notebook_s = sum(dt for dt, _, _ in first)
    spark_jobs = sum(j for _, j, _ in first)
    if args.trace:
        shown = {i: res for i, (_, _, res) in enumerate(first)}
        metrics = tracer.layer_metrics(shown)
        metrics.update({
            "setup.session_s": statistics.median(sessions),
            "setup.inputs_s": statistics.median(inputs),
            "setup.first_s": setups[0],
            "trace.notebook_s": notebook_s,
            "trace.spark_jobs": spark_jobs,
            "trace.first_explain_s": first[0][0],
            "trace.overhead_s": tracer.overhead_s,
            "driver.peak_rss_mb": peak_rss_mb(),
        })
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed, "machine": info,
             "spans": tracer.records()}, indent=1))
    else:
        metrics = {
            "notebook_s": notebook_s,
            "spark_jobs": spark_jobs,
            "setup_s": statistics.median(setups),
        }
    shutil.rmtree(tmp, ignore_errors=True)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"workload {args.workload}  seed {args.seed}  steps q{', q'.join(map(str, queries))}"
          f"  passes {len(passes)}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in info.items()))
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} explain calls)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
