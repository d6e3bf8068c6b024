"""Record the benchmark of one checkout in BENCH_<short-sha>.json.

    python3 tools/bench_record.py CHECKOUT

CHECKOUT is the root of a degenlab checkout (a git clone, so that its HEAD
names the file; a tree with uncommitted changes to tracked files is named
BENCH_<short-sha>-dirty.json).  The recorder uses the standard library only
and measures everything in child processes, one at a time, each running the
checkout's own code with one BLAS thread:

- ``python3 bench/run.py --workload W --seed 1 --seconds 25 --trace 0``,
  3 times for each of the three workloads; the JSON line that run.py prints
  last is parsed (a malformed one is refused, naming what is wrong), and
  the file keeps the median, min and max of setup_s, op_cost and
  peak_rss_mb, and the failed and attempted operations summed over the runs;
- the in-process wall time of ``cli.run`` on each golden config
  (tests/test_golden.py CONFIGS), the median of GOLDEN_RUNS runs in one
  process, and the platform fingerprint of tests/golden/regen.py
  ``platform()``;
- the wall time of the Tier-1 suite,
  ``PYTHONPATH=src python3 -m pytest -q --continue-on-collection-errors``.

It also records nproc and the CPU model from /proc/cpuinfo.  The file is
written to the current directory.  Every record is made with the same
RUNS, SECONDS and SEED, so any two records compare.
"""

import argparse
import contextlib
import datetime
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("duality_d2", "local_d1", "sweep_osc_d1")
METRICS = ("setup_s", "op_cost", "peak_rss_mb")
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors")
RUNS, SECONDS, SEED = 3, 25, 1      # of each workload's bench/run.py runs
# a golden config runs in milliseconds: enough runs that the median is a
# warm run, not the first one or a burst of load on a shared machine
GOLDEN_RUNS = 21
# bench/run.py pins its BLAS threads itself; this pinning is for the golden
# and Tier-1 children
ONE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "NUMEXPR_NUM_THREADS")


class MalformedResult(ValueError):
    """The last line of a bench/run.py run is not the result it promises."""


def parse_result(stdout):
    """The result dict of the JSON line that bench/run.py prints last:
    ``correct`` (bool), ``attempted`` and ``failed`` (int) and
    ``metrics``, holding a finite ``value`` for each of METRICS.  Anything
    else raises MalformedResult naming the offending line or key."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise MalformedResult("bench/run.py printed no result line")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        raise MalformedResult("the last line is not JSON: %r"
                              % lines[-1][:200]) from None
    if not isinstance(result, dict):
        raise MalformedResult("the last line is not a JSON object: %r"
                              % lines[-1][:200])
    for key, kind, name in (("correct", bool, "a bool"),
                            ("attempted", int, "an int"),
                            ("failed", int, "an int"),
                            ("metrics", dict, "an object")):
        if type(result.get(key)) is not kind:
            raise MalformedResult("%r must be %s, got %r"
                                  % (key, name, result.get(key)))
    for name in METRICS:
        metric = result["metrics"].get(name)
        value = metric.get("value") if isinstance(metric, dict) else None
        if type(value) not in (int, float) or not math.isfinite(value):
            raise MalformedResult("metric %r must hold a finite value, got "
                                  "%r" % (name, metric))
    return result


def spread(values):
    """{"median", "min", "max"} of a list of numbers."""
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values)}


def _env(checkout):
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    env.update((var, "1") for var in ONE_THREAD)
    return env


def _child(checkout, args):
    """stdout of ``python3 *args`` run in checkout; a failure raises."""
    done = subprocess.run([sys.executable, *args], cwd=checkout,
                          env=_env(checkout), capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d:\n%s" % (" ".join(args),
                                                 done.returncode,
                                                 done.stderr[-2000:]))
    return done.stdout


def bench(checkout, workload):
    """The spread of each metric of RUNS runs of one workload, and the
    failed and attempted operations summed over them."""
    results = [parse_result(_child(checkout, [
        "bench/run.py", "--workload", workload, "--seed", str(SEED),
        "--seconds", str(SECONDS), "--trace", "0"])) for _ in range(RUNS)]
    out = {name: spread([r["metrics"][name]["value"] for r in results])
           for name in METRICS}
    out["correct"] = all(r["correct"] for r in results)
    out["failed"] = sum(r["failed"] for r in results)
    out["attempted"] = sum(r["attempted"] for r in results)
    return out


def golden_child(checkout, runs):
    """Run in a child process: print the platform fingerprint and the
    median wall time of ``runs`` in-process ``cli.run`` calls on each golden
    config of checkout, as one JSON line."""
    tests = os.path.join(checkout, "tests")
    sys.path[:0] = [os.path.join(checkout, "src"), tests,
                    os.path.join(tests, "golden")]
    import regen
    from test_golden import CONFIGS
    from degenlab.cli import parse_config, run
    walls = {}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        for name, config in CONFIGS.items():
            times = []
            for k in range(runs):
                out_dir = os.path.join(tmp, "%s-%d" % (name, k))
                parsed = parse_config(dict(config, out_dir=out_dir,
                                           emit_plots=False))
                t0 = time.perf_counter()
                run(parsed)
                times.append(time.perf_counter() - t0)
            walls[name] = statistics.median(times)
    print(json.dumps({"platform": regen.platform(), "golden_run_s": walls}))


def golden(checkout, runs):
    code = "import sys; sys.path.insert(0, %r); import bench_record; " \
        "bench_record.golden_child(%r, %d)" % (HERE, checkout, runs)
    return json.loads(_child(checkout, ["-c", code]).splitlines()[-1])


def tier1(checkout):
    """{"command", "wall_s", "summary"} of one Tier-1 run in checkout."""
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=checkout,
                          env=_env(checkout), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = done.stdout.strip().splitlines()
    return {"command": "PYTHONPATH=src python3 " + " ".join(TIER1),
            "wall_s": wall, "exit": done.returncode,
            "summary": lines[-1] if lines else ""}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def head(checkout):
    """(short sha, dirty) of the checkout's HEAD and tracked files."""
    git = ["git", "-C", checkout]
    sha = subprocess.run(git + ["rev-parse", "--short", "HEAD"], check=True,
                         capture_output=True, text=True).stdout.strip()
    status = subprocess.run(git + ["status", "--porcelain",
                                   "--untracked-files=no"], check=True,
                            capture_output=True, text=True).stdout
    return sha, bool(status.strip())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", help="root of the degenlab checkout to "
                                     "measure")
    args = ap.parse_args(argv)
    checkout = os.path.abspath(args.checkout)
    if not os.path.isfile(os.path.join(checkout, "bench", "run.py")):
        ap.error("%s has no bench/run.py" % checkout)
    sha, dirty = head(checkout)
    tag = sha + ("-dirty" if dirty else "")
    record = {
        "tag": tag, "head": sha, "dirty": dirty,
        "created_utc": datetime.datetime.now(
            datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "machine": {"nproc": os.cpu_count(),
                    "affinity": len(os.sched_getaffinity(0)),
                    "cpu_model": cpu_model(),
                    "python": sys.version.split()[0]},
        "bench": {"command": "python3 bench/run.py --workload W --seed %d "
                             "--seconds %d --trace 0" % (SEED, SECONDS),
                  "runs": RUNS, "workloads": {}},
    }
    for workload in WORKLOADS:
        print("%s: %d runs of %d s" % (workload, RUNS, SECONDS),
              file=sys.stderr)
        record["bench"]["workloads"][workload] = bench(checkout, workload)
    print("golden configs, tier-1", file=sys.stderr)
    record.update(golden(checkout, GOLDEN_RUNS))
    record["golden_runs"] = GOLDEN_RUNS
    record["tier1"] = tier1(checkout)
    path = "BENCH_%s.json" % tag
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % path, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
