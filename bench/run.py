"""degenlab benchmark: one workload, one single-threaded process.

    python3 bench/run.py --workload {duality_d2,local_d1,sweep_osc_d1}
                         --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  The process imports degenlab from
``src/``, builds the workload's inputs from the seed, runs one untimed
warm-up operation (with a self-test showing that the workload's check
rejects a corrupted output, and the once-per-run checks), then repeats
whole rounds of operations for S seconds.  After every operation it runs
the reference kernel (refkernel.py); ``op_cost`` is an operation's time in
units of that kernel.  Every operation's output is checked, untimed.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 the degenlab functions listed in tracing.py are wrapped and the
last line carries the per-layer metrics, and the spans are written to
bench/out/.  See bench/README.md.
"""

import os
import sys
import time

sys.dont_write_bytecode = True       # leave no __pycache__ in the checkout
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"           # before numpy is imported

import argparse          # noqa: E402
import json              # noqa: E402
import resource          # noqa: E402
import shutil            # noqa: E402
import statistics        # noqa: E402
import tempfile          # noqa: E402
import traceback         # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
# setup_s is set-up time in seconds of a nominal machine on which one
# reference-kernel call takes REF_NOMINAL_S; the kernel is timed
# SETUP_REF_CALLS times right after the set-up.
REF_NOMINAL_S = 0.010
SETUP_REF_CALLS = 10
REF_SHARE = 0.1          # reference-kernel time per operation time
REF_MIN_CALLS = 3
# the keys of workloads.WORKLOADS, named here so that bad arguments are
# rejected before numpy and degenlab are imported
WORKLOAD_NAMES = ("duality_d2", "local_d1", "sweep_osc_d1")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def tail_percentile(samples):
    """(label, value) of the highest of p99.9/p99/p90 with at least ten
    samples beyond it, or None below forty samples."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    for q in (99.9, 99.0, 90.0):
        if n * (1 - q / 100.0) >= 10:
            return "p%g" % q, ordered[min(n - 1, int(q / 100.0 * n))]
    return None


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "degenlab", "__init__.py")):
        print("error: %s/degenlab not found; run from the root of a degenlab "
              "checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t_import = time.perf_counter()
    import numpy as np
    import scipy
    import degenlab
    import workloads
    import_s = time.perf_counter() - t_import

    print("machine: nproc=%d affinity=%d python=%s numpy=%s scipy=%s "
          "degenlab=%s" % (os.cpu_count() or 0, len(os.sched_getaffinity(0)),
                           sys.version.split()[0], np.__version__,
                           scipy.__version__, degenlab.__version__))
    print("run: workload=%s seed=%d seconds=%g trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-" % args.workload, dir=OUT)
    try:
        return measure(args, workloads.WORKLOADS[args.workload], workdir,
                       import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workload_cls, workdir, import_s):
    from refkernel import ReferenceKernel
    from tracing import TRACED, Tracer

    clock = time.perf_counter
    builds = []
    for _ in range(SETUP_REPEATS):
        t0 = clock()
        wl = workload_cls(args.seed, workdir)
        builds.append(clock() - t0)
    setup_raw = import_s + statistics.median(builds)

    kernel = ReferenceKernel()
    kernel()

    def reference(op_seconds, min_calls=REF_MIN_CALLS):
        """Kernel calls for REF_SHARE of the operation's time (at least
        min_calls); returns their times."""
        samples = []
        t_stop = clock() + REF_SHARE * op_seconds
        while len(samples) < min_calls or clock() < t_stop:
            t0 = clock()
            kernel()
            samples.append(clock() - t0)
        return samples

    setup_ref = statistics.fmean(reference(0.0, SETUP_REF_CALLS))
    setup_s = setup_raw * REF_NOMINAL_S / setup_ref
    correct = True

    # warm-up: untimed operation, its checks, the once-per-run checks and
    # the self-test of the check on a corrupted output
    t0 = clock()
    out = wl.run(0)
    warm_s = clock() - t0
    warm_ref = statistics.fmean(reference(warm_s))
    obs = wl.observe(0, out)
    fails = wl.verify(obs) + wl.once(0, out)
    caught = wl.verify(wl.corrupt(0, out, obs))
    wl.cleanup(0, out)
    for msg in fails:
        print("CHECK FAILED (warm-up): %s" % msg)
    if fails:
        correct = False
    if caught:
        print("self-test: corrupted output rejected (%s)" % caught[0])
    else:
        print("CHECK FAILED: self-test, corrupted output was accepted")
        correct = False
    print("warm-up: %.4f s = %.2f ref" % (warm_s, warm_s / warm_ref))

    tracer = None
    if args.trace:
        tracer = Tracer()
        slots = tracer.install()
        print("tracing: %d functions wrapped in %d namespace slots"
              % (len(TRACED), slots))

    op_s, ref_s = [], []
    ratios = [[] for _ in range(wl.round_len)]
    attempted = failed = rounds = 0
    i = 0
    before = reference(warm_s)
    t_end = clock() + args.seconds
    while True:
        for k in range(wl.round_len):
            attempted += 1
            if tracer:
                tracer.op, tracer.active = i, True
            t0 = clock()
            try:
                out = wl.run(i)
                dt = clock() - t0
                error = None
            except Exception:
                dt = clock() - t0
                error = traceback.format_exc(limit=3)
            if tracer:
                tracer.active = False
            after = reference(dt)
            ref = statistics.fmean(before + after)
            before = after
            op_s.append(dt)
            ref_s.append(ref)
            ratios[k].append(dt / ref)
            if error is not None:
                failed += 1
                wl.cleanup(i, None)
                print("OPERATION FAILED (op %d, seed/lambda %r):\n%s"
                      % (i, wl.inputs(i), error), file=sys.stderr)
            else:
                fails = wl.verify(wl.observe(i, out))
                wl.cleanup(i, out)
                if fails:
                    failed += 1
                    correct = False
                    for msg in fails:
                        print("CHECK FAILED (op %d, seed/lambda %r): %s"
                              % (i, wl.inputs(i), msg))
            i += 1
        rounds += 1
        if clock() >= t_end:
            break

    # each operation of the round: median over rounds; op_cost: their mean
    per_op = [statistics.median(r) for r in ratios]
    op_cost = statistics.fmean(per_op)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_med = statistics.median(ref_s)
    line = "raw op time: median %.4f s" % statistics.median(op_s)
    tail = tail_percentile(op_s)
    if tail:
        line += ", %s %.4f s" % tail
    print("%s over %d ops in %d rounds; reference kernel median %.2f ms"
          % (line, len(op_s), rounds, 1e3 * ref_med))
    print("op_cost per operation of the round (median over rounds): %s"
          % " ".join("%.2f" % c for c in per_op))
    print("setup: %.4f s raw (imports %.4f s, build median %.6f s of %d); "
          "reference kernel %.2f ms just after"
          % (setup_raw, import_s, statistics.median(builds), len(builds),
             1e3 * setup_ref))

    if tracer is None:
        metrics = {"setup_s": (setup_s, "s"), "op_cost": (op_cost, "ref"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
    else:
        calls, self_s = tracer.totals()
        total_ref = sum(ref_s)
        metrics = {"traced.op_cost": (op_cost, "ref")}
        for (module, qualname), n, s in zip(TRACED, calls, self_s):
            name = "%s.%s" % (module, qualname)
            metrics[name + ".calls"] = (n / attempted, "count")
            metrics[name + ".self_cost"] = (s / total_ref, "ref")
        path = os.path.join(OUT, "spans-%s-seed%d.csv.gz"
                            % (args.workload, args.seed))
        tracer.write(path)
        print("spans: %d written to %s" % (len(tracer.spans),
                                           os.path.relpath(path, ROOT)))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
