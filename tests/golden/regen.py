"""Rewrite tests/golden/values.json from the code in this checkout.

    PYTHONPATH=src python tests/golden/regen.py [--check]

Run it only when a golden value is meant to move, and record each moved
value and the reason for it.  Never regenerate to make a defect pass.

With --check nothing is written: every stored value that the checkout
computes differently (compared bitwise, as float.hex) is printed with its
path, then their count and the largest relative move among them (any
move of a leaf that is not a float counts as infinite) and whether it is
within test_golden.RTOL, and the exit status is 1 if any would move, else
0.  The platform it
computed on (numpy and scipy versions, numpy's dispatch targets and
OpenBLAS's core) is printed to stderr, so a count of moved values names
the machine it holds on.

    PYTHONPATH=src python tests/golden/regen.py --check --against PATH

compares with the values file PATH instead of the stored one: a file that
regen.py wrote in another checkout (say, of the parent commit), so that
only the values the two checkouts compute differently on this machine are
printed, whatever the stored file says.

    PYTHONPATH=src python tests/golden/regen.py --only PATH [PATH ...]

rewrites only the values at the named paths, written as --check prints
them (``/cli/hardy/reports[0][1]``; a path may also name a whole row or
output), with what the checkout computes; every other stored value keeps
its bytes.  A path that names no stored value is refused, and then
nothing is computed or written.
"""

import argparse
import contextlib
import ctypes
import glob
import json
import math
import os
import re
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import test_golden  # noqa: E402


def moved(want, got, path=""):
    """(path, stored, computed) for every leaf of the stored values that
    the computed values do not repeat exactly; a list whose length changed
    is one leaf."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            yield from moved(want.get(key), got.get(key), path + "/" + key)
    elif (isinstance(want, list) and isinstance(got, list)
          and len(want) == len(got)):
        for k, (w, g) in enumerate(zip(want, got)):
            yield from moved(w, g, "%s[%d]" % (path, k))
    elif want != got:
        yield path, want, got


def _steps(values, path):
    """The dict keys and list indices that lead to the value at path, as
    ``moved`` writes it, in values; None when values hold none there.  A
    key may hold "/" (the norm keys do), so the longest key that the path
    goes on with is taken."""
    steps = []
    while path:
        if isinstance(values, dict) and path.startswith("/"):
            ends = [key for key in values if path.startswith(key, 1)
                    and path[1 + len(key):2 + len(key)] in ("", "/", "[")]
            if not ends:
                return None
            step = max(ends, key=len)
            path = path[1 + len(step):]
        else:
            index = re.match(r"\[(\d+)\]", path)
            if not (isinstance(values, list) and index
                    and int(index.group(1)) < len(values)):
                return None
            step, path = int(index.group(1)), path[index.end():]
        steps.append(step)
        values = values[step]
    return steps or None


def _rewrite(stored, values, steps):
    """Put the value of values at steps into stored."""
    for step in steps[:-1]:
        stored, values = stored[step], values[step]
    stored[steps[-1]] = values[steps[-1]]


def platform():
    """The numpy and scipy versions, numpy's SIMD dispatch targets and the
    core that scipy's OpenBLAS runs, which decide the last bits of the
    values; the core is ``unknown`` without scipy's bundled OpenBLAS."""
    import numpy
    import scipy
    from numpy._core import _multiarray_umath
    core = "unknown"
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(
        scipy.__file__)), "scipy.libs", "libscipy_openblas-*.so"))
    if libs:
        corename = ctypes.CDLL(libs[0]).scipy_openblas_get_corename
        corename.restype = ctypes.c_char_p
        core = corename().decode()
    return "numpy %s, scipy %s, numpy dispatch %s, OpenBLAS core %s" % (
        numpy.__version__, scipy.__version__,
        " ".join(_multiarray_umath.__cpu_dispatch__), core)


def relative_move(stored, got):
    """|got - stored| / max(|stored|, |got|) for two float.hex leaves, as
    test_golden compares them with RTOL; infinite for any other leaf."""
    try:
        a, b = float.fromhex(stored), float.fromhex(got)
    except (TypeError, ValueError):
        return math.inf
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale > 0 else 0.0


def _show(value):
    """A float.hex leaf as its decimal value, anything else as is."""
    try:
        return repr(float.fromhex(value))
    except (TypeError, ValueError):
        return repr(value)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--check", action="store_true",
                    help="write nothing; print each value that would move "
                         "and exit 1 if any would")
    ap.add_argument("--against", metavar="PATH",
                    help="with --check, compare with the values file PATH "
                         "(written by regen.py in another checkout) "
                         "instead of the stored values")
    ap.add_argument("--only", nargs="+", metavar="PATH",
                    help="rewrite only the stored values at these paths, "
                         "written as --check prints them")
    args = ap.parse_args(argv)
    if args.against is not None and not args.check:
        ap.error("--against needs --check")
    if args.only is not None and args.check:
        ap.error("--only writes and --check does not")
    reference = args.against or test_golden.GOLDEN
    if args.check or args.only:
        with open(reference) as fh:
            want = json.load(fh)
    only = [_steps(want, path) for path in args.only or ()]
    for path, steps in zip(args.only or (), only):
        if steps is None:
            ap.error("--only: no stored value at %r" % path)
    # the commands' progress lines go to stderr, the results to stdout
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        values = test_golden.collect(tmp)
    if args.check:
        print("computed on: %s" % platform(), file=sys.stderr)
        changes = list(moved(want, values))
        for path, stored, got in changes:
            print("%s: %s -> %s" % (path, _show(stored), _show(got)))
        line = "%d value(s) differ from %s" % (len(changes), reference)
        if changes:
            move, path = max((relative_move(stored, got), path)
                             for path, stored, got in changes)
            line += "; the largest relative move, %.2g at %s, is %s " \
                "test_golden.RTOL = %g" % (
                    move, path, "within" if move <= test_golden.RTOL
                    else "over", test_golden.RTOL)
        print(line)
        return 1 if changes else 0
    if args.only:
        for path, steps in zip(args.only, only):
            if _steps(values, path) != steps:
                ap.error("--only: the checkout computes no value at %r"
                         % path)
            _rewrite(want, values, steps)
        values = want
    with open(test_golden.GOLDEN, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_cli = 0
    for outputs in values["cli"].values():
        n_cli += 3 * len(outputs["reports"])
        n_cli += sum(len(v) for k, v in outputs.items() if k != "reports")
    print("wrote %s: %d cli values, %d norm values"
          % (test_golden.GOLDEN, n_cli, len(values["norms"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
