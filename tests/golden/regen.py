"""Rewrite tests/golden/values.json from the code in this checkout.

    PYTHONPATH=src python tests/golden/regen.py [--check]

Run it only when a golden value is meant to move, and record each moved
value and the reason for it.  Never regenerate to make a defect pass.

With --check nothing is written: every stored value that the checkout
computes differently (compared bitwise, as float.hex) is printed with its
path, and the exit status is 1 if any would move, else 0.

    PYTHONPATH=src python tests/golden/regen.py --check --against PATH

compares with the values file PATH instead of the stored one: a file that
regen.py wrote in another checkout (say, of the parent commit), so that
only the values the two checkouts compute differently on this machine are
printed, whatever the stored file says.
"""

import argparse
import contextlib
import json
import os
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
    args = ap.parse_args(argv)
    if args.against is not None and not args.check:
        ap.error("--against needs --check")
    reference = args.against or test_golden.GOLDEN
    if args.check:
        with open(reference) as fh:
            want = json.load(fh)
    # the commands' progress lines go to stderr, the results to stdout
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(sys.stderr):
        values = test_golden.collect(tmp)
    if args.check:
        changes = list(moved(want, values))
        for path, stored, got in changes:
            print("%s: %s -> %s" % (path, _show(stored), _show(got)))
        print("%d value(s) differ from %s" % (len(changes), reference))
        return 1 if changes else 0
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
