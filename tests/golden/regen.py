"""Rewrite tests/golden/values.json from the code in this checkout.

    PYTHONPATH=src python tests/golden/regen.py

Run it only when a golden value is meant to move, and record each moved
value and the reason for it.  Never regenerate to make a defect pass.
"""

import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import test_golden  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        values = test_golden.collect(tmp)
    with open(test_golden.GOLDEN, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    n_cli = 0
    for outputs in values["cli"].values():
        n_cli += 3 * len(outputs["reports"])
        n_cli += sum(len(v) for k, v in outputs.items() if k != "reports")
    print("wrote %s: %d cli values, %d norm values"
          % (test_golden.GOLDEN, n_cli, len(values["norms"])))


if __name__ == "__main__":
    main()
