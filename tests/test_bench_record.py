import importlib.util
import json
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "tools", "bench_record.py")
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the last lines bench/run.py prints with --trace 0
GOOD = """machine: nproc=2 affinity=2 python=3.11.7 numpy=2.4.6 scipy=1.17.1
setup: 0.5000 s raw (imports 0.3000 s, build median 0.002000 s of 5)
{"correct": true, "attempted": 224, "failed": 0, "metrics": {"setup_s": \
{"value": 0.566, "unit": "s"}, "op_cost": {"value": 0.467, "unit": "ref"}, \
"peak_rss_mb": {"value": 66.4, "unit": "MB"}}}
"""


def test_parse_result_reads_the_last_line():
    result = bench_record.parse_result(GOOD + "\n\n")
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (224, 0)
    assert {k: v["value"] for k, v in result["metrics"].items()} == {
        "setup_s": 0.566, "op_cost": 0.467, "peak_rss_mb": 66.4}


def _with(**changes):
    """GOOD with its result's keys replaced (None deletes a key)."""
    head, last = GOOD.rstrip("\n").rsplit("\n", 1)
    result = json.loads(last)
    for key, value in changes.items():
        if value is None:
            del result[key]
        else:
            result[key] = value
    return head + "\n" + json.dumps(result)


@pytest.mark.parametrize("text, named", [
    ("", "no result line"),
    (GOOD + "Traceback (most recent call last):\n", "not JSON"),
    (GOOD + "[1, 2]\n", "not a JSON object"),
    (_with(correct=None), "'correct' must be a bool"),
    (_with(attempted=2.5), "'attempted' must be an int"),
    (_with(failed=True), "'failed' must be an int"),
    (_with(metrics=[]), "'metrics' must be an object"),
    (_with(metrics={"setup_s": {"value": 1.0}, "op_cost": {"value": 1.0}}),
     "metric 'peak_rss_mb'"),
    (_with(metrics={"setup_s": {"value": 1.0}, "op_cost": {"value": "0.5"},
                    "peak_rss_mb": {"value": 60.0}}), "metric 'op_cost'"),
    (_with(metrics={"setup_s": {"value": float("nan")},
                    "op_cost": {"value": 0.5},
                    "peak_rss_mb": {"value": 60.0}}), "metric 'setup_s'"),
])
def test_parse_result_refuses_a_malformed_line_by_name(text, named):
    with pytest.raises(bench_record.MalformedResult, match=named):
        bench_record.parse_result(text)


def test_spread():
    assert bench_record.spread([3.0, 1.0, 2.0, 10.0]) == {
        "median": 2.5, "min": 1.0, "max": 10.0}
