"""The difference report of tools/compare_outputs.py for JSON outputs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

CASES = {
    "objects": ({"a": 1, "b": 2}, {"a": 1, "b": 3, "c": 0},
                "keys b, c (working tree only)"),
    "records": ([{"axis": 0, "evals": 9}, {"axis": 1}, {"axis": 2}],
                [{"axis": 0, "evals": 9}, {"axis": 1, "start": "parent"},
                 {"axis": 2, "evals": 4}],
                "record 1 keys start (working tree only); "
                "record 2 keys evals (working tree only)"),
    "record_count": ([{"a": 1}, {"a": 2}], [{"a": 0}],
                     "record 0 keys a; 2 records in the base, 1 in the "
                     "working tree"),
    "plain_lists": ([1], [1, 2], "top level is neither an object nor a "
                    "list of objects on both sides"),
    "object_and_list": ({"a": 1}, [{"a": 1}], "top level is neither an "
                        "object nor a list of objects on both sides"),
}

# compare_outputs imports bench/run.py, which must pin the BLAS threads
# before numpy loads, so the diffs are taken in a fresh interpreter
SCRIPT = """
import json, sys
from compare_outputs import json_key_diff
cases = json.load(sys.stdin)
print(json.dumps({name: json_key_diff(json.dumps(a).encode(),
                                      json.dumps(b).encode())
                  for name, (a, b) in cases.items()}))
"""


@pytest.fixture(scope="module")
def diffs() -> dict:
    cases = {name: (a, b) for name, (a, b, _) in CASES.items()}
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=TOOLS,
                          input=json.dumps(cases), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", CASES)
def test_json_key_diff(diffs, name):
    assert diffs[name] == CASES[name][2]
