"""The difference report of tools/compare_outputs.py: the keys of JSON
outputs, and the first differing line of any other file."""

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

MODEL = "MEIP-MODEL 1\nbundle axes.txt\nconfig 22\nlambda = 0.3\n"
LINE_CASES = {
    "config_block": (MODEL, MODEL.replace("config 22", "config 21"),
                     r"line 3: 'config 22\n' (base), 'config 21\n' "
                     "(working tree)"),
    "truncated": ("a\n" + "1.5 " * 40, "a\n" + "1.5 " * 39 + "2.5 ",
                  "line 2: '" + "1.5 " * 15 + "'... (base), '" + "1.5 " * 15
                  + "'... (working tree)"),
    "end_of_file": ("a\n", "a\nb\n", r"line 2: end of file (base), 'b\n' "
                    "(working tree)"),
    "line_ending": ("a\n", "a", r"line 1: 'a\n' (base), 'a' (working tree)"),
}

# compare_outputs imports bench/run.py, which must pin the BLAS threads
# before numpy loads, so the diffs are taken in a fresh interpreter
SCRIPT = """
import json, sys
from compare_outputs import json_key_diff, line_diff
cases, lines = json.load(sys.stdin)
print(json.dumps([{name: json_key_diff(json.dumps(a).encode(),
                                       json.dumps(b).encode())
                   for name, (a, b) in cases.items()},
                  {name: line_diff(a.encode(), b.encode())
                   for name, (a, b) in lines.items()}]))
"""


@pytest.fixture(scope="module")
def diffs() -> list:
    cases = [{name: (a, b) for name, (a, b, _) in table.items()}
             for table in (CASES, LINE_CASES)]
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=TOOLS,
                          input=json.dumps(cases), capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout)


@pytest.mark.parametrize("name", CASES)
def test_json_key_diff(diffs, name):
    assert diffs[0][name] == CASES[name][2]


@pytest.mark.parametrize("name", LINE_CASES)
def test_line_diff(diffs, name):
    assert diffs[1][name] == LINE_CASES[name][2]
