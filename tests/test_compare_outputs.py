"""The difference report of tools/compare_outputs.py: the keys of JSON
outputs, the first differing line of any other file with the number of
lines only in each side, whether two files differ only in numbers, and
the state evaluations, j_final ratios and stopping rules of two axis
provenances, and the line count of a source tree."""

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
ONE_EACH = "; 1 line only in the base, 1 only in the working tree"

LINE_CASES = {
    "config_block": (MODEL, MODEL.replace("config 22", "config 21"),
                     r"line 3: 'config 22\n' (base), 'config 21\n' "
                     "(working tree)" + ONE_EACH),
    "truncated": ("a\n" + "1.5 " * 40, "a\n" + "1.5 " * 39 + "2.5 ",
                  "line 2: '" + "1.5 " * 15 + "'... (base), '" + "1.5 " * 15
                  + "'... (working tree)" + ONE_EACH),
    "end_of_file": ("a\n", "a\nb\n", r"line 2: end of file (base), 'b\n' "
                    "(working tree); 0 lines only in the base, 1 only in the "
                    "working tree"),
    "line_ending": ("a\n", "a", r"line 1: 'a\n' (base), 'a' (working tree)"
                    + ONE_EACH),
    "deleted_line": (MODEL, MODEL.replace("bundle axes.txt\n", ""),
                     r"line 2: 'bundle axes.txt\n' (base), 'config 22\n' "
                     "(working tree); 1 line only in the base, 0 only in the "
                     "working tree"),
}

# (changed integers, largest change over the line's largest number), or
# None when the text between the numbers differs
NUMBER_CASES = {
    "round_off": ("j 0.1234567890123456 2\n", "j 0.1234567890123457 2\n",
                  [0, pytest.approx(5.55e-17, rel=1e-2)]),
    "config_block": (MODEL, MODEL.replace("config 22", "config 21"),
                     [1, pytest.approx(1 / 22)]),
    "added_line": ("a 1\n", "a 1\nb 2\n", None),
    "changed_word": ("lambda = 0.3\n", "gamma = 0.3\n", None),
}



def axis(forest, evals, j, iterations=1, stop="eps_x"):
    return {"forest": forest, "state_evals": evals, "j_final": j,
            "iterations": iterations, "converged_by": stop}


# (base state evaluations, working tree's, base zero-progress axes, working
# tree's, j_final ratios working tree / base of the axes matched by forest
# and index, forests in name order, base axes per stopping rule, working
# tree's)
PROVENANCE_CASES = {
    "matched": ([axis("a", 9, 2.0), axis("a", 5, 4.0), axis("b", 7, 1.0)],
                [axis("a", 6, 1.0), axis("a", 4, 5.0), axis("b", 7, 1.5)],
                [21, 17, 0, 0, [0.5, 1.25, 1.5], {"eps_x": 3},
                 {"eps_x": 3}]),
    "forest_order": ([axis("b", 3, 2.0), axis("a", 4, 1.0)],
                     [axis("a", 2, 3.0), axis("b", 5, 1.0)],
                     [7, 7, 0, 0, [3.0, 0.5], {"eps_x": 2}, {"eps_x": 2}]),
    "unmatched": ([axis("a", 9, 2.0), axis("c", 1, 1.0)],
                  [axis("a", 6, 1.0), axis("a", 8, 1.0), axis("b", 3, 1.0)],
                  [10, 17, 0, 0, [0.5], {"eps_x": 2}, {"eps_x": 3}]),
    "zero_base": ([axis("a", 2, 0.0), axis("a", 3, -2.0)],
                  [axis("a", 2, 1.0), axis("a", 3, -1.0)],
                  [5, 5, 0, 0, [0.5], {"eps_x": 2}, {"eps_x": 2}]),
    "zero_progress": ([axis("a", 9, 2.0, stop="eps_J"),
                       axis("a", 4, 1.0, iterations=0)],
                      [axis("a", 5, 2.0, iterations=0),
                       axis("a", 4, 1.0, iterations=0, stop="max_iters")],
                      [13, 9, 1, 2, [1.0, 1.0], {"eps_J": 1, "eps_x": 1},
                       {"eps_x": 1, "max_iters": 1}]),
}

# compare_outputs imports bench/run.py, which must pin the BLAS threads
# before numpy loads, so the diffs are taken in a fresh interpreter
SCRIPT = """
import json, sys
from compare_outputs import (json_key_diff, line_diff, number_drift,
                             provenance_stats)
cases, lines, numbers, provenances = json.load(sys.stdin)
print(json.dumps([{name: json_key_diff(json.dumps(a).encode(),
                                       json.dumps(b).encode())
                   for name, (a, b) in cases.items()},
                  {name: line_diff(a.encode(), b.encode())
                   for name, (a, b) in lines.items()},
                  {name: number_drift(a.encode(), b.encode())
                   for name, (a, b) in numbers.items()},
                  {name: provenance_stats(json.dumps(a).encode(),
                                          json.dumps(b).encode())
                   for name, (a, b) in provenances.items()}]))
"""


@pytest.fixture(scope="module")
def diffs() -> list:
    cases = [{name: (a, b) for name, (a, b, _) in table.items()}
             for table in (CASES, LINE_CASES, NUMBER_CASES,
                           PROVENANCE_CASES)]
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


@pytest.mark.parametrize("name", NUMBER_CASES)
def test_number_drift(diffs, name):
    assert diffs[2][name] == NUMBER_CASES[name][2]


@pytest.mark.parametrize("name", PROVENANCE_CASES)
def test_provenance_stats(diffs, name):
    assert diffs[3][name] == PROVENANCE_CASES[name][2]


def test_src_lines(tmp_path):
    # the Python files of src/meip only, counted as wc -l does
    (tmp_path / "meip").mkdir()
    (tmp_path / "meip" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "meip" / "b.py").write_text("z = 3")
    (tmp_path / "meip" / "notes.txt").write_text("not code\n")
    (tmp_path / "top.py").write_text("w = 4\n")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from compare_outputs import "
         "src_lines; print(src_lines(sys.argv[1]))", str(tmp_path)],
        cwd=TOOLS, capture_output=True, text=True, check=True)
    assert proc.stdout == "3\n"
