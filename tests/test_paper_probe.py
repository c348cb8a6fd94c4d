"""The child runner of tools/paper_probe.py: exit code and peak RSS."""

import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# paper_probe imports bench/run.py, which pins the BLAS threads in
# os.environ, so the helper runs in a fresh interpreter
SCRIPT = """
import json, os, sys
from pathlib import Path
from paper_probe import run_child
child = "import sys; x = b'x' * (int(sys.argv[1]) << 20); sys.exit(3)"
print(json.dumps([run_child([sys.executable, "-c", child, str(mib)],
                            dict(os.environ), Path(sys.argv[1]))
                  for mib in (64, 128)]))
"""


def test_run_child_reports_exit_code_and_peak_rss(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT,
                           str(tmp_path / "child.log")], cwd=TOOLS,
                          capture_output=True, text=True, check=True)
    (code64, wall64, rss64), (code128, wall128, rss128) = json.loads(
        proc.stdout)
    assert code64 == code128 == 3
    assert wall64 > 0 and wall128 > 0
    # both peaks lie above this interpreter's, which the child's peak
    # includes, so they differ by the 64 MiB more that one child writes
    assert 64 < rss64 < 128 < rss128
    assert 62 <= rss128 - rss64 <= 66
