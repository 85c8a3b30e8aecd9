"""The test helpers in conftest.py are imported by scripts too; importing
them must not change which treebraid a script runs."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"

SCRIPT = """
import sys
path = list(sys.path)
import treebraid
first = treebraid.__file__
import conftest
assert treebraid.__file__ == first, (first, treebraid.__file__)
assert sys.path == path, "conftest changed sys.path"
print(first)
"""


def test_conftest_keeps_the_imported_treebraid(tmp_path):
    other = tmp_path / "other"
    shutil.copytree(SRC / "treebraid", other / "treebraid",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for script in (SCRIPT,
                   # conftest first: it imports treebraid itself
                   "import conftest\n" + SCRIPT):
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=tmp_path,
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH="%s:%s" % (other, TESTS)))
        assert proc.returncode == 0, proc.stderr
        assert Path(proc.stdout.strip()).parent == other / "treebraid"
