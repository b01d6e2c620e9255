import re
import subprocess
import sys
from pathlib import Path

import hang_timer


def test_a_hang_in_an_import_before_any_test_prints_its_stacks_and_fails(tmp_path):
    """A conftest imports a package whose import sleeps past the timer, under
    pytest's default descriptor capture. The plugin's own code, with its
    timer at 2 s, prints the stack of the sleeping import on the terminal's
    stderr, and the run exits non-zero."""
    source = Path(hang_timer.__file__).read_text()
    short = source.replace("HANG_TIMEOUT_S = 120\n", "HANG_TIMEOUT_S = 2\n")
    assert short != source
    (tmp_path / "hang_timer.py").write_text(short)
    (tmp_path / "slowpkg").mkdir()
    (tmp_path / "slowpkg" / "__init__.py").write_text("import time\n\ntime.sleep(60)\n")
    (tmp_path / "conftest.py").write_text("import slowpkg  # noqa: F401\n")
    (tmp_path / "test_never_runs.py").write_text("def test_never_runs():\n    pass\n")
    (tmp_path / "pytest.ini").write_text("[pytest]\npythonpath = .\naddopts = -p hang_timer\n")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "Timeout (0:00:02)!" in proc.stderr, proc.stderr
    assert re.search(r'File ".*slowpkg.__init__\.py", line 3 in <module>', proc.stderr), proc.stderr
