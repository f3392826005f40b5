"""The library quick start in README.md runs as written."""

import re
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def test_quick_start_runs(package_env, tmp_path):
    blocks = python_blocks(README.read_text())
    assert len(blocks) == 1
    result = subprocess.run([sys.executable, "-c", blocks[0]], cwd=tmp_path,
                            env=package_env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split()[-2] == "completed"
