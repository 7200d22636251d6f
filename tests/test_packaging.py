"""The sdist built from pyproject.toml ships the JSON schemas.

The build runs on a copy of the project in a temporary directory, so no
egg-info or build output lands in the source tree.
"""

import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ("classify", "iterate", "plot", "verify")


def test_sdist_holds_the_schemas(tmp_path):
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, tmp_path / name)
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    build = ("import setuptools.build_meta as b; "
             "print(b.build_sdist('dist'))")
    proc = subprocess.run([sys.executable, "-c", build], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    sdist = tmp_path / "dist" / proc.stdout.split()[-1]
    with tarfile.open(sdist) as tar:
        names = {Path(n).name for n in tar.getnames()
                 if "/src/hardylane/schemas/" in n}
    assert {f"{s}.schema.json" for s in SCHEMAS} <= names
