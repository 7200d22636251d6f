"""The sdist built from pyproject.toml ships the JSON schemas and needs
numpy alone at run time; the four commands run with scipy blocked.

The build runs on a copy of the project in a temporary directory, so no
egg-info or build output lands in the source tree.
"""

import os
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCHEMAS = ("classify", "iterate", "plot", "verify")


@pytest.fixture(scope="module")
def sdist(tmp_path_factory):
    """The sdist of a copy of the project, built once."""
    tmp_path = tmp_path_factory.mktemp("sdist")
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
    return tmp_path / "dist" / proc.stdout.split()[-1]


def test_sdist_holds_the_schemas(sdist):
    with tarfile.open(sdist) as tar:
        names = {Path(n).name for n in tar.getnames()
                 if "/src/hardylane/schemas/" in n}
    assert {f"{s}.schema.json" for s in SCHEMAS} <= names


def _name(requirement):
    return re.match(r"[A-Za-z0-9_.-]+", requirement).group()


def _requires_txt(text):
    """extra -> requirement names of an egg-info requires.txt ('' for the
    run-time section)."""
    out, extra = {}, ""
    for line in filter(None, map(str.strip, text.splitlines())):
        if line.startswith("["):
            extra = line.strip("[]")
        else:
            out.setdefault(extra, set()).add(_name(line))
    return out


def _requires_dist(pkg_info):
    """extra -> requirement names of PKG-INFO's Requires-Dist lines."""
    out = {}
    for line in pkg_info.splitlines():
        if line.startswith("Requires-Dist:"):
            req, _, marker = line.partition(":")[2].partition(";")
            extra = re.fullmatch(r'\s*extra\s*==\s*"(\w+)"\s*|', marker)
            assert extra, line
            out.setdefault(extra.group(1) or "", set()).add(_name(req.strip()))
    return out


def test_sdist_needs_numpy_alone_at_run_time(sdist):
    # scipy is a test dependency only.  The sdist records requirements in
    # its egg-info's requires.txt; PKG-INFO carries Requires-Dist lines
    # only from newer setuptools (65 writes none), and they must agree
    top = sdist.name[:-len(".tar.gz")]
    with tarfile.open(sdist) as tar:
        def read(name):
            return tar.extractfile(f"{top}/{name}").read().decode()
        requires = _requires_txt(read("src/hardylane.egg-info/requires.txt"))
        pkg_info = _requires_dist(read("PKG-INFO"))
    assert requires[""] == {"numpy"}
    assert [extra for extra, names in requires.items()
            if "scipy" in names] == ["test"]
    assert pkg_info in ({}, requires)


#: Each command through cli.main in one process where `import scipy`
#: fails; prints the exit codes.
_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from hardylane import cli
point = ["--N", "5", "--mu1", "-2", "--mu2", "0", "--p", "2"]
out = sys.argv[1]
codes = [
    cli.main(["classify", *point, "--q", "4", "--witness"]),
    cli.main(["iterate", *point, "--q", "4"]),
    cli.main(["verify", *point, "--q", "3", "--case", "C1"]),
    cli.main(["plot", "--N", "5", "--mu1", "-2", "--mu2", "-2",
              "--p-range", "0.5..6", "--q-range", "0.5..6", "--res", "8",
              "--out", out, "--format", "csv,svg,json"]),
]
print("EXIT", codes, file=sys.stderr)
"""


def test_commands_run_without_scipy(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY,
                           str(tmp_path / "plot")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "EXIT [0, 0, 0, 0]" in proc.stderr, proc.stderr
    assert {p.name for p in tmp_path.iterdir()} == {
        "plot.csv", "plot.svg", "plot.json"}
