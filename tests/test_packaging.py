"""The sdist built from pyproject.toml ships the JSON schemas and needs
numpy alone at run time; the four commands run with scipy blocked.  The
package imports nothing it does not use, and holds no public function or
class that no package code calls, bar a few named entry points.

The build runs on a copy of the project in a temporary directory, so no
egg-info or build output lands in the source tree.
"""

import ast
import os
import re
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hardylane"
SCHEMAS = ("classify", "iterate", "plot", "verify")

#: Public names that no package code calls, each with who calls it.  The
#: console script's cli.main and the README library example's names are
#: called inside the package too, so they need no entry.
ENTRY_POINTS = {
    "hardylane.plotting.render_svg":
        "hlbench/test_checks.py reads a plot's SVG text",
    "hardylane.schemas.load_schema":
        "the CLI tests validate records against the shipped schemas",
}


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


def _package_modules():
    """(dotted module name, parsed source) for each module of the package."""
    return [(".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
             .removesuffix(".__init__"),
             ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(PACKAGE.rglob("*.py"))]


def test_no_unused_import():
    # a name an import binds must be read in its module; the package's
    # re-exports are read through __all__
    unused = []
    for module, tree in _package_modules():
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and not isinstance(node.ctx, ast.Store)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and \
                    [ast.unparse(t) for t in node.targets] == ["__all__"]:
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [a.asname or a.name.partition(".")[0]
                         for a in node.names]
            elif isinstance(node, ast.ImportFrom) and \
                    node.module != "__future__":
                bound = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{module}:{node.lineno}: {name}"
                       for name in bound if name not in read]
    assert unused == []


def _reads(node):
    """(names, attribute names) read under node."""
    names, attrs = set(), set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return names, attrs


def test_public_names_are_called_in_the_package():
    # every public module-level function and class is read somewhere in
    # the package outside its own definition (the package's re-exports
    # do not count), and so is every public method and property of a
    # public class, as an attribute (obj.name): a bare name of the same
    # spelling is some other variable.  The rest are entry points, named
    # with their callers.  Dunders and the members of private classes
    # (such as cli._Parser) are exempt.
    read, attrs, public, members = set(), set(), [], []
    for module, tree in _package_modules():
        if module == "hardylane":
            continue
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            parts = [stmt]
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and \
                    not own.startswith("_"):
                public.append(f"{module}.{own}")
                if isinstance(stmt, ast.ClassDef):
                    parts = stmt.body + stmt.bases + stmt.decorator_list
            for part in parts:
                member = None
                if part is not stmt and isinstance(part, ast.FunctionDef):
                    member = part.name
                    if not member.startswith("_"):
                        members.append(f"{module}.{own}.{member}")
                names, attributes = _reads(part)
                read |= (names | attributes) - {own, member}
                attrs |= attributes - {member}
    uncalled = [name for name in public
                if name.rpartition(".")[2] not in read]
    uncalled += [name for name in members
                 if name.rpartition(".")[2] not in attrs]
    assert sorted(uncalled) == sorted(ENTRY_POINTS)
