import ast
import importlib
import pkgutil
import tomllib
from pathlib import Path

import pytest

import selli_cert
from selli_cert.certificates import build_torsion_certificate
from selli_cert.family import validate_params

# __main__ is left out: importing it runs the CLI
MODULES = ["selli_cert"] + [
    f"selli_cert.{info.name}"
    for info in pkgutil.iter_modules(selli_cert.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", ())
    assert [attr for attr in exports if not hasattr(module, attr)] == []


def test_one_version_everywhere():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    version = tomllib.loads(pyproject.read_text())["project"]["version"]
    cert = build_torsion_certificate(validate_params(13, 1, 3, 10))
    assert version == selli_cert.__version__ == cert.to_dict()["tool_version"]


def test_no_dead_noqa_imports():
    # a `# noqa: F401` import must be used by its module, or be a name that
    # perfbench/tracing.py patches on that module
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    [points] = [
        node.value
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "PATCH_POINTS"
    ]
    patched = {(point.elts[0].value, point.elts[1].value) for point in points.elts}
    dead = []
    for module in MODULES:
        loaded = importlib.import_module(module)
        text = Path(loaded.__file__).read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(getattr(loaded, "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and (module, name) not in patched:
                    dead.append(f"{module}.{name}")
    assert dead == []
