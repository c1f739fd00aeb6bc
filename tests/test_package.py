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
