import ast
import importlib
import pkgutil
import re
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


def test_readme_library_example_prints_what_it_promises(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    [block] = re.findall(r"```python\n(.*?)```", readme.read_text(), re.S)
    promised = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == promised
    assert promised == ["TRIVIAL_BY_POINT_ELIMINATION", "(-1, 1)"]


def _annotation_names(tree) -> set[str]:
    """Names read in string annotations, such as "jac.PrimeScan | None"."""
    annotations = [
        node.annotation for node in ast.walk(tree) if isinstance(node, (ast.arg, ast.AnnAssign))
    ]
    annotations += [node.returns for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    return {
        node.id
        for annotation in annotations
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str)
        for node in ast.walk(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Name)
    }


def test_no_dead_noqa_imports():
    # every import must be used by its module, exported in its __all__, or,
    # under `# noqa: F401`, be a name that perfbench/tracing.py patches there
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
        used |= _annotation_names(tree)
        used |= set(getattr(loaded, "__all__", ()))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            noqa = any("noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used and not (noqa and (module, name) in patched):
                    dead.append(f"{module}.{name}")
    assert dead == []


def _private_definitions(tree):
    """(name, node) of each module-level private function, class or constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield name, node


def _referenced_names(tree, skip=None) -> set[str]:
    """Names read, imported or used as attributes in `tree`, outside `skip`."""
    skipped = set(map(id, ast.walk(skip))) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_helper_has_a_library_caller():
    # a private helper that only tests use is deleted, not kept for them
    package = Path(selli_cert.__file__).parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    others = {
        name: set().union(*(_referenced_names(t) for n, t in trees.items() if n != name))
        for name in trees
    }
    unused = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree)
        if name not in others[module] | _referenced_names(tree, skip=node)
    ]
    assert unused == []


# Unbounded process-level caches under src/, each with the reason its key
# space cannot grow with the inputs a process sees.
UNBOUNDED_CACHES = {
    "selli_cert.cli._parser": "takes no arguments",
    "selli_cert.certificates._c_encoder": "keyed by an indent, only on documents the builder makes",
    "selli_cert.diophantine._square_bytes": (
        "keyed by 64, _SIEVE_MODULI and the 4q of plans _SWEEP_CELL_BUDGET admits"
    ),
}


def _is_unbounded_cache(decorator) -> bool:
    """functools.cache, or lru_cache with maxsize None, however imported."""
    call = decorator if isinstance(decorator, ast.Call) else None
    target = call.func if call else decorator
    name = getattr(target, "attr", getattr(target, "id", None))
    if name == "cache":
        return True
    if name != "lru_cache" or call is None:
        return False
    maxsize = [kw.value for kw in call.keywords if kw.arg == "maxsize"] or call.args[:1]
    return bool(maxsize) and isinstance(maxsize[0], ast.Constant) and maxsize[0].value is None


def test_every_process_cache_is_bounded():
    # budgets cover memory as well as time: a cache that can grow for the
    # life of the process needs a reason on the list above
    unbounded = {
        f"{module}.{node.name}"
        for module in MODULES
        for node in ast.walk(ast.parse(Path(importlib.import_module(module).__file__).read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_is_unbounded_cache(d) for d in node.decorator_list)
    }
    assert unbounded == set(UNBOUNDED_CACHES)
