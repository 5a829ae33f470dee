"""API-quality meta tests.

Deliverable-level guarantees about the library surface itself: every
public module, class, and function is documented, exports resolve,
the package presents a coherent top-level API, and every module is
reached from a program entry point or a benchmark.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.hw",
    "repro.workloads",
    "repro.sim",
    "repro.core",
    "repro.baselines",
    "repro.analysis",
]


def iter_modules():
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__):
            if info.name == "__main__":
                continue  # importing it would exec the CLI
            yield importlib.import_module(f"{pkg_name}.{info.name}")


ALL_MODULES = list(iter_modules())


class TestDocstrings:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_module_documented(self, module):
        assert module.__doc__ and len(module.__doc__.strip()) > 20, module.__name__

    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_public_callables_documented(self, module):
        undocumented = []
        for name in getattr(module, "__all__", []):
            obj = getattr(module, name)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if obj.__module__ != module.__name__:
                    continue  # re-export; documented at its home
                if not (obj.__doc__ and obj.__doc__.strip()):
                    undocumented.append(name)
                if inspect.isclass(obj):
                    for mname, meth in inspect.getmembers(obj):
                        if mname.startswith("_"):
                            continue
                        if isinstance(
                            inspect.getattr_static(obj, mname), property
                        ):
                            target = inspect.getattr_static(obj, mname).fget
                        elif inspect.isfunction(meth):
                            target = meth
                        else:
                            continue
                        if target.__qualname__.split(".")[0] != obj.__name__:
                            continue  # inherited
                        if not (target.__doc__ and target.__doc__.strip()):
                            undocumented.append(f"{name}.{mname}")
        assert not undocumented, f"{module.__name__}: {undocumented}"


class TestExports:
    @pytest.mark.parametrize("module", ALL_MODULES, ids=lambda m: m.__name__)
    def test_all_entries_resolve(self, module):
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_top_level_surface(self):
        for name in (
            "ClipScheduler",
            "SimulatedCluster",
            "ExecutionEngine",
            "quickstart_scheduler",
            "ClipError",
            "__version__",
        ):
            assert hasattr(repro, name)

    def test_version_is_semver(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)


SRC = Path(repro.__file__).parent.parent
BENCHMARKS = Path(__file__).parent.parent / "benchmarks"

#: Entry-point modules; every file under ``benchmarks/`` is a root too.
ROOT_MODULES = ("repro.cli", "repro.__main__", "repro.serve")

#: Modules no entry point or benchmark imports, kept on purpose.
UNREACHED_BY_DESIGN = {
    # audit_cap_violations is the tests' cap-violation oracle
    # (test_integration, test_matrix, test_cross_platform)
    "repro.analysis.traces",
}


def _source(module: str) -> Path | None:
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _is_package(module: str) -> bool:
    return (SRC.joinpath(*module.split(".")) / "__init__.py").is_file()


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree: ast.Module):
    """``(module, names)`` for every absolute import anywhere in *tree*.

    ``names`` is ``None`` for ``import a.b``; lazy imports inside
    function bodies count like top-level ones.  The package uses no
    relative imports; one added later is skipped, so the module it
    names shows up as unreached.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module, [alias.name for alias in node.names]


def _reexports(package: str) -> dict[str, tuple[str, str]]:
    """Names a package ``__init__`` binds by import: name -> (module, name)."""
    return {
        alias.asname or alias.name: (node.module, alias.name)
        for node in _parse(_source(package)).body
        if isinstance(node, ast.ImportFrom) and not node.level
        for alias in node.names
    }


def _targets(module: str, names):
    """The modules an import reaches, re-exports resolved to their home.

    A package counts as a whole only when imported as one
    (``import repro.pkg``) or when the name asked for is defined in its
    ``__init__`` itself; ``from repro.pkg import Name`` otherwise
    reaches just the module that defines ``Name``.
    """
    if module.split(".")[0] != "repro" or _source(module) is None:
        return
    if names is None or not _is_package(module) or "*" in names:
        yield module
        return
    bindings = _reexports(module)
    for name in names:
        if _source(f"{module}.{name}") is not None:
            yield f"{module}.{name}"
        elif name in bindings:
            yield from _targets(bindings[name][0], [bindings[name][1]])
        else:
            yield module  # defined in the __init__ itself


def reached_modules() -> set[str]:
    """Every module reachable from the entry points and the benchmarks."""
    pending = list(ROOT_MODULES)
    for path in sorted(BENCHMARKS.rglob("*.py")):
        for module, names in _imports(_parse(path)):
            pending.extend(_targets(module, names))
    reached = set()
    while pending:
        module = pending.pop()
        if module in reached:
            continue
        reached.add(module)
        for imported, names in _imports(_parse(_source(module))):
            pending.extend(_targets(imported, names))
    return reached


def all_modules() -> set[str]:
    """Every non-``__init__`` module under ``src/repro``."""
    return {
        ".".join(path.relative_to(SRC).with_suffix("").parts)
        for path in (SRC / "repro").rglob("*.py")
        if path.name != "__init__.py"
    }


class TestReachability:
    """No module survives that neither a program path nor a bench uses."""

    def test_every_module_is_reached(self):
        unreached = all_modules() - reached_modules()
        assert unreached == UNREACHED_BY_DESIGN, (
            f"reached by no entry point or benchmark: "
            f"{sorted(unreached - UNREACHED_BY_DESIGN)}; reached now, "
            f"drop from UNREACHED_BY_DESIGN: "
            f"{sorted(UNREACHED_BY_DESIGN - unreached)}"
        )

    def test_reexports_resolve_to_the_defining_module(self):
        assert list(_targets("repro.core", ["ClipScheduler"])) == [
            "repro.core.scheduler"
        ]
        assert list(_targets("repro", ["ClipScheduler"])) == [
            "repro.core.scheduler"
        ]
        assert list(_targets("repro", ["quickstart_scheduler"])) == ["repro"]
        assert list(_targets("repro.sim", ["engine"])) == ["repro.sim.engine"]
        assert list(_targets("numpy", ["ndarray"])) == []
