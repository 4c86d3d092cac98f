"""The refactor's contract, enforced: batch and server carry no
spec-execution or key-computation code of their own -- both import it from
:mod:`repro.exec` -- and the execution stack is layered one way,
exec < server < batch < rv.  Inside the package every check is discharged
on a :class:`~repro.engine.pipeline.VerificationPipeline`, never through
the :mod:`repro.api` facade, and the wire format owns its term codec
rather than borrowing the fuzzer's.  These tests are the tripwire against
the copies, or an import cycle, quietly growing back."""

import ast
import os
import subprocess
import sys

import pytest

import repro
import repro.batch.executor as batch_executor
import repro.exec as exec_pkg
import repro.exec.runtime as runtime
import repro.exec.workers as workers
import repro.server.core as server_core

SRC_REPRO = os.path.dirname(os.path.abspath(repro.__file__))


def test_batch_executor_owns_no_execution_helpers():
    for helper in ("_run_selftest", "_budget", "_worker_main"):
        assert not hasattr(batch_executor, helper), helper


def test_server_core_owns_no_worker_main():
    assert not hasattr(server_core, "_server_worker_main")
    assert server_core.persistent_worker_main is workers.persistent_worker_main
    assert server_core.failure_result is workers.failure_result


def test_exec_package_has_no_lazy_facade():
    for name in ("_LAZY", "__getattr__", "__dir__"):
        assert name not in vars(exec_pkg), name


# -- layering ------------------------------------------------------------------


def _every_module():
    """``(module name, file path)`` for every module of the package."""
    root = os.path.dirname(SRC_REPRO)
    for directory, subdirectories, filenames in os.walk(SRC_REPRO):
        subdirectories.sort()
        package = os.path.relpath(directory, root).replace(os.sep, ".")
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                stem = filename[: -len(".py")]
                name = package if stem == "__init__" else package + "." + stem
                yield name, os.path.join(directory, filename)


def _modules(package):
    """``(module name, file path)`` for every module of one subpackage."""
    return [
        (name, path)
        for name, path in _every_module()
        if _within(name, "repro." + package)
    ]


def _imported_names(module, path):
    """Every module name an import statement in the file can load.

    Walks the whole tree, so imports deferred into a function body count
    as much as module-level ones.  ``from X import y`` yields both ``X``
    and ``X.y`` (``y`` may be a submodule).
    """
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    package = module if path.endswith("__init__.py") else module.rpartition(".")[0]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.rsplit(".", node.level - 1)[0]
                target = base + "." + node.module if node.module else base
            else:
                target = node.module
            yield target
            for alias in node.names:
                yield target + "." + alias.name


def _within(name, package):
    return name == package or name.startswith(package + ".")


def _offences(modules, forbidden):
    return [
        "{} imports {}".format(module, name)
        for module, path in modules
        for name in _imported_names(module, path)
        if any(_within(name, layer) for layer in forbidden)
    ]


@pytest.mark.parametrize(
    "package, forbidden",
    [("exec", ("repro.batch", "repro.server")), ("server", ("repro.batch",))],
)
def test_lower_layers_never_import_higher_ones(package, forbidden):
    assert _offences(_modules(package), forbidden) == []


def test_only_the_package_root_imports_the_facade():
    modules = [(name, path) for name, path in _every_module() if name != "repro"]
    assert _offences(modules, ("repro.api",)) == []


def test_only_the_fuzzer_imports_the_fuzzer():
    modules = [
        (name, path)
        for name, path in _every_module()
        if not _within(name, "repro.quickcheck")
    ]
    assert _offences(modules, ("repro.quickcheck",)) == []


def test_the_checker_core_sits_below_the_engine():
    # fdr supplies the engine's result types and searches; only its CLI
    # front end may reach up to the pipeline, the CSPm loader or the runtime
    modules = [
        (name, path) for name, path in _modules("fdr") if name != "repro.fdr.cli"
    ]
    assert _offences(modules, ("repro.engine", "repro.cspm", "repro.exec")) == []


def test_the_import_walk_resolves_relative_imports():
    # the walk above is only a gate if it sees what a relative import loads
    names = set(
        _imported_names(
            "repro.batch.executor", os.path.join(SRC_REPRO, "batch", "executor.py")
        )
    )
    assert "repro.server.core" in names
    assert "repro.exec.spec.CheckSpec" in names


_FIRST_IMPORT = """
import importlib
import sys
import types

# a bare stand-in for the repro package: nothing but the path, so the
# import order of repro/__init__.py cannot mask a cycle
package = types.ModuleType("repro")
package.__path__ = [sys.argv[1]]
sys.modules["repro"] = package
importlib.import_module(sys.argv[2])
"""

_FIRST_IMPORTS = [name for name, _path in _modules("exec")] + [
    "repro.server.core",
    "repro.server.http",
    "repro.server.client",
    "repro.batch.executor",
    "repro.api",
    "repro.fdr",
    "repro.cspm.evaluator",
    "repro.ota.requirements",
    "repro.quickcheck.serialise",
]


@pytest.mark.parametrize("module", _FIRST_IMPORTS)
def test_module_imports_first_without_a_cycle(module):
    completed = subprocess.run(
        [sys.executable, "-c", _FIRST_IMPORT, SRC_REPRO, module],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


def _loaded_by(code):
    """The repro modules a fresh interpreter holds after running *code*."""
    program = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        + code
        + "\nprint('\\n'.join(n for n in sys.modules if n.startswith('repro')))\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", program, os.path.dirname(SRC_REPRO)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.split()


def test_importing_the_package_loads_no_cli():
    # `python -m repro.<pkg>.cli` warns (runpy's RuntimeWarning) when
    # `import repro` has already put the module it is asked to run in
    # sys.modules
    loaded = _loaded_by("import repro")
    assert "repro.api" in loaded
    assert [name for name in loaded if name.endswith(".cli")] == []


def test_the_wire_format_loads_no_fuzzer():
    loaded = _loaded_by(
        "from repro.csp import Prefix, STOP, event\n"
        "from repro.exec.spec import CheckSpec\n"
        "term = Prefix(event('a'), STOP)\n"
        "doc = CheckSpec.property_check(term, 'deadlock free').to_doc()\n"
        "assert CheckSpec.from_doc(doc).to_doc() == doc\n"
    )
    assert "repro.exec.spec" in loaded
    assert [name for name in loaded if _within(name, "repro.quickcheck")] == []


def test_api_execute_check_routes_through_the_runtime(tmp_path):
    from repro import api
    from repro.csp import Event, Prefix, STOP
    from repro.exec.spec import CheckSpec

    term = Prefix(Event("a"), STOP)
    spec = CheckSpec.refinement(term, term, "T")
    direct = runtime.execute_spec(spec)
    cache_dir = str(tmp_path / "rc")
    cold = api.execute_check(spec, result_cache_dir=cache_dir)
    warm = api.execute_check(spec, result_cache_dir=cache_dir)
    assert (
        direct.canonical_line()
        == cold.canonical_line()
        == warm.canonical_line()
    )
