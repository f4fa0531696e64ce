"""Structure rules an AST scan of ``src/repro`` can hold.

* The repository waits on another process in one module: calls to
  ``get_context``, ``Process`` and ``.poll`` occur only in
  :mod:`repro.core.procpool` (docs/SCALING.md "Worker failure model").
* Training runs on one thread: nothing under ``repro.data`` or
  ``repro.train`` imports ``threading`` or ``queue``
  (docs/PERFORMANCE.md "Why there is no prefetch thread").
* Every other ``Thread`` lives in a module listed here by name.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

TRANSPORT = "core/procpool.py"
PROCESS_PRIMITIVES = {"get_context", "Process", "poll"}
SINGLE_THREADED = ("data/", "train/")
THREAD_STARTERS = {
    "serve/server.py",  # CheckpointWatcher
    "serve/chaos.py",  # background traffic during a fault window
    "loadtest/harness.py",  # the load generator's client threads
    "cli.py",  # serve_forever next to the command's own loop
}


def modules():
    for path in sorted(PACKAGE.rglob("*.py")):
        yield path.relative_to(PACKAGE).as_posix(), ast.parse(path.read_text())


def called_name(node: ast.Call) -> str | None:
    func = node.func
    return getattr(func, "attr", None) or getattr(func, "id", None)


def imported_roots(tree: ast.AST) -> set[str]:
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            roots.add(node.module.split(".")[0])
    return roots


def test_only_the_transport_starts_or_polls_a_process():
    offenders = [
        f"{name}:{node.lineno} {called_name(node)}()"
        for name, tree in modules()
        if name != TRANSPORT
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) in PROCESS_PRIMITIVES
    ]
    assert offenders == []


def test_data_and_training_import_no_thread_or_queue():
    offenders = [
        f"{name} imports {sorted(imported_roots(tree) & {'threading', 'queue'})}"
        for name, tree in modules()
        if name.startswith(SINGLE_THREADED)
        and imported_roots(tree) & {"threading", "queue"}
    ]
    assert offenders == []


def test_threads_start_only_in_the_listed_modules():
    starters = {
        name
        for name, tree in modules()
        for node in ast.walk(tree)
        if getattr(node, "attr", None) == "Thread" or getattr(node, "id", None) == "Thread"
    }
    assert starters == THREAD_STARTERS
