"""Structure rules an AST scan of ``src/repro`` can hold.

* The repository waits on another process in one module: calls to
  ``get_context``, ``Process`` and ``.poll`` occur only in
  :mod:`repro.core.procpool` (docs/SCALING.md "Worker failure model").
* Training runs on one thread: nothing under ``repro.data`` or
  ``repro.train`` imports ``threading`` or ``queue``
  (docs/PERFORMANCE.md "Why there is no prefetch thread").
* Every other ``Thread`` lives in a module listed here by name.
* In ``serve/engine.py`` no request-path method touches more than one of
  the cache, the encoder and the index, and the cache has one reading
  and one writing method (docs/SERVING.md "The request path"): the
  boundary a narrower server lock will be drawn on.
* Every public module-level function or class has a user outside the
  tests, or a line in ``KEPT_ON_PURPOSE`` saying why it stays.
* There is one precision and nothing selects it: ``nn/precision.py``
  holds no ``global`` and no ``set_*`` function, no dataclass declares a
  ``dtype`` field, and no flag is called ``--dtype``
  (docs/PERFORMANCE.md "One precision").
* There is one artifact layer: only ``nn/serialization.py`` calls
  ``np.savez``, ``np.save`` or ``np.load`` (docs/ROBUSTNESS.md
  "Artifacts").
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

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


def test_nothing_selects_a_precision():
    precision = ast.parse((PACKAGE / "nn" / "precision.py").read_text())
    assert not [n for n in ast.walk(precision) if isinstance(n, ast.Global)]
    assert not [
        n.name for n in ast.walk(precision)
        if isinstance(n, ast.FunctionDef) and n.name.startswith("set_")
    ]
    offenders = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list
            ):
                offenders += [
                    f"{name}: {node.name}.dtype"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                    and getattr(field.target, "id", None) == "dtype"
                ]
            elif isinstance(node, ast.Constant) and node.value == "--dtype":
                offenders.append(f"{name}:{node.lineno} --dtype")
    assert offenders == []


ARTIFACT_LAYER = "nn/serialization.py"
ARCHIVE_IO = {"savez", "savez_compressed", "save", "load"}


def test_only_the_artifact_layer_reads_or_writes_npy_files():
    offenders = [
        f"{name}:{node.lineno} np.{node.func.attr}()"
        for name, tree in modules()
        if name != ARTIFACT_LAYER
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ARCHIVE_IO
        and getattr(node.func.value, "id", None) in {"np", "numpy"}
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# serve/engine.py: which stage touches which shared state
# ----------------------------------------------------------------------
ENTRY_POINTS = ("_serve_batch", "warm")
NOT_ON_THE_REQUEST_PATH = {
    "__init__", "from_checkpoint", "swap_model", "_self_check", "invalidate_cache",
}
SHARED_STATE = {
    "cache": {"cache"},
    "encoder": {"model", "_encode"},
    "index": {"index"},
}


def engine_methods() -> dict[str, ast.FunctionDef]:
    tree = ast.parse((PACKAGE / "serve" / "engine.py").read_text())
    engine = next(
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "RecommendationEngine"
    )
    return {n.name: n for n in engine.body if isinstance(n, ast.FunctionDef)}


def self_attributes(node: ast.AST) -> set[str]:
    """Every ``X`` in a ``self.X`` under ``node``."""
    return {
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and getattr(n.value, "id", None) == "self"
    }


def shared_state_of(method: ast.FunctionDef) -> set[str]:
    used = self_attributes(method)
    return {kind for kind, names in SHARED_STATE.items() if used & names}


def request_path(methods: dict[str, ast.FunctionDef]) -> set[str]:
    reached, frontier = set(), list(ENTRY_POINTS)
    while frontier:
        name = frontier.pop()
        if name in reached or name in NOT_ON_THE_REQUEST_PATH:
            continue
        reached.add(name)
        frontier.extend(self_attributes(methods[name]) & methods.keys())
    return reached


def test_engine_stages_touch_one_shared_thing_each():
    methods = engine_methods()
    stages = request_path(methods) - set(ENTRY_POINTS)
    touched = {name: shared_state_of(methods[name]) for name in stages}
    assert {n: kinds for n, kinds in touched.items() if len(kinds) > 1} == {}
    for entry in ENTRY_POINTS:
        assert shared_state_of(methods[entry]) == set(), entry
    for kind in SHARED_STATE:  # the walk found the pipeline, not nothing
        assert any(kind in kinds for kinds in touched.values()), kind


def test_engine_cache_has_one_reader_and_one_writer():
    callers = {"get": [], "put": []}
    for name, method in engine_methods().items():
        for node in ast.walk(method):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in callers
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "cache"
                and getattr(node.value.value, "id", None) == "self"
            ):
                callers[node.attr].append(name)
    assert len(callers["get"]) == 1 and len(callers["put"]) == 1, callers
    assert callers["get"] != callers["put"]


# ----------------------------------------------------------------------
# Unused public surface
# ----------------------------------------------------------------------
USER_TREES = ("src", "benchmarks", "examples")

#: Public names with no user outside ``tests/``, each with its reason.
#: "unused" marks one nothing needs: delete it when its package is next
#: in scope (this list only ever shrinks).
KEPT_ON_PURPOSE = {
    "write_csv_log": "writer half of the documented CSV log format; round-trip oracle of read_csv_log",
    "clear_caches": "test isolation: resets the process-wide MaskCache / ScratchPool between cases",
    "top_k_table": "unused (callers moved to top_k_indices); repro.eval is ROADMAP item 7's",
}


def public_definitions():
    """Each module-level public def, class or ``A = B`` alias, by name."""
    for __, tree in modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Name)
                and isinstance(node.targets[0], ast.Name)
            ):
                name = node.targets[0].id
            else:
                continue
            if not name.startswith("_"):
                yield name


def used_names() -> set[str]:
    """Identifiers read in code (imports and ``__all__`` re-export, they do
    not use) or written about in ``docs/``."""
    names = set()
    for top in USER_TREES:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    for path in (ROOT / "docs").rglob("*.md"):
        names.update(re.findall(r"[A-Za-z_]\w*", path.read_text()))
    return names


def test_every_public_name_has_a_user_or_a_reason():
    unused = set(public_definitions()) - used_names()
    assert unused - KEPT_ON_PURPOSE.keys() == set()
    # A name that gained a user, or is gone, leaves the list.
    assert KEPT_ON_PURPOSE.keys() - unused == set()
