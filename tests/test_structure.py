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
* Every public module-level function or class, and every public method
  of a public class, has a user in ``src/`` or ``benchmarks/`` or is
  written about in the code of ``docs/`` (backtick spans and fenced
  blocks, not prose), or has a line in ``KEPT_ON_PURPOSE`` saying why it
  stays.  A method is used only as an attribute (``x.method`` in code,
  ``.method`` in docs code).  An example is not a reader: code that
  only ``examples/`` (or the tests) use goes.
* In every module, every defaulted parameter of a public function or
  method is passed by some caller in ``src/`` or ``benchmarks/``
  (``cls(...)`` in a class's own methods counts as a call of that class, and
  ``super().__init__(...)`` as a call of its base), or has a line in
  ``KEYWORDS_KEPT_ON_PURPOSE`` saying why it stays.
* Every field of a ``*Config`` dataclass is read as an attribute
  somewhere in ``src/repro``.
* There is one training config: in ``repro.core``, ``repro.models``,
  ``repro.online`` and ``repro.train`` no config but ``TrainConfig`` and
  its subclasses declares a ``TrainConfig`` field (or has a line in
  ``TRAIN_FIELDS_KEPT_ON_PURPOSE``), and the loss weights ``temperature``
  and ``cl_weight`` are each declared on one config, the model's
  (docs/EXTENDING.md "Adding a training regime").
* There is one scoring contract, ``score_items(self, dataset, users,
  split)``: nothing defines or calls ``score_users``, and a model with
  ``encode_sequences`` inherits its ``score_items`` / ``score_sequences``
  from ``SequenceRecommender`` (docs/EXTENDING.md "Adding a model").
* There is one precision and nothing selects it: ``nn/precision.py``
  holds no ``global`` and no ``set_*`` function, no dataclass declares a
  ``dtype`` field, and no flag is called ``--dtype``
  (docs/PERFORMANCE.md "One precision").
* There is one artifact layer: only ``nn/serialization.py`` calls
  ``np.savez``, ``np.save`` or ``np.load`` (docs/ROBUSTNESS.md
  "Artifacts").
* Nothing under ``repro.nn`` calls ``np.add.at``: a gather's backward
  scatters with a sort and ``np.add.reduceat`` (``Tensor.take_rows``),
  or assigns when no element can repeat (docs/AUTOGRAD.md "Gathers and
  scatters").
* The server reads request heads without ``email``: nothing in
  ``repro.serve`` imports it, and ``serve/server.py`` calls neither
  ``parse_headers`` nor ``date_time_string`` (docs/SERVING.md "What the
  critical path is now").
* There is one training loop: only ``repro.train`` builds an optimizer
  (no ``Adam(...)`` or ``SGD(...)`` call elsewhere), so a model declares
  a loss and a ``Stage`` and never writes a loop (docs/EXTENDING.md
  "Adding a model").
* A model's capabilities are its types: nothing asks
  ``hasattr(model, ...)`` or ``hasattr(self.model, ...)``; callers test
  ``isinstance`` against ``SequenceRecommender`` or ``CL4SRec``.
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


def test_nothing_in_nn_calls_add_at():
    offenders = [
        f"{name}:{node.lineno} np.add.at()"
        for name, tree in modules()
        if name.startswith("nn/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) in {"np.add.at", "numpy.add.at"}
    ]
    assert offenders == []


EMAIL_PARSING_CALLS = {"parse_headers", "date_time_string"}


def test_the_server_reads_request_heads_without_email():
    offenders = [
        f"{name} imports email"
        for name, tree in modules()
        if name.startswith("serve/") and "email" in imported_roots(tree)
    ]
    server = ast.parse((PACKAGE / "serve" / "server.py").read_text())
    offenders += [
        f"serve/server.py:{node.lineno} {called_name(node)}()"
        for node in ast.walk(server)
        if isinstance(node, ast.Call) and called_name(node) in EMAIL_PARSING_CALLS
    ]
    assert offenders == []


# ----------------------------------------------------------------------
# serve/engine.py: which stage touches which shared state
# ----------------------------------------------------------------------
ENTRY_POINTS = ("recommend_batch",)
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
#: The code that counts as a reader.  ``examples/`` does not: an example
#: shows the library in use, so a name only an example calls has no user.
USER_TREES = ("src", "benchmarks")

#: Public names (``name`` or ``Class.method``) with no user in
#: ``USER_TREES`` or ``docs/``, each with its reason (this list only
#: ever shrinks).
KEPT_ON_PURPOSE = {
    "write_csv_log": "writer half of the documented CSV log format; round-trip oracle of read_csv_log",
    "clear_caches": "test isolation: resets the process-wide MaskCache / ScratchPool between cases",
    "FaultInjector.fail_read": "fault-injection hook the tests drive: the checkpoint-read half of fail_write",
    "FaultInjector.fail_encode": "fault-injection hook the tests drive: the encoder raises on its Nth call",
    "FaultInjector.slow_encode": "fault-injection hook the tests drive: the encoder stalls on its Nth call",
    "ModelVersionStore.records": "read side of the version manifest: the online tests check every round's decision against it",
}


def public_definitions():
    """``(label, name)`` of each module-level public def, class or
    ``A = B`` alias (label = name), and of each public method of a
    public class (label ``Class.method``)."""
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
            if name.startswith("_"):
                continue
            yield name, name
            if isinstance(node, ast.ClassDef):
                yield from (
                    (f"{name}.{method.name}", method.name)
                    for method in node.body
                    if isinstance(method, ast.FunctionDef)
                    and not method.name.startswith("_")
                )


def doc_code(text: str) -> str:
    """The code of a Markdown text: its fenced blocks and backtick spans
    (prose words are not uses: "faster" in a sentence calls no method
    named ``faster``)."""
    fence = re.compile(r"^(```|~~~).*?^\1", flags=re.M | re.S)
    blocks = [match.group(0) for match in fence.finditer(text)]
    spans = re.findall(r"(`+)(.+?)\1", fence.sub("", text), flags=re.S)
    return "\n".join(blocks + [code for __, code in spans])


def used_names() -> tuple[set[str], set[str]]:
    """``(names, attributes)`` read in code (imports and ``__all__``
    re-export, they do not use) or written in ``docs/`` code.

    ``names`` is every identifier read; ``attributes`` only those read
    as an attribute (``x.name`` in code, ``.name`` in docs code), the
    one way a method is used: a local variable or keyword that shares a
    method's name does not call it."""
    names, attributes = set(), set()
    for top in USER_TREES:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
    for path in (ROOT / "docs").rglob("*.md"):
        code = doc_code(path.read_text())
        names.update(re.findall(r"[A-Za-z_]\w*", code))
        attributes.update(re.findall(r"\.([A-Za-z_]\w*)", code))
    return names | attributes, attributes


def test_every_public_name_has_a_user_or_a_reason():
    names, attributes = used_names()
    unused = {
        label
        for label, name in public_definitions()
        if name not in (attributes if "." in label else names)
    }
    assert unused - KEPT_ON_PURPOSE.keys() == set()
    # A name that gained a user, or is gone, leaves the list.
    assert KEPT_ON_PURPOSE.keys() - unused == set()


# ----------------------------------------------------------------------
# Keyword parameters no caller passes
# ----------------------------------------------------------------------
#: Defaulted parameters no call in ``USER_TREES`` passes, each with its
#: reason (this list only ever shrinks).
KEYWORDS_KEPT_ON_PURPOSE = {
    "Evaluator.__init__(index=)": "index-backed evaluation, the metric cost of a quantized index (docs/RETRIEVAL.md)",
    "SASRecBPR.__init__(bpr_config=)": "the warm start's BPR-MF schedule and its dim guard; the registry derives it from SASRecConfig",
    "MoCoCL4SRec.__init__(moco=)": "the key tower's momentum and queue size; the registry builds the default MoCoConfig, as it derives SASRecBPR's bpr_config",
    "ParallelWorkerPool.__init__(worker_timeout_s=)": "only tests pass it, to reach the hung-worker failure path in a second rather than five minutes",
    "CheckpointManager.__init__(faults=)": "test fake: tests hand in a FaultInjector that fails checkpoint writes and reads",
    "ResiliencePolicy.__init__(clock=)": "test fake: tests substitute a FakeClock for time.monotonic",
    "FaultInjector.__init__(io_failure_rate=)": "fault-injection hook the tests drive: seeded random checkpoint IO failures",
    "FaultInjector.__init__(encode_failure_rate=)": "fault-injection hook the tests drive: seeded random encoder failures",
    "FaultInjector.__init__(encode_delay_s=)": "fault-injection hook the tests drive: an ambient slow-encoder window",
    "FaultInjector.kill_worker(worker=)": "fault-injection hook the tests drive: which training worker dies",
    "FaultInjector.corrupt_file(truncate_to=)": "fault-injection hook the tests drive: a torn write of a given length",
    "read_csv_log(user_column=)": "input from outside the program: the CSV's user column name",
    "read_csv_log(item_column=)": "input from outside the program: the CSV's item column name",
    "read_csv_log(timestamp_column=)": "input from outside the program: the CSV's timestamp column name",
    "read_csv_log(strict=)": "input from outside the program: whether the file's malformed rows are refused or skipped",
    "read_jsonl_log(user_field=)": "input from outside the program: the dump's user field name",
    "read_jsonl_log(item_field=)": "input from outside the program: the dump's item field name",
    "read_jsonl_log(timestamp_field=)": "input from outside the program: the dump's timestamp field name",
    "read_jsonl_log(strict=)": "input from outside the program: whether the dump's malformed lines are refused or skipped",
}


def calls_outside_tests() -> dict[str, list[ast.Call]]:
    """Every call in ``USER_TREES``, by the called name (``f(...)`` and
    ``x.f(...)`` both file under ``f``).
    Inside ``class C(B)``, ``cls(...)`` also files under ``C`` and
    ``super().__init__(...)`` under ``B``."""
    calls: dict[str, list[ast.Call]] = {}
    for top in USER_TREES:
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    calls.setdefault(called_name(node), []).append(node)
                elif isinstance(node, ast.ClassDef):
                    inner = [n for n in ast.walk(node) if isinstance(n, ast.Call)]
                    calls.setdefault(node.name, []).extend(
                        call for call in inner if getattr(call.func, "id", None) == "cls"
                    )
                    for base in node.bases:
                        calls.setdefault(getattr(base, "id", None), []).extend(
                            call
                            for call in inner
                            if ast.unparse(call.func) == "super().__init__"
                        )
    return calls


def defaulted_parameters():
    """``(label, called name, positional index or None, parameter)`` for
    each defaulted parameter of a public function or method (a class's
    ``__init__`` is called by the class name)."""
    for __, tree in modules():
        for node in tree.body:
            if getattr(node, "name", "_").startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [
                    (f"{node.name}.{m.name}", node.name if m.name == "__init__" else m.name, m, 1)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and (m.name == "__init__" or not m.name.startswith("_"))
                ]
            else:
                continue
            for label, callee, function, skip in functions:
                args = function.args
                positional = (args.posonlyargs + args.args)[skip:]
                first = len(positional) - len(args.defaults)
                for index, arg in enumerate(positional[first:], start=first):
                    yield label, callee, index, arg.arg
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield label, callee, None, arg.arg


def passes(call: ast.Call, index: int | None, parameter: str) -> bool:
    by_keyword = any(k.arg in (parameter, None) for k in call.keywords)
    by_position = index is not None and (
        len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)
    )
    return by_keyword or by_position


def test_every_keyword_parameter_has_a_caller_or_a_reason():
    calls = calls_outside_tests()
    unpassed = {
        f"{label}({parameter}=)"
        for label, callee, index, parameter in defaulted_parameters()
        if not any(passes(call, index, parameter) for call in calls.get(callee, []))
    }
    assert unpassed - KEYWORDS_KEPT_ON_PURPOSE.keys() == set()
    # A parameter that gained a caller, or is gone, leaves the list.
    assert KEYWORDS_KEPT_ON_PURPOSE.keys() - unpassed == set()


# ----------------------------------------------------------------------
# Config fields: each one read; one training config
# ----------------------------------------------------------------------
ONE_TRAINING_CONFIG = ("core/", "models/", "online/", "train/")
LOSS_WEIGHTS = ("temperature", "cl_weight")

#: ``TrainConfig`` field names another config in those packages
#: declares, each with its reason (this list only ever shrinks).
TRAIN_FIELDS_KEPT_ON_PURPOSE = {
    "OnlineLoopConfig.seed": "the loop's root SeedSequence: it spawns the stream, holdout and per-round generators, not one training stream",
}


def config_classes():
    """``(module, class, base names, field names)`` of each ``*Config``
    dataclass."""
    for name, tree in modules():
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Config")
                and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
            ):
                continue
            fields = [
                statement.target.id
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ]
            bases = {getattr(base, "id", None) for base in node.bases}
            yield name, node.name, bases, fields


def test_every_config_field_is_read():
    read = {
        node.attr
        for __, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{name}: {config}.{field}"
        for name, config, __, fields in config_classes()
        for field in fields
        if field not in read
    ]
    assert unread == []


def test_one_training_config():
    configs = [c for c in config_classes() if c[0].startswith(ONE_TRAINING_CONFIG)]
    train_fields = {
        field for __, config, __, fields in configs if config == "TrainConfig"
        for field in fields
    }
    repeated = {
        f"{config}.{field}"
        for __, config, bases, fields in configs
        if config != "TrainConfig" and "TrainConfig" not in bases
        for field in fields
        if field in train_fields
    }
    assert repeated - TRAIN_FIELDS_KEPT_ON_PURPOSE.keys() == set()
    # A field that went, or moved onto TrainConfig, leaves the list.
    assert TRAIN_FIELDS_KEPT_ON_PURPOSE.keys() - repeated == set()
    for weight in LOSS_WEIGHTS:
        declared = [config for __, config, __, fields in configs if weight in fields]
        assert declared == ["CL4SRecConfig"], weight


# ----------------------------------------------------------------------
# One scoring contract
# ----------------------------------------------------------------------
SCORING_SIGNATURE = ["self", "dataset", "users", "split"]


def test_one_scoring_contract():
    offenders = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and called_name(node) == "score_users":
                offenders.append(f"{name}:{node.lineno} calls score_users")
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name == "score_users":
                offenders.append(f"{name}:{node.lineno} defines score_users")
            args = node.args
            signature = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            if node.name == "score_items" and (
                signature != SCORING_SIGNATURE or args.vararg or args.kwarg
            ):
                offenders.append(f"{name}:{node.lineno} score_items{tuple(signature)}")
    assert offenders == []


def test_representation_models_inherit_their_scoring():
    offenders = []
    for name, tree in modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name == "SequenceRecommender":
                continue
            methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
            if "encode_sequences" in methods:
                offenders += [
                    f"{name}: {node.name}.{method}"
                    for method in sorted(methods & {"score_items", "score_sequences"})
                ]
    assert offenders == []


# ----------------------------------------------------------------------
# One training loop; capabilities are types
# ----------------------------------------------------------------------
OPTIMIZERS = {"Adam", "SGD"}


def test_only_the_training_loop_builds_an_optimizer():
    offenders = [
        f"{name}:{node.lineno} {called_name(node)}()"
        for name, tree in modules()
        if not name.startswith("train/")
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and called_name(node) in OPTIMIZERS
    ]
    assert offenders == []


def is_model_expression(node: ast.expr) -> bool:
    """``model`` or ``self.model``."""
    if isinstance(node, ast.Name):
        return node.id == "model"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "model"
        and getattr(node.value, "id", None) == "self"
    )


def test_no_capability_probe_on_a_model():
    offenders = [
        f"{name}:{node.lineno}"
        for name, tree in modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "hasattr"
        and node.args
        and is_model_expression(node.args[0])
    ]
    assert offenders == []
