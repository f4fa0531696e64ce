"""Documentation link check: every cross-reference must resolve.

Three kinds of references are verified across ``README.md`` and
``docs/*.md``:

* markdown links ``[text](target)`` whose target is a relative path
  (external URLs and pure ``#anchors`` are skipped);
* backticked path tokens like ```docs/PERFORMANCE.md``` or
  ```benchmarks/test_train_parallel.py`` — checked whenever they
  name a markdown file, or a python/source path containing a ``/``
  (bare module names and glob patterns are skipped);
* any ``examples/…``, ``benchmarks/…``, ``tests/…`` or ``src/…`` path
  written anywhere, code blocks included (a glob or ``::test`` suffix
  is cut at its first character that cannot be part of a path).

Targets resolve relative to the containing file's directory first,
then the repository root — so both ``[SERVING.md](SERVING.md)`` inside
``docs/`` and ``docs/SERVING.md`` spelled from the repo root work.
"""

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

DOC_FILES = sorted(
    [REPO_ROOT / "README.md"] + list((REPO_ROOT / "docs").glob("*.md"))
)

MARKDOWN_LINK = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
BACKTICK_TOKEN = re.compile(r"`([^`\s]+)`")
TREE_PATH = re.compile(r"(?<![\w./-])((?:examples|benchmarks|tests|src)/[\w./-]*\w)")


def resolves(target: str, containing_file: Path) -> bool:
    path = target.split("#", 1)[0]
    if not path:
        return True  # pure anchor
    return (containing_file.parent / path).exists() or (
        REPO_ROOT / path
    ).exists()


def checkable_token(token: str) -> bool:
    """Whether a backticked token is a path this test should verify."""
    if "*" in token or "{" in token or "<" in token:
        return False  # glob / placeholder, not a concrete path
    if token.endswith(".md"):
        return True
    if token.endswith(".py") and "/" in token:
        return True
    return False


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_all_references_resolve(doc):
    text = doc.read_text()
    broken = []
    for match in MARKDOWN_LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if not resolves(target, doc):
            broken.append(f"markdown link -> {target}")
    for match in BACKTICK_TOKEN.finditer(text):
        token = match.group(1)
        if checkable_token(token) and not resolves(token, doc):
            broken.append(f"backticked path -> {token}")
    for match in TREE_PATH.finditer(text):
        if not resolves(match.group(1), doc):
            broken.append(f"path -> {match.group(1)}")
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} has dangling references:\n  "
        + "\n  ".join(broken)
    )


def test_new_docs_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/PERFORMANCE.md" in readme
    assert "docs/ARCHITECTURE.md" in readme


def test_performance_doc_is_cross_linked():
    for name in ("OBSERVABILITY.md", "ROBUSTNESS.md"):
        text = (REPO_ROOT / "docs" / name).read_text()
        assert "PERFORMANCE.md" in text, f"docs/{name} should link PERFORMANCE.md"


def test_online_doc_is_cross_linked():
    for name in ("ARCHITECTURE.md", "SERVING.md", "ROBUSTNESS.md", "SCALING.md"):
        text = (REPO_ROOT / "docs" / name).read_text()
        assert "ONLINE_LEARNING.md" in text, (
            f"docs/{name} should link ONLINE_LEARNING.md"
        )


# ----------------------------------------------------------------------
# CLI subcommands named in docs must exist in repro.cli
# ----------------------------------------------------------------------

# ``repro <word>`` / ``python -m repro <word>`` inside inline code or
# fenced blocks.  Words that follow ``repro`` but are prose, module
# paths or flags are excluded by the pattern itself.
CLI_INVOCATION = re.compile(r"(?:python -m repro|\brepro)\s+([a-z][a-z0-9_-]+)")

NOT_SUBCOMMANDS = {
    # ``repro stats`` vs package prose like ``repro.obs`` is handled by
    # the regex (dots break the match), and flags never match; this set
    # catches non-command words that legitimately follow the bare
    # project name, e.g. ``from repro import …`` in python snippets.
    "import",
    "itself",
}


def _documented_subcommands():
    found = {}
    for doc in DOC_FILES:
        for match in CLI_INVOCATION.finditer(doc.read_text()):
            token = match.group(1)
            if token in NOT_SUBCOMMANDS:
                continue
            found.setdefault(token, set()).add(
                str(doc.relative_to(REPO_ROOT))
            )
    return found


def _actual_subcommands():
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and action.choices:
            return set(action.choices)
    raise AssertionError("repro.cli.build_parser() exposes no subcommands")


def test_every_documented_cli_subcommand_exists():
    actual = _actual_subcommands()
    unknown = {
        name: sorted(files)
        for name, files in _documented_subcommands().items()
        if name not in actual
    }
    assert not unknown, (
        "docs name CLI subcommands that repro.cli does not define: "
        f"{unknown} (known: {sorted(actual)})"
    )


def test_core_subcommands_are_documented():
    """The operational surface should be discoverable from the docs."""
    documented = set(_documented_subcommands())
    for name in ("train", "serve", "recommend", "index", "loadtest",
                 "chaos", "online", "stats"):
        assert name in documented, f"subcommand '{name}' appears in no doc"


# ----------------------------------------------------------------------
# Every doc page must be reachable from README.md
# ----------------------------------------------------------------------

def _referenced_docs(path):
    """Doc-page paths referenced by ``path`` (markdown links + backticks)."""
    text = path.read_text()
    targets = [m.group(1) for m in MARKDOWN_LINK.finditer(text)]
    targets += [m.group(1) for m in BACKTICK_TOKEN.finditer(text)]
    out = set()
    for target in targets:
        name = target.split("#", 1)[0]
        if not name.endswith(".md"):
            continue
        for candidate in (path.parent / name, REPO_ROOT / name):
            if candidate.exists():
                out.add(candidate.resolve())
                break
    return out


def test_every_doc_page_reachable_from_readme():
    readme = REPO_ROOT / "README.md"
    seen = {readme.resolve()}
    frontier = [readme]
    while frontier:
        page = frontier.pop()
        for linked in _referenced_docs(page):
            if linked not in seen:
                seen.add(linked)
                frontier.append(linked)
    unreachable = [
        str(p.relative_to(REPO_ROOT))
        for p in DOC_FILES
        if p.resolve() not in seen
    ]
    assert not unreachable, (
        f"doc pages not reachable from README.md: {unreachable}"
    )
