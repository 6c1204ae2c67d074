#!/usr/bin/env python
"""Documentation link checker (the CI docs job).

Scans the repo's markdown docs for relative links and verifies every
target exists, so README/ARCHITECTURE references cannot rot silently.
External (http/https/mailto) links and intra-page anchors are skipped
-- CI must not depend on network reachability.

Backticked repo paths are checked too: a word inside backticks that
contains a ``/`` and starts with a top-level directory (``src/``,
``tests/``, ``scripts/``, ``benchmarks/``, ``examples/``, ``docs/``,
``.github/``) must exist, so a doc cannot keep naming a deleted file.
A ``::test`` or ``:line`` suffix is ignored; globs are skipped.

The other direction is checked as well: every ``*.md`` name a Python
file under ``src/`` or ``examples/`` cites (``docs/API.md``,
``PAPERS.md``) must exist relative to the repo root, so a docstring
cannot point readers at a document that is gone.

Docstring cross-references are resolved too: every ``:class:``,
``:func:``, ``:meth:``, ``:mod:``, ``:attr:``, ``:data:`` or ``:exc:``
target under ``src/`` that starts with ``repro.`` (a leading ``~``
and line breaks inside the target are allowed) must import, so a
docstring cannot keep naming a deleted or renamed object.

Usage: python scripts/check_docs.py [file.md ...]
Defaults to README.md and everything under docs/.
"""

import glob
import importlib
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

# [text](target) -- excluding images' inner ! is irrelevant, same rule.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

CODE = re.compile(r"`([^`]+)`")
TOP_DIRS = ("src", "tests", "scripts", "benchmarks", "examples", "docs",
            ".github")
GLOB_CHARS = set("*?[{<")

MD_NAME = re.compile(r"[\w./-]*\w\.md\b")
CITING_DIRS = ("src", "examples")

XREF = re.compile(
    r":(?:class|func|meth|mod|attr|data|exc):`~?(repro\.[\w.\s]*?)`")


def repo_paths(span):
    """The words of one backticked span that name a repo path."""
    for word in span.split():
        path = re.split(r"::|:\d", word.strip("\"'(),;"), 1)[0]
        if ("/" in path and path.split("/", 1)[0] in TOP_DIRS
                and not GLOB_CHARS & set(path)):
            yield path


def check_file(path):
    """Yield (line_number, problem) for every broken relative link and
    every backticked repo path that does not exist."""
    base = os.path.dirname(path)
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            for target in LINK.findall(line):
                if target.startswith(SKIP_PREFIXES):
                    continue
                resolved = os.path.normpath(
                    os.path.join(base, target.split("#", 1)[0]))
                if not os.path.exists(resolved):
                    yield lineno, "broken link -> " + target
            for span in CODE.findall(line):
                for target in repo_paths(span):
                    if not os.path.exists(os.path.join(REPO_ROOT,
                                                       target)):
                        yield lineno, "missing path `{}`".format(target)


def missing_md_citations():
    """Yield (path, line_number, name) for every ``*.md`` name cited
    in a Python file under :data:`CITING_DIRS` that does not exist."""
    for top in CITING_DIRS:
        for path in sorted(glob.glob(os.path.join(REPO_ROOT, top, "**",
                                                  "*.py"), recursive=True)):
            with open(path, encoding="utf-8") as handle:
                for lineno, line in enumerate(handle, 1):
                    for name in MD_NAME.findall(line):
                        if not os.path.exists(os.path.join(REPO_ROOT,
                                                           name)):
                            yield path, lineno, name


def resolves(target):
    """Whether the dotted ``target`` names an importable module or an
    attribute path below one."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def unresolved_xrefs():
    """Yield (path, line_number, target) for every ``repro.``
    cross-reference under ``src/`` that does not resolve."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        for match in XREF.finditer(text):
            target = re.sub(r"\s+", "", match.group(1))
            if not resolves(target):
                yield (path, text.count("\n", 0, match.start()) + 1,
                       target)


def main(argv):
    files = argv or sorted(
        [os.path.join(REPO_ROOT, "README.md")]
        + glob.glob(os.path.join(REPO_ROOT, "docs", "**", "*.md"),
                    recursive=True))
    broken = 0
    for path in files:
        if not os.path.exists(path):
            print("MISSING DOC: {}".format(path))
            broken += 1
            continue
        for lineno, problem in check_file(path):
            print("{}:{}: {}".format(
                os.path.relpath(path, REPO_ROOT), lineno, problem))
            broken += 1
    for path, lineno, name in missing_md_citations():
        print("{}:{}: cites missing `{}`".format(
            os.path.relpath(path, REPO_ROOT), lineno, name))
        broken += 1
    for path, lineno, target in unresolved_xrefs():
        print("{}:{}: unresolved reference `{}`".format(
            os.path.relpath(path, REPO_ROOT), lineno, target))
        broken += 1
    if broken:
        print("{} broken link(s), path(s), citation(s) or "
              "reference(s)".format(broken))
        return 1
    print("docs ok: {} file(s), all relative links and backticked "
          "repo paths resolve, every *.md name cited under {} "
          "exists, and every repro.* docstring reference under src/ "
          "imports".format(len(files), "/".join(CITING_DIRS)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
