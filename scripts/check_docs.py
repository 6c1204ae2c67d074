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

Usage: python scripts/check_docs.py [file.md ...]
Defaults to README.md and everything under docs/.
"""

import glob
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# [text](target) -- excluding images' inner ! is irrelevant, same rule.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")

CODE = re.compile(r"`([^`]+)`")
TOP_DIRS = ("src", "tests", "scripts", "benchmarks", "examples", "docs",
            ".github")
GLOB_CHARS = set("*?[{<")


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
    if broken:
        print("{} broken link(s) or path(s)".format(broken))
        return 1
    print("docs ok: {} file(s), all relative links and backticked "
          "repo paths resolve".format(len(files)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
