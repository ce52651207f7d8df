#!/usr/bin/env python
"""Docs site checker: internal links resolve, fenced examples doctest clean.

Run from the repository root (the package must be importable, e.g.
``PYTHONPATH=src python tools/check_docs.py``).  Two checks:

* every relative markdown link in ``README.md`` and ``docs/*.md`` points at
  an existing file, and every backticked ``pkg/module.py`` path names a file
  under ``src/repro/`` or the repository root;
* every ``>>>`` example in ``docs/*.md`` passes under :mod:`doctest`
  (``python -m doctest`` semantics — the examples are real, deterministic
  runs of the library).

Exit status 0 when clean; each failure is printed on its own line.  The CI
docs job and ``tests/test_docs.py`` both run this module, so a broken link
or a stale example fails fast in both places.
"""

from __future__ import annotations

import doctest
import re
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent

#: Markdown inline links, excluding pure in-page anchors ("#...").
_LINK = re.compile(r"\[[^\]]*\]\(([^)#][^)]*)\)")

#: Backticked source paths with a directory part, e.g. `core/cluster.py`.
_SOURCE_PATH = re.compile(r"`([\w.-]+(?:/[\w.-]+)+\.py)`")

#: Where a backticked source path may live: the package, then the repo root.
_SOURCE_ROOTS = (ROOT / "src" / "repro", ROOT)


def doc_files() -> List[Path]:
    """The documentation files covered by the checks."""
    return [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]


def check_links() -> List[str]:
    """Return one message per broken relative link."""
    failures: List[str] = []
    for doc in doc_files():
        for target in _LINK.findall(doc.read_text(encoding="utf-8")):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path = target.split("#", 1)[0]
            if path and not (doc.parent / path).exists():
                failures.append(
                    f"{doc.relative_to(ROOT)}: broken link -> {target}"
                )
    return failures


def check_source_paths() -> List[str]:
    """Return one message per backticked source path naming no file."""
    failures: List[str] = []
    for doc in doc_files():
        for path in _SOURCE_PATH.findall(doc.read_text(encoding="utf-8")):
            if not any((root / path).is_file() for root in _SOURCE_ROOTS):
                failures.append(
                    f"{doc.relative_to(ROOT)}: stale source path -> {path}"
                )
    return failures


def run_doctests() -> List[str]:
    """Return one message per docs page with failing doctests."""
    failures: List[str] = []
    for doc in sorted((ROOT / "docs").glob("*.md")):
        result = doctest.testfile(str(doc), module_relative=False, verbose=False)
        if result.failed:
            failures.append(
                f"{doc.relative_to(ROOT)}: {result.failed} of "
                f"{result.attempted} doctest example(s) failed"
            )
    return failures


def main(argv: List[str] = ()) -> int:
    # --links-only lets CI split link checking from the doctest pass (which
    # it runs via `python -m doctest docs/*.md`) without executing every
    # example twice.
    links_only = "--links-only" in argv
    failures = check_links() + check_source_paths()
    if not links_only:
        failures += run_doctests()
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        return 1
    checked = (
        "links and source paths" if links_only else "links, source paths and doctests"
    )
    print(f"docs OK: {len(doc_files())} files, {checked} clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
