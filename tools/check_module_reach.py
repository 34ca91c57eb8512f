#!/usr/bin/env python3
"""Fails when a header under src/ is reached only by its own .cpp and tests.

A module that no library, bench, tool, example or perfbench file includes
is kept alive only by its own test, so it is dead code with a test attached.
The check scans src/, bench/, tools/, examples/ and perfbench/src/ for
`#include "..."` lines and reports every src/ header that no file there
includes, apart from the header's own .cpp.

  python3 tools/check_module_reach.py [REPO_ROOT]

Exit status: 0 when every header is reached, 1 otherwise.
"""

import pathlib
import re
import sys

SCANNED = ("src", "bench", "tools", "examples", "perfbench/src")
SOURCES = (".cpp", ".hpp")
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    src = root / "src"
    includers: dict[str, set[pathlib.Path]] = {}
    for top in SCANNED:
        for path in sorted((root / top).rglob("*")):
            if path.suffix not in SOURCES:
                continue
            for name in INCLUDE.findall(path.read_text(errors="replace")):
                includers.setdefault(name, set()).add(path)

    orphans = []
    for header in sorted(src.rglob("*.hpp")):
        own = {header, header.with_suffix(".cpp")}
        if not includers.get(header.relative_to(src).as_posix(), set()) - own:
            orphans.append(header.relative_to(root).as_posix())

    for name in orphans:
        print(f"orphan module: {name} is included by nothing outside its own .cpp and tests/")
    print(f"module reach: {len(orphans)} orphan header(s)")
    return 1 if orphans else 0


if __name__ == "__main__":
    sys.exit(main())
