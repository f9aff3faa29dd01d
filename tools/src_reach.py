#!/usr/bin/env python3
"""Fail if a src/ header is reached by nothing but its own tests.

A header under src/ is *reached* when some file in src/ (other than
its own .cpp), examples/, bench/ or perfbench/ has a direct
`#include "src/<path>.hpp"` of it.  Tests do not count: code that only
its own tests exercise is dead weight, and this gate keeps it from
growing back.  Prints the unreached headers and exits 1 if there are
any; exits 0 otherwise.

    src_reach.py [REPO_ROOT]      (default: the parent of tools/)
"""

import pathlib
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+\.hpp)"', re.MULTILINE)
SCANNED = ("src", "examples", "bench", "perfbench")
SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


def unreached(root):
    headers = {p.relative_to(root).as_posix()
               for p in (root / "src").rglob("*.hpp")}
    reached = set()
    for top in SCANNED:
        for path in (root / top).rglob("*"):
            if path.suffix not in SUFFIXES or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            text = path.read_text(encoding="utf-8", errors="replace")
            for header in INCLUDE.findall(text):
                if rel != header[:-len(".hpp")] + ".cpp":
                    reached.add(header)
    return sorted(headers - reached)


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    offenders = unreached(root)
    if offenders:
        print(f"{len(offenders)} src/ header(s) reached only by their own "
              "tests (wire them into a scenario, CLI verb or bench, or "
              "delete them):")
        for header in offenders:
            print(f"  {header}")
        return 1
    print("every src/ header is reached outside tests/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
