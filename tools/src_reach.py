#!/usr/bin/env python3
"""Fail if src/ code is reached by nothing but its own tests.

Header pass.  A header under src/ is *reached* when some file in src/
(other than its own .cpp), examples/, bench/ or perfbench/ has a
direct `#include "src/<path>.hpp"` of it.

Symbol pass (only when BUILD_DIR is given).  It configures two Debug
trees under BUILD_DIR/src_reach, compiled with -ffunction-sections
-fdata-sections -fkeep-inline-functions and linked with
-Wl,--gc-sections: the repository root (every example and every
bench_* binary) and perfbench/ (the perfbench binary, its own CMake
project).  -fkeep-inline-functions makes every inline function and
member that a src/ header defines land in libleak_core.a as a weak
(nm type W) symbol, so header code is judged like out-of-line code: a
`leak::` function that libleak_core.a defines (nm type T or W) is
reached when at least one of those binaries keeps it.  The compiler
writes constructors, destructors and assignment operators whether or
not anyone declared them, so a weak symbol of one of those three kinds
is skipped; an out-of-line (T) one is judged.  A template member that
is never instantiated has no symbol at all, so nm cannot see it and
this pass does not judge it.

Before the symbol pass, a one-line TU holding an unused inline
function is compiled with -fkeep-inline-functions; if the compiler
does not emit its symbol (clang ignores the flag), the pass judges
out-of-line code only and says so.  The compiler, launcher and
generator come from $CXX, $CMAKE_CXX_COMPILER_LAUNCHER and
$CMAKE_GENERATOR, as for any first configure.  Without Google
Benchmark the bench_* binaries do not exist, and the pass exits 77
(ctest's SKIP_RETURN_CODE) rather than judge a partial root set.

Tests never count as a reach: code that only its own tests exercise is
dead weight, and this gate keeps it from growing back.  Prints every
unreached header and function and exits 1 if there are any; exits 0
otherwise.

    src_reach.py [REPO_ROOT [BUILD_DIR]]   (default root: the parent of tools/)
"""

import os
import pathlib
import re
import subprocess
import sys
import tempfile

INCLUDE = re.compile(r'^\s*#\s*include\s+"(src/[^"]+\.hpp)"', re.MULTILINE)
SCANNED = ("src", "examples", "bench", "perfbench")
SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
SKIP = 77
# Mangled names of entities declared in namespace leak (a leading
# `leak::` in demangled form would also match std templates that merely
# return a leak:: type).
LEAK_SCOPED = re.compile(r"_ZN[KVRO]*4leak")
# Compiler-written special members: a constructor (`X::X(`, also of a
# class template `X<...>::X(`), a destructor or a copy/move assignment.
SPECIAL = re.compile(r"\b(\w+)(?:<.*>)?::~?\1\(|::operator=\(")
KEEP_INLINE = "-fkeep-inline-functions"
# The trees judge reachability, not warnings: the regular builds are the
# warning gate, and no CI compiler builds perfbench otherwise.
GC_FLAGS = ["-DCMAKE_BUILD_TYPE=Debug", "-DLEAK_WERROR=OFF",
            "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"]
SECTION_FLAGS = "-ffunction-sections -fdata-sections"


class Skip(Exception):
    pass


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


def cmake_list(cmakelists, name):
    """The .cpp entries of `set(<name> ...)` in a CMakeLists.txt."""
    match = re.search(r"set\(\s*" + name + r"\s(.*?)\)", cmakelists.read_text(),
                      re.DOTALL)
    return [pathlib.Path(src).stem for src in match.group(1).split()
            if src.endswith(".cpp")]


def run(cmd, log):
    with open(log, "a") as out:
        out.write("$ " + " ".join(map(str, cmd)) + "\n")
        out.flush()
        if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
            tail = "".join(log.read_text().splitlines(True)[-40:])
            raise RuntimeError(f"`{' '.join(map(str, cmd))}` failed "
                               f"(log: {log}):\n{tail}")


def keeps_inline(base):
    """Whether $CXX emits an unused inline function under KEEP_INLINE."""
    with tempfile.TemporaryDirectory(dir=base) as scratch:
        source = pathlib.Path(scratch) / "probe.cpp"
        source.write_text("inline int src_reach_probe() { return 1; }\n")
        obj = source.with_suffix(".o")
        cxx = os.environ.get("CXX", "c++")
        compiled = subprocess.run([cxx, KEEP_INLINE, "-c", source, "-o", obj],
                                  capture_output=True).returncode == 0
        return compiled and "src_reach_probe()" in symbols(obj, "TW")


def configure(source, tree, log, cxx_flags, *options):
    run(["cmake", "-S", source, "-B", tree, *GC_FLAGS,
         f"-DCMAKE_CXX_FLAGS={cxx_flags}", *options], log)


def build(tree, targets, log):
    jobs = str(os.cpu_count() or 1)
    run(["cmake", "--build", tree, "-j", jobs, "--target", *targets], log)


def symbols(path, types, mangled=re.compile("")):
    """Demangled names of the symbols `path` defines with an nm type in
    `types` whose mangled name matches `mangled`."""
    out = subprocess.run(["nm", "--defined-only", path], check=True,
                         capture_output=True, text=True).stdout
    names = [fields[2] for fields in map(str.split, out.splitlines())
             if len(fields) == 3 and fields[1] in types
             and mangled.match(fields[2])]
    demangled = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                               capture_output=True, text=True).stdout
    return set(demangled.splitlines())


def unkept(root, build_dir):
    base = build_dir / "src_reach"
    base.mkdir(parents=True, exist_ok=True)
    log = base / "build.log"
    log.write_text("")
    tree, pb_tree = base / "root", base / "perfbench"
    inline = keeps_inline(base)
    cxx_flags = SECTION_FLAGS + (" " + KEEP_INLINE if inline else "")

    examples = cmake_list(root / "examples" / "CMakeLists.txt",
                          "LEAK_EXAMPLE_SOURCES")
    benches = cmake_list(root / "bench" / "CMakeLists.txt",
                         "LEAK_BENCH_SOURCES")
    configure(root, tree, log, cxx_flags, "-DLEAK_BUILD_TESTS=OFF",
              "-DLEAK_BUILD_LINT=OFF", "-DLEAK_BUILD_EXAMPLES=ON",
              "-DLEAK_BUILD_BENCH=ON")
    cache = (tree / "CMakeCache.txt").read_text()
    if not re.search(r"^benchmark_DIR:PATH=(?!.*NOTFOUND).+$", cache,
                     re.MULTILINE):
        raise Skip("Google Benchmark not found, so the bench_* binaries "
                   "cannot be built and the root set would be partial")
    build(tree, ["leak_core", *examples, *benches], log)
    configure(root / "perfbench", pb_tree, log, cxx_flags)
    build(pb_tree, ["perfbench"], log)

    roots = ([tree / "examples" / name for name in examples] +
             [tree / "bench" / name for name in benches] +
             [pb_tree / "perfbench"])
    kept = set()
    for binary in roots:
        kept |= symbols(binary, "TtWwVv")
    library = tree / "src" / "libleak_core.a"
    defined = symbols(library, "T", LEAK_SCOPED) | {
        name for name in symbols(library, "W", LEAK_SCOPED)
        if not SPECIAL.search(name)}
    return inline, len(roots), sorted(defined - kept)


def main(argv):
    root = pathlib.Path(argv[1] if len(argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    failed = False
    offenders = unreached(root)
    if offenders:
        print(f"{len(offenders)} src/ header(s) reached only by their own "
              "tests (wire them into a scenario, CLI verb or bench, or "
              "delete them):")
        for header in offenders:
            print(f"  {header}")
        failed = True
    else:
        print("every src/ header is reached outside tests/")
    if len(argv) > 2:
        try:
            inline, count, dead = unkept(root.resolve(),
                                         pathlib.Path(argv[2]).resolve())
        except Skip as why:
            print(f"symbol pass skipped: {why}")
            return 1 if failed else SKIP
        except RuntimeError as why:
            print(f"symbol pass could not build its roots: {why}")
            return 1
        if not inline:
            print(f"$CXX does not honour {KEEP_INLINE}: judging out-of-line "
                  "functions only, not inline header code")
        if dead:
            print(f"{len(dead)} leak:: function(s) in libleak_core.a that none "
                  f"of the {count} example, bench and perfbench binaries keeps "
                  "(wire them in or delete them):")
            for name in dead:
                print(f"  {name}")
            failed = True
        else:
            print(f"every leak:: function in libleak_core.a is kept by one of "
                  f"the {count} example, bench and perfbench binaries")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
