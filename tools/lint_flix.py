#!/usr/bin/env python3
"""FliX project-invariant linter (DESIGN.md section 8, "Locking discipline").

Five rules, each guarding an invariant the compiler cannot see on its own:

1. sync-primitives — raw ``std::mutex`` / ``std::lock_guard`` /
   ``std::unique_lock`` / ``std::scoped_lock`` / ``std::shared_mutex`` /
   ``std::condition_variable`` / ``std::atomic_flag`` are banned everywhere
   under src/ except common/sync.h itself. Everything locks through the
   annotated flix::Mutex/SpinLock wrappers, so Clang's Thread Safety
   Analysis sees every acquisition.

2. tsa-optout — every ``NO_THREAD_SAFETY_ANALYSIS`` use must carry a
   ``// SAFETY:`` justification within the six lines above it (or on the
   same line). The escape hatch is allowed; an *unexplained* escape hatch
   is not. The macro definition itself (common/sync.h) is exempt.

3. metric-names — no ``"flix.*"`` string literal may appear in src/,
   tools/ or bench/ outside the central registry header src/obs/names.h:
   code names a metric through its names.h constant. The metrics registry
   interns by name, so a typo silently creates a parallel metric, and a
   literal that drifts from a renamed constant silently reads a fresh zero
   counter; the registry makes names greppable and the linter keeps every
   use tied to a declaration.

4. dead-metric-names — every constant declared in src/obs/names.h must be
   referenced, as an identifier, by some C++ file outside that header under
   src/, tools/, bench/ or perfbench/. A name nothing records or reads
   promises an exporter, dashboard or bench gate a metric that never
   appears; delete the constant along with the last code that used it.

5. binary-io — ``common/binary_io.h`` (the stream reader/writer) may be
   included only under src/common/, src/xml/ and tests/. It serves the
   .flxc collection file alone; index structures persist as FLIXPG01
   segments (storage/), so a stream Save/Load creeping back into the
   index, graph or framework layers is a second index format.

Stdlib-only on purpose: runs anywhere python3 exists, including the
docs-lint CI job (.github/workflows/ci.yml).

    $ python3 tools/lint_flix.py
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
NAMES_HEADER = REPO / "src" / "obs" / "names.h"
SYNC_HEADER = REPO / "src" / "common" / "sync.h"

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

RAW_PRIMITIVES = re.compile(
    r"std::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|shared_timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock|shared_lock"
    r"|condition_variable(?:_any)?|atomic_flag)\b"
)
TSA_OPTOUT = re.compile(r"\bNO_THREAD_SAFETY_ANALYSIS\b")
SAFETY_COMMENT = re.compile(r"//\s*SAFETY:")
METRIC_LITERAL = re.compile(r'"(flix\.[A-Za-z0-9_.]*)"')
NAME_CONSTANT = re.compile(r"\bconstexpr\s+char\s+(k[A-Za-z0-9_]*)\s*\[\]")
IDENTIFIER = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")

# Trees whose C++ files may reference a metric-name constant (rule 4).
NAME_USER_DIRS = ("src", "tools", "bench", "perfbench")

BINARY_IO_INCLUDE = re.compile(r'^\s*#\s*include\s*"common/binary_io\.h"')
# Where common/binary_io.h may be included (rule 5), and the trees scanned.
BINARY_IO_ALLOWED = ("src/common/", "src/xml/", "tests/")
BINARY_IO_SCANNED = ("src", "tools", "bench", "examples", "perfbench")


def cxx_files(root):
    return sorted(
        p for p in root.rglob("*") if p.suffix in CXX_SUFFIXES and p.is_file()
    )


def strip_comments_and_strings(line):
    """Removes // comments and string literal *contents* from one line, so
    a primitive named in prose or in an error message is not flagged."""
    out = []
    i = 0
    in_string = None
    while i < len(line):
        c = line[i]
        if in_string:
            if c == "\\":
                i += 2
                continue
            if c == in_string:
                in_string = None
            i += 1
            continue
        if c in "\"'":
            in_string = c
            i += 1
            continue
        if c == "/" and line[i : i + 2] == "//":
            break
        out.append(c)
        i += 1
    return "".join(out)


def declared_metric_names():
    names = set(METRIC_LITERAL.findall(NAMES_HEADER.read_text(encoding="utf-8")))
    if not names:
        print(f"lint_flix: no flix.* names found in {NAMES_HEADER}")
    return names


def check_sync_primitives(path, lines, report):
    if path.resolve() == SYNC_HEADER:
        return
    for lineno, line in enumerate(lines, start=1):
        code = strip_comments_and_strings(line)
        match = RAW_PRIMITIVES.search(code)
        if match:
            report(
                path,
                lineno,
                f"raw {match.group(0)} — use the annotated wrappers in "
                "common/sync.h (flix::Mutex, MutexLock, CondVar, ...)",
            )


def check_tsa_optouts(path, lines, report):
    if path.resolve() == SYNC_HEADER:  # the macro's definition site
        return
    for lineno, line in enumerate(lines, start=1):
        if not TSA_OPTOUT.search(strip_comments_and_strings(line)):
            continue
        context = lines[max(0, lineno - 7) : lineno]
        if not any(SAFETY_COMMENT.search(prev) for prev in context):
            report(
                path,
                lineno,
                "NO_THREAD_SAFETY_ANALYSIS without a '// SAFETY:' "
                "justification in the preceding 6 lines",
            )


def check_metric_names(path, lines, declared, report):
    if path.resolve() == NAMES_HEADER.resolve():
        return
    for lineno, line in enumerate(lines, start=1):
        for name in METRIC_LITERAL.findall(line):
            if name in declared:
                message = "use its src/obs/names.h constant"
            else:
                message = (
                    "not declared in src/obs/names.h — add it to the "
                    "registry and use the constant"
                )
            report(path, lineno, f'metric name "{name}": {message}')


def check_dead_metric_names(report):
    """Rule 4: reports each names.h constant that no other file mentions."""
    header = NAMES_HEADER.read_text(encoding="utf-8").splitlines()
    referenced = set()
    for top in NAME_USER_DIRS:
        for path in cxx_files(REPO / top):
            if path.resolve() == NAMES_HEADER.resolve():
                continue
            for line in path.read_text(encoding="utf-8").splitlines():
                code = strip_comments_and_strings(line)
                referenced.update(IDENTIFIER.findall(code))
    for lineno, line in enumerate(header, start=1):
        for name in NAME_CONSTANT.findall(line):
            if name not in referenced:
                report(
                    NAMES_HEADER,
                    lineno,
                    f"{name} is referenced nowhere in "
                    f"{', '.join(d + '/' for d in NAME_USER_DIRS)} — delete it "
                    "or use it",
                )


def check_binary_io_includes(report):
    """Rule 5: common/binary_io.h only under the collection-format trees."""
    for top in BINARY_IO_SCANNED:
        for path in cxx_files(REPO / top):
            rel = path.relative_to(REPO).as_posix()
            if rel.startswith(BINARY_IO_ALLOWED):
                continue
            lines = path.read_text(encoding="utf-8").splitlines()
            for lineno, line in enumerate(lines, start=1):
                if BINARY_IO_INCLUDE.search(line):
                    report(
                        path,
                        lineno,
                        "common/binary_io.h outside src/common/, src/xml/ "
                        "and tests/ — index structures persist as FLIXPG01 "
                        "segments (storage/segment.h)",
                    )


def main():
    failures = 0

    def report(path, lineno, message):
        nonlocal failures
        failures += 1
        print(f"{path.relative_to(REPO)}:{lineno}: {message}")

    declared = declared_metric_names()
    src_files = cxx_files(REPO / "src")
    tools_files = cxx_files(REPO / "tools")
    bench_files = cxx_files(REPO / "bench")

    for path in src_files:
        lines = path.read_text(encoding="utf-8").splitlines()
        check_sync_primitives(path, lines, report)
        check_tsa_optouts(path, lines, report)
        check_metric_names(path, lines, declared, report)
    for path in tools_files + bench_files:
        lines = path.read_text(encoding="utf-8").splitlines()
        check_tsa_optouts(path, lines, report)
        check_metric_names(path, lines, declared, report)
    check_dead_metric_names(report)
    check_binary_io_includes(report)

    scanned = len(src_files) + len(tools_files) + len(bench_files)
    print(
        f"lint_flix: {scanned} files scanned, "
        f"{failures} violation(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
