#!/usr/bin/env python3
"""Concurrency/alias invariant lint for the PRETZEL tree.

Two rules, both about keeping dangerous idioms annotated at the point of use:

1. memory-order rule — a memory_order_relaxed load that feeds control flow
   (it sits inside an `if`/`while`/`for` condition) must carry a
   justification: a comment containing `relaxed:` on the same line or within
   the preceding JUSTIFICATION_WINDOW lines. Relaxed loads into plain
   assignments (stats snapshots, claim tickets) are exempt: they do not gate
   a branch directly, and a blanket rule would bury the signal in counter
   noise. Applies to both std::memory_order_relaxed and the model-check seam
   spelling PRETZEL_MO(tag, relaxed).

2. alias rule — inside the alias-path files (the zero-copy wire format and
   the SIMD kernels), every reinterpret_cast must be one of:
     - a byte view (char/unsigned char/uint8_t/std::byte pointers) or a
       pointer-to-integer view (uintptr_t/intptr_t): always well-defined;
     - routed through AlignedAliasCast<T> (the alignment-asserting helper in
       src/common/serialize.h);
     - explicitly justified with an `alias-ok:` comment on the same line or
       within the preceding JUSTIFICATION_WINDOW lines.

3. chaos-coverage rule — every fault-injection site declared in src/
   (the string literal in PRETZEL_FAULT_POINT / PRETZEL_FAULT_STALL) must
   appear in tests/chaos_test.cc. A site nobody arms is dead weight at best;
   at worst it documents a failure mode the chaos suite silently stopped
   exercising. src/common/fault.h itself is exempt (it defines the seam,
   not a site).

Exit status 0 when clean, 1 with findings (one per line, grep-friendly).
Usage: lint_invariants.py [repo_root]
"""

import os
import re
import sys

JUSTIFICATION_WINDOW = 4  # Lines above the site searched for a justification.

# Files whose reinterpret_casts are subject to the alias rule: the zero-copy
# BinaryRecord path and the kernels that consume its in-place payloads.
ALIAS_PATH_FILES = (
    os.path.join("src", "common", "serialize.h"),
    os.path.join("src", "ops", "kernels.cc"),
    os.path.join("src", "ops", "kernels.h"),
)

# Fault sites are string literals passed to the injection macros; the call
# may wrap, so this is matched against whole-file text, not single lines.
FAULT_SITE_RE = re.compile(
    r"PRETZEL_FAULT_(?:POINT|STALL)\(\s*\"([^\"]+)\""
)
CHAOS_SUITE = os.path.join("tests", "chaos_test.cc")

RELAXED_LOAD_RE = re.compile(
    r"\.load\(\s*(?:std::memory_order_relaxed|PRETZEL_MO\(\s*\w+\s*,\s*relaxed\s*\))"
)
CONTROL_OPEN_RE = re.compile(r"\b(?:if|while|for)\s*\(")
REINTERPRET_RE = re.compile(r"reinterpret_cast\s*<\s*([^>]+)>")
BYTE_VIEW_RE = re.compile(
    r"^(?:const\s+)?(?:"
    r"(?:signed\s+|unsigned\s+)?char|u?int8_t|std::byte|u?intptr_t"
    r")(?:\s*const)?\s*\**\s*$"
)


def scan_cxx_files(root):
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs[:] = [d for d in dirs if not d.startswith(".")]
        for name in sorted(files):
            if name.endswith((".h", ".cc")):
                yield os.path.join(base, name)


def has_justification(lines, idx, token):
    lo = max(0, idx - JUSTIFICATION_WINDOW)
    return any(token in lines[j] for j in range(lo, idx + 1))


def load_feeds_control(lines, idx, load_pos):
    """True if the relaxed load at lines[idx][load_pos] sits inside a still-
    open if/while/for condition (the condition may start a few lines up)."""
    lo = max(0, idx - 3)
    joined = ""
    offset_of_idx = 0
    for j in range(lo, idx + 1):
        if j == idx:
            offset_of_idx = len(joined)
        joined += lines[j] + "\n"
    load_at = offset_of_idx + load_pos
    best = None
    for m in CONTROL_OPEN_RE.finditer(joined):
        if m.end() <= load_at:
            best = m
    if best is None:
        return False
    depth = 0
    for ch in joined[best.end() - 1 : load_at]:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
    return depth > 0


def lint_file(path, rel, findings):
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except OSError as e:
        findings.append(f"{rel}: unreadable: {e}")
        return

    in_alias_scope = any(rel.endswith(suffix) for suffix in ALIAS_PATH_FILES)

    for idx, line in enumerate(lines):
        for m in RELAXED_LOAD_RE.finditer(line):
            if not load_feeds_control(lines, idx, m.start()):
                continue
            if has_justification(lines, idx, "relaxed:"):
                continue
            findings.append(
                f"{rel}:{idx + 1}: control-feeding memory_order_relaxed load "
                f"without a 'relaxed:' justification comment"
            )

        if not in_alias_scope:
            continue
        for m in REINTERPRET_RE.finditer(line):
            target = m.group(1).strip()
            if BYTE_VIEW_RE.match(target):
                continue  # Byte/integer views are always defined.
            if "AlignedAliasCast" in line:
                continue  # The helper itself (and calls through it).
            if has_justification(lines, idx, "alias-ok:"):
                continue
            findings.append(
                f"{rel}:{idx + 1}: reinterpret_cast<{target}> in an alias "
                f"path; route through AlignedAliasCast<> or justify with an "
                f"'alias-ok:' comment"
            )


def lint_fault_site_coverage(root, findings):
    """Rule 3: every injection site in src/ is exercised by the chaos suite."""
    chaos_path = os.path.join(root, CHAOS_SUITE)
    try:
        with open(chaos_path, encoding="utf-8") as f:
            chaos_text = f.read()
    except OSError:
        chaos_text = None  # Reported per-site below, with the site named.
    fault_seam = os.path.join("src", "common", "fault.h")
    for path in scan_cxx_files(root):
        rel = os.path.relpath(path, root)
        if rel.endswith(fault_seam):
            continue
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError:
            continue  # Already reported by lint_file.
        for m in FAULT_SITE_RE.finditer(text):
            site = m.group(1)
            line = text.count("\n", 0, m.start()) + 1
            if chaos_text is None:
                findings.append(
                    f"{rel}:{line}: fault site '{site}' declared but "
                    f"{CHAOS_SUITE} is missing"
                )
            elif f'"{site}"' not in chaos_text:
                findings.append(
                    f"{rel}:{line}: fault site '{site}' is not exercised by "
                    f"{CHAOS_SUITE}; add a chaos scenario that arms it"
                )


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else os.getcwd()
    findings = []
    count = 0
    for path in scan_cxx_files(root):
        count += 1
        lint_file(path, os.path.relpath(path, root), findings)
    lint_fault_site_coverage(root, findings)
    if count == 0:
        print(f"lint_invariants: no sources found under {root}/src", file=sys.stderr)
        return 1
    for f in findings:
        print(f)
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s) in {count} files",
              file=sys.stderr)
        return 1
    print(f"lint_invariants: clean ({count} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
