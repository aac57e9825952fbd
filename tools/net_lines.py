#!/usr/bin/env python3
"""Report lines added, removed and net per top-level directory.

Usage: tools/net_lines.py BASE [HEAD]

Diffs two git revisions with rename detection, so a moved file counts
only its edited lines. Without HEAD it diffs BASE against the working
tree (tracked files; `git add -N` new ones first). For every top-level
directory (files at the root are grouped under ".") it prints two
triples: all lines, and non-blank non-comment ("ncnb") lines. A line
is a comment when, stripped, it starts with // /* * or */ in C/C++
sources, or with # in Python, shell, CMake and YAML files. Markdown
and other text count every non-blank line. Always exits 0 when git
succeeds: it reports, it does not gate.
"""

import collections
import os
import subprocess
import sys

C_EXTS = {".c", ".cc", ".cpp", ".h", ".hpp"}
HASH_EXTS = {".py", ".sh", ".cmake", ".yml", ".yaml"}


def is_code(path, text):
    s = text.strip()
    if not s:
        return False
    ext = os.path.splitext(path)[1]
    if ext in C_EXTS:
        return not s.startswith(("//", "/*", "*"))
    if ext in HASH_EXTS or os.path.basename(path) == "CMakeLists.txt":
        return not s.startswith("#")
    return True


def top_dir(path):
    return path.split("/", 1)[0] if "/" in path else "."


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    base, head = argv[1], argv[2:]
    diff = subprocess.run(
        ["git", "diff", "--no-color", "--no-ext-diff", "-U0", "-M", base]
        + head,
        check=True, capture_output=True, text=True,
        errors="replace").stdout

    # dir -> [added, removed, ncnb added, ncnb removed]
    counts = collections.defaultdict(lambda: [0, 0, 0, 0])
    path, in_hunk = None, False
    for line in diff.splitlines():
        if line.startswith("diff --git "):
            path, in_hunk = line.rsplit(" b/", 1)[1], False
        elif line.startswith("@@"):
            in_hunk = True
        elif in_hunk and line[:1] in "+-":
            row = counts[top_dir(path)]
            slot = 0 if line[0] == "+" else 1
            row[slot] += 1
            if is_code(path, line[1:]):
                row[slot + 2] += 1

    header = "{:<14}{:>8}{:>8}{:>8}  {:>9}{:>9}{:>9}".format(
        "dir", "added", "removed", "net", "ncnb+", "ncnb-", "ncnb net")
    print(f"net lines {base}..{head[0] if head else 'working tree'}")
    print(header)
    total = [0, 0, 0, 0]
    for d in sorted(counts):
        a, r, ca, cr = counts[d]
        total = [t + v for t, v in zip(total, counts[d])]
        print(f"{d:<14}{a:>8}{r:>8}{a - r:>+8}  {ca:>9}{cr:>9}{ca - cr:>+9}")
    a, r, ca, cr = total
    print(f"{'total':<14}{a:>8}{r:>8}{a - r:>+8}  {ca:>9}{cr:>9}{ca - cr:>+9}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
