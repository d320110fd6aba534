#!/usr/bin/env python3
"""Derives the benchmark's traffic mix from this repository's git history.

Usage, from a git checkout of the repository:

    python3 perfbench/edit_mix.py [<rev>]

Each first-parent commit up to <rev> (default HEAD) that adds or modifies a
C or C++ translation unit (*.c, *.cpp) is taken as one rebuild of the
project. Such a rebuild asks a plan service for every TU present after the
commit: the added and modified TUs are misses (edited sources), the others
repeat an already-planned source. The script prints, as JSON:

- `tus`: the TUs at <rev>, the size of a project like this one;
- `edit_share`: modified and added TUs over all TUs requested, pooled over
  those rebuilds (serve_mixed's share of edited requests);
- `interface_share`: of the modified TUs, the share whose header of the same
  name (.h or .hpp, same directory) changed in the same commit, an edit that
  other TUs can see (project_edit's share of fact edits; the rest stand for
  comment edits, which change nothing another TU imports).

The benchmark itself does not run this script: its checkout is not a git
repository. The constants it prints are written into serve_mixed.cpp and
project_edit.cpp.
"""
import json
import os
import subprocess
import sys

TU_SUFFIXES = (".c", ".cpp")
HEADER_SUFFIXES = (".h", ".hpp")


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True,
                          check=True).stdout


def tus_at(rev):
    return [path for path in git("ls-tree", "-r", "--name-only", rev)
            .splitlines() if path.endswith(TU_SUFFIXES)]


def main():
    rev = sys.argv[1] if len(sys.argv) > 1 else "HEAD"
    rebuilds = requested = edited = modified = interface = 0
    for commit in git("rev-list", "--first-parent", "--reverse", rev).split():
        if not git("rev-list", "--parents", "-n", "1", commit).split()[1:]:
            continue  # the root commit adds everything; nothing is rebuilt
        changes = [line.split("\t") for line in
                   git("diff", "--name-status", "--no-renames",
                       commit + "^", commit).splitlines()]
        changed = {path for status, path in changes if status in ("A", "M")}
        tus = [path for path in changed if path.endswith(TU_SUFFIXES)]
        if not tus:
            continue
        rebuilds += 1
        requested += len(tus_at(commit))
        edited += len(tus)
        for status, path in changes:
            if status != "M" or not path.endswith(TU_SUFFIXES):
                continue
            modified += 1
            stem = os.path.splitext(path)[0]
            if any(stem + suffix in changed for suffix in HEADER_SUFFIXES):
                interface += 1
    print(json.dumps({
        "rev": git("rev-parse", "--short", rev).strip(),
        "tus": len(tus_at(rev)),
        "rebuilds": rebuilds,
        "requested_tus": requested,
        "edited_tus": edited,
        "edit_share": round(edited / requested, 4) if requested else 0.0,
        "modified_tus": modified,
        "interface_edits": interface,
        "interface_share": round(interface / modified, 4) if modified else 0.0,
    }, indent=2))


if __name__ == "__main__":
    main()
