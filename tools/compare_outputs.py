"""Which JSON values differ between two trees of kept job outputs.

Pairs the files of OLD and NEW by their path relative to each tree (as
`tools/output_digests.py --keep` writes them: `<seed>/<job id>.json`) and
prints, per file, one line for each JSON path whose value differs:

    <file> <path>

A path is written as `cells[3].witness`: object keys joined by dots, list
indices in brackets, `$` for the whole document.  A list of scalars, such
as a witness or a normal, is one value.  A key or list entry
present on one side only is a path that differs; so is a file present in
one tree only (`<file> only in OLD` or `... only in NEW`).  A file that is
not JSON, or whose bytes differ with equal values, differs at `$`.
Identical trees print nothing.  After the per-file lines comes, for each
path with its list indices written `[*]`, how many files it moved in:

    # 27 files: cells[*].witness

    python3 tools/output_digests.py --seeds 7 1009 --keep before
    python3 tools/compare_outputs.py before after
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from pathlib import Path


def differing_paths(old, new, path: str = "") -> list:
    """The JSON paths, in document order, at which `old` and `new` differ."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                out.append(sub)
            else:
                out += differing_paths(old[key], new[key], sub)
        return out
    if isinstance(old, list) and isinstance(new, list) and _nested(old + new):
        out = []
        for i in range(max(len(old), len(new))):
            sub = f"{path}[{i}]"
            if i >= len(old) or i >= len(new):
                out.append(sub)
            else:
                out += differing_paths(old[i], new[i], sub)
        return out
    return [] if type(old) is type(new) and old == new else [path or "$"]


def _nested(values) -> bool:
    return any(isinstance(v, (dict, list)) for v in values)


def compare_trees(old_dir: Path, new_dir: Path) -> list:
    """(file, path) pairs of every difference, files in sorted order."""
    old_files = {p.relative_to(old_dir).as_posix() for p in old_dir.rglob("*") if p.is_file()}
    new_files = {p.relative_to(new_dir).as_posix() for p in new_dir.rglob("*") if p.is_file()}
    out = []
    for name in sorted(old_files | new_files):
        if name not in new_files:
            out.append((name, "only in OLD"))
        elif name not in old_files:
            out.append((name, "only in NEW"))
        else:
            old_bytes, new_bytes = (old_dir / name).read_bytes(), (new_dir / name).read_bytes()
            if old_bytes != new_bytes:
                try:
                    paths = differing_paths(json.loads(old_bytes), json.loads(new_bytes))
                except ValueError:  # not JSON: the bytes differ
                    paths = []
                out += [(name, path) for path in paths or ["$"]]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    diffs = compare_trees(args.old, args.new)
    for name, path in diffs:
        print(name, path)
    moved = {(name, re.sub(r"\[\d+\]", "[*]", path)) for name, path in diffs}
    patterns = Counter(path for _, path in moved)
    for path, files in sorted(patterns.items()):
        print(f"# {files} files: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
