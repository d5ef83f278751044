#!/usr/bin/env python3
"""Count the Rust code lines that the line targets in ROADMAP.md refer to.

A counted line is a line of a `.rs` file that is not blank, does not start
with `//` (so `///` and `//!` doc lines are out too), and does not lie in
an item marked `#[cfg(test)]` (the attribute, the item and its body: a
test module, a test-only field or struct-literal field, a test-only
statement). `scripts/test_count_lines.py` pins these rules.
Prints one line per directory, then the total:

    python3 scripts/count_lines.py crates/core/src crates/server/src crates/router/src
"""

import os
import sys


def brace_depths(text):
    """Per line of `text`, the brace depth at its end, ignoring braces in
    comments, string literals and char literals."""
    depths = []
    depth = 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            depths.append(depth)
            i += 1
        elif text.startswith("//", i):
            end = text.find("\n", i)
            i = n if end < 0 else end
        elif text.startswith("/*", i):
            nest, i = 1, i + 2
            while i < n and nest:
                if text.startswith("/*", i):
                    nest, i = nest + 1, i + 2
                elif text.startswith("*/", i):
                    nest, i = nest - 1, i + 2
                else:
                    if text[i] == "\n":
                        depths.append(depth)
                    i += 1
        elif c == "r" and (text.startswith('r"', i) or text.startswith("r#", i)) and (
            i == 0 or not (text[i - 1].isalnum() or text[i - 1] == "_")
        ):
            j = i + 1
            while j < n and text[j] == "#":
                j += 1
            if j >= n or text[j] != '"':
                i += 1
                continue
            close = '"' + "#" * (j - i - 1)
            end = text.find(close, j + 1)
            end = n if end < 0 else end + len(close)
            depths.extend([depth] * text.count("\n", i, end))
            i = end
        elif c == '"':
            i += 1
            while i < n and text[i] != '"':
                if text[i] == "\\":
                    i += 1
                if i < n and text[i] == "\n":
                    depths.append(depth)
                i += 1
            i += 1
        elif c == "'":
            # a char literal ('x', '\n', '\u{7f}'), else a lifetime
            if text.startswith("\\", i + 1):
                end = text.find("'", i + 3)
                i = n if end < 0 else end + 1
            elif i + 2 < n and text[i + 2] == "'":
                i += 3
            else:
                i += 1
        else:
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
            i += 1
    if not text.endswith("\n"):
        depths.append(depth)
    return depths


def code_of(line):
    """`line` stripped, without a trailing `//` comment outside a string
    literal."""
    in_str, i = False, 0
    while i < len(line):
        c = line[i]
        if in_str:
            if c == "\\":
                i += 1
            elif c == '"':
                in_str = False
        elif c == '"':
            in_str = True
        elif line.startswith("//", i):
            return line[:i].strip()
        i += 1
    return line.strip()


def count_file(path):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    lines = text.split("\n")
    if text.endswith("\n"):
        lines.pop()
    depths = brace_depths(text)
    counted = 0
    k = 0
    while k < len(lines):
        stripped = lines[k].strip()
        if stripped.startswith("#[cfg(test)]"):
            # skip the attribute and the item it marks: through the line
            # where the item's braces close again, its `;`, or, for an item
            # that opens no braces on its first line (a field), that line's
            # trailing `,` (comments and attributes aside); the close of an
            # enclosing block ends it too
            base = depths[k - 1] if k > 0 else 0
            if not stripped[len("#[cfg(test)]"):].strip():
                k += 1
            opened, first = False, True
            while k < len(lines):
                depth, body = depths[k], code_of(lines[k]).removeprefix("#[cfg(test)]").strip()
                k += 1
                if depth > base:
                    opened = True
                elif opened or depth < base:
                    break
                elif body and not body.startswith("#"):
                    if body.endswith((";", "}")) or (first and body.endswith(",")):
                        break
                    first = False
            continue
        if stripped and not stripped.startswith("//"):
            counted += 1
        k += 1
    return counted


def count_dir(root):
    total = 0
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".rs"):
                total += count_file(os.path.join(dirpath, name))
    return total


def main(argv):
    if not argv:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    total = 0
    for root in argv:
        if not os.path.isdir(root):
            print(f"count_lines: not a directory: {root}", file=sys.stderr)
            return 2
        lines = count_dir(root)
        total += lines
        print(f"{root} {lines}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
