#!/usr/bin/env python3
"""Docs gate: keep README.md and docs/ consistent with the code.

Usage:
    scripts/check_docs.py [--repo-root .]

Checks, in order:

  links     -- every relative markdown link in README.md and docs/*.md
               resolves to an existing file or directory, and a #fragment
               names a heading of the target markdown file (the link's own
               file when the path is empty), using GitHub's heading slugs;
               http(s)/mailto links are skipped.
  msgtypes  -- docs/WIRE_PROTOCOL.md names every MsgType enumerator
               declared in src/wire/messages.hpp (completeness), every
               `kSomething` identifier the doc mentions exists somewhere
               in src/wire/*.hpp (no stale names after a rename), and
               every table row of the form | N | `kName` | carries the
               enumerator's value N (explicit `= N` values and implicit
               increments both count).
  counts    -- README.md's "N message types plus the M reserved type
               numbers" matches MsgType: N is the number of enumerators
               and M the largest value minus N (the numbers retired
               below it).

Exit status: 0 when every check passes, 1 otherwise; one line per
failure on stdout. Wired through ctest as test_check_docs and run by
the CI docs job, so a message-type rename or a moved file fails the
build instead of silently rotting the documentation.
"""

import argparse
import pathlib
import re
import sys

# [text](target) -- excluding images; target may carry a #fragment.
LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
# An ATX heading line; fenced code blocks are removed before matching.
HEADING_RE = re.compile(r"^#{1,6}[ \t]+(.*?)[ \t]*#*[ \t]*$", re.MULTILINE)
FENCE_RE = re.compile(r"^```.*?^```[^\n]*$", re.MULTILINE | re.DOTALL)
# Lowercase-k constants as written in code and docs: kRegisterReq, kType...
KCONST_RE = re.compile(r"\bk[A-Z][A-Za-z0-9]*\b")
ENUM_RE = re.compile(r"enum\s+class\s+MsgType[^{]*\{(.*?)\};", re.DOTALL)
# A numbered message-type table row: | 12 | `kPosQueryFwd` | ...
ROW_RE = re.compile(r"^\|\s*(\d+)\s*\|\s*`(k[A-Za-z0-9]+)`\s*\|", re.MULTILINE)
# README's count of the message types and of the reserved numbers among them.
COUNTS_RE = re.compile(
    r"(\d+)\s+message\s+types\s+plus\s+the\s+(\d+)\s+reserved\s+type\s+numbers")


def iter_doc_files(root):
    yield root / "README.md"
    docs = root / "docs"
    if docs.is_dir():
        yield from sorted(docs.glob("*.md"))


def github_slug(heading):
    """The anchor GitHub gives a heading: inline links reduced to their
    text, lowercased, punctuation stripped, spaces turned into hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = re.sub(r"[^\w\- ]", "", text.strip().lower())
    return text.replace(" ", "-")


def heading_anchors(md_file):
    """Every heading anchor of a markdown file; a repeated slug gets
    GitHub's -1, -2, ... suffix."""
    text = FENCE_RE.sub("", md_file.read_text(encoding="utf-8"))
    anchors = set()
    seen = {}
    for heading in HEADING_RE.findall(text):
        slug = github_slug(heading)
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def check_links(root):
    failures = []
    for doc in iter_doc_files(root):
        if not doc.is_file():
            failures.append(f"{doc.relative_to(root)}: file missing")
            continue
        text = doc.read_text(encoding="utf-8")
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path, _, fragment = target.partition("#")
            resolved = (doc.parent / path).resolve() if path else doc
            if not resolved.exists():
                failures.append(
                    f"{doc.relative_to(root)}: broken link -> {target}")
            elif (fragment and resolved.suffix == ".md"
                  and fragment not in heading_anchors(resolved)):
                failures.append(
                    f"{doc.relative_to(root)}: broken anchor -> {target}")
    return failures


def msg_type_enumerators(messages_hpp):
    """The MsgType enumerators declared in src/wire/messages.hpp, as a
    name -> value map: `= N` sets the value, every other enumerator is
    its predecessor plus one (the first defaults to 0)."""
    text = messages_hpp.read_text(encoding="utf-8")
    m = ENUM_RE.search(text)
    if m is None:
        return None
    body = re.sub(r"//[^\n]*", "", m.group(1))  # strip comments
    values = {}
    value = 0
    for entry in body.split(","):
        name, _, init = entry.partition("=")
        name = name.strip()
        if not name:
            continue
        if init.strip():
            value = int(init.strip(), 0)
        values[name] = value
        value += 1
    return values


def check_msg_types(root):
    failures = []
    messages_hpp = root / "src" / "wire" / "messages.hpp"
    protocol_md = root / "docs" / "WIRE_PROTOCOL.md"
    if not messages_hpp.is_file():
        return [f"{messages_hpp.relative_to(root)}: file missing"]
    if not protocol_md.is_file():
        return [f"{protocol_md.relative_to(root)}: file missing"]

    enums = msg_type_enumerators(messages_hpp)
    if enums is None:
        return ["src/wire/messages.hpp: could not parse enum class MsgType"]

    # Every k-identifier declared anywhere in the wire headers is a valid
    # name for the doc to mention (MsgType values, version constants,
    # nested enum values like ReplicaTee::Op::kUpsert, kType members...).
    known = set()
    for header in sorted((root / "src" / "wire").glob("*.hpp")):
        known.update(KCONST_RE.findall(header.read_text(encoding="utf-8")))

    doc_text = protocol_md.read_text(encoding="utf-8")
    doc_names = set(KCONST_RE.findall(doc_text))

    for missing in sorted(enums.keys() - doc_names):
        failures.append(
            f"docs/WIRE_PROTOCOL.md: MsgType::{missing} is not documented")
    for stale in sorted(doc_names - known):
        failures.append(
            f"docs/WIRE_PROTOCOL.md: names {stale}, which no longer exists "
            "in src/wire/*.hpp")
    for number, name in ROW_RE.findall(doc_text):
        if name not in enums:
            failures.append(
                f"docs/WIRE_PROTOCOL.md: row {number} names {name}, "
                "which is not a MsgType enumerator")
        elif enums[name] != int(number):
            failures.append(
                f"docs/WIRE_PROTOCOL.md: row {number} names {name}, "
                f"whose value is {enums[name]}")
    return failures


def check_readme_counts(root):
    messages_hpp = root / "src" / "wire" / "messages.hpp"
    readme = root / "README.md"
    if not messages_hpp.is_file() or not readme.is_file():
        return []  # check_links / check_msg_types report the missing file
    enums = msg_type_enumerators(messages_hpp)
    if not enums:
        return []  # check_msg_types reports the parse failure
    types = len(enums)
    reserved = max(enums.values()) - types
    m = COUNTS_RE.search(readme.read_text(encoding="utf-8"))
    if m is None:
        return ["README.md: no \"N message types plus the M reserved type "
                "numbers\" sentence to check against MsgType"]
    failures = []
    if int(m.group(1)) != types:
        failures.append(f"README.md: says {m.group(1)} message types, "
                        f"MsgType has {types}")
    if int(m.group(2)) != reserved:
        failures.append(f"README.md: says {m.group(2)} reserved type numbers, "
                        f"MsgType leaves {reserved}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo-root", default=None,
                        help="repository root (default: this script's parent)")
    args = parser.parse_args()

    root = (pathlib.Path(args.repo_root).resolve() if args.repo_root
            else pathlib.Path(__file__).resolve().parent.parent)

    failures = (check_links(root) + check_msg_types(root)
                + check_readme_counts(root))
    for failure in failures:
        print(f"FAIL {failure}")
    if failures:
        print(f"check_docs: {len(failures)} failure(s)")
        return 1
    print("check_docs: all links and anchors resolve, all message types "
          "documented with their values, README's type counts match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
