#!/usr/bin/env python3
"""Documentation consistency check.

Scans README.md, docs/DESIGN.md and docs/PROTOCOL.md for backtick-quoted
repository paths and fails if any referenced file or directory does not
exist, and for backtick-quoted `Config::<field>` names (`Monitor::Config::x`,
`Config::x > 0`, ...) and fails if no header under src/ still declares that
field.  Keeps the docs honest as the tree is refactored — a deleted file or
config knob cannot stay documented; wired up as the `docs_check` build
target and a ctest entry under the `docs` label (see CMakeLists.txt).

Path candidates are backtick tokens that contain a '/' and consist only of
path characters (optionally a '*' glob, tried relative to the repo root and
under src/).  Generated artifacts (BENCH_*.json), build/ outputs, flags and
code identifiers are ignored.
"""
import glob
import os
import re
import sys

DOCS = [
    "README.md",
    os.path.join("docs", "DESIGN.md"),
    os.path.join("docs", "PROTOCOL.md"),
]
TOKEN_RE = re.compile(r"`([^`\n]+)`")
PATHISH_RE = re.compile(r"^[A-Za-z0-9_.\-/*]+$")
CONFIG_FIELD_RE = re.compile(r"\bConfig::([A-Za-z_][A-Za-z0-9_]*)")


def is_candidate(token: str) -> bool:
    if not PATHISH_RE.match(token):
        return False  # spaces, ::, <>, flags with =, shell snippets
    if "/" not in token:
        return False  # bare identifiers / lone filenames are too ambiguous
    base = os.path.basename(token.rstrip("/"))
    if base.startswith("BENCH_"):
        return False  # generated at bench runtime
    if token.startswith(("build/", "./build/", "-")):
        return False  # build outputs, flags
    return True


def resolves(root: str, token: str) -> bool:
    for prefix in ("", "src"):
        path = os.path.join(root, prefix, token) if prefix else os.path.join(
            root, token)
        if "*" in token:
            if glob.glob(path):
                return True
        elif os.path.exists(path):
            return True
    return False


def header_text(root: str) -> str:
    parts = []
    for path in sorted(glob.glob(os.path.join(root, "src", "**", "*.hpp"),
                                 recursive=True)):
        with open(path, encoding="utf-8") as f:
            parts.append(f.read())
    return "\n".join(parts)


def declares(headers: str, field: str) -> bool:
    """True when some header declares `field` (`field = ...;`, `field;`,
    `field{...}`), not merely mentions it."""
    return re.search(r"\b" + re.escape(field) + r"\s*(=(?!=)|;|\{)",
                     headers) is not None


def main() -> int:
    root = sys.argv[1] if len(sys.argv) > 1 else os.getcwd()
    headers = header_text(root)
    missing = []
    stale = []
    for doc in DOCS:
        doc_path = os.path.join(root, doc)
        if not os.path.exists(doc_path):
            missing.append((doc, "(document itself is missing)"))
            continue
        with open(doc_path, encoding="utf-8") as f:
            text = f.read()
        for token in TOKEN_RE.findall(text):
            token = token.strip().rstrip(".,;:")
            if is_candidate(token) and not resolves(root, token):
                missing.append((doc, token))
            for field in CONFIG_FIELD_RE.findall(token):
                if not declares(headers, field):
                    stale.append((doc, token))
    if missing:
        print("docs_check: dangling file references:", file=sys.stderr)
        for doc, token in missing:
            print(f"  {doc}: `{token}`", file=sys.stderr)
    if stale:
        print("docs_check: config fields no header under src/ declares:",
              file=sys.stderr)
        for doc, token in stale:
            print(f"  {doc}: `{token}`", file=sys.stderr)
    if missing or stale:
        return 1
    print(f"docs_check: OK ({', '.join(DOCS)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
