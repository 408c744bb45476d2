#!/usr/bin/env python
"""Check that relative Markdown links and dotted ``repro.*`` names in
docs/ and README.md resolve.

Usage: python tools/check_docs.py [root]

Scans every ``*.md`` under the repo root's ``docs/`` directory plus
``README.md``, extracts inline links ``[text](target)``, and verifies
each non-external target (optionally with a ``#fragment``) exists on
disk relative to the file containing the link.  External
(``http``/``https``/``mailto``) links are skipped -- CI should not
depend on the network.

Every dotted ``repro.a.b[.Name]`` inside an inline code span must name
a module under ``src/``, or a module plus a top-level def, class,
assignment or import of it (read with ``ast``; nothing is imported).
Exits non-zero listing every broken link and stale name.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

#: Inline Markdown links; deliberately simple (no reference-style links
#: in this repo) and tolerant of titles: [text](target "title")
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")

#: Fenced code blocks (skipped) and inline code spans outside them.
FENCE_PATTERN = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
CODE_SPAN_PATTERN = re.compile(r"`([^`\n]+)`")
DOTTED_PATTERN = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")


def iter_markdown_files(root: Path) -> list[Path]:
    files = sorted((root / "docs").glob("*.md"))
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    return files


def check_file(path: Path, root: Path) -> list[str]:
    errors = []
    text = path.read_text()
    for match in LINK_PATTERN.finditer(text):
        target = match.group(1)
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        resolved = (path.parent / relative).resolve()
        if not resolved.exists():
            errors.append(
                f"{path.relative_to(root)}: broken link '{target}' "
                f"(resolved to {resolved})"
            )
    return errors


def _module_file(src: Path, parts: list[str]) -> Path | None:
    base = src.joinpath(*parts)
    for candidate in (base.with_suffix(".py"), base / "__init__.py"):
        if candidate.is_file():
            return candidate
    return None


def top_level_names(path: Path) -> set[str]:
    """Names a module binds at top level: defs, classes, assignments, imports."""
    names: set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    return names


def resolves(dotted: str, src: Path) -> bool:
    """True when ``dotted`` is a module under ``src`` or a top-level name of one."""
    parts = dotted.split(".")
    if _module_file(src, parts) is not None:
        return True
    module = _module_file(src, parts[:-1])
    return module is not None and parts[-1] in top_level_names(module)


def check_names(path: Path, root: Path) -> list[str]:
    text = FENCE_PATTERN.sub("", path.read_text())
    return [
        f"{path.relative_to(root)}: stale name '{dotted}' (not found under src/)"
        for span in CODE_SPAN_PATTERN.findall(text)
        for dotted in DOTTED_PATTERN.findall(span)
        if not resolves(dotted, root / "src")
    ]


def main() -> int:
    root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    files = iter_markdown_files(root)
    if not files:
        print(f"no markdown files found under {root}", file=sys.stderr)
        return 1
    errors: list[str] = []
    checked = 0
    for path in files:
        errors.extend(check_file(path, root))
        errors.extend(check_names(path, root))
        checked += 1
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(
            f"{len(errors)} broken link(s) or stale name(s) across {checked} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"ok: {checked} markdown file(s), all relative links and repro names resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
