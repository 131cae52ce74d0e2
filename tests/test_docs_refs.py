"""References into the docs resolve.

Code, tests, the Makefile, CI and the prose cite sections of
``docs/<NAME>.md`` by title — ``docs/X.md, "Section"``, ````docs/X.md``
("Section")`` or ``[docs/X.md](X.md), "Section"`` — and name committed
``BENCH_*.json`` files as evidence.  A section renamed or cut, or a
data file deleted, leaves those citations pointing at nothing; this
suite fails naming each one.  Of the top-level Markdown files only the
ones that describe the tree are scanned: CHANGES.md is a record of what
was true when each line was written, and a planning note quotes
references as they stood.  This file is not scanned either: its
examples are made up.
"""

import os
import re
import subprocess

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: The top-level Markdown files that describe the tree (see the module
#: docstring).
TOP_LEVEL_DOCS = {
    "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "PAPERS.md", "README.md", "ROADMAP.md",
    "SNIPPETS.md",
}

#: Files that do not describe the tree (see the module docstring).
UNSCANNED = {"tests/test_docs_refs.py"}

#: ``docs/X.md`` (optionally closed by backticks or a Markdown link to
#: ``X.md``), then ``, "Section"`` or ``("Section")``.
SECTION_REF = re.compile(
    r'docs/(?P<doc>[A-Za-z_]+\.md)(?:`{1,2}|\]\([A-Za-z_]+\.md\))?'
    r'(?:,\s*|\s*\(\s*)"(?P<section>[^"]+)"'
)

#: A line break plus the next line's indent and comment markers, which a
#: wrapped reference carries inside Python and Makefile comments.
WRAP = re.compile(r"\s*\n[ \t]*(?:#+[ \t]*)?")

HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*#*\s*$")
#: A paragraph or list item that opens with a bold phrase.
BOLD_LEAD = re.compile(r"^\s*(?:[*-]\s+)?\*\*(.+?)\*\*")

BENCH_FILE = re.compile(r"\bBENCH_[A-Za-z0-9_]+\.json\b")


def tracked_files():
    """Repo-relative paths of the tracked files (a walk outside git)."""
    try:
        listing = subprocess.run(
            ["git", "ls-files", "-z"], cwd=REPO, capture_output=True, check=True, text=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        listing = ""
    paths = [path for path in listing.split("\0") if path]
    if paths:
        return paths
    for dirpath, dirnames, filenames in os.walk(REPO):
        dirnames[:] = [name for name in dirnames if name not in (".git", "__pycache__")]
        paths += [os.path.relpath(os.path.join(dirpath, name), REPO) for name in filenames]
    return paths


def scanned_files():
    return sorted(
        path for path in tracked_files()
        if (path.endswith((".py", ".md", ".yml")) or path == "Makefile")
        and path not in UNSCANNED
        and ("/" in path or not path.endswith(".md") or path in TOP_LEVEL_DOCS)
        and os.path.isfile(os.path.join(REPO, path))
    )


def read(path):
    with open(os.path.join(REPO, path), encoding="utf-8") as handle:
        return handle.read()


def unwrap(text):
    """``text`` with every line break, indent and comment marker inside
    a wrapped phrase folded to one space."""
    return WRAP.sub(" ", text)


def section_titles(doc):
    """The headings and bold paragraph leads of ``docs/<doc>``, each as
    written and without its code backticks and closing full stop."""
    titles = set()
    for line in read(os.path.join("docs", doc)).splitlines():
        match = HEADING.match(line) or BOLD_LEAD.match(line)
        if match:
            title = match.group(1).strip()
            for form in (title, title.replace("`", "")):
                titles.add(form)
                titles.add(form.rstrip(".:"))
    return titles


def section_refs(text):
    """``(doc, section)`` for each section reference in ``text``."""
    return [
        (match.group("doc"), " ".join(match.group("section").split()))
        for match in SECTION_REF.finditer(unwrap(text))
    ]


def test_the_matcher_reads_every_form_in_use():
    text = '''
    (docs/A.md, "One")   ``docs/B.md`` ("Two three")
    [docs/C.md](C.md), "Four"   `docs/D.md`, "Five"
    # a comment (docs/E.md, "Six
    # seven") ends here
    '''
    assert section_refs(text) == [
        ("A.md", "One"), ("B.md", "Two three"), ("C.md", "Four"),
        ("D.md", "Five"), ("E.md", "Six seven"),
    ]
    assert section_refs('see docs/A.md for "Quoted words" later') == []


def test_a_title_is_matched_whole():
    titles = section_titles("PROTOCOL.md")
    assert {"Push API (extension)", "The trigger event record"} <= titles
    assert "Push API" not in titles     # a prefix of a heading is not a heading


def test_every_section_reference_resolves():
    docs = set(os.listdir(os.path.join(REPO, "docs")))
    titles = {}
    broken = []
    for path in scanned_files():
        for doc, section in section_refs(read(path)):
            if doc not in docs:
                broken.append(f"{path}: docs/{doc} does not exist")
                continue
            if doc not in titles:
                titles[doc] = section_titles(doc)
            if section not in titles[doc]:
                broken.append(f'{path}: docs/{doc} has no section "{section}"')
    assert not broken, "\n".join(broken)


@pytest.mark.parametrize("scope", ["docs", "README.md", "EXPERIMENTS.md"])
def test_every_named_bench_file_exists(scope):
    committed = {os.path.basename(path) for path in tracked_files()}
    paths = [path for path in scanned_files() if path == scope or path.startswith(scope + "/")]
    assert paths, scope
    missing = sorted({
        f"{path}: {name}"
        for path in paths
        for name in BENCH_FILE.findall(read(path))
        if name not in committed
    })
    assert not missing, "\n".join(missing)
