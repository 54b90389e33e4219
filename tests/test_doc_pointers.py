"""Every backticked ``repro.…`` path in the prose docs must resolve.

Docs name modules, classes and functions by dotted path; a rename or a
move that forgets the docs leaves a pointer to nothing.  This test
collects each backticked span in ``docs/*.md`` and ``README.md`` that
starts with a dotted ``repro.`` path, imports the longest importable
module prefix and resolves the rest with ``getattr``.  A trailing call
(``check_exposition(text)``) is ignored; a trailing glob (``fig*``)
must match at least one attribute.
"""

import fnmatch
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "README.md"]
POINTER = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(\*?)[^`]*`")


def _pointers():
    found = set()
    for doc in DOCS:
        for match in POINTER.finditer(doc.read_text(encoding="utf-8")):
            found.add((match.group(1) + match.group(2), doc.name))
    return sorted(found)


def _resolve(path: str):
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        rest = parts[cut:]
        break
    if rest and rest[-1].endswith("*"):
        for name in rest[:-1]:
            target = getattr(target, name)
        assert fnmatch.filter(dir(target), rest[-1]), path
        return
    for name in rest:
        target = getattr(target, name)


def test_docs_name_some_pointers():
    assert len(_pointers()) > 30


@pytest.mark.parametrize("path,doc", _pointers())
def test_doc_pointer_resolves(path, doc):
    _resolve(path)
