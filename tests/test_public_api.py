"""The README's "Python API" list is the package's public surface."""

import re
from pathlib import Path

import stta

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_api_names():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^- `(\w+)`:", section, flags=re.MULTILINE)


def test_readme_list_is_all():
    names = readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(stta.__all__)
    assert len(stta.__all__) == len(set(stta.__all__))


def test_every_name_resolves():
    missing = [name for name in stta.__all__ if not hasattr(stta, name)]
    assert not missing
    namespace = {}
    exec("from stta import *", namespace)
    assert set(stta.__all__) <= set(namespace)
