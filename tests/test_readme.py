"""The README's library sketch runs, and the package exports its names."""

import re
from pathlib import Path

import cherrymax

README = Path(__file__).resolve().parents[1] / "README.md"


def _sketch() -> str:
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    return block


def test_library_sketch_runs(capsys):
    exec(compile(_sketch(), str(README), "exec"), {})
    assert capsys.readouterr().out.split() == ["30", "B1", "True"]


def test_package_exports_the_sketch_names():
    imported = re.search(r"from cherrymax import \((.*?)\)", _sketch(), re.S).group(1)
    assert sorted(cherrymax.__all__) == sorted(imported.replace(",", " ").split())
    assert all(hasattr(cherrymax, name) for name in cherrymax.__all__)
