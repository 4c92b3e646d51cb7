import re
from pathlib import Path

import ertkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert len(ertkit.__all__) == len(set(ertkit.__all__))
    for name in ertkit.__all__:
        assert getattr(ertkit, name) is not None, name


def test_readme_imports_run():
    lines = re.findall(r"^from ertkit import .*$", README.read_text(), re.M)
    assert len(lines) == 2
    for line in lines:
        exec(line, {})
