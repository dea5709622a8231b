"""A deleted or added module must not leave the README's package layout or
`xlalign.__all__` naming a module that is not there, or missing one that is."""

import re
from pathlib import Path

import xlalign

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = sorted(p.stem for p in Path(xlalign.__file__).parent.glob("*.py") if p.stem != "__init__")


def test_readme_package_layout_lists_exactly_the_modules():
    block = README.read_text(encoding="utf-8").split("## Package layout", 1)[1].split("```")[1]
    assert sorted(re.findall(r"^  (\w+)\.py\s", block, re.M)) == MODULES


def test_all_lists_exactly_the_modules():
    assert sorted(xlalign.__all__) == MODULES
