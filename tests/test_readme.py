"""The README's documented imports work.

The package root re-exports nothing, so every name a reader copies from the
README must come from the module that defines it.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

_CODE_BLOCK = re.compile(r"^```[^\n]*\n(.*?)^```", re.MULTILINE | re.DOTALL)
# the package root too: a name imported from it fails, since it exports none
_IMPORT = re.compile(r"^from brsim(?:\.\w+)* import .+$", re.MULTILINE)


def test_every_documented_import_runs():
    blocks = _CODE_BLOCK.findall(README.read_text(encoding="utf-8"))
    lines = [line for block in blocks for line in _IMPORT.findall(block)]
    assert lines, "README.md shows no `from brsim... import` line"
    for line in lines:
        exec(line, {})
