"""The README's ```python blocks run, in order, in one namespace (later
blocks use names the quick start defines)."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    namespace = {"__name__": "__readme__"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    assert capsys.readouterr().out
