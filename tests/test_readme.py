"""The README's code stays runnable against the package."""
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_library_surface_imports():
    # a public name that moves or is renamed must not leave the README stale
    section = README.read_text(encoding="utf-8").split("## Library surface", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert block is not None and "from kanrelu import" in block.group(1)
    exec(compile(block.group(1), str(README), "exec"), {})
