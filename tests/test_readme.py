"""README's "Library use" example runs as written against the package."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_use_block() -> str:
    text = README.read_text(encoding="utf-8")
    assert "\n## Library use\n" in text, "README has no 'Library use' section"
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's 'Library use' section has no python block"
    return match.group(1)


def test_library_use_example_runs():
    namespace = {}
    exec(compile(_library_use_block(), "README.md (Library use)", "exec"), namespace)
    assert namespace["tracker"].next_id > 0
    assert len(namespace["reports"]) == 9
