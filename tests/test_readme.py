"""The README's Python example runs as written, so an API change that breaks it fails here."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_block_runs():
    text = README.read_text(encoding="utf-8")
    block = text.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, f"{README.name} (## Library)", "exec"), {"__name__": "readme_library"})
