"""The README's code runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(title: str, lang: str) -> str:
    text = README.read_text()
    section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{lang}\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, f"expected one {lang} block under '{title}'"
    return blocks[0]


def test_library_sketch_runs(capsys):
    exec(compile(_section_code("Library sketch", "python"), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and float(printed[0]) >= -1e-9
