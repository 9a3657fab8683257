"""The README's code runs as written."""
import json
import re
import shlex
from pathlib import Path

from pdslab.cli import entrypoint, run_config
from pdslab.data import read_jsonl

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(title: str, lang: str) -> str:
    text = README.read_text()
    section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{lang}\n(.*?)```", section, flags=re.S)
    assert blocks, f"expected a {lang} block under '{title}'"
    return blocks[0]


def test_library_sketch_runs(capsys):
    exec(compile(_section_code("Library sketch", "python"), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and float(printed[0]) >= -1e-9


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [shlex.split(line) for line in _section_code("CLI", "sh").splitlines() if line]
    assert [argv[:2] for argv in commands] == [
        ["pdslab", "gen-mdp"], ["pdslab", "sample"], ["pdslab", "sample"],
        ["pdslab", "fit-ensemble"], ["pdslab", "relabel"]]
    for argv in commands:
        assert entrypoint(argv[1:]) == 0, argv
    filled = read_jsonl(tmp_path / "filled.jsonl")
    assert filled.labeled and len(filled) == 5000


def test_cli_config_runs(tmp_path):
    doc = json.loads(_section_code("CLI", "json"))
    doc["output"] = str(tmp_path / doc["output"])
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    assert run_config(path) == 0
    rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 60  # 3 n1 cells x 4 methods x 5 seeds
