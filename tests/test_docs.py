"""The README's code runs as written."""
import re
import shlex
from pathlib import Path

from pdslab.cli import entrypoint
from pdslab.data import read_jsonl

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(title: str, lang: str, index: int = 0) -> str:
    text = README.read_text()
    section = text.split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(rf"```{lang}\n(.*?)```", section, flags=re.S)
    assert len(blocks) > index, f"expected {index + 1} {lang} block(s) under '{title}'"
    return blocks[index]


def _commands(block: str) -> list:
    return [shlex.split(line) for line in block.splitlines() if line]


def test_library_sketch_runs(capsys):
    exec(compile(_section_code("Library sketch", "python"), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and float(printed[0]) >= -1e-9


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands(_section_code("CLI", "sh"))
    assert [argv[:2] for argv in commands] == [
        ["pdslab", "gen-mdp"], ["pdslab", "sample"], ["pdslab", "sample"],
        ["pdslab", "fit-ensemble"], ["pdslab", "relabel"]]
    for argv in commands:
        assert entrypoint(argv[1:]) == 0, argv
    filled = read_jsonl(tmp_path / "filled.jsonl")
    assert filled.labeled and len(filled) == 5000


def test_cli_config_runs(tmp_path, monkeypatch, capsys):
    # the README's config saved as experiment.json, then its sweep block as written
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.json").write_text(_section_code("CLI", "json"))
    commands = _commands(_section_code("CLI", "sh", index=1))
    assert [argv[:2] for argv in commands] == [
        ["pdslab", "run"], ["pdslab", "table"], ["pdslab", "bounds"]]
    for argv in commands:
        assert entrypoint(argv[1:]) == 0, argv
    rows = (tmp_path / "results.csv").read_text().splitlines()[1:]
    assert len(rows) == 60  # 3 n1 cells x 4 methods x 5 seeds
    printed = capsys.readouterr().out
    assert "| pds |" in printed and "| offline_term |" in printed  # table, then bounds
