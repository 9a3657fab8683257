"""The README's code runs as written, and its module table names what exists."""
import importlib
import re
import shlex
from functools import reduce
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


def test_module_table_names_resolve():
    """Every backticked snake_case or dotted name in the module table's
    contents column is an attribute of its row's module, or of the pdslab
    module it starts with (`mdp.FeatureMap.gram`)."""
    section = README.read_text().split("## What is in the box\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(pdslab\.\w+)` \| (.*) \|$", section, flags=re.M)
    assert len(rows) >= 9
    names = 0
    for module_name, contents in rows:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)*)`", contents):
            if "_" not in name and "." not in name:
                continue
            parts, owner = name.split("."), module
            if len(parts) > 1 and not hasattr(module, parts[0]):
                owner = importlib.import_module(f"pdslab.{parts.pop(0)}")
            reduce(getattr, parts, owner)  # an AttributeError names what is stale
            names += 1
    assert names >= 3
