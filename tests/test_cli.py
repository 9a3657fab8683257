"""End-to-end checks for the command-line front end."""
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pdslab.cli import (
    ConfigError,
    ExperimentConfig,
    emit_table,
    entrypoint,
    load_config,
)
from pdslab.data import header_path, read_jsonl
from pdslab.ensemble import auto_k, load_ensemble
from pdslab.mdp import load_mdp
from pdslab.pipeline import CSV_HEADER, MethodId


def _base_doc(tmp_path, **over):
    doc = {
        "schema_version": 1,
        "mdp": {"kind": "lowrank", "num_states": 4, "num_actions": 2, "dim": 2,
                "gamma": 0.9, "r_max": 1.0, "seed": 3},
        "data": {"n0": [40], "n1": [0, 30], "labeled_quality": "medium",
                 "unlabeled_quality": "expert", "noise": False},
        "methods": ["pds"],
        "seeds": [0],
        "output": str(tmp_path / "results.csv"),
    }
    doc.update(over)
    return doc


def _write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_unknown_fields_are_named(tmp_path):
    doc = _base_doc(tmp_path)
    doc["extra_knob"] = 1
    with pytest.raises(ConfigError, match="extra_knob"):
        ExperimentConfig.from_dict(doc)

    doc = _base_doc(tmp_path)
    doc["mdp"]["fanout"] = 2
    with pytest.raises(ConfigError, match="fanout"):
        ExperimentConfig.from_dict(doc)

    doc = _base_doc(tmp_path)
    doc["data"]["horizon"] = 5
    with pytest.raises(ConfigError, match="horizon"):
        ExperimentConfig.from_dict(doc)


def test_duplicate_seeds_rejected(tmp_path):
    doc = _base_doc(tmp_path, seeds=[1, 2, 1])
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig.from_dict(doc)


def test_negative_seed_exits_2_before_any_cell(tmp_path, monkeypatch, capsys):
    import pdslab.cli as cli

    def no_work(*args, **kwargs):
        raise AssertionError("a rejected config reached the sweep")

    monkeypatch.setattr(cli, "sweep", no_work)
    doc = _base_doc(tmp_path, seeds=[-1, 0])
    with pytest.raises(ConfigError, match="seeds"):
        ExperimentConfig.from_dict(doc)
    assert entrypoint(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert "seeds must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("section,field,value", [
    ("data", "n0", [40, 40]),
    ("data", "n1", [0, 30, 30]),
    (None, "methods", ["pds", "no_share", "pds"]),
])
def test_repeated_grid_values_exit_2_before_any_cell(tmp_path, monkeypatch, section, field,
                                                     value):
    import pdslab.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("a cell ran on a rejected config")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    doc = _base_doc(tmp_path)
    (doc[section] if section else doc)[field] = value
    with pytest.raises(ConfigError, match="distinct"):
        ExperimentConfig.from_dict(doc)
    assert entrypoint(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert not (tmp_path / "results.csv").exists()


def test_n1_without_unlabeled_quality_rejected(tmp_path):
    doc = _base_doc(tmp_path)
    del doc["data"]["unlabeled_quality"]
    with pytest.raises(ConfigError, match="unlabeled_quality"):
        ExperimentConfig.from_dict(doc)
    # n1 all zero is fine without a preset
    doc["data"]["n1"] = [0]
    ExperimentConfig.from_dict(doc)


def test_unknown_method_and_kind_rejected(tmp_path):
    doc = _base_doc(tmp_path, methods=["pds", "psd"])
    with pytest.raises(ConfigError, match="psd"):
        ExperimentConfig.from_dict(doc)
    doc = _base_doc(tmp_path)
    doc["mdp"]["kind"] = "dense"
    with pytest.raises(ConfigError, match="dense"):
        ExperimentConfig.from_dict(doc)


def test_schema_version_checked(tmp_path):
    doc = _base_doc(tmp_path, schema_version=2)
    with pytest.raises(ConfigError, match="schema_version"):
        ExperimentConfig.from_dict(doc)


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_schema_version_must_be_the_integer(tmp_path, monkeypatch, value):
    # true and 1.0 compare equal to 1 and were accepted
    import pdslab.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("a cell ran on a rejected config")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    doc = _base_doc(tmp_path, schema_version=value)
    with pytest.raises(ConfigError, match="schema_version"):
        ExperimentConfig.from_dict(doc)
    assert entrypoint(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("section,value", [
    ("reward", []),
    ("pevi", [["c", 0.5]]),
    ("mdp", [["kind", "tabular"], ["num_states", 4], ["num_actions", 2]]),
    ("data", [["n0", [40]]]),
    ("mdp", "x"),
    ("reward", None),
    ("data", 3),
])
def test_a_section_that_is_not_an_object_exits_2_naming_it(tmp_path, monkeypatch, capsys,
                                                           section, value):
    # lists of pairs were read as dicts, and "x" or null failed without naming the section
    import pdslab.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("a cell ran on a rejected config")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    doc = _base_doc(tmp_path, **{section: value})
    with pytest.raises(ConfigError, match=f"'{section}' must be a JSON object"):
        ExperimentConfig.from_dict(doc)
    assert entrypoint(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert f"'{section}' must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_round_trip_is_a_fixed_point(tmp_path):
    cfg = ExperimentConfig.from_dict(_base_doc(tmp_path, methods=["pds", "uds"]))
    doc2 = cfg.to_dict()
    cfg2 = ExperimentConfig.from_dict(doc2)
    assert cfg2 == cfg
    assert cfg2.to_dict() == doc2


def test_run_writes_csv_and_summary(tmp_path):
    path = _write_config(tmp_path, _base_doc(tmp_path))
    assert entrypoint(["run", "--config", path]) == 0

    csv_text = (tmp_path / "results.csv").read_text()
    lines = csv_text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3  # header + two n1 cells
    md = (tmp_path / "results.md").read_text()
    assert "pds" in md

    # reruns overwrite deterministically (modulo the wall-clock column)
    assert entrypoint(["run", "--config", path]) == 0
    again = (tmp_path / "results.csv").read_text()
    strip = lambda text: [ln.rsplit(",", 1)[0] for ln in text.strip().splitlines()]
    assert strip(again) == strip(csv_text)


def test_run_warns_when_pevi_does_not_converge(tmp_path, capsys):
    path = _write_config(tmp_path, _base_doc(tmp_path))
    assert entrypoint(["run", "--config", path]) == 0
    assert "warning" not in capsys.readouterr().err

    # beta 0 keeps Q off the zero clamp, so one sweep cannot reach the tolerance
    path = _write_config(tmp_path, _base_doc(tmp_path, pevi={"max_sweeps": 1, "beta_override": 0}))
    assert entrypoint(["run", "--config", path]) == 0
    assert capsys.readouterr().err == "warning: PEVI did not converge on 2 of 2 rows\n"
    assert (tmp_path / "results.csv").read_text().splitlines()[0] == CSV_HEADER


def test_run_with_pevi_tol_above_one_writes_its_rows(tmp_path):
    # the default max_sweeps sized from tol = 5 was once negative and failed every cell
    path = _write_config(tmp_path, _base_doc(tmp_path, pevi={"tol": 5}))
    assert entrypoint(["run", "--config", path]) == 0
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3


@pytest.mark.parametrize("failing", [1, 2], ids=["csv", "markdown"])
def test_failed_results_write_keeps_the_previous_results(tmp_path, monkeypatch, capsys,
                                                         failing):
    # the CSV and its summary are both written to new files before either
    # replaces the previous run's, so a write that fails midway loses nothing
    import pdslab.data as data

    path = _write_config(tmp_path, _base_doc(tmp_path))
    assert entrypoint(["run", "--config", path]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    writes = []

    class FullDisk:
        """A file whose write, the failing-th of the run, lands half its text
        and then fails with ENOSPC."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            writes.append(self.fh.name)
            if len(writes) == failing:
                self.fh.write(text[:len(text) // 2])
                self.fh.flush()
                raise OSError(28, "No space left on device")
            return self.fh.write(text)

    monkeypatch.setattr(data, "open", lambda *args, **kwargs: FullDisk(open(*args, **kwargs)),
                        raising=False)
    capsys.readouterr()
    assert entrypoint(["run", "--config", path]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert len(writes) == failing and all(w.endswith(".tmp") for w in writes)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_run_bad_config_exits_2(tmp_path):
    doc = _base_doc(tmp_path)
    doc["mystery"] = True
    path = _write_config(tmp_path, doc)
    assert entrypoint(["run", "--config", path]) == 2
    assert entrypoint(["run", "--config", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert entrypoint(["run", "--config", str(bad)]) == 2


@pytest.mark.parametrize("output,message", [
    ("missing_dir/out.csv", "output directory missing_dir does not exist"),
    (".", "is a directory"),
    ("res.md", r"must not end in \.md"),
], ids=["missing_dir", "directory", "md_suffix"])
def test_unusable_output_exits_2_before_any_cell(tmp_path, monkeypatch, capsys, output,
                                                 message):
    import pdslab.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("a cell ran on a rejected config")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, _base_doc(tmp_path, output=output))
    assert entrypoint(["run", "--config", path]) == 2
    assert re.search(message, capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_run_cell_failures_exit_3(tmp_path, monkeypatch):
    import pdslab.pipeline as pipeline

    def broken_fit(*args, **kwargs):
        raise ValueError("reward fit failed")

    monkeypatch.setattr(pipeline, "fit_rewards", broken_fit)
    path = _write_config(tmp_path, _base_doc(tmp_path))
    assert entrypoint(["run", "--config", path]) == 3


@pytest.mark.parametrize(
    "section,field,value",
    [
        ("reward", "alpha_mode", "bogus"),
        ("reward", "nu", 0),
        ("reward", "nu", -1.0),
        ("reward", "nu", float("inf")),
        ("reward", "delta", 0.0),
        ("reward", "delta", 1),
        ("reward", "delta", "0.1"),
        ("pevi", "delta", 1.5),
        ("pevi", "delta", None),
        ("pevi", "c", -1),
        ("pevi", "c", 0.0),
        ("pevi", "c", float("inf")),
        ("pevi", "lambda_reg", 0),
        ("pevi", "lambda_reg", float("inf")),
        ("pevi", "beta_override", -0.1),
        ("pevi", "beta_override", float("inf")),
        ("pevi", "tol", 0.0),
        ("pevi", "tol", float("inf")),
        ("pevi", "max_sweeps", 0),
        ("pevi", "max_sweeps", 2.5),
        ("pevi", "max_sweeps", True),
        ("data", "horizon_reset", 0),
        ("data", "horizon_reset", 2.5),
        ("data", "horizon_reset", "x"),
        ("data", "horizon_reset", True),
        ("data", "noise", -0.1),
        ("data", "noise", float("inf")),
    ],
)
def test_out_of_range_settings_exit_2_before_any_cell(tmp_path, monkeypatch, section, field,
                                                      value):
    import pdslab.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("a cell ran on a rejected config")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    doc = _base_doc(tmp_path)
    doc[section] = {**doc.get(section, {}), field: value}
    with pytest.raises(ConfigError, match=rf"{section}\.{field}"):
        ExperimentConfig.from_dict(doc)
    assert entrypoint(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert not (tmp_path / "results.csv").exists()


def test_boundary_and_null_settings_accepted(tmp_path):
    doc = _base_doc(
        tmp_path,
        reward={"nu": 1e-6, "delta": 0.999, "alpha_mode": "theorem"},
        pevi={"lambda_reg": 0.5, "delta": 1e-3, "c": 0.02, "beta_override": 0,
              "tol": None, "max_sweeps": 1},
    )
    doc["data"].update(noise=0, horizon_reset=1)
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.grid.reward.alpha_mode == "theorem" and cfg.grid.pevi.max_sweeps == 1
    assert cfg.grid.noise == 0 and cfg.grid.horizon_reset == 1
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_unknown_subcommand_exits_2():
    assert entrypoint(["frobnicate"]) == 2


def _parse_markdown_cells(md):
    """{(method, column_value): mean} from a summary table."""
    lines = [ln for ln in md.strip().splitlines() if ln.startswith("|")]
    header = [c.strip() for c in lines[0].strip("|").split("|")]
    cols = [int(c.split("=")[-1]) for c in header[1:]]
    out = {}
    for line in lines[2:]:
        cells = [c.strip() for c in line.strip("|").split("|")]
        method = cells[0].strip("* ")
        for col, cell in zip(cols, cells[1:]):
            m = re.match(r"\*?\*?([0-9.]+) ± ([0-9.]+)\*?\*?", cell)
            if m:
                out[(method, col)] = (float(m.group(1)), float(m.group(2)))
    return out


def test_table_means_match_csv_oracle(tmp_path):
    doc = _base_doc(tmp_path, methods=["pds", "uds", "no_share"], seeds=[0, 1])
    path = _write_config(tmp_path, doc)
    assert entrypoint(["run", "--config", path]) == 0

    csv_path = tmp_path / "results.csv"
    lines = csv_path.read_text().strip().splitlines()
    header = lines[0].split(",")
    i_m, i_n1, i_sub = header.index("method"), header.index("n1"), header.index("subopt_mean")
    groups = {}
    for line in lines[1:]:
        parts = line.split(",")
        groups.setdefault((parts[i_m], int(parts[i_n1])), []).append(float(parts[i_sub]))
    oracle = {key: float(np.mean(vals)) for key, vals in groups.items()}

    cells = _parse_markdown_cells(emit_table(csv_path))
    assert set(cells) == set(oracle)
    for key, (mean, _std) in cells.items():
        assert mean == pytest.approx(oracle[key], abs=5e-5)  # table rounds to 4 places


def test_emit_table_single_row(tmp_path):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text(
        CSV_HEADER + "\n"
        + "pds,40,30,1.5,2.0,0.9,2,0,0.1234,0.2,3.0,1.000\n"
    )
    cells = _parse_markdown_cells(emit_table(csv_path))
    assert cells == {("pds", 30): (0.1234, 0.0)}


def test_emit_table_missing_columns_listed(tmp_path):
    csv_path = tmp_path / "short.csv"
    csv_path.write_text("method,n0,n1\npds,40,30\n")
    with pytest.raises(ConfigError) as exc:
        emit_table(csv_path)
    assert "subopt_mean" in str(exc.value) and "gamma" in str(exc.value)


def test_emit_table_group_by_validation(tmp_path):
    csv_path = tmp_path / "one.csv"
    csv_path.write_text(CSV_HEADER + "\npds,40,30,1.5,2.0,0.9,2,0,0.1,0.2,3.0,1.0\n")
    with pytest.raises(ConfigError, match="group_by"):
        emit_table(csv_path, group_by=("n1", "method"))
    with pytest.raises(ConfigError, match="bogus"):
        emit_table(csv_path, group_by=("method", "bogus"))
    emit_table(csv_path, group_by=("method", "n0"))  # other columns work


def test_gen_mdp_and_sample(tmp_path):
    mdp_path = str(tmp_path / "m.json")
    assert entrypoint(["gen-mdp", "--kind", "lowrank", "--states", "5",
                       "--actions", "3", "--dim", "2", "--seed", "7",
                       "--out", mdp_path]) == 0
    mdp = load_mdp(mdp_path)
    assert (mdp.num_states, mdp.num_actions, mdp.dim) == (5, 3, 2)

    data_path = str(tmp_path / "d.jsonl")
    assert entrypoint(["sample", "--mdp", mdp_path, "--n", "25",
                       "--quality", "random", "--seed", "1",
                       "--out", data_path]) == 0
    ds = read_jsonl(data_path)
    assert len(ds) == 25 and ds.labeled

    unl_path = str(tmp_path / "u.jsonl")
    assert entrypoint(["sample", "--mdp", mdp_path, "--n", "10", "--unlabeled",
                       "--quality", "random", "--seed", "2",
                       "--out", unl_path]) == 0
    for line in (tmp_path / "u.jsonl").read_text().strip().splitlines():
        assert json.loads(line)["r"] is None

    # a negative or infinite noise half-width is a bad argument, not a noiseless run
    for noise in ("-0.5", "inf"):
        assert entrypoint(["sample", "--mdp", mdp_path, "--n", "10", "--noise", noise,
                           "--out", str(tmp_path / "n.jsonl")]) == 2


def test_sample_header_records_its_provenance(tmp_path):
    mdp_path = str(tmp_path / "m.json")
    assert entrypoint(["gen-mdp", "--kind", "lowrank", "--states", "5", "--actions", "3",
                       "--dim", "2", "--seed", "7", "--out", mdp_path]) == 0
    data_path = tmp_path / "d.jsonl"
    assert entrypoint(["sample", "--mdp", mdp_path, "--n", "12", "--quality", "expert",
                       "--seed", "4", "--out", str(data_path)]) == 0
    header = json.loads(header_path(data_path).read_text())
    assert header == {"mdp_hash": load_mdp(mdp_path).content_hash(), "seed": 4,
                      "behavior": "expert", "labeled": True, "num_states": 5,
                      "num_actions": 3, "n": 12}


def test_gen_mdp_kind_flag_mismatches_exit_2(tmp_path):
    out = str(tmp_path / "m.json")
    assert entrypoint(["gen-mdp", "--kind", "tabular", "--states", "4",
                       "--actions", "2", "--dim", "3", "--out", out]) == 2
    assert entrypoint(["gen-mdp", "--kind", "adversarial", "--states", "4",
                       "--actions", "2", "--dim", "3", "--out", out]) == 2
    assert entrypoint(["gen-mdp", "--kind", "lowrank", "--states", "4",
                       "--actions", "2", "--out", out]) == 2
    # the adversarial MDP has no randomness, so a seed would be ignored
    assert entrypoint(["gen-mdp", "--kind", "adversarial", "--actions", "3",
                       "--dim", "2", "--seed", "7", "--out", out]) == 2


def test_non_finite_mdp_file_exits_2(tmp_path, capsys):
    mdp_path = tmp_path / "m.json"
    assert entrypoint(["gen-mdp", "--kind", "lowrank", "--states", "5", "--actions", "3",
                       "--dim", "2", "--seed", "7", "--out", str(mdp_path)]) == 0
    doc = json.loads(mdp_path.read_text())
    doc["theta"][0] = float("nan")
    mdp_path.write_text(json.dumps(doc))
    # checked at load, before the CLI call: sampling from it once spun forever
    with pytest.raises(ValueError, match="theta contains non-finite entries"):
        load_mdp(mdp_path)
    capsys.readouterr()
    assert entrypoint(["sample", "--mdp", str(mdp_path), "--n", "10",
                       "--out", str(tmp_path / "d.jsonl")]) == 2
    assert "theta contains non-finite entries" in capsys.readouterr().err
    assert not (tmp_path / "d.jsonl").exists()


@pytest.mark.parametrize("r_max", ["nan", "inf"])
@pytest.mark.parametrize("kind", ["tabular", "lowrank"])
def test_non_finite_r_max_exits_2(tmp_path, monkeypatch, capsys, kind, r_max):
    import pdslab.cli as cli

    out = tmp_path / "m.json"
    dim = ["--dim", "2"] if kind == "lowrank" else []
    assert entrypoint(["gen-mdp", "--kind", kind, "--states", "4", "--actions", "2", *dim,
                       "--r-max", r_max, "--out", str(out)]) == 2
    assert "r_max must be finite and positive" in capsys.readouterr().err
    assert not out.exists()

    def no_sweep(*args, **kwargs):
        raise AssertionError("a cell ran on a rejected config")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    doc = _base_doc(tmp_path)
    doc["mdp"].update(kind=kind, r_max=float(r_max))
    if kind == "tabular":
        del doc["mdp"]["dim"]
    assert entrypoint(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert "r_max must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("field,value", [
    ("seed", True), ("r_max", True), ("gamma", False), ("num_states", 4.0), ("num_actions", "2"),
    ("dim", None), ("seed", None), ("seed", 3.0), ("gamma", "0.9"), ("gamma", float("nan")),
])
def test_wrongly_typed_mdp_values_exit_2_naming_the_field(tmp_path, monkeypatch, capsys, field,
                                                          value):
    # true ran as MDP seed 1 or r_max 1, and 4.0 states failed without naming the field
    import pdslab.cli as cli

    def no_sweep(*args, **kwargs):
        raise AssertionError("a cell ran on a rejected config")

    monkeypatch.setattr(cli, "sweep", no_sweep)
    doc = _base_doc(tmp_path)
    doc["mdp"][field] = value
    with pytest.raises(ConfigError, match=f"mdp.{field} must be"):
        ExperimentConfig.from_dict(doc)
    assert entrypoint(["run", "--config", _write_config(tmp_path, doc)]) == 2
    assert f"mdp.{field} must be" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()
    # integers are numbers: gamma 0 and r_max 2 are accepted
    doc["mdp"].update(_base_doc(tmp_path)["mdp"], gamma=0, r_max=2)
    assert ExperimentConfig.from_dict(doc).mdp["r_max"] == 2


def test_fit_ensemble_and_relabel(tmp_path, capsys):
    mdp_path = str(tmp_path / "m.json")
    entrypoint(["gen-mdp", "--kind", "lowrank", "--states", "5", "--actions", "3",
                "--dim", "2", "--seed", "7", "--out", mdp_path])
    lab_path = str(tmp_path / "lab.jsonl")
    entrypoint(["sample", "--mdp", mdp_path, "--n", "60", "--quality", "random",
                "--seed", "1", "--out", lab_path])
    model_path = str(tmp_path / "model.json")
    assert entrypoint(["fit-ensemble", "--in", lab_path, "--mdp", mdp_path,
                       "--L", "5", "--seed", "9", "--out", model_path]) == 0
    capsys.readouterr()

    unl_path = str(tmp_path / "u.jsonl")
    entrypoint(["sample", "--mdp", mdp_path, "--n", "12", "--unlabeled",
                "--quality", "random", "--seed", "2", "--out", unl_path])
    filled_path = str(tmp_path / "filled.jsonl")
    capsys.readouterr()
    assert entrypoint(["relabel", "--in", unl_path, "--out", filled_path,
                       "--model", model_path, "--k", "1.5"]) == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["count"] == 12 and summary["relabeled"] == 12
    assert summary["k"] == 1.5
    for line in (tmp_path / "filled.jsonl").read_text().strip().splitlines():
        assert json.loads(line)["r"] is not None

    # a reward that is not finite and nonnegative, or an id that is not a JSON
    # integer, is a bad input, not a passthrough
    nan_path = tmp_path / "nan.jsonl"
    for line in ('{"s": 0, "a": 0, "r": NaN, "sp": 1}', '{"s": 1.9, "a": 0, "r": null, "sp": 1}'):
        nan_path.write_text(line + "\n")
        assert entrypoint(["relabel", "--in", str(nan_path), "--out", filled_path,
                           "--model", model_path]) == 2
        assert "malformed transition at line 1" in capsys.readouterr().err

    # a file cut short of its header's n is refused, and nothing is written
    cut_path = tmp_path / "cut.jsonl"
    cut_path.write_text("".join(Path(unl_path).read_text().splitlines(keepends=True)[:5]))
    header_path(cut_path).write_text(header_path(unl_path).read_text())
    assert entrypoint(["relabel", "--in", str(cut_path), "--out", str(tmp_path / "cut_out.jsonl"),
                       "--model", model_path, "--k", "1.5"]) == 2
    assert "header says n=12 but the file holds 5 transitions" in capsys.readouterr().err
    assert not (tmp_path / "cut_out.jsonl").exists()

    # the penalty weight must be a finite number
    for flag, value in (("--k", "fast"), ("--k", "nan"), ("--k", "inf"), ("--a", "nan")):
        assert entrypoint(["relabel", "--in", unl_path, "--out", filled_path,
                           "--model", model_path, flag, value]) == 2
    capsys.readouterr()
    # a model file whose labeled mean is not finite is refused, not used for auto k
    nan_model = tmp_path / "nan_model.json"
    doc = json.loads(Path(model_path).read_text())
    nan_model.write_text(json.dumps(dict(doc, labeled_mean=float("nan"))))
    nan_out = tmp_path / "nan_filled.jsonl"
    assert entrypoint(["relabel", "--in", unl_path, "--out", str(nan_out),
                       "--model", str(nan_model), "--k", "auto"]) == 2
    assert "labeled_mean must be finite" in capsys.readouterr().err
    assert not nan_out.exists()


@pytest.mark.parametrize("nu", ["inf", "nan", "0"])
def test_fit_ensemble_non_finite_nu_exits_2_naming_it(tmp_path, capsys, nu):
    # --nu inf wrote an all-zero model that relabel then filled zeros from
    argv = _file_commands(tmp_path)["fit-ensemble"]
    out = Path(argv[argv.index("--out") + 1])
    capsys.readouterr()
    assert entrypoint(argv + ["--nu", nu]) == 2
    assert "nu must be a finite positive number" in capsys.readouterr().err
    assert not out.exists()


def test_relabel_k_auto_reports_auto_k_of_the_model(tmp_path, capsys):
    argv = _file_commands(tmp_path)["relabel"]
    argv[argv.index("--k") + 1] = "auto"
    model = load_ensemble(argv[argv.index("--model") + 1])
    unl = read_jsonl(argv[argv.index("--in") + 1])
    rows = model.features.phi[unl.states, unl.actions]
    mu_hat = float((rows @ model.members.mean(axis=0)).mean())
    for extra, a in (([], 25.0), (["--a", "10"], 10.0)):
        capsys.readouterr()
        assert entrypoint(argv + extra) == 0
        k = json.loads(capsys.readouterr().out)["k"]
        assert k > 0 and k == auto_k(model, mu_hat, a)


@pytest.mark.parametrize("key,value,flag", [
    ("penalty_k", 2.0, "--k"), ("auto_a", 10, "--a"), ("epsilon", 1e-6, "--k")])
def test_older_model_file_with_its_own_weight_exits_2_naming_the_flag(tmp_path, capsys, key,
                                                                      value, flag):
    # such a file once relabeled with its stored setting; now relabel chooses
    # the weight, so the file is refused rather than relabeled differently
    argv = _file_commands(tmp_path)["relabel"]
    model = Path(argv[argv.index("--model") + 1])
    doc = dict(json.loads(model.read_text()), penalty_k=None, auto_a=25.0, epsilon=1e-08)
    model.write_text(json.dumps(dict(doc, **{key: value})))
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert entrypoint(argv) == 2
    assert re.search(f"{key}={value!r}.* pass .*{flag} to relabel", capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


_REQUIRED_FIELDS = ([("--model", key) for key in ("members", "phi", "labeled_mean", "nu")]
                    + [("--mdp", key) for key in ("num_states", "num_actions", "dim", "gamma",
                                                   "r_max", "phi", "mu", "theta", "init_dist")])


@pytest.mark.parametrize("flag,key", _REQUIRED_FIELDS,
                         ids=[f"{flag}-{key}" for flag, key in _REQUIRED_FIELDS])
def test_file_missing_a_required_field_exits_2(tmp_path, capsys, flag, key):
    argv = _file_commands(tmp_path)["relabel" if flag == "--model" else "sample"]
    path = Path(argv[argv.index(flag) + 1])
    doc = json.loads(path.read_text())
    del doc[key]
    path.write_text(json.dumps(doc))
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert entrypoint(argv) == 2
    assert f"file is missing field '{key}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


_BAD_MDP_FIELDS = [("num_states", 6.7), ("dim", "2"), ("num_actions", True),
                   ("phi", "drop"), ("mu", "drop"), ("theta", "drop"), ("init_dist", "drop"),
                   ("gamma", "0.9"), ("gamma", None), ("r_max", True), ("feature_scale", False),
                   ("feature_scale", float("nan")), ("feature_scale", -3.0),
                   ("seed", {"x": [1]}), ("seed", True)]


@pytest.mark.parametrize("command", ["sample", "fit-ensemble"])
@pytest.mark.parametrize("key,value", _BAD_MDP_FIELDS,
                         ids=[f"{key}-{value}" for key, value in _BAD_MDP_FIELDS])
def test_mdp_file_with_bad_shape_field_exits_2(tmp_path, capsys, command, key, value):
    argv = _file_commands(tmp_path)[command]
    path = Path(argv[argv.index("--mdp") + 1])
    doc = json.loads(path.read_text())
    doc[key] = doc[key][:-1] if value == "drop" else value
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert entrypoint(argv) == 2
    assert f"MDP field {key!r} must" in capsys.readouterr().err
    assert not Path(argv[argv.index("--out") + 1]).exists()


_BAD_MODEL_FIELDS = [("members", "strings"), ("phi", "strings"), ("labeled_mean", True),
                     ("nu", "1"), ("nu", None), ("seed", {"x": [1]}), ("seed", 2.0)]


@pytest.mark.parametrize("key,value", _BAD_MODEL_FIELDS,
                         ids=[f"{key}-{value}" for key, value in _BAD_MODEL_FIELDS])
def test_model_file_with_non_number_field_exits_2(tmp_path, capsys, key, value):
    # such a file loaded through float(), and relabel --k auto ran on it
    argv = _file_commands(tmp_path)["relabel"]
    argv[argv.index("--k") + 1] = "auto"
    path = Path(argv[argv.index("--model") + 1])
    doc = json.loads(path.read_text())
    doc[key] = json.loads(json.dumps(doc[key]), parse_float=str) if value == "strings" else value
    path.write_text(json.dumps(doc))
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert entrypoint(argv) == 2
    assert f"model field {key!r} must" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [
    ["relabel", "--in", "u.jsonl", "--out", "o.jsonl", "--model", "m.json", "--L", "7"],
    ["relabel", "--in", "u.jsonl", "--out", "o.jsonl", "--model", "m.json", "--bogus", "1"],
    ["fit-ensemble", "--in", "l.jsonl", "--mdp", "m.json", "--out", "o.json", "--k", "1"],
    ["sample", "--mdp", "m.json", "--n", "abc", "--out", "o.jsonl"],
], ids=["relabel--L", "relabel--bogus", "fit-ensemble--k", "sample--n-abc"])
def test_argument_errors_return_2(tmp_path, monkeypatch, capsys, argv):
    # argparse's own exit becomes entrypoint's return value, for in-process callers
    monkeypatch.chdir(tmp_path)
    assert entrypoint(argv) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_help_returns_0(capsys):
    assert entrypoint(["relabel", "--help"]) == 0
    assert "--estimator" in capsys.readouterr().out


def test_fit_ensemble_rejects_data_larger_than_mdp_exit_2(tmp_path, capsys):
    big, small = str(tmp_path / "big.json"), str(tmp_path / "small.json")
    for path, states in ((big, "8"), (small, "5")):
        entrypoint(["gen-mdp", "--kind", "lowrank", "--states", states, "--actions", "3",
                    "--dim", "2", "--seed", "7", "--out", path])
    lab_path = str(tmp_path / "lab.jsonl")
    entrypoint(["sample", "--mdp", big, "--n", "60", "--seed", "1", "--out", lab_path])
    capsys.readouterr()
    assert entrypoint(["fit-ensemble", "--in", lab_path, "--mdp", small,
                       "--out", str(tmp_path / "model.json")]) == 2
    assert "exceeds feature table shape" in capsys.readouterr().err


def test_relabel_rejects_a_header_shape_the_model_cannot_cover_exit_2(tmp_path, capsys):
    small, wide = str(tmp_path / "small.json"), str(tmp_path / "wide.json")
    for path, states in ((small, "6"), (wide, "9")):
        entrypoint(["gen-mdp", "--kind", "lowrank", "--states", states, "--actions", "3",
                    "--dim", "2", "--seed", "7", "--out", path])
    lab_path, unl_path = str(tmp_path / "lab.jsonl"), tmp_path / "unl.jsonl"
    entrypoint(["sample", "--mdp", small, "--n", "60", "--seed", "1", "--out", lab_path])
    entrypoint(["sample", "--mdp", wide, "--n", "20", "--unlabeled", "--seed", "2",
                "--out", str(unl_path)])
    # every row fits the 6-state model, but the header still says 9 states
    lines = [line for line in unl_path.read_text().splitlines(keepends=True)
             if max(json.loads(line)["s"], json.loads(line)["sp"]) < 6]
    unl_path.write_text("".join(lines))
    header = json.loads(header_path(unl_path).read_text())
    header_path(unl_path).write_text(json.dumps(dict(header, n=len(lines))))
    model_path = str(tmp_path / "model.json")
    assert entrypoint(["fit-ensemble", "--in", lab_path, "--mdp", small, "--L", "3",
                       "--out", model_path]) == 0
    capsys.readouterr()
    out = tmp_path / "filled.jsonl"
    assert entrypoint(["relabel", "--in", str(unl_path), "--out", str(out),
                       "--model", model_path]) == 2
    assert "exceeds feature table shape" in capsys.readouterr().err
    assert not out.exists() and not header_path(out).exists()


@pytest.mark.parametrize("command", ["fit-ensemble", "relabel"])
@pytest.mark.parametrize("header", ["[1, 2]", '"x"', "3"])
def test_a_header_that_is_not_an_object_exits_2(tmp_path, capsys, command, header):
    argv = _file_commands(tmp_path)[command]
    data_path = argv[argv.index("--in") + 1]
    header_path(data_path).write_text(header + "\n")
    capsys.readouterr()
    assert entrypoint(argv) == 2
    err = capsys.readouterr().err
    assert "the header must be a JSON object" in err and str(header_path(data_path)) in err
    assert not Path(argv[argv.index("--out") + 1]).exists()


@pytest.mark.parametrize("command", ["fit-ensemble", "relabel"])
@pytest.mark.parametrize("key,value", [
    ("num_states", 2.7),  # read_jsonl truncated it to 2
    ("num_states", 4.0),
    ("num_states", "3"),
    ("num_states", True),
    ("num_actions", 0),
    ("n", -1),
    ("labeled", "yes"),
    ("labeled", 1),
])
def test_a_header_field_of_the_wrong_type_exits_2(tmp_path, capsys, command, key, value):
    argv = _file_commands(tmp_path)[command]
    hp = header_path(argv[argv.index("--in") + 1])
    meta = json.loads(hp.read_text())
    hp.write_text(json.dumps({**meta, key: value}) + "\n")
    capsys.readouterr()
    assert entrypoint(argv) == 2
    err = capsys.readouterr().err
    assert f"header field '{key}' must be" in err and str(hp) in err
    assert not Path(argv[argv.index("--out") + 1]).exists()


def _file_commands(tmp_path):
    """Working files for every file-taking subcommand, and its arguments."""
    mdp, lab, unl, model = (str(tmp_path / name) for name in
                            ("m.json", "lab.jsonl", "unl.jsonl", "model.json"))
    for argv in (["gen-mdp", "--kind", "lowrank", "--states", "4", "--actions", "2",
                  "--dim", "2", "--out", mdp],
                 ["sample", "--mdp", mdp, "--n", "30", "--out", lab],
                 ["sample", "--mdp", mdp, "--n", "10", "--unlabeled", "--out", unl],
                 ["fit-ensemble", "--in", lab, "--mdp", mdp, "--L", "3", "--out", model]):
        assert entrypoint(argv) == 0
    out = str(tmp_path / "out.json")
    return {
        "gen-mdp": ["gen-mdp", "--kind", "tabular", "--states", "3", "--actions", "2",
                    "--out", out],
        "sample": ["sample", "--mdp", mdp, "--n", "5", "--out", out],
        "fit-ensemble": ["fit-ensemble", "--in", lab, "--mdp", mdp, "--L", "3", "--out", out],
        "relabel": ["relabel", "--in", unl, "--out", out, "--model", model, "--k", "1"],
        "table": ["table", "--csv", lab],
    }


_UNUSABLE_FILE_ARGUMENTS = [
    ("gen-mdp", "--out", "missing_dir", "directory .* does not exist"),
    ("sample", "--mdp", "missing", "does not exist"),
    ("sample", "--out", "missing_dir", "directory .* does not exist"),
    ("fit-ensemble", "--in", "missing", "does not exist"),
    ("fit-ensemble", "--mdp", "directory", "is not a file"),
    ("fit-ensemble", "--out", "missing_dir", "directory .* does not exist"),
    ("relabel", "--in", "missing", "does not exist"),
    ("relabel", "--model", "missing", "does not exist"),
    ("relabel", "--out", "missing_dir", "directory .* does not exist"),
    ("relabel", "--out", "directory", "is a directory"),
    ("table", "--csv", "missing", "does not exist"),
]


@pytest.mark.parametrize("command,flag,bad,message", _UNUSABLE_FILE_ARGUMENTS,
                         ids=[f"{c}{f}-{b}" for c, f, b, _ in _UNUSABLE_FILE_ARGUMENTS])
def test_unusable_file_arguments_exit_2_before_any_work(tmp_path, monkeypatch, capsys, command,
                                                        flag, bad, message):
    import pdslab.cli as cli

    argv = _file_commands(tmp_path)[command]
    before = sorted(p.name for p in tmp_path.iterdir())
    argv[argv.index(flag) + 1] = str({"missing": tmp_path / "nope.json",
                                      "missing_dir": tmp_path / "nope" / "out.json",
                                      "directory": tmp_path}[bad])

    def no_work(*args, **kwargs):
        raise AssertionError("work started on an unusable file argument")

    for name in ("build_mdp", "load_mdp", "read_jsonl", "load_ensemble", "relabel_file",
                 "emit_table"):
        monkeypatch.setattr(cli, name, no_work)
    capsys.readouterr()
    assert entrypoint(argv) == 2
    assert re.search(f"config error: {flag} .*{message}", capsys.readouterr().err)
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_relabel_in_place(tmp_path, capsys):
    # reading ends before writing starts, so --out may name the --in file
    argv = _file_commands(tmp_path)["relabel"]
    unl, out = Path(argv[argv.index("--in") + 1]), Path(argv[argv.index("--out") + 1])
    capsys.readouterr()
    assert entrypoint(argv) == 0
    want = capsys.readouterr().out
    argv[argv.index("--out") + 1] = str(unl)
    assert entrypoint(argv) == 0
    assert capsys.readouterr().out == want
    assert unl.read_bytes() == out.read_bytes()
    assert header_path(unl).read_bytes() == header_path(out).read_bytes()


def test_write_failure_mid_relabel_exits_3(tmp_path, monkeypatch, capsys):
    import pdslab.ensemble as ensemble

    argv = _file_commands(tmp_path)["relabel"]

    def failing_write(path, *columns):
        Path(path).write_text('{"s": 0')
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ensemble, "write_transitions", failing_write)
    capsys.readouterr()
    assert entrypoint(argv) == 3
    assert "runtime error: OSError" in capsys.readouterr().err


def test_a_byte_that_is_not_utf8_exits_2_naming_its_line(tmp_path, capsys):
    argv = _file_commands(tmp_path)["fit-ensemble"]
    lab = Path(argv[argv.index("--in") + 1])
    lines = lab.read_bytes().splitlines(keepends=True)
    lines[2] = lines[2][:-2] + b', "note": "\xff"}\n'
    lab.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert entrypoint(argv) == 2
    assert "malformed transition at line 3: byte 0xFF is not UTF-8" in capsys.readouterr().err


def test_failed_in_place_relabel_leaves_its_input(tmp_path, monkeypatch, capsys):
    import pdslab.data as data

    argv = _file_commands(tmp_path)["relabel"]
    unl = Path(argv[argv.index("--in") + 1])
    argv[argv.index("--out") + 1] = str(unl)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    written = []

    class FullDisk:
        """A file whose first write lands and whose second fails with ENOSPC."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            if written:
                raise OSError(28, "No space left on device")
            self.fh.write(text)
            self.fh.flush()
            written.append(self.fh.name)

    monkeypatch.setattr(data, "_WRITE_BLOCK_ROWS", 4)  # the 10 rows take three blocks
    monkeypatch.setattr(data, "open", lambda *args, **kwargs: FullDisk(open(*args, **kwargs)),
                        raising=False)
    capsys.readouterr()
    assert entrypoint(argv) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert len(written) == 1 and written[0] != str(unl)  # the first block went to a new file
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


def test_bounds_subcommand(tmp_path, capsys):
    assert entrypoint(["bounds", "--d", "4", "--n0", "1000", "--n1", "0,10000",
                       "--c0", "0.5", "--c1", "0.5", "--format", "csv"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("n0,n1,offline_term")
    assert len(out) == 3
    first = dict(zip(out[0].split(","), out[1].split(",")))
    assert first["sbr_exact"] == "1"  # nothing shared, ratio is one by definition

    assert entrypoint(["bounds", "--d", "4", "--n0", "100", "--c0", "0.0"]) == 0
    md = capsys.readouterr().out
    assert "inf" in md

    # every float input must be finite; the error names the field
    for flag, value, field in (("--c0", "nan", "c0_dagger"), ("--c0", "inf", "c0_dagger"),
                               ("--c", "nan", "c"), ("--c1", "inf", "c1_dagger"),
                               ("--gamma", "nan", "gamma"), ("--r-max", "inf", "r_max"),
                               ("--delta", "nan", "delta")):
        argv = ["bounds", "--d", "4", "--n0", "100", "--c0", "0.5", flag, value]
        assert entrypoint(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and f"{field} must be finite" in captured.err


def test_table_subcommand(tmp_path, capsys):
    path = _write_config(tmp_path, _base_doc(tmp_path))
    entrypoint(["run", "--config", path])
    capsys.readouterr()
    assert entrypoint(["table", "--csv", str(tmp_path / "results.csv")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("|") and "pds" in out
    assert entrypoint(["table", "--csv", str(tmp_path / "results.csv"),
                       "--group-by", "method,bogus"]) == 2


def test_load_config_round_trips_from_disk(tmp_path):
    path = _write_config(tmp_path, _base_doc(tmp_path))
    cfg = load_config(path)
    assert cfg.grid.n0_values == (40,) and cfg.grid.n1_values == (0, 30)
    assert cfg.grid.methods == (MethodId.PDS,)
