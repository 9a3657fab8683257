"""Command-line front end: MDP generation, sampling, sweeps, and tables.

Exit codes: 0 ok, 2 configuration problem, 3 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

from pdslab.data import _replacing, read_jsonl, sample_dataset, write_jsonl
from pdslab.ensemble import (
    AUTO_A_DEFAULT,
    ESTIMATORS,
    fit_ensemble,
    load_ensemble,
    relabel_file,
    save_ensemble,
)
from pdslab.mdp import (
    load_mdp,
    make_adversarial_mdp,
    make_lowrank_mdp,
    make_tabular_mdp,
    save_mdp,
)
from pdslab.pipeline import (
    CSV_HEADER,
    MethodId,
    PeviSettings,
    QUALITIES,
    RewardSettings,
    SweepGrid,
    behavior_policy,
    markdown_summary,
    results_to_csv,
    sweep,
)
from pdslab.theory import BoundInputs, pds_bound, sbr_approx, sbr_exact

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
SCHEMA_VERSION = 1

MDP_KINDS = ("tabular", "lowrank", "adversarial")


class ConfigError(Exception):
    """Invalid configuration or arguments; maps to exit code 2."""


def _require_fields(section: str, doc: dict, allowed: set, required: set) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown field '{key}' in {section}")
    for key in required:
        if key not in doc:
            raise ConfigError(f"missing field '{key}' in {section}")


def _section(doc: dict, name: str) -> dict:
    """A copy of the config's section name, {} when absent; it must be a JSON object."""
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be a JSON object, got {value!r}")
    return dict(value)


def _as_int_list(value, name: str) -> tuple:
    if isinstance(value, bool):
        raise ConfigError(f"'{name}' must be an integer or list of integers")
    if isinstance(value, int):
        return (value,)
    if isinstance(value, list) and value and all(
        isinstance(v, int) and not isinstance(v, bool) for v in value
    ):
        return tuple(value)
    raise ConfigError(f"'{name}' must be an integer or nonempty list of integers")


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config file: the MDP spec, the sweep grid and the output path.

    from_dict checks the JSON shape; the settings types check the values."""

    mdp: dict
    grid: SweepGrid
    output: str

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        _require_fields(
            "config", doc,
            allowed={"schema_version", "mdp", "data", "methods", "reward", "pevi",
                     "seeds", "output"},
            required={"schema_version", "mdp", "data", "methods", "seeds", "output"},
        )
        version = doc["schema_version"]
        # true and 1.0 compare equal to 1, so check the type too
        if isinstance(version, bool) or not isinstance(version, int) or version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version!r}, want {SCHEMA_VERSION}")

        mdp = _section(doc, "mdp")
        kind = mdp.get("kind")
        if kind not in MDP_KINDS:
            raise ConfigError(f"mdp.kind must be one of {MDP_KINDS}, got {kind!r}")
        per_kind = {
            "tabular": ({"kind", "num_states", "num_actions", "gamma", "r_max", "seed"},
                        {"kind", "num_states", "num_actions"}),
            "lowrank": ({"kind", "num_states", "num_actions", "dim", "gamma", "r_max", "seed"},
                        {"kind", "num_states", "num_actions", "dim"}),
            "adversarial": ({"kind", "num_actions", "dim", "gamma", "r_max"},
                            {"kind", "num_actions", "dim"}),
        }
        allowed, required = per_kind[kind]
        _require_fields("mdp", mdp, allowed, required)
        # the makers would take true as 1 and 4.0 as a count, so check each value here
        for key, value in mdp.items():
            types = (int, float) if key in ("gamma", "r_max") else int
            if key != "kind" and (isinstance(value, bool) or not isinstance(value, types)
                                  or not math.isfinite(value) or key == "r_max" and value <= 0):
                want = {"gamma": "a finite number", "r_max": "finite and positive"}
                raise ConfigError(f"mdp.{key} must be {want.get(key, 'an integer')}, "
                                  f"got {value!r}")

        data = _section(doc, "data")
        _require_fields(
            "data", data,
            allowed={"n0", "n1", "labeled_quality", "unlabeled_quality", "noise",
                     "horizon_reset"},
            required={"n0"},
        )
        n0_values = _as_int_list(data.pop("n0"), "data.n0")
        n1_values = _as_int_list(data.pop("n1", 0), "data.n1")
        if data.get("unlabeled_quality") is None:
            if any(n > 0 for n in n1_values):
                raise ConfigError("data.unlabeled_quality is required when any n1 > 0")
            # the grid's default preset is never sampled when every n1 is zero
            data.pop("unlabeled_quality", None)

        methods = doc["methods"]
        if not isinstance(methods, list) or not methods:
            raise ConfigError("'methods' must be a nonempty list")

        reward = _section(doc, "reward")
        _require_fields("reward", reward,
                        allowed={"nu", "delta", "alpha_mode"}, required=set())
        pevi = _section(doc, "pevi")
        _require_fields(
            "pevi", pevi,
            allowed={"lambda_reg", "delta", "c", "beta_override", "tol", "max_sweeps"},
            required=set(),
        )

        seeds = doc["seeds"]
        if not isinstance(seeds, list) or not seeds or not all(
            isinstance(s, int) and not isinstance(s, bool) for s in seeds
        ):
            raise ConfigError("'seeds' must be a nonempty list of integers")

        output = doc["output"]
        if not isinstance(output, str) or not output:
            raise ConfigError("'output' must be a nonempty path string")

        try:
            grid = SweepGrid(
                n0_values=n0_values, n1_values=n1_values, methods=tuple(methods),
                seeds=tuple(seeds), reward=RewardSettings(**reward),
                pevi=PeviSettings(**pevi), **data,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return cls(mdp=mdp, grid=grid, output=output)

    def to_dict(self) -> dict:
        grid = self.grid
        return {
            "schema_version": SCHEMA_VERSION,
            "mdp": dict(self.mdp),
            "data": {
                "n0": list(grid.n0_values),
                "n1": list(grid.n1_values),
                "labeled_quality": grid.labeled_quality,
                "unlabeled_quality": grid.unlabeled_quality,
                "noise": grid.noise,
                "horizon_reset": grid.horizon_reset,
            },
            "methods": [m.value for m in grid.methods],
            "reward": dataclasses.asdict(grid.reward),
            "pevi": dataclasses.asdict(grid.pevi),
            "seeds": list(grid.seeds),
            "output": self.output,
        }


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def build_mdp(spec: dict):
    kind = spec["kind"]
    args = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "tabular":
        return make_tabular_mdp(**args)
    if kind == "lowrank":
        return make_lowrank_mdp(**args)
    return make_adversarial_mdp(**args)


def _writable(path: str, name: str) -> Path:
    """path as a Path, checked before any work to be a file that can be
    written: its directory exists and it is not itself a directory. name
    is the argument or field that gave it, for the message."""
    out = Path(path)
    if not out.parent.is_dir():
        raise ConfigError(f"{name} directory {out.parent} does not exist")
    if out.is_dir():
        raise ConfigError(f"{name} {out} is a directory")
    return out


def _readable(path: str, name: str) -> Path:
    """path as a Path, checked before any work to be an existing file."""
    inp = Path(path)
    if not inp.is_file():
        raise ConfigError(f"{name} {inp} is not a file" if inp.exists()
                          else f"{name} {inp} does not exist")
    return inp


def _output_paths(output: str) -> tuple[Path, Path]:
    """The CSV path and its markdown summary's path, checked before any cell runs."""
    out = _writable(output, "output")
    md_path = out.with_suffix(".md")
    if md_path == out:
        raise ConfigError(f"output {out} must not end in .md: its markdown summary "
                          f"would overwrite it")
    return out, md_path


def run_config(path: str | Path) -> int:
    cfg = load_config(path)
    out, md_path = _output_paths(cfg.output)
    report = sweep(build_mdp(cfg.mdp), cfg.grid)
    csv_text = results_to_csv(report.results)
    md_text = markdown_summary(report.results) if report.results else "no results\n"
    # both files are complete before either replaces the previous results
    with _replacing(out) as csv_fh, _replacing(md_path) as md_fh:
        csv_fh.write(csv_text)
        md_fh.write(md_text)
    print(f"wrote {out} ({len(report.results)} rows) and {md_path}")
    stalled = sum(not row.converged for row in report.results)
    if stalled:
        print(f"warning: PEVI did not converge on {stalled} of {len(report.results)} rows",
              file=sys.stderr)
    if report.failures:
        for fail in report.failures:
            print(f"cell failed: {fail}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def emit_table(csv_path: str | Path, group_by=("method", "n1")) -> str:
    """Markdown summary straight from a results CSV."""
    group_by = tuple(group_by)
    if len(group_by) != 2 or group_by[0] != "method":
        raise ConfigError("group_by must be ('method', <column>)")
    column = group_by[1]
    if column not in {"n0", "n1", "gamma", "d", "seed"}:
        raise ConfigError(f"cannot group by column {column!r}")

    lines = Path(csv_path).read_text().splitlines()
    if not lines:
        raise ConfigError(f"{csv_path} is empty")
    header = lines[0].split(",")
    missing = [col for col in CSV_HEADER.split(",") if col not in header]
    if missing:
        raise ConfigError(f"csv schema mismatch, missing columns: {', '.join(missing)}")

    idx = {col: header.index(col) for col in header}
    int_cols = {"n0", "n1", "d", "seed"}
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ConfigError(f"malformed csv row at line {lineno}")
        value = parts[idx[column]]
        rows.append(SimpleNamespace(
            method=MethodId(parts[idx["method"]]),
            subopt_mean=float(parts[idx["subopt_mean"]]),
            **{column: int(value) if column in int_cols else float(value)},
        ))
    if not rows:
        raise ConfigError(f"{csv_path} has no data rows")
    return markdown_summary(rows, column=column)


# ----------------------------------------------------------------- subcommands


def _cmd_gen_mdp(args) -> int:
    _writable(args.out, "--out")
    spec = {"kind": args.kind, "gamma": args.gamma, "r_max": args.r_max}
    if args.kind == "adversarial":
        if args.states is not None:
            raise ConfigError("--states does not apply to the adversarial kind")
        if args.seed is not None:
            raise ConfigError("--seed does not apply to the adversarial kind")
        if args.dim is None:
            raise ConfigError("--dim is required for the adversarial kind")
        spec.update(num_actions=args.actions, dim=args.dim)
    else:
        if args.states is None:
            raise ConfigError(f"--states is required for the {args.kind} kind")
        # a None seed would draw a fresh MDP on every call
        spec.update(num_states=args.states, num_actions=args.actions,
                    seed=0 if args.seed is None else args.seed)
        if args.kind == "lowrank":
            if args.dim is None:
                raise ConfigError("--dim is required for the lowrank kind")
            spec["dim"] = args.dim
        elif args.dim is not None:
            raise ConfigError("--dim does not apply to the tabular kind")
    mdp = build_mdp(spec)
    save_mdp(mdp, args.out)
    print(f"wrote {args.out} ({mdp.num_states} states, {mdp.num_actions} actions, "
          f"dim {mdp.dim})")
    return EXIT_OK


def _cmd_sample(args) -> int:
    _writable(args.out, "--out")
    mdp = load_mdp(_readable(args.mdp, "--mdp"))
    policy = behavior_policy(mdp, args.quality)
    ds = sample_dataset(
        mdp, policy, n=args.n, horizon_reset=args.horizon_reset,
        labeled=not args.unlabeled, seed=args.seed,
        noise=args.noise,
    )
    write_jsonl(ds, args.out, mdp_hash=mdp.content_hash(), seed=args.seed,
                behavior=args.quality)
    print(f"wrote {args.out} ({len(ds)} transitions, "
          f"{'unlabeled' if args.unlabeled else 'labeled'})")
    return EXIT_OK


def _cmd_run(args) -> int:
    return run_config(args.config)


def _cmd_relabel(args) -> int:
    inp, out = _readable(args.inp, "--in"), _writable(args.out, "--out")
    model = load_ensemble(_readable(args.model, "--model"))
    summary = relabel_file(inp, out, model, k_mode=args.k, estimator=args.estimator,
                           auto_a=args.a)
    print(json.dumps(summary))
    return EXIT_OK


def _cmd_fit_ensemble(args) -> int:
    inp, out = _readable(args.inp, "--in"), _writable(args.out, "--out")
    mdp = load_mdp(_readable(args.mdp, "--mdp"))
    ds = read_jsonl(inp)
    model = fit_ensemble(ds, mdp.features, ensemble_size=args.ensemble_size, nu=args.nu,
                         seed=args.seed)
    save_ensemble(model, out)
    print(f"wrote {out} ({model.l_count} members)")
    return EXIT_OK


def _parse_int_list(text: str, name: str) -> list:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--{name} must be a comma-separated integer list") from exc


def _cmd_bounds(args) -> int:
    rows = []
    for n0 in _parse_int_list(args.n0, "n0"):
        for n1 in _parse_int_list(args.n1, "n1"):
            inp = BoundInputs(d=args.d, n0=n0, n1=n1, c0_dagger=args.c0,
                              c1_dagger=args.c1, gamma=args.gamma, r_max=args.r_max,
                              delta=args.delta, c=args.c)
            bound = pds_bound(inp)
            if n0 * args.c0 > 0:
                ratios = (sbr_exact(inp), sbr_approx(inp))
            else:
                ratios = (float("nan"), float("nan"))  # ratio of two vacuous bounds
            rows.append((n0, n1, bound.offline_term, bound.reward_term, bound.total)
                        + ratios)
    header = ["n0", "n1", "offline_term", "reward_term", "total", "sbr_exact",
              "sbr_approx"]
    if args.format == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(f"{v:.6g}" if isinstance(v, float) else str(v) for v in row))
    else:
        print("| " + " | ".join(header) + " |")
        print("|" + "---|" * len(header))
        for row in rows:
            print("| " + " | ".join(
                f"{v:.6g}" if isinstance(v, float) else str(v) for v in row) + " |")
    return EXIT_OK


def _cmd_table(args) -> int:
    group_by = args.group_by.split(",")
    print(emit_table(_readable(args.csv, "--csv"), group_by=group_by), end="")
    return EXIT_OK


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pdslab",
                                description="offline data-sharing experiment bench")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-mdp", help="generate and save a synthetic MDP")
    g.add_argument("--kind", choices=MDP_KINDS, required=True)
    g.add_argument("--states", type=int)
    g.add_argument("--actions", type=int, required=True)
    g.add_argument("--dim", type=int)
    g.add_argument("--gamma", type=float, default=0.9)
    g.add_argument("--r-max", dest="r_max", type=float, default=1.0)
    g.add_argument("--seed", type=int)  # 0 for the kinds it applies to
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen_mdp)

    s = sub.add_parser("sample", help="roll out a behavior policy to JSONL")
    s.add_argument("--mdp", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--quality", choices=QUALITIES, default="medium")
    s.add_argument("--unlabeled", action="store_true")
    s.add_argument("--noise", type=float, default=0.0)
    s.add_argument("--horizon-reset", dest="horizon_reset", type=int, default=100)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=_cmd_sample)

    r = sub.add_parser("run", help="execute an experiment config")
    r.add_argument("--config", required=True)
    r.set_defaults(func=_cmd_run)

    rl = sub.add_parser("relabel", help="fill missing rewards with ensemble estimates")
    rl.add_argument("--in", dest="inp", required=True)
    rl.add_argument("--out", required=True)
    rl.add_argument("--model", required=True)
    rl.add_argument("--k", default="auto")
    rl.add_argument("--a", type=float, default=AUTO_A_DEFAULT)
    rl.add_argument("--estimator", choices=ESTIMATORS, default="min")
    rl.set_defaults(func=_cmd_relabel)

    fe = sub.add_parser("fit-ensemble", help="fit a bootstrap reward ensemble")
    fe.add_argument("--in", dest="inp", required=True)
    fe.add_argument("--mdp", required=True)
    fe.add_argument("--out", required=True)
    fe.add_argument("--L", dest="ensemble_size", type=int, default=10)
    fe.add_argument("--nu", type=float, default=1.0)
    fe.add_argument("--seed", type=int, default=0)
    fe.set_defaults(func=_cmd_fit_ensemble)

    b = sub.add_parser("bounds", help="print the closed-form bound table")
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--n0", required=True)
    b.add_argument("--n1", default="0")
    b.add_argument("--c0", type=float, required=True)
    b.add_argument("--c1", type=float, default=0.0)
    b.add_argument("--gamma", type=float, default=0.9)
    b.add_argument("--r-max", dest="r_max", type=float, default=1.0)
    b.add_argument("--delta", type=float, default=0.1)
    b.add_argument("--c", type=float, default=1.0)
    b.add_argument("--format", choices=("csv", "md"), default="md")
    b.set_defaults(func=_cmd_bounds)

    t = sub.add_parser("table", help="summarize a results CSV as markdown")
    t.add_argument("--csv", required=True)
    t.add_argument("--group-by", dest="group_by", default="method,n1")
    t.set_defaults(func=_cmd_table)

    return p


def entrypoint(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad arguments, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, TypeError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(entrypoint())
