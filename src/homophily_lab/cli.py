"""Command-line front end for batch runs.

Subcommands mirror the library: closed-form records (``analytic``,
``critical-size``), graph sampling (``generate``), Monte Carlo estimates
(``simulate``), grid sweeps (``sweep``), and the panel datasets
(``figure``). Data goes to stdout or ``--out``; everything else, including
an echo of the fully resolved configuration, goes to stderr so runs can be
reproduced by feeding the echo back through ``--config``.

Exit codes: 0 success, 2 validation, 3 I/O, 4 replicate budget exhausted.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import os
import sys
from typing import IO, Iterator

from .graphgen import GenSpec, empirical_group_degrees, generate, write_edge_list
from .model import ModelParams, ValidationError, critical_minority_size
from .montecarlo import McConfig
from .sweep import (
    PANELS,
    BudgetExceededError,
    CriticalSizeEstimate,
    FigureOptions,
    SlopeRow,
    SweepRow,
    fig1_dataset,
    sweep,
    write_table,
)

SEED_ENV_VAR = "HOMOPHILY_LAB_SEED"
_TABLE_FORMATS = ("csv", "json")

_ROW_TYPES = {"a": SweepRow, "b": SweepRow, "c": SweepRow, "d": SlopeRow, "e": CriticalSizeEstimate}


def _load_config(path: str) -> dict[str, str]:
    """Flat ``key = value`` file; blank lines and # comments ignored."""
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class _Resolver:
    """Precedence: flag > config file > (seed only) environment > default.

    Remembers every resolved value so the subcommand can echo a config
    block that reproduces the run exactly.
    """

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.config = _load_config(args.config) if getattr(args, "config", None) else {}
        self.resolved: dict[str, object] = {}

    def get(self, key: str, cast, default=None, required: bool = False):
        value = getattr(self.args, key.replace("-", "_"), None)
        if value is None and key in self.config:
            try:
                value = cast(self.config[key])
            except ValueError as err:
                raise ValidationError(f"config value for {key!r}: {err}") from err
        if value is None:
            value = default
        if value is None and required:
            raise ValidationError(f"missing required value: {key} (flag --{key} or config)")
        if value is not None:
            self.resolved[key] = value
        return value

    def seed(self) -> int:
        value = self.get("seed", int)
        if value is None:
            env = os.environ.get(SEED_ENV_VAR)
            try:
                value = int(env) if env else 0
            except ValueError:
                raise ValidationError(f"{SEED_ENV_VAR} must be an integer, got {env!r}") from None
            self.resolved["seed"] = value
        return value

    def table_format(self) -> str:
        """Output format, checked here because a config file bypasses the
        flag's choices and the table is written only after the run."""
        fmt = self.get("format", str, default="csv")
        if fmt not in _TABLE_FORMATS:
            raise ValidationError(f"unknown output format {fmt!r}; expected csv or json")
        return fmt

    def echo(self, command: str) -> None:
        print(f"# homophily-lab {command}: resolved configuration", file=sys.stderr)
        for key, value in self.resolved.items():
            text = repr(value) if isinstance(value, float) else str(value)
            print(f"{key} = {text}", file=sys.stderr)


def _check_range(name: str, value: float, lo: float, hi: float, *, open_ends: bool) -> None:
    ok = lo < value < hi if open_ends else lo <= value <= hi
    if not ok:
        bounds = f"({lo}, {hi})" if open_ends else f"[{lo}, {hi}]"
        raise ValidationError(f"{name} out of range {bounds}: {value}")


def _check_flags(n: int, f0: float, h00: float, h11: float) -> None:
    """Range checks phrased in flag names, before ModelParams re-validates."""
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    _check_range("f0", f0, 0.0, 1.0, open_ends=True)
    _check_range("h00", h00, 0.0, 1.0, open_ends=False)
    _check_range("h11", h11, 0.0, 1.0, open_ends=False)


def _parse_grid(text: str, cast) -> list:
    """Grid syntax: ``start:stop:step`` (stop inclusive), a comma list, or a
    single value."""
    text = text.strip()
    if "," in text:
        try:
            return [cast(part) for part in text.split(",") if part.strip()]
        except ValueError as err:
            raise ValidationError(f"bad grid {text!r}: {err}") from err
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValidationError(f"bad grid {text!r}; expected start:stop:step")
        try:
            start, stop, step = (cast(part) for part in parts)
        except ValueError as err:
            raise ValidationError(f"bad grid {text!r}: {err}") from err
        if step <= 0:
            raise ValidationError(f"grid step must be positive in {text!r}")
        if stop < start:
            raise ValidationError(f"grid stop below start in {text!r}")
        if cast is int:
            return list(range(start, stop + 1, step))
        ratio = (stop - start) / step
        count = int(round(ratio))
        if abs(ratio - count) > 1e-6:
            count = int(math.floor(ratio + 1e-9))
        return [start + i * step for i in range(count + 1)]
    try:
        return [cast(text)]
    except ValueError as err:
        raise ValidationError(f"bad grid {text!r}: {err}") from err


def _grid_axis(resolver: _Resolver, axis: str, cast) -> list:
    """One sweep axis from either --<axis>-grid or a single --<axis> value."""
    grid_text = resolver.get(f"{axis}-grid", str)
    if grid_text is not None:
        return _parse_grid(grid_text, cast)
    single = resolver.get(axis, cast)
    if single is None:
        raise ValidationError(f"missing required value: {axis} (--{axis} or --{axis}-grid)")
    return [single]


@contextlib.contextmanager
def _open_out(path: str | None) -> Iterator[IO[str]]:
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8") as handle:
            yield handle


def _emit(rows: list, row_type: type, path: str | None, fmt: str) -> None:
    with _open_out(path) as out:
        write_table(rows, out, fmt, row_type)
    if path is not None:
        print(f"wrote {path} ({len(rows)} rows)", file=sys.stderr)


def cmd_analytic(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    n = r.get("n", int, required=True)
    f0 = r.get("f0", float, required=True)
    h00 = r.get("h00", float, required=True)
    h11 = r.get("h11", float, required=True)
    fmt = r.table_format()
    path = r.get("out", str)
    r.echo("analytic")
    _check_flags(n, f0, h00, h11)
    rows = sweep([n], [f0], [h00], [h11], None)
    _emit(rows, SweepRow, path, fmt)
    return 0


def cmd_critical_size(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    n = r.get("n", int, required=True)
    r.echo("critical-size")
    if n < 2:
        raise ValidationError(f"n must be >= 2, got {n}")
    print(repr(critical_minority_size(n)))
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    n = r.get("n", int, required=True)
    f0 = r.get("f0", float, required=True)
    h00 = r.get("h00", float, required=True)
    h11 = r.get("h11", float, required=True)
    seed = r.seed()
    path = r.get("out", str)
    r.echo("generate")
    _check_flags(n, f0, h00, h11)
    graph = generate(GenSpec(ModelParams(n, f0, h00, h11), seed))
    with _open_out(path) as out:
        write_edge_list(out, graph, seed=seed, h00=h00, h11=h11)
    k0, k1 = empirical_group_degrees(graph)
    print(f"edges={graph.edge_count} k0={k0!r} k1={k1!r}", file=sys.stderr)
    if path is not None:
        print(f"wrote {path}", file=sys.stderr)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    n = r.get("n", int, required=True)
    f0 = r.get("f0", float, required=True)
    h00 = r.get("h00", float, required=True)
    h11 = r.get("h11", float, required=True)
    replicates = r.get("replicates", int, default=100)
    seed = r.seed()
    fmt = r.table_format()
    path = r.get("out", str)
    r.echo("simulate")
    _check_flags(n, f0, h00, h11)
    if replicates < 2:
        raise ValidationError(f"replicates must be >= 2, got {replicates}")
    rows = sweep([n], [f0], [h00], [h11], McConfig(replicates, seed))
    _emit(rows, SweepRow, path, fmt)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    n_values = _grid_axis(r, "n", int)
    f_values = _grid_axis(r, "f0", float)
    h00_values = _grid_axis(r, "h00", float)
    h11_values = _grid_axis(r, "h11", float)
    replicates = r.get("replicates", int, default=0)
    seed = r.seed()
    fmt = r.table_format()
    path = r.get("out", str)
    r.echo("sweep")
    if replicates == 1:
        raise ValidationError("replicates must be 0 (analytic only) or >= 2")
    mc = McConfig(replicates, seed) if replicates > 0 else None
    rows = sweep(n_values, f_values, h00_values, h11_values, mc)
    _emit(rows, SweepRow, path, fmt)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    r = _Resolver(args)
    panel = r.get("panel", str, required=True)
    if panel not in PANELS:
        raise ValidationError(f"unknown panel {panel!r}; expected one of {'|'.join(PANELS)}")
    n = r.get("n", int, default=1000)
    h11 = r.get("h11", float, default=0.8)
    replicates = r.get("replicates", int, default=100)
    seed = r.seed()
    fmt = r.table_format()
    path = r.get("out", str, default=f"fig1{panel}.{fmt}")
    n_grid_text = r.get("n-grid", str)
    f0_grid_text = r.get("f0-grid", str)
    budget = r.get("max-replicates", int)
    r.echo("figure")
    if replicates == 1:
        raise ValidationError("replicates must be 0 (analytic only) or >= 2")
    _check_range("h11", h11, 0.0, 1.0, open_ends=False)

    options = FigureOptions(
        n_total=n, h11=h11, replicates=replicates, master_seed=seed, detect_budget=budget
    )
    if n_grid_text is not None:
        options = dataclasses.replace(options, n_grid=tuple(_parse_grid(n_grid_text, int)))
    if f0_grid_text is not None:
        options = dataclasses.replace(options, f_grid=tuple(_parse_grid(f0_grid_text, float)))

    rows = fig1_dataset(panel, options)
    _emit(rows, _ROW_TYPES[panel], path, fmt)
    return 0


def _add_io_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--out", "-o", metavar="PATH", help="output file (default: stdout)")
    parser.add_argument("--format", choices=_TABLE_FORMATS, help="table format (default csv)")


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="network size N")
    parser.add_argument("--f0", type=float, help="minority fraction in (0, 1)")
    parser.add_argument("--h00", type=float, help="minority intra-group probability")
    parser.add_argument("--h11", type=float, help="majority intra-group probability")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homophily-lab",
        description="Two-group homophily network model: analytics, sampling, "
        "Monte Carlo estimation, and figure-ready sweeps.",
    )
    sub = parser.add_subparsers(dest="command", metavar="<command>")

    p = sub.add_parser("analytic", help="closed-form record for one parameter point")
    _add_params_flags(p)
    _add_io_flags(p)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("critical-size", help="critical minority size (2+N)/(4N)")
    p.add_argument("--n", type=int, help="network size N")
    p.add_argument("--config", metavar="PATH")
    p.set_defaults(func=cmd_critical_size)

    p = sub.add_parser("generate", help="sample one graph to an edge-list file")
    _add_params_flags(p)
    p.add_argument("--seed", type=int, help=f"64-bit seed (default ${SEED_ENV_VAR} or 0)")
    p.add_argument("--config", metavar="PATH")
    p.add_argument("--out", "-o", metavar="PATH", help="edge-list file (default: stdout)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("simulate", help="Monte Carlo estimates at one parameter point")
    _add_params_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", "-r", type=int, help="independent replicates (default 100)")
    _add_io_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="analytic/MC table over a parameter grid")
    _add_params_flags(p)
    for axis in ("n", "f0", "h00", "h11"):
        p.add_argument(f"--{axis}-grid", metavar="START:STOP:STEP", help=f"grid for {axis}")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", "-r", type=int, help="per-point replicates; 0 = analytic only")
    _add_io_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="dataset behind one summary panel (a-e)")
    p.add_argument("--panel", choices=PANELS, help="which panel dataset to emit")
    p.add_argument("--n", type=int, help="network size (default 1000)")
    p.add_argument("--h11", type=float, help="majority homophily for panels a-c (default 0.8)")
    p.add_argument("--n-grid", metavar="START:STOP:STEP", help="panel e network sizes")
    p.add_argument("--f0-grid", metavar="START:STOP:STEP", help="panel d minority fractions")
    p.add_argument("--seed", type=int)
    p.add_argument("--replicates", "-r", type=int, help="per-point replicates; 0 = analytic only")
    p.add_argument(
        "--max-replicates",
        type=int,
        help="total replicate budget for panel e critical-size searches",
    )
    _add_io_flags(p)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print(f"error: {err}", file=sys.stderr)
        return 4
    except ValidationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


def entry_point() -> None:
    sys.exit(main())
