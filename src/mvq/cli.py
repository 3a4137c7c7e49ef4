"""Command-line front end: tables, verification, metrics, minimization,
simulation, and circuit comparison over the registry.

Exit codes: 0 success/equal/verified; 1 verification, audit, or comparison
failure; 2 usage, config, or parse error, including input that is not UTF-8,
a path the OS rejects and output stdout cannot encode; 3 I/O error, including
a reader that closes stdout early.

Subcommands return 0 or 1 and raise for any other outcome; `main` alone
prints a failure and picks exit code 2 or 3. Every file is read through
`_read_text` ('-' is stdin) and written through `_write_text`, and both name
the path when they fail.

Start-up: `import mvq.cli` loads only what `table`, `verify`, `metrics` and
`compare` need. `minimize` and `audit` import `minimizer` when they run,
`sim` (and a `voltage_map` config key) imports `sim`, and `json` loads where
a document is read. `argparse` loads only for an argv that `main` leaves to
it (below), when `main` first builds the parser, once per process; later
calls reuse that parser. Nothing is built or evaluated at import either,
and no netlist is kept. Each command prints values made on first use and
never changed: `table` its one text per circuit and per --bits (`_GRID` or
`_format_columns` over `circuits._table`, which `compare` reads too), `sim`
its one CSV, voltage CSV and VCD text per circuit (`circuits._sim_texts`; a
`voltage_map` config renders them anew), `verify` its one `VerifyResult`,
`metrics` its one default-cost `Metrics` per circuit and `audit` its one
set of rows. The module `__getattr__` still serves the names this module
once imported from `minimizer` and `sim`, and `quat_view` stays imported,
because `perfbench/spans.py` reads and patches them here.

Parsing: `main` reads a plain command line itself (`_plain_args`): an exact
subcommand name, then exactly its positional arguments, then its exact
flags or --config, each at most once, with a value after each flag that
takes one, and no argument or value that starts with '-' except '-' itself.
Every other argv goes to `argparse` unchanged: help, '--', '--flag=value',
an abbreviation, a repeated flag, a flag before a positional, a value that
looks like an option, and every usage error. So `argparse` prints all help
and usage text. Both read the one grammar in `_COMMANDS`, and a handler
gets the same attributes from either.
"""

from __future__ import annotations

import functools
import importlib
import io
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .circuits import (
    CIRCUIT_IDS,
    REGISTRY,
    CircuitInfo,
    _kept,
    _sim_texts,
    _table,
    circuit_metrics,
    get_info,
    quat_view,  # not called here: perfbench/spans.py reads and patches it
    verify,
    verify_all,
)
from .netlist import CONST_KINDS, GateKind, MissingCostEntry, SignalType

if TYPE_CHECKING:
    import argparse

    from .sim import VoltageMap

    # a handler's arguments: from _plain_args or from the argparse parser
    Args = argparse.Namespace | SimpleNamespace

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3


class CliError(Exception):
    """A reported failure: main prints the message to stderr and exits with
    the code."""

    def __init__(self, message: str, code: int = EXIT_USAGE) -> None:
        super().__init__(message)
        self.code = code


class Config:
    """Settings from a --config file; voltages None is the default VoltageMap."""

    def __init__(
        self,
        cost_table: dict[GateKind, int] | None = None,
        voltages: VoltageMap | None = None,
        out_dir: str = ".",
    ) -> None:
        self.cost_table = cost_table
        self.voltages = voltages
        self.out_dir = out_dir


def _read_text(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for '-'."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:  # the cause tells load_config a file is missing
        raise CliError(f"cannot read {path}: {exc}", EXIT_IO) from exc
    except ValueError as exc:  # not UTF-8, or a path open() rejects
        raise CliError(f"cannot read {path}: {exc}") from None


def _read_json(path: str) -> object:
    import json

    try:
        return json.loads(_read_text(path))
    except (ValueError, RecursionError) as exc:
        raise CliError(f"bad JSON in config-referenced file: {exc}") from None


def _load_cost_table(path: str) -> dict[GateKind, int]:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise CliError("cost table must be a JSON object of kind -> int")
    table = {}
    for key, value in raw.items():
        try:
            kind = GateKind(key)
        except ValueError:
            raise CliError(f"unknown gate kind {key!r} in cost table") from None
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise CliError(f"cost for {key!r} must be a non-negative integer")
        if kind in CONST_KINDS:
            print(f"warning: cost for {key!r} ignored; constants are free wiring",
                  file=sys.stderr)
        table[kind] = value
    return table


def _voltage(value: object) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        import json

        raise TypeError(f"voltage {json.dumps(value)} is not a JSON number")
    return float(value)


def _load_voltage_map(path: str) -> VoltageMap:
    from .sim import VoltageMap

    raw = _read_json(path)
    try:
        return VoltageMap(
            quat=tuple(map(_voltage, raw["quat"])),
            bin=tuple(map(_voltage, raw["bin"])),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"bad voltage map: {exc}") from None


# config keys naming a JSON file: key -> (Config field, loader)
_FILE_KEYS = {
    "cost_table": ("cost_table", _load_cost_table),
    "voltage_map": ("voltages", _load_voltage_map),
}


def load_config(path: str | None) -> Config:
    """Flat key=value file; recognized keys: cost_table, voltage_map, out_dir,
    each at most once. Files referenced by a key that do not exist fall back
    to defaults with a warning."""
    cfg = Config()
    if path is None:
        return cfg
    seen: set[str] = set()
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise CliError(f"{path}:{lineno}: repeated key {key!r}")
        seen.add(key)
        if key in _FILE_KEYS:
            field, loader = _FILE_KEYS[key]
            try:
                setattr(cfg, field, loader(value))
            except CliError as exc:
                if not isinstance(exc.__cause__, FileNotFoundError):
                    raise
                label = key.replace("_", " ")
                print(f"warning: {label} {value!r} not found; using defaults",
                      file=sys.stderr)
        elif key == "out_dir":
            cfg.out_dir = value
        else:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
    return cfg


def _resolve(cid: str) -> CircuitInfo:
    try:
        return get_info(cid)
    except KeyError as exc:
        raise CliError(exc.args[0]) from None


def _format_columns(headers: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [" ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append(" ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def _write_text(dest: str, text: str, out_dir: str) -> None:
    if dest == "-":
        sys.stdout.write(text)
        return
    path = dest if os.path.isabs(dest) else os.path.join(out_dir, dest)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO) from None
    except ValueError as exc:  # a path open() rejects
        raise CliError(f"cannot write {path}: {exc}") from None


# the grid `table` prints for a circuit of two quaternary inputs and one
# output: the output's level for x (row) and y (column)
_GRID = "\n".join(
    ["x\\y | 0 1 2 3", "----+--------", *(f"{a:>3} | %d %d %d %d" for a in range(4))]
)


def cmd_table(args: Args, cfg: Config) -> int:
    cid, bits = _resolve(args.circuit).cid, args.bits
    print(_kept(cid, ("table text", bits), lambda info: _table_text(info.cid, bits)))
    return EXIT_OK


def _table_text(cid: str, bits: bool) -> str:
    """What `table` prints: the grid for a view of two quaternary inputs and
    one output, else the columns of the truth table's rows."""
    tt = _table(cid, view=not bits)
    if not bits and len(tt.outputs) == 1 and [s for _, s in tt.inputs] == [SignalType.QUAT] * 2:
        # row 4x + y of the output column, x the slower-varying input
        return _GRID % tuple(tt.columns[2])
    headers = [name for name, _ in tt.inputs + tt.outputs]
    return _format_columns(headers, [[str(v) for v in ins + outs] for ins, outs in tt.rows])


def cmd_verify(args: Args, cfg: Config) -> int:
    if args.circuit == "all":
        results = verify_all()
    else:
        results = (verify(_resolve(args.circuit).cid),)
    for res in results:
        if res.ok:
            print(f"{res.cid}: PASS ({res.vectors} vectors)")
        else:
            print(f"{res.cid}: FAIL at {res.counterexample}")
    passed = sum(1 for r in results if r.ok)
    if len(results) > 1:
        print(f"{passed}/{len(results)} circuits PASS")
    return EXIT_OK if passed == len(results) else EXIT_FAIL


def cmd_metrics(args: Args, cfg: Config) -> int:
    if args.circuit == "all":
        infos = [REGISTRY[cid] for cid in CIRCUIT_IDS]
    else:
        infos = [_resolve(args.circuit)]
    # measure every circuit before printing, so a cost-table error prints nothing
    measured = [(info, circuit_metrics(info.cid, cfg.cost_table)) for info in infos]
    for i, (info, m) in enumerate(measured):
        if i:
            print()
        print(f"circuit: {info.cid} ({info.title})")
        print(f"gates: {m.gate_count}")
        print(f"depth: {m.depth}")
        print(f"transistor estimate: {m.transistor_estimate}")
        kinds = " ".join(f"{k}={v}" for k, v in m.kind_counts)
        print(f"kinds: {kinds if kinds else '(none)'}")
        if m.published_transistors is not None:
            print(
                f"published transistors: {m.published_transistors} "
                f"({m.published_note})"
            )
    return EXIT_OK


def cmd_minimize(args: Args, cfg: Config) -> int:
    from .minimizer import (
        ParseError,
        UnsupportedFeature,
        minimize_exact,
        parse_pla,
        recognize_xor,
        render_sop,
    )

    try:
        spec = parse_pla(_read_text(args.pla))
    except (ParseError, UnsupportedFeature) as exc:
        raise CliError(str(exc)) from None
    best = minimize_exact(spec)
    print(render_sop(best, spec.names))
    if args.xor:
        report = recognize_xor(best, spec.names)
        print(report.rendered)
        print(f"two-input gates: {report.gates_2in}")
    return EXIT_OK


def cmd_audit(args: Args, cfg: Config) -> int:
    from .minimizer import audit_published_forms

    rows = audit_published_forms()
    table = []
    for r in rows:
        table.append([
            r.op,
            r.bit,
            "yes" if r.equivalent else "NO",
            str(r.published_literals),
            str(r.published_gates_2in),
            "-" if r.published_sop_literals is None else str(r.published_sop_literals),
            str(r.min_terms),
            str(r.min_literals),
            r.published_form,
            r.min_sop,
        ])
    headers = [
        "op", "bit", "equiv", "lits", "gates2", "sop-lits",
        "min-terms", "min-lits", "published-form", "min-sop",
    ]
    print(_format_columns(headers, table))
    good = sum(1 for r in rows if r.equivalent)
    print(f"{good}/{len(rows)} published forms equivalent to their tables")
    return EXIT_OK if good == len(rows) else EXIT_FAIL


def cmd_sim(args: Args, cfg: Config) -> int:
    levels, volts, vcd_text = _sim_texts(_resolve(args.circuit).cid, cfg.voltages)
    csv_text = volts if args.volts else levels
    if args.csv is None and args.vcd is None:
        sys.stdout.write(csv_text)
    if args.csv is not None:
        _write_text(args.csv, csv_text, cfg.out_dir)
    if args.vcd is not None:
        _write_text(args.vcd, vcd_text, cfg.out_dir)
    return EXIT_OK


def cmd_compare(args: Args, cfg: Config) -> int:
    info_a, info_b = _resolve(args.a), _resolve(args.b)
    ta, tb = _table(info_a.cid, view=True), _table(info_b.cid, view=True)
    if ta.inputs != tb.inputs or ta.outputs != tb.outputs:
        raise CliError(
            f"port shapes differ: {info_a.cid} is "
            f"{[n for n, _ in ta.inputs]} -> "
            f"{[n for n, _ in ta.outputs]}, {info_b.cid} is "
            f"{[n for n, _ in tb.inputs]} -> "
            f"{[n for n, _ in tb.outputs]}"
        )
    for (ins, outs_a), (_, outs_b) in zip(ta.rows, tb.rows):
        if outs_a != outs_b:
            where = " ".join(
                f"{name}={v}" for (name, _), v in zip(ta.inputs, ins)
            )
            print(f"DIFFER at {where}: {outs_a[0]} vs {outs_b[0]}")
            return EXIT_FAIL
    print(f"EQUAL ({len(ta.rows)} vectors)")
    return EXIT_OK


# the subcommands in usage order: name, help, arguments as (name or flag, help,
# action); each runs cmd_<name>
_COMMANDS = (
    ("table", "print a truth table",
     (("circuit", None, "store"), ("--bits", "bit-level core table", "store_true"))),
    ("verify", "netlist vs reference", (("circuit", "circuit id or 'all'", "store"),)),
    ("metrics", "gate count and depth", (("circuit", "circuit id or 'all'", "store"),)),
    ("minimize", "exact SOP from PLA", (("pla", "PLA file, or - for stdin", "store"),
                                        ("--xor", "XOR-factored rendering", "store_true"))),
    ("audit", "published-equation audit", ()),
    ("sim", "exhaustive sweep traces",
     (("circuit", None, "store"), ("--csv", "CSV path, - for stdout", "store"),
      ("--vcd", "VCD path, - for stdout", "store"),
      ("--volts", "voltage-valued CSV", "store_true"))),
    ("compare", "equivalence check", (("a", None, "store"), ("b", None, "store"))),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every argv `_plain_args` does not read: the top-level
    parser and one subparser per `_COMMANDS` entry, each with --config. Built on the first call and
    returned from then on; parse_args keeps its results in a new namespace,
    so a parse leaves nothing behind for the next. prog="mvq" is the prefix
    argparse would derive."""
    import argparse

    parser = argparse.ArgumentParser(prog="mvq", description="quaternary logic circuit toolkit")
    sub = parser.add_subparsers(dest="command", required=True, prog="mvq")
    for name, help_text, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", default=None, help="key=value config file")
        for flag, arg_help, action in arguments:
            p.add_argument(flag, help=arg_help, action=action)
    return parser


def _plain_grammar(arguments: tuple) -> tuple[tuple[str, ...], dict, dict]:
    """A subcommand's positional names, its flags' defaults, and flag ->
    (attribute, takes a value), --config included: argparse's defaults are
    None for a flag that takes a value and False for one that does not."""
    positionals = tuple(name for name, _, _ in arguments if not name.startswith("-"))
    flags = {"--config": ("config", True)} | {
        flag: (flag[2:].replace("-", "_"), action == "store")
        for flag, _, action in arguments if flag.startswith("-")
    }
    defaults = {dest: None if takes_value else False for dest, takes_value in flags.values()}
    return positionals, defaults, flags


# _plain_args's reading of _COMMANDS: subcommand -> _plain_grammar
_PLAIN = {name: _plain_grammar(arguments) for name, _, arguments in _COMMANDS}


def _is_value(arg: str) -> bool:
    """Whether argparse reads arg as a value wherever it stands: arg does not
    start with '-', or is '-'."""
    return not arg.startswith("-") or arg == "-"


def _plain_args(argv: object) -> SimpleNamespace | None:
    """The namespace argparse gives a plain command line (see the module
    docstring), or None for any other argv, which main leaves to argparse.
    Prints nothing and raises nothing."""
    if type(argv) is not list or not argv or not all(type(arg) is str for arg in argv):
        return None
    grammar = _PLAIN.get(argv[0])
    if grammar is None:
        return None
    positionals, defaults, flags = grammar
    given = argv[1 : len(positionals) + 1]
    if len(given) < len(positionals) or not all(map(_is_value, given)):
        return None
    values = {"command": argv[0], **defaults, **dict(zip(positionals, given))}
    seen = set()
    rest = iter(argv[len(positionals) + 1 :])
    for flag in rest:
        if flag not in flags or flag in seen:
            return None
        seen.add(flag)
        dest, takes_value = flags[flag]
        if not takes_value:
            values[dest] = True
            continue
        value = next(rest, None)
        if value is None or not _is_value(value):
            return None
        values[dest] = value
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        # looked up per call, so that a patched cmd_<name> is the one that runs
        code = globals()[f"cmd_{args.command}"](args, load_config(args.config))
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; send what is still buffered to
        # devnull so that the flush at interpreter exit cannot raise again
        try:
            fd = sys.stdout.fileno()
        except io.UnsupportedOperation:
            return EXIT_IO
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return EXIT_IO
    except UnicodeEncodeError as exc:  # stdout cannot encode the output
        print(f"cannot write -: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except MissingCostEntry as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    return code


# minimizer's and sim's names that perfbench/spans.py reads and patches on
# this module: name -> the module that defines it
_LAZY_NAMES = {
    **dict.fromkeys(
        ("ParseError", "UnsupportedFeature", "audit_published_forms",
         "minimize_exact", "parse_pla", "recognize_xor", "render_sop"),
        "minimizer",
    ),
    **dict.fromkeys(
        ("VoltageMap", "export_csv", "export_vcd", "run", "sweep_all", "voltage_view"),
        "sim",
    ),
}


def __getattr__(name: str) -> object:
    """PEP 562: load minimizer or sim on the first read of one of its names."""
    if name not in _LAZY_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY_NAMES[name]}", __package__), name)


if __name__ == "__main__":
    sys.exit(main())
