"""Command-line interface: entropy-conserving collapse from a shell.

Four subcommands:

* ``solve``      -- closed-form constrained minimization for one (state, axis).
* ``landscape``  -- tabular scan of the entropy surfaces over a (theta, phi) grid.
* ``oracle``     -- brute-force grid search reported side by side with the solver.
* ``simulate``   -- multi-step measurement trajectory, deterministic or Born-sampled.

Each takes only the flags it reads, from one table of `_Flag` rows: all four
take the state and axis inputs, ``--entropy-base`` and ``--out``.
``solve``/``oracle``/``simulate`` add ``--mode`` and ``--tol`` and emit a
single structured JSON document that echoes every input flag, so any output
can be re-run from its own ``input`` block;
``landscape`` adds ``--format csv|tsv`` and emits delimiter-separated rows
for external plotting, each cell the `repr` of its float.
`_parse` reads a command's argv against its rows: ``--flag value`` or
``--flag=value``, each value flag taking the next token as it stands (so
``--amp-up -0.6+0.2j`` is a value), the last of a repeated flag winning, no
flag abbreviated.  Each command's ``--help`` is written from the same rows.
orjson writes every document: a JSON document in one call, exactly
``json.dumps(doc, indent=2) + "\n"``, ASCII only, once the few numbers it
spells unlike `repr` are re-spelled (`_envelope`), and the table in blocks
of grid rows (`_table`); one rule, `_respelled`, re-spells both.
Documents carry no timestamps: identical invocations produce bit-identical
output.  Angles are radians unless ``--degrees`` is given; emitted angles are
always canonicalized radians (theta in [0, pi], phi in [0, 2*pi)) at full
double precision.

Exit codes: 0 on success, 2 on usage errors (the message goes to stderr and
nothing to stdout), 3 when the oracle grid has no feasible point.
"""

from __future__ import annotations

import math
import sys
import textwrap
from typing import Callable, NamedTuple

import numpy as np
import orjson

from . import __version__
from .risk import _STAND_IN
from .simulate import RNG_NAME, SimConfig, simulate
from .solver import (
    MODES,
    InfeasibleGridError,
    NoCollapseError,
    SolverSolution,
    _entropy_grid,
    brute_force_oracle,
    solve,
)
from .spin import Axis, PureState, state_from_amplitudes

_BASES = {"e": math.e, "2": 2.0}
_TOOL_NAME = "spincollapse"
_ABOUT = "Entropy-conserving wavefunction collapse for a single spin-1/2."


# ---------------------------------------------------------------------------
# flag plumbing


class _UsageError(Exception):
    """A bad command line: its message goes to stderr, and the exit code is 2."""


class _Flag(NamedTuple):
    """One row of the flag table.

    `name` keys the parsed values and the ``input`` echo; the flag is typed
    as ``--`` and its words joined by dashes.  `convert` reads the value's
    text, a ValueError making it a usage error; a switch has none, takes no
    value and reads True only when given.
    """

    name: str
    convert: Callable[[str], object] | None
    default: object = None
    required: bool = False
    choices: tuple[str, ...] = ()
    help: str = ""

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")


def _seed(text: str) -> int:
    """A --seed: an integer in [0, 2**64), which the RNG takes and a JSON
    document can echo."""
    seed = int(text)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{seed} is not in the range 0<=x<={2**64 - 1}")
    return seed


_METAVARS = {float: "FLOAT", int: "INTEGER", _seed: "INTEGER", str: "TEXT"}

# Each flag more than one command reads, defined once.  A command lists the
# ones it reads in this order, which is the key order of its ``input`` echo.
_FLAGS = {row.name: row for row in (
    _Flag("rho", float,
          help="Up-outcome probability weight of the state, in [0, 1]."),
    _Flag("tau", float,
          help="Relative phase of the state, 0 if not given (radians unless --degrees)."),
    _Flag("amp_up", str,
          help="Complex up-amplitude literal, e.g. '0.6+0.2j' "
          "(alternative to --rho/--tau; requires --amp-down)."),
    _Flag("amp_down", str, help="Complex down-amplitude literal (requires --amp-up)."),
    _Flag("theta_i", float, required=True,
          help="Colatitude of the measured axis (radians unless --degrees)."),
    _Flag("phi_i", float, 0.0,
          help="Azimuth of the measured axis (radians unless --degrees)."),
    _Flag("degrees", None,
          help="Interpret angle inputs (--theta-i, --phi-i, --tau) as degrees; "
          "output stays in radians."),
    _Flag("mode", str, "strict", choices=MODES,
          help="strict keeps the measured direction; reflective mirrors it "
          "about the state's Bloch vector."),
    _Flag("entropy_base", str, "e", choices=tuple(_BASES),
          help="Logarithm base for reported entropies (never changes minimizers)."),
    _Flag("tol", float, 1e-12,
          help="Eigenstate-detection tolerance on min(p_up, 1 - p_up), in [0, 1/2)."),
    _Flag("out", str, help="Write output to this path instead of stdout."),
)}
_INPUTS = ("rho", "tau", "amp_up", "amp_down", "theta_i", "phi_i", "degrees")
_JSON_FLAGS = (*_INPUTS, "mode", "entropy_base", "tol", "out")

# command name -> (function, its rows in declaration order, flag -> row)
_COMMANDS: dict[str, tuple] = {}


def _command(name: str, *rows):
    """Register a command reading these flags, `_FLAGS` names or rows of its
    own, in the order given."""
    rows = tuple(_FLAGS[row] if isinstance(row, str) else row for row in rows)

    def register(fn):
        _COMMANDS[name] = fn, rows, {row.flag: row for row in rows}
        return fn
    return register


def _parse(argv: list[str], rows, lookup: dict) -> dict | None:
    """The command's flag values, keyed by row name in the rows' order, from
    the argv after its name; None if --help asks for the help instead.

    A value flag takes the text after its ``=`` or else the next token as it
    stands, a leading dash too; the last of a repeated flag wins.
    """
    given, wants_help = {}, False
    tokens = iter(argv)
    for token in tokens:
        name, eq, text = token.partition("=")
        row = lookup.get(name)
        if row is None:
            if token == "--help":
                wants_help = True
                continue
            if token.startswith("-") and token != "--":
                raise _UsageError(f"No such option '{name}'.")
            extra = list(tokens) if token == "--" else [token, *tokens]
            if extra:
                raise _UsageError(f"Got unexpected extra argument ({' '.join(extra)})")
            break  # a "--" that ends the argv
        if row.convert is None:
            if eq:
                raise _UsageError(f"Option '{name}' does not take a value.")
        elif not eq:
            text = next(tokens, None)
            if text is None:
                raise _UsageError(f"Option '{name}' requires an argument.")
        given[row.name] = text
    if wants_help:
        return None
    flags = {}
    for row in rows:
        text = given.get(row.name)
        if row.convert is None:
            flags[row.name] = text is not None
        elif text is None:
            if row.required:
                raise _UsageError(f"Missing option '{row.flag}'.")
            flags[row.name] = row.default
        elif row.choices and text not in row.choices:
            allowed = ", ".join(map(repr, row.choices))
            raise _UsageError(
                f"Invalid value for '{row.flag}': {text!r} is not one of {allowed}.")
        else:
            try:
                flags[row.name] = row.convert(text)
            except ValueError as exc:
                raise _UsageError(f"Invalid value for '{row.flag}': {exc}") from None
    return flags


def _resolve_inputs(flags: dict, rows) -> tuple[PureState, Axis, dict]:
    """Validate the state and then the measured axis, the inputs every
    command reads.

    Returns the state, the axis and the command's ``input`` echo: each flag
    but --out, in declaration order whatever the argv order.  A state flag
    not given (--tau too) echoes None, so every echo replays; a non-finite
    float flag, which no JSON number can echo, is a usage error.
    """
    rho, tau = flags["rho"], flags["tau"]
    amp_up, amp_down = flags["amp_up"], flags["amp_down"]
    angle = math.radians if flags["degrees"] else float
    has_amp = amp_up is not None or amp_down is not None
    if has_amp and (rho is not None or tau is not None):
        raise _UsageError("give either --rho/--tau or --amp-up/--amp-down, not both")
    if has_amp:
        if amp_up is None or amp_down is None:
            raise _UsageError("amplitude input needs both --amp-up and --amp-down")
        state = _guard(
            state_from_amplitudes,
            _parse_complex(amp_up, "--amp-up"),
            _parse_complex(amp_down, "--amp-down"),
        )
    elif rho is None:
        raise _UsageError("state input needs --rho (with optional --tau) "
                          "or both --amp-up and --amp-down")
    else:
        state = _guard(PureState, rho, 0.0 if tau is None else angle(tau))
    axis = _guard(Axis, angle(flags["theta_i"]), angle(flags["phi_i"]))
    echo = {row.name: flags[row.name] for row in rows if row.name != "out"}
    for row in rows:
        value = flags[row.name]
        if isinstance(value, float) and not math.isfinite(value):
            raise _UsageError(f"Invalid value for '{row.flag}': {value!r} is not finite")
    return state, axis, echo


def _help(name: str | None) -> str:
    """The --help text of the command `name`, or of the tool if None."""
    if name is None:
        items = [("--version", "Show the version and exit."),
                 ("--help", "Show this message and exit.")]
        commands = [(key, fn.__doc__.partition("\n")[0]) for key, (fn, _, _) in
                    sorted(_COMMANDS.items())]
        return (f"{_usage(None)}\n\n  {_ABOUT}\n\nOptions:\n{_columns(items)}"
                f"\nCommands:\n{_columns(commands)}")
    fn, rows, _ = _COMMANDS[name]
    first, _, rest = fn.__doc__.partition("\n")
    items = []
    for row in rows:
        term, text = row.flag, row.help
        if row.convert is not None:
            term += " " + ("[" + "|".join(row.choices) + "]" if row.choices
                           else _METAVARS[row.convert])
        if row.required:
            text += "  [required]"
        elif row.default is not None:
            text += f"  [default: {row.default}]"
        items.append((term, text))
    items.append(("--help", "Show this message and exit."))
    about = textwrap.indent((first + "\n" + textwrap.dedent(rest)).rstrip(), "  ")
    return f"{_usage(name)}\n\n{about}\n\nOptions:\n{_columns(items)}"


def _usage(name: str | None) -> str:
    if name is None:
        return f"Usage: {_TOOL_NAME} [OPTIONS] COMMAND [ARGS]..."
    return f"Usage: {_TOOL_NAME} {name} [OPTIONS]"


def _columns(items) -> str:
    """Lines of two columns, the second wrapped to fit 80 characters."""
    width = max(len(term) for term, _ in items)
    lines = []
    for term, text in items:
        first, *more = textwrap.wrap(text, 76 - width, break_on_hyphens=False)
        lines.append(f"  {term:<{width}}  {first}")
        lines += [" " * (width + 4) + line for line in more]
    return "\n".join(lines) + "\n"


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise _UsageError(
            f"{flag} expects a complex literal like '0.5+0.5j', got {text!r}"
        )


def _parse_grid(text: str) -> tuple[int, int]:
    head, sep, tail = text.lower().partition("x")
    try:
        if not sep:
            raise ValueError
        n, m = int(head), int(tail)
    except ValueError:
        raise _UsageError(f"--grid expects NxM (e.g. 400x800), got {text!r}")
    if n < 2 or m < 2:
        raise _UsageError(f"--grid dimensions must be at least 2, got {text!r}")
    return n, m


def _guard(fn, *args, **kwargs):
    """Map domain validation errors onto usage errors (exit code 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# output plumbing


def _solve_results(sol: SolverSolution) -> dict:
    """`solve`'s results, with its `Axis` and `Extremum` dataclasses."""
    return {"no_collapse": sol.no_collapse, "minimizers": sol.minimizers,
            "objective": sol.objective, "extrema": sol.extrema}


def _envelope(command, input_echo, entropy_base, mode, results, warnings) -> str:
    """The command's document, with the bytes of ``json.dumps(doc, indent=2)
    + "\n"``, `simulate`'s `TrajectoryStep` records as their `to_dict`.

    orjson writes it in one call, in that layout, dataclasses as objects of
    their fields in field order, which is `to_dict`'s key order, and floats
    in `repr`'s shortest round-trip digits.  Non-ASCII text and DEL, which
    it writes as they are, are escaped here.  It spells the nonzero
    |x| < 1e-4 and the |x| >= 1e16 otherwise (``0.000015``, ``1e-7``,
    ``1e20``): `_respelled` gets each line holding a ``0.0000`` or an ``e``
    after a digit, which numpy finds, as a str scan would stop at every key.
    It writes a non-finite float as ``null`` (the flags are finite, and
    `cmd_simulate` checks its records) and raises on an integer beyond 64
    bits (the --seed range).
    """
    doc = {
        "tool": {"name": _TOOL_NAME, "version": __version__},
        "command": command,
        "input": input_echo,
        "entropy_base": entropy_base,
        "mode": mode,
        "results": results,
        "warnings": warnings,
    }
    text = orjson.dumps(doc, option=orjson.OPT_INDENT_2 | orjson.OPT_APPEND_NEWLINE).decode()
    if not text.isascii() or "\x7f" in text:
        text = "".join(c if c < "\x7f" else _escaped(c) for c in text)
    codes = np.frombuffer(text.encode(), np.uint8)
    marks = np.flatnonzero((codes[1:] == ord("e")) & (codes[:-1] - ord("0") < 10)).tolist()
    at = text.rfind("0.0000")
    while at != -1:
        marks.append(at)
        at = text.rfind("0.0000", 0, at)
    return _respell_lines(text, sorted(marks))


def _escaped(c: str) -> str:
    """A character as json.dumps escapes it: a surrogate pair above U+FFFF."""
    units = c.encode("utf-16-be")
    return "".join(f"\\u{units[k] << 8 | units[k + 1]:04x}" for k in range(0, len(units), 2))


def _emit(text: str, out: str | None) -> None:
    """Write the text to --out, or else to stdout, flushed; an unwritable
    --out is a usage error."""
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {out!r}: {exc}")


_COLUMNS = ("theta_f", "phi_f", "p_up", "s_f", "constraint_residual", "s_up")
_BLOCK_LINES = 512  # about as many table lines go to one orjson call


def _respelled(line: str) -> str:
    """A line orjson wrote, with `repr`'s spelling for each number holding an
    ``e`` and the ``0.0000...`` of [1e-5, 1e-4).  The numbers of a table
    line are its cells; a document line holds one after its last space if
    it ends in a digit, a comma aside, where a string ends in a quote.
    """
    if not line.rstrip(",")[-1:].isdigit():
        return line
    head, space, cells = line.rpartition(" ")
    return head + space + ",".join(
        repr(float(cell)) if "e" in cell or cell.lstrip("-").startswith("0.0000") else cell
        for cell in cells.split(","))


def _respell_lines(text: str, marks: list[int]) -> str:
    """The text, each line of which ends in a line break, with `_respelled`
    on each line holding one of the ascending positions `marks`."""
    parts, last = [], 0
    for at in marks:
        if at < last:
            continue
        start = text.rfind("\n", 0, at) + 1
        end = text.index("\n", at)
        parts += text[last:start], _respelled(text[start:end])
        last = end
    parts.append(text[last:])
    return "".join(parts)


def _table(thetas, phis, p_up, s_f, residual, s_up, delimiter: str) -> str:
    """The landscape rows, each cell the `repr` of its float, under a header.

    float reprs never hold a delimiter, a quote or a line break, so the rows
    need no CSV quoting.  orjson writes a reused block of whole grid rows,
    about `_BLOCK_LINES` lines, flat in one call, in `repr`'s shortest
    round-trip digits; every 6th comma becomes a line break.  A mask of the
    nonzero |x| < 1e-4 and the |x| >= 1e16, whose notation can differ,
    picks the lines for `_respelled`.  A non-finite cell, written ``null``,
    raises ValueError first.  One block of text at a time keeps the peak
    memory of a large grid near that of a csv writer.
    """
    n_phi = len(phis)
    block = np.empty((max(1, _BLOCK_LINES // n_phi), n_phi, len(_COLUMNS)))
    block[:, :, 1] = phis
    # the lines holding a cell orjson may spell unlike repr
    odd = False
    for magnitude in map(abs, (thetas[:, None], phis, p_up, s_f, residual, s_up)):
        odd = odd | ((magnitude < 1e-4) & (magnitude > 0)) | (magnitude >= 1e16)
    parts = [delimiter.join(_COLUMNS) + "\n"]
    for r0 in range(0, len(thetas), len(block)):
        rows = slice(r0, r0 + len(block))
        cells = block[:len(thetas[rows])]
        cells[:, :, 0] = thetas[rows, None]
        for k, column in enumerate((p_up, s_f, residual, s_up), 2):
            cells[:, :, k] = column[rows]
        raw = bytearray(orjson.dumps(cells.reshape(-1), option=orjson.OPT_SERIALIZE_NUMPY))
        codes = np.frombuffer(raw, np.uint8)
        commas = np.flatnonzero(codes == ord(","))
        codes[commas[5::6]] = codes[-1] = ord("\n")
        text = raw[1:].decode()
        if "n" in text:  # a "null": no float spelling holds an n
            row = r0 + text.count("\n", 0, text.index("n")) // n_phi
            raise ValueError(f"landscape row theta_f={thetas.item(row)!r} has a non-finite cell")
        # a mark in each flagged line: its first comma, less the "[" cut off
        flagged = np.flatnonzero(odd[rows])
        text = _respell_lines(text, (commas[6 * flagged] - 1).tolist())
        parts.append(text if delimiter == "," else text.replace(",", delimiter))
    return "".join(parts)


# ---------------------------------------------------------------------------
# commands


def main(args: list[str] | None = None, standalone_mode: bool = True) -> int:
    """Run the command line `args` (``sys.argv[1:]`` if None) and return its
    exit code, or exit with it when `standalone_mode`.

    A usage error writes its message to stderr and nothing to stdout, and
    returns 2; any other exception propagates.
    """
    argv = sys.argv[1:] if args is None else list(args)
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    try:
        code = _run(name, argv)
    except _UsageError as exc:
        prog = _TOOL_NAME if name is None else f"{_TOOL_NAME} {name}"
        sys.stderr.write(f"{_usage(name)}\nTry '{prog} --help' for help.\n\nError: {exc}\n")
        code = 2
    if standalone_mode:
        sys.exit(code)
    return code


# `main.main(args, standalone_mode=False)` is the click-era spelling of this
# call; its one remaining caller is `Cli.run` in `perfbench/workloads.py`,
# and ROADMAP item 1 moves that to `main(args)` and deletes this alias
main.main = main


def _run(name: str | None, argv: list[str]) -> int:
    """The exit code of `argv`, whose first token is the command `name`, or
    names no command if that is None."""
    if name is None:
        if not argv:
            sys.stderr.write(_help(None))
            return 2
        if argv[0] == "--help":
            sys.stdout.write(_help(None))
        elif argv[0] == "--version":
            sys.stdout.write(f"{_TOOL_NAME}, version {__version__}\n")
        elif argv[0].startswith("-"):
            raise _UsageError(f"No such option '{argv[0]}'.")
        else:
            raise _UsageError(f"No such command '{argv[0]}'.")
        return 0
    fn, rows, lookup = _COMMANDS[name]
    flags = _parse(argv[1:], rows, lookup)
    if flags is None:
        sys.stdout.write(_help(name))
        return 0
    state, axis, echo = _resolve_inputs(flags, rows)
    return fn(state, axis, echo, **flags)


@_command("solve", *_JSON_FLAGS)
def cmd_solve(state, axis, echo, mode, entropy_base, tol, out, **_) -> int:
    """Minimize the transfer entropy over entropy-conserving axes."""
    sol = _guard(solve, state, axis, mode, base=_BASES[entropy_base], eigen_tol=tol)
    _emit(_envelope("solve", echo, entropy_base, mode, _solve_results(sol), []), out)
    return 0


@_command(
    "landscape", *_INPUTS, "entropy_base", "out",
    _Flag("format", str, "csv", choices=("csv", "tsv"), help="Output format."),
    _Flag("grid", str, "200x400", help="Scan resolution NxM (theta rows x phi columns)."),
)
def cmd_landscape(state, axis_i, _echo, entropy_base, out, format, grid, **_) -> int:
    """Tabulate p_up, entropies, and the constraint residual over a grid.

    Columns: theta_f, phi_f, p_up, s_f, constraint_residual, s_up.  The
    surfaces depend on neither the selection mode nor the eigenstate
    tolerance, so the command takes no --mode and no --tol.
    """
    delimiter = "\t" if format == "tsv" else ","
    n_theta, n_phi = _parse_grid(grid)
    grids = _entropy_grid(state, axis_i, n_theta, n_phi, _BASES[entropy_base])
    _emit(_table(*grids, delimiter), out)
    return 0


@_command(
    "oracle", *_JSON_FLAGS,
    _Flag("grid", str, "400x800",
          help="Search resolution NxM (theta rows x phi columns), each >= 8."),
    _Flag("constraint_tol", float, 5e-3,
          help="Feasibility band on |s_f - s_i| for grid points."),
    _Flag("exclude_trivial", float,
          help="Drop grid points within this angular radius of the "
          "measured axis and its antipode."),
)
def cmd_oracle(state, axis_i, echo, mode, entropy_base, tol, out, grid, constraint_tol,
               exclude_trivial, **_) -> int:
    """Brute-force grid search reported beside the closed-form solver."""
    grid_dims = _parse_grid(grid)
    base = _BASES[entropy_base]
    warnings = []
    if exclude_trivial is not None:
        warnings.append(
            "excluding a neighborhood of the trivial directions can place the "
            "grid minimum on the exclusion boundary rather than at an interior "
            "critical point"
        )

    try:
        # runs before `solve`, so the grid flags are checked before --tol
        # and before the oracle's own eigenstate check
        axis_o, obj_o = _guard(
            brute_force_oracle, state, axis_i,
            grid=grid_dims, constraint_tol=constraint_tol,
            exclude=exclude_trivial, base=base, eigen_tol=tol,
        )
    except NoCollapseError:
        oracle = {"no_collapse": True}
    except InfeasibleGridError as exc:
        oracle = {"error": "infeasible-grid", "message": str(exc)}
    else:
        oracle = {"no_collapse": False, "axis": axis_o, "objective": obj_o}
    sol = _guard(solve, state, axis_i, mode, base=base, eigen_tol=tol)
    discrepancy = oracle["objective"] - sol.objective if "objective" in oracle else None
    results = {
        "no_collapse": sol.no_collapse,
        "solver": _solve_results(sol),
        "oracle": oracle,
        "discrepancy": discrepancy,
    }
    _emit(_envelope("oracle", echo, entropy_base, mode, results, warnings), out)
    return 3 if "error" in oracle else 0


@_command(
    "simulate", *_JSON_FLAGS,
    _Flag("steps", int, required=True, help="Number of measurements (>= 1)."),
    _Flag("outcome", str, "risk:born-surprise",
          help="Outcome rule: 'born' (seeded sampling) or 'risk:<name>'."),
    _Flag("seed", _seed, help="RNG seed; required when --outcome born."),
)
def cmd_simulate(state, axis_i, echo, mode, entropy_base, tol, out, steps, outcome, seed,
                 **_) -> int:
    """Run a measurement trajectory and emit every step."""
    config = _guard(
        SimConfig, steps=steps, mode=mode, outcome=outcome, seed=seed,
        entropy_base=_BASES[entropy_base], eigen_tol=tol,
    )
    trajectory = simulate(state, axis_i, config)
    risk = config._risk
    warnings = []
    if risk is not None:
        warnings.append(f"risk function {risk!r} is an {_STAND_IN}")
    results = {"rng": RNG_NAME if risk is None else None, "trajectory": trajectory}
    text = _envelope("simulate", echo, entropy_base, mode, results, warnings)
    # a non-finite float is written null, which no record holds (rfind: faster)
    if text.rfind("null", text.index('"trajectory"'), text.rindex('"warnings"')) != -1:
        raise ValueError("a trajectory record holds a non-finite value")
    _emit(text, out)
    return 0


if __name__ == "__main__":
    main()
