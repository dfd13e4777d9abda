"""Command-line interface: entropy-conserving collapse from a shell.

Four subcommands:

* ``solve``      -- closed-form constrained minimization for one (state, axis).
* ``landscape``  -- tabular scan of the entropy surfaces over a (theta, phi) grid.
* ``oracle``     -- brute-force grid search reported side by side with the solver.
* ``simulate``   -- multi-step measurement trajectory, deterministic or Born-sampled.

Each takes only the flags it reads, from one table: all four take the state
and axis inputs, ``--entropy-base`` and ``--out``.  ``solve``/``oracle``/
``simulate`` add ``--mode`` and ``--tol`` and emit a single structured JSON
document that echoes every input flag, so any output can be re-run from its
own ``input`` block;
``landscape`` adds ``--format csv|tsv`` and emits delimiter-separated rows
for external plotting, each cell the `repr` of its float.
orjson writes every document: a JSON document in one call, exactly
``json.dumps(doc, indent=2) + "\n"``, ASCII only, once the few numbers it
spells unlike `repr` are re-spelled (`_envelope`), and the table in blocks
of grid rows (`_table`); one rule, `_respelled`, re-spells both.
Documents carry no timestamps: identical invocations produce bit-identical
output.  Angles are radians unless ``--degrees`` is given; emitted angles are
always canonicalized radians (theta in [0, pi], phi in [0, 2*pi)) at full
double precision.

Exit codes: 0 on success, 2 on usage errors, 3 when the oracle grid has no
feasible point.
"""

from __future__ import annotations

import math
import sys

import click
import numpy as np
import orjson

from . import __version__
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


# ---------------------------------------------------------------------------
# flag plumbing


# Each flag more than one command reads, defined once.  A command lists the
# ones it reads in this order, which is the key order of its ``input`` echo.
_FLAGS = {
    "rho": click.option(
        "--rho",
        type=float,
        default=None,
        help="Up-outcome probability weight of the state, in [0, 1].",
    ),
    "tau": click.option(
        "--tau",
        type=float,
        default=None,
        help="Relative phase of the state, 0 if not given (radians unless --degrees).",
    ),
    "amp_up": click.option(
        "--amp-up",
        default=None,
        help="Complex up-amplitude literal, e.g. '0.6+0.2j' "
        "(alternative to --rho/--tau; requires --amp-down).",
    ),
    "amp_down": click.option(
        "--amp-down",
        default=None,
        help="Complex down-amplitude literal (requires --amp-up).",
    ),
    "theta_i": click.option(
        "--theta-i",
        type=float,
        required=True,
        help="Colatitude of the measured axis (radians unless --degrees).",
    ),
    "phi_i": click.option(
        "--phi-i",
        type=float,
        default=0.0,
        show_default=True,
        help="Azimuth of the measured axis (radians unless --degrees).",
    ),
    "degrees": click.option(
        "--degrees",
        is_flag=True,
        help="Interpret angle inputs (--theta-i, --phi-i, --tau) as degrees; "
        "output stays in radians.",
    ),
    "mode": click.option(
        "--mode",
        type=click.Choice(MODES),
        default="strict",
        show_default=True,
        help="strict keeps the measured direction; reflective mirrors it "
        "about the state's Bloch vector.",
    ),
    "entropy_base": click.option(
        "--entropy-base",
        type=click.Choice(["e", "2"]),
        default="e",
        show_default=True,
        help="Logarithm base for reported entropies (never changes minimizers).",
    ),
    "tol": click.option(
        "--tol",
        type=float,
        default=1e-12,
        show_default=True,
        help="Eigenstate-detection tolerance on min(p_up, 1 - p_up), in [0, 1/2).",
    ),
    "out": click.option(
        "--out",
        default=None,
        help="Write output to this path instead of stdout.",
    ),
}
_INPUTS = ("rho", "tau", "amp_up", "amp_down", "theta_i", "phi_i", "degrees")
_JSON_FLAGS = (*_INPUTS, "mode", "entropy_base", "tol", "out")


def _flags(*names):
    """Attach the named `_FLAGS` to a command, in the order given."""
    def decorate(f):
        for name in reversed(names):
            f = _FLAGS[name](f)
        return f
    return decorate


def _resolve_inputs() -> tuple[PureState, Axis, dict]:
    """Validate the state and then the measured axis, the inputs every
    command reads.

    Returns the state, the axis and the command's ``input`` echo: each flag
    but --out, in declaration order whatever the argv order.  A state flag
    not given (--tau too) echoes None, so every echo replays; a non-finite
    float flag, which no JSON number can echo, is a usage error.
    """
    ctx = click.get_current_context()
    flags = ctx.params
    rho, tau = flags["rho"], flags["tau"]
    amp_up, amp_down = flags["amp_up"], flags["amp_down"]
    angle = math.radians if flags["degrees"] else float
    has_amp = amp_up is not None or amp_down is not None
    if has_amp and (rho is not None or tau is not None):
        raise click.UsageError("give either --rho/--tau or --amp-up/--amp-down, not both")
    if has_amp:
        if amp_up is None or amp_down is None:
            raise click.UsageError("amplitude input needs both --amp-up and --amp-down")
        state = _guard(
            state_from_amplitudes,
            _parse_complex(amp_up, "--amp-up"),
            _parse_complex(amp_down, "--amp-down"),
        )
    elif rho is None:
        raise click.UsageError("state input needs --rho (with optional --tau) "
                               "or both --amp-up and --amp-down")
    else:
        state = _guard(PureState, rho, 0.0 if tau is None else angle(tau))
    axis = _guard(Axis, angle(flags["theta_i"]), angle(flags["phi_i"]))
    echo = {p.name: flags[p.name] for p in ctx.command.params if p.name != "out"}
    for p in ctx.command.params:
        if isinstance(flags[p.name], float) and not math.isfinite(flags[p.name]):
            raise click.BadParameter(f"{flags[p.name]!r} is not finite", param=p)
    return state, axis, echo


def _parse_complex(text: str, flag: str) -> complex:
    try:
        return complex(text.strip().replace(" ", ""))
    except ValueError:
        raise click.UsageError(
            f"{flag} expects a complex literal like '0.5+0.5j', got {text!r}"
        )


def _parse_grid(text: str) -> tuple[int, int]:
    head, sep, tail = text.lower().partition("x")
    try:
        if not sep:
            raise ValueError
        n, m = int(head), int(tail)
    except ValueError:
        raise click.UsageError(f"--grid expects NxM (e.g. 400x800), got {text!r}")
    if n < 2 or m < 2:
        raise click.UsageError(f"--grid dimensions must be at least 2, got {text!r}")
    return n, m


def _guard(fn, *args, **kwargs):
    """Map domain validation errors onto usage errors (exit code 2)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


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
    """Write the text to --out, or else to stdout; `click.echo` would run an
    ANSI-strip regex over it off a terminal, and no document holds an ESC."""
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write --out {out!r}: {exc}")


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


@click.group()
@click.version_option(__version__, prog_name=_TOOL_NAME)
def main() -> None:
    """Entropy-conserving wavefunction collapse for a single spin-1/2."""


@main.command("solve")
@_flags(*_JSON_FLAGS)
def cmd_solve(mode, entropy_base, tol, out, **_):
    """Minimize the transfer entropy over entropy-conserving axes."""
    state, axis, echo = _resolve_inputs()
    sol = _guard(solve, state, axis, mode, base=_BASES[entropy_base], eigen_tol=tol)
    _emit(_envelope("solve", echo, entropy_base, mode, _solve_results(sol), []), out)


@main.command("landscape")
@_flags(*_INPUTS, "entropy_base", "out")
@click.option("--format", "fmt", type=click.Choice(["csv", "tsv"]), default="csv",
              show_default=True, help="Output format.")
@click.option("--grid", default="200x400", show_default=True,
              help="Scan resolution NxM (theta rows x phi columns).")
def cmd_landscape(entropy_base, out, fmt, grid, **_):
    """Tabulate p_up, entropies, and the constraint residual over a grid.

    Columns: theta_f, phi_f, p_up, s_f, constraint_residual, s_up.  The
    surfaces depend on neither the selection mode nor the eigenstate
    tolerance, so the command takes no --mode and no --tol.
    """
    state, axis_i, _echo = _resolve_inputs()
    delimiter = "\t" if fmt == "tsv" else ","
    n_theta, n_phi = _parse_grid(grid)
    grids = _entropy_grid(state, axis_i, n_theta, n_phi, _BASES[entropy_base])
    _emit(_table(*grids, delimiter), out)


@main.command("oracle")
@_flags(*_JSON_FLAGS)
@click.option("--grid", default="400x800", show_default=True,
              help="Search resolution NxM (theta rows x phi columns), each >= 8.")
@click.option("--constraint-tol", type=float, default=5e-3, show_default=True,
              help="Feasibility band on |s_f - s_i| for grid points.")
@click.option("--exclude-trivial", type=float, default=None,
              help="Drop grid points within this angular radius of the "
              "measured axis and its antipode.")
def cmd_oracle(mode, entropy_base, tol, out, grid, constraint_tol, exclude_trivial, **_):
    """Brute-force grid search reported beside the closed-form solver."""
    state, axis_i, echo = _resolve_inputs()
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
    if "error" in oracle:
        sys.exit(3)


@main.command("simulate")
@_flags(*_JSON_FLAGS)
@click.option("--steps", type=int, required=True, help="Number of measurements (>= 1).")
@click.option("--outcome", default="risk:born-surprise", show_default=True,
              help="Outcome rule: 'born' (seeded sampling) or 'risk:<name>'.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=None,
              help="RNG seed; required when --outcome born.")
def cmd_simulate(mode, entropy_base, tol, out, steps, outcome, seed, **_):
    """Run a measurement trajectory and emit every step."""
    state, axis_i, echo = _resolve_inputs()
    config = _guard(
        SimConfig, steps=steps, mode=mode, outcome=outcome, seed=seed,
        entropy_base=_BASES[entropy_base], eigen_tol=tol,
    )
    trajectory = simulate(state, axis_i, config)
    risk = config._risk
    warnings = []
    if risk is not None:
        warnings.append(f"risk function {risk.name!r} is an {risk.note}")
    results = {"rng": RNG_NAME if risk is None else None, "trajectory": trajectory}
    text = _envelope("simulate", echo, entropy_base, mode, results, warnings)
    # a non-finite float is written null, which no record holds (rfind: faster)
    if text.rfind("null", text.index('"trajectory"'), text.rindex('"warnings"')) != -1:
        raise ValueError("a trajectory record holds a non-finite value")
    _emit(text, out)


if __name__ == "__main__":
    main()
