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
for external plotting, each cell the `repr` of its float, written by orjson
one grid row at a time, and by `repr` on the lines a mask of the numbers
flags (`_table`); only ``landscape`` imports orjson.
A document is exactly ``json.dumps(doc, indent=2) + "\n"``, ASCII only;
the trajectory records of ``simulate`` come from one template
(`_write_records`), with the same bytes.
Documents carry no timestamps: identical invocations produce bit-identical
output.  Angles are radians unless ``--degrees`` is given; emitted angles are
always canonicalized radians (theta in [0, pi], phi in [0, 2*pi)) at full
double precision.

Exit codes: 0 on success, 2 on usage errors, 3 when the oracle grid has no
feasible point.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace

import click

from . import __version__
from .simulate import RNG_NAME, SimConfig, TrajectoryStep, simulate
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
    not given (--tau too) echoes None, so every echo replays.
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


def _axis_dict(a: Axis) -> dict:
    return {"theta": a.theta, "phi": a.phi}


def _solve_results(sol: SolverSolution) -> dict:
    return {
        "no_collapse": sol.no_collapse,
        "minimizers": [_axis_dict(a) for a in sol.minimizers],
        "objective": sol.objective,
        "extrema": [
            {"axis": _axis_dict(e.axis), "value": e.value, "kind": e.kind}
            for e in sol.extrema
        ],
    }


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float(value: float) -> str:
    """A float as `json` writes it: its `__repr__`, which ends in a digit
    when finite, with nan, inf and -inf as NaN, Infinity and -Infinity."""
    text = float.__repr__(value)
    return _NON_FINITE[text] if text[-1] in "nf" else text


# a record's line break and indent in the "trajectory" list of `simulate`'s
# envelope, which is the value of "results" (indent 2) in the document
_RECORD_LINE = "\n      "


def _record_template() -> str:
    """One trajectory record as ``json.dumps(doc, indent=2)`` writes its
    `to_dict` document in `simulate`'s envelope, with ``%s`` in place of
    each value, in the order `to_dict` reads them."""
    slot = "%s"
    pair = SimpleNamespace(rho=slot, tau=slot, theta=slot, phi=slot)
    # a stand-in `self` with the record's attributes, so no record is built
    # outside `simulate._walk`
    marker = SimpleNamespace(
        index=slot, state_before=pair, axis_measured=pair, p_up=slot, s=slot,
        state_after=pair, axis_next=pair, s_i=slot, s_up_next=slot, no_collapse=slot,
    )
    text = json.dumps(TrajectoryStep.to_dict(marker), indent=2)
    return text.replace(json.dumps(slot), slot).replace("\n", _RECORD_LINE)


_RECORD = _record_template()


def _write_records(records: list[TrajectoryStep]) -> str:
    """The "trajectory" list of `simulate`'s envelope: the bytes of
    ``json.dumps([ts.to_dict() for ts in records], indent=2)`` at that
    list's indent, each record one `_RECORD` filled with its values.  A
    run has at least one record (`SimConfig` requires ``steps >= 1``).

    A state or axis is formatted once: a record whose `state_before` (or
    `axis_measured`) is the previous record's `state_after` (`axis_next`)
    takes that record's strings, and a no-collapse record, whose
    `state_after` and `axis_next` are its `state_before` and
    `axis_measured`, takes its own.  Identity decides, not equality, so an
    equal state or axis in a distinct object is formatted anew.
    """
    parts = []
    # the previous record's state and axis; no record holds None
    after = axis = None
    for ts in records:
        state, measured = ts.state_before, ts.axis_measured
        if state is not after:  # else rho_a, tau_a already hold its strings
            rho_a, tau_a = _float(state.rho), _float(state.tau)
        rho_b, tau_b = rho_a, tau_a
        if measured is not axis:
            theta_n, phi_n = _float(measured.theta), _float(measured.phi)
        theta_m, phi_m = theta_n, phi_n
        after, axis = ts.state_after, ts.axis_next
        if after is not state:
            rho_a, tau_a = _float(after.rho), _float(after.tau)
        if axis is not measured:
            theta_n, phi_n = _float(axis.theta), _float(axis.phi)
        parts.append(_RECORD % (
            ts.index, rho_b, tau_b, theta_m, phi_m, _float(ts.p_up), ts.s, rho_a,
            tau_a, theta_n, phi_n, _float(ts.s_i), _float(ts.s_up_next),
            "true" if ts.no_collapse else "false",
        ))
    return "[" + _RECORD_LINE + ("," + _RECORD_LINE).join(parts) + "\n    ]"


def _envelope(command, input_echo, entropy_base, mode, results, warnings) -> str:
    doc = {
        "tool": {"name": _TOOL_NAME, "version": __version__},
        "command": command,
        "input": input_echo,
        "entropy_base": entropy_base,
        "mode": mode,
        "results": results,
        "warnings": warnings,
    }
    return json.dumps(doc, indent=2) + "\n"


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


def _respelled(line: str) -> str:
    """A line of orjson cells, its exponents and the ``0.0000...`` of
    [1e-5, 1e-4) re-spelled by `repr`."""
    return ",".join(repr(float(cell)) if "e" in cell or cell.lstrip("-").startswith("0.0000")
                    else cell for cell in line.split(","))


def _table(thetas, phis, p_up, s_f, residual, s_up, delimiter: str) -> str:
    """The landscape rows, each cell the `repr` of its float, under a header.

    float reprs never hold a delimiter, a quote or a line break, so the rows
    need no CSV quoting.  Each grid row is one ``(n_phi, 6)`` block that
    orjson writes in one call as ``[[a,b,...],[...]]``, with the shortest
    round-trip digits, which are `repr`'s.  Only the notation can differ,
    for the nonzero |x| < 1e-4 and the |x| >= 1e16: a mask of them picks the
    lines `_respelled` gives `repr`'s spelling.  orjson writes a non-finite
    cell as ``null``, which raises ValueError first.  One row of text at a
    time keeps the peak memory of a large grid near that of a csv writer.
    """
    import orjson  # only landscape pays for its import

    # every column starts as phi_f; each row writes the other five
    block = phis.repeat(len(_COLUMNS)).reshape(len(phis), len(_COLUMNS))
    columns = block.T
    # the lines holding a cell orjson may spell unlike repr
    odd = False
    for magnitude in map(abs, (thetas[:, None], phis, p_up, s_f, residual, s_up)):
        odd = odd | ((magnitude < 1e-4) & (magnitude > 0)) | (magnitude >= 1e16)
    rows = [delimiter.join(_COLUMNS)]
    for theta, respell, *cells in zip(thetas.tolist(), odd, p_up, s_f, residual, s_up):
        columns[0] = theta
        columns[2:] = cells
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        if "n" in text:  # a "null": no float spelling holds an n
            raise ValueError(f"landscape row theta_f={theta!r} has a non-finite cell")
        lines = text[2:-2].split("],[")
        for j in respell.nonzero()[0].tolist():
            lines[j] = _respelled(lines[j])
        text = "\n".join(lines)
        rows.append(text if delimiter == "," else text.replace(",", delimiter))
    rows.append("")
    return "\n".join(rows)


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
        oracle = {"no_collapse": False, "axis": _axis_dict(axis_o), "objective": obj_o}
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
@click.option("--seed", type=int, default=None,
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
    results = {"rng": RNG_NAME if risk is None else None, "trajectory": []}
    text = _envelope("simulate", echo, entropy_base, mode, results, warnings)
    # the first "trajectory" key is the results' own: the echo holds no such
    # key, and inside a JSON string every quote is escaped
    records = '"trajectory": ' + _write_records(trajectory)
    _emit(text.replace('"trajectory": []', records, 1), out)


if __name__ == "__main__":
    main()
