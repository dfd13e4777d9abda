"""Outcome rules for deterministic trajectory simulation.

After the solver proposes the next measurement axis n_f, the simulator needs
a collapse outcome s in {+1, -1}.  The sampling route draws s from the Born
distribution; a risk rule (`outcome="risk:<name>"`) instead picks the s of
lower risk, ties to +1, making the whole trajectory deterministic and
replayable.  No particular risk functional is singled out by the collapse
model itself, so the builtins are explicitly labelled illustrative
stand-ins:
- constant: 0.0 for both outcomes;
- born-surprise: -log of the outcome's Born probability on the measured
  axis, +inf for a certain loss;
- alignment: -s (n_f . m), against a collapsed spin s n_f that points away
  from the Bloch vector m.

Each rule is kept as its outcome in closed form: the s it picks in a
collapsing step, from the step's Born weight p, Bloch vector m and
candidate unit vector n_f.  `tests/helpers.py` holds the rules' values and
the generic minimize-the-risk selection, the reference the closed forms are
tested against.
"""

import math

_STAND_IN = "illustrative stand-in: the collapse model does not prescribe one"

# each builtin rule's outcome in a collapsing step, called by `_walk` as
# pick(p, m, *n_f)
_OUTCOMES = {
    # both risks are 0.0, and the tie goes to +1
    "constant": lambda p, m, nx, ny, nz: 1,
    # -1 iff -log(1 - p) < -log(p); a collapsing step has 0 < p < 1, so
    # neither risk is +inf or NaN
    "born-surprise": lambda p, m, nx, ny, nz: -1 if math.log(p) < math.log(1.0 - p) else 1,
    # the risks are -d and d for d = n_f . m, summed as `spin._dot3` does, so
    # -1 iff d < 0.0; d = -0.0 ties and picks +1
    "alignment": lambda p, m, nx, ny, nz: -1 if nx * m[0] + ny * m[1] + nz * m[2] < 0.0 else 1,
}
