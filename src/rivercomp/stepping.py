"""Semi-implicit time integration and outcome classification.

One step treats transport implicitly and the growth law explicitly:

    (I - dt L1) u' = u + dt R_u(u, v)
    (I - dt L2) v' = v + dt R_v(u, v).

I - dt L has unit column sums and nonpositive off-diagonals, so its
inverse is entrywise nonnegative at any dt: the implicit half preserves
positivity unconditionally.  The explicit half keeps u + dt R_u >= 0 as
long as dt stays below 1/max(growth rate) on states of realistic size,
which is where the dt cap comes from: ``max_stable_dt`` is 0.9 over the
largest net per-capita growth rate r·(1 - mu), the same number in the
folded and the raw form, and a run given no dt takes the cap or 0.1,
whichever is smaller (``default_dt``).  Within that envelope every step
maps nonnegative states to nonnegative states and changes total mass by
exactly dt times the integrated reaction (the transport columns sum to
zero).

The stepper owns both species' state, one stacked (2, n) array kept in
the coordinates its implicit solve works in: z = S⁻¹·[u; v] for the
solve's positive diagonal S (the symmetrizer along x, tiled over the
y-modes in 2-D, or the identity; see ``linsolve.StepSolve``).  A step
is four passes that write S⁻¹·(w + dt·R(w)) over the state (see
``Stepper``), one solve of the stacked system, written over the state,
and one clamp check on the smallest entry of z, selected by index.  The
fields, S·z, are formed only when ``integrate`` samples or snapshots
them.
``model.reaction`` and ``model.raw_reaction`` stay as the oracles the
fused pass matches to rounding.

Trajectories record sup-norms and masses at a fixed sample cadence, plus
full snapshots at requested times; the classifier turns the recorded
norm histories into one of five qualitative outcomes.  ``integrate``
works out its events before it steps: every sample step, the last step,
and for each snapshot time t the first step k with k·dt >= t - 1e-12.
Between two events it calls ``Stepper.advance`` for the steps in
between, one loop with everything a step reads bound to locals, and it
reads the fields only at an event.  The steps run the same operations
in the same order however they are grouped, so a run's output does not
depend on its sample cadence or snapshot times.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError
from .grid import Grid
from .linsolve import implicit_solver
from .model import EffectiveParams, ModelParams
# The fused step calls neither, but perfbench/spans.py patches both names
# on this module by attribute, so they stay importable from here.
from .model import raw_reaction, reaction  # noqa: F401
from .operators import TransportOperator

__all__ = [
    "Verdict",
    "Outcome",
    "Trajectory",
    "Stepper",
    "integrate",
    "classify_outcome",
    "max_stable_dt",
    "default_dt",
    "CLAMP_TOLERANCE",
    "EPS_SETTLE",
]

# Values in (-CLAMP_TOLERANCE, 0) are treated as rounding noise and zeroed
# silently; anything below it is a genuine positivity violation and counts
# as a clamp event.
CLAMP_TOLERANCE = 1e-13
# Default relative change below which a norm history counts as settled.
EPS_SETTLE = 1e-4


class Verdict(str, enum.Enum):
    U_WINS = "UWins"
    V_WINS = "VWins"
    COEXISTENCE = "Coexistence"
    BOTH_EXTINCT = "BothExtinct"
    UNDECIDED = "Undecided"


@dataclass
class Outcome:
    verdict: Verdict
    final_norm_u: float
    final_norm_v: float
    eps_extinct: float
    eps_settle: float
    settled: bool


@dataclass
class Trajectory:
    grid: Grid
    dt: float
    times: np.ndarray
    norm_u_inf: np.ndarray
    norm_v_inf: np.ndarray
    mass_u: np.ndarray
    mass_v: np.ndarray
    snapshots: dict[float, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    clamp_events: int = 0
    implicit_solve: str | None = None  # the stepper's ``implicit_solve``


def max_stable_dt(growth: np.ndarray) -> float:
    """Largest dt the explicit growth half tolerates with headroom 0.9.

    ``growth`` holds net per-capita growth rates, of any shape; the cap is
    0.9 / max(growth).  Folding equal harvest into the growth law gives
    the same equations as the raw form, so both forms pass r·(1 - mu) and
    the binding rate is max r·(1 - min(mu1, mu2)) either way.
    """
    rate = float(np.max(growth))
    if rate <= 0.0:
        raise ConfigError("growth rate must be positive")
    return 0.9 / rate


def default_dt(growth: np.ndarray) -> float:
    """The step a run takes when none is given: the cap, at most 0.1."""
    return min(max_stable_dt(growth), 0.1)


class Stepper:
    """Factored IMEX stepper for one parameter set on one grid.

    ``form`` chooses the reaction evaluation: "folded" uses the
    harvest-folded coefficients (requires equal harvest fractions),
    "raw" evaluates growth minus harvest literally and also covers
    unequal fractions.

    The stepper owns its state: ``start(u0, v0)`` sets it,
    ``advance(steps)`` runs that many steps of dt in one loop (``step()``
    is ``advance(1)``) and ``fields()`` returns it as the fields (u, v).
    It keeps the state as z = S⁻¹·w for the stacked fields w = [u; v] and
    the diagonal S = diag(s) its implicit solve works in, in either
    dimension (the solve's ``scale``; see the module docstring).  The
    explicit half evaluates both species' reactions together, straight
    into the state:

        z·(a - g),   g = (b·s_u)·z_u + (b·s_v)·z_v,
        a = 1 + dt·rate·(1 - mu_s),   b = dt·rate/cap,

    which is S⁻¹·(w + dt·((rate·w)·(1 - (u + v)/cap) - mu_s·rate·w))
    regrouped: four passes, with b·s formed once.  The folded form has
    rate = r·r1, cap = K1 and no harvest term (a, and so a - g, is one
    (n,) row for both species); the raw form has rate = r, cap = K and
    a = [1 + dt·r·(1 - mu1); 1 + dt·r·(1 - mu2)].  The regrouping rounds
    differently from ``model.reaction`` and ``model.raw_reaction``, which
    stay as its oracles: the two agree to a few ε relative to each term
    (see the tests).

    The implicit half of both species is one block-diagonal system,
    I - dt·blockdiag(L1, L2), factored once here (its factor's kind is
    ``implicit_solve``) and solved in z.  Since s > 0, z ≥ 0 exactly
    where w ≥ 0: the clamp zeroes negative z and counts the entries below
    -``CLAMP_TOLERANCE`` in field units, z < -``CLAMP_TOLERANCE``/s.  The
    step agrees with solving the two species apart to rounding; the
    drift-dominated 1-D fallback, one stacked tridiagonal system, solves
    each species bitwise as solving them apart would.
    """

    def __init__(
        self,
        op1: TransportOperator,
        op2: TransportOperator,
        params: ModelParams,
        eff: EffectiveParams,
        dt: float | None = None,
        form: str = "folded",
    ):
        if op1.grid is not op2.grid and op1.grid != op2.grid:
            raise ConfigError("both species must share one grid")
        if form not in ("folded", "raw"):
            raise ConfigError(f"unknown reaction form {form!r}")
        if form == "folded" and not params.equal_harvest:
            raise ConfigError("the folded reaction form needs mu1 == mu2; use form='raw'")
        self.grid = op1.grid
        if form == "folded":
            rate, cap, keep = eff.rr1, eff.K1, 1.0
        else:
            rate, cap = eff.r, eff.K
            keep = np.array([[1.0 - params.mu1], [1.0 - params.mu2]])
        if dt is None:
            dt = default_dt(rate * keep)
        if dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {dt}")
        self.dt = float(dt)
        self.clamp_events = 0
        self._solve = implicit_solver((op1, op2), self.dt)
        self.implicit_solve = self._solve.name
        n = self.grid.size
        self._scale = np.broadcast_to(self._solve.scale, (2 * n,)).reshape(2, n)
        self._growth = 1.0 + self.dt * rate * keep
        self._crowding = (self.dt * rate / cap) * self._scale
        self._floor = (-CLAMP_TOLERANCE / self._scale).ravel()
        self._z = np.zeros(2 * n)
        self._rows = self._z.reshape(2, n)
        self._work = np.empty((2, n))
        self._work_rows = tuple(self._work)
        self._sum = np.empty(n)
        self._diff = np.empty(np.broadcast_shapes(self._growth.shape, (n,)))  # a - g

    # -- the state ---------------------------------------------------------

    def start(self, u0: np.ndarray, v0: np.ndarray) -> None:
        """Take the finite, nonnegative fields (u0, v0) on the grid as the state."""
        w = [np.asarray(x, dtype=float) for x in (u0, v0)]
        if any(x.shape != (self.grid.size,) for x in w):
            raise ConfigError("initial data does not match the grid")
        if not all(np.isfinite(x).all() for x in w):
            raise ConfigError("initial data must be finite")
        if any((x < 0.0).any() for x in w):
            raise ConfigError("initial data must be nonnegative")
        np.divide(w, self._scale, out=self._rows)

    def step(self) -> None:
        """Advance the state by dt: ``advance(1)``."""
        self.advance(1)

    def advance(self, steps: int) -> None:
        """Advance the state by ``steps`` steps of dt; clamps and counts negative output.

        Everything a step reads is bound to a local once per call, so the
        loop reads no attribute; the solve writes over the state, and the
        clamp count is written back when the loop ends.
        """
        z, rows, work, g, diff = self._z, self._rows, self._work, self._sum, self._diff
        g_u, g_v = self._work_rows
        crowding, growth, floor = self._crowding, self._growth, self._floor
        solve = self._solve.solve
        multiply, add, subtract, maximum = np.multiply, np.add, np.subtract, np.maximum
        count_nonzero = np.count_nonzero
        clamps = 0
        try:
            for _ in range(steps):
                multiply(crowding, rows, work)
                add(g_u, g_v, g)
                subtract(growth, g, diff)
                multiply(rows, diff, rows)
                solve(z)
                # The smallest entry, selected by index: the element a min
                # reduction returns, NaN included, at about a third of its
                # cost on a 1-D state; a zero of either sign fails the test.
                if z[z.argmin()] < 0.0:
                    clamps += int(count_nonzero(z < floor))
                    maximum(z, 0.0, out=z)  # NumPy deprecates a positional out here
        finally:
            self.clamp_events += clamps

    def fields(self) -> tuple[np.ndarray, np.ndarray]:
        """The state as the fields (u, v), in new arrays."""
        u, v = self._rows * self._scale
        return u, v


def integrate(
    stepper: Stepper,
    u0: np.ndarray,
    v0: np.ndarray,
    t_end: float,
    n_samples: int = 100,
    snapshot_times: tuple[float, ...] = (),
) -> Trajectory:
    """Step from t=0 until t >= t_end, sampling norms and masses evenly.

    Snapshots are taken at the first step time reaching each requested
    value, k·dt >= t - 1e-12, and always at the final step; a time past
    the final step is not taken.  ``t_end=0`` returns a trajectory
    holding only the initial sample.  The steps between two of these
    events run in one ``Stepper.advance``; sampling reads the stepper's
    fields and never changes its state.  The trajectory counts the
    clamps of this run alone.  Raises ``SolverError`` when a sampled
    sup-norm or mass is not finite; a NaN stays NaN, so the final sample
    sees one that any step made.
    """
    if not 0.0 <= t_end < math.inf:
        raise ConfigError(f"t_end must be finite and nonnegative, got {t_end}")
    stepper.start(u0, v0)
    clamps_before = stepper.clamp_events
    grid = stepper.grid
    dt = stepper.dt
    total_steps = max(1, math.ceil(t_end / dt - 1e-12)) if t_end > 0.0 else 0
    sample_every = max(1, total_steps // max(1, n_samples))
    vol = grid.cell_volume
    samples: list[tuple[float, ...]] = []  # (t, |u|, |v|, mass u, mass v)

    def sample(t: float, w: tuple[np.ndarray, np.ndarray]) -> None:
        norms = (float(np.max(np.abs(x))) for x in w)
        row = (t, *norms, *(vol * float(x.sum()) for x in w))
        if not all(map(math.isfinite, row)):
            raise SolverError(f"the state stopped being finite by t={t!r}: sup-norms and masses {row[1:]}")
        samples.append(row)

    snapshots: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    w = (np.array(u0, dtype=float), np.array(v0, dtype=float))
    final_t = total_steps * dt
    due = {*range(sample_every, total_steps + 1, sample_every), total_steps} - {0}  # sample steps
    snap_steps = set()
    for t_snap in set(float(t) for t in snapshot_times):
        if t_snap <= 0.0:
            snapshots[0.0] = w
        elif total_steps and t_snap - 1e-12 <= final_t:  # some step of the run reaches it
            snap_steps.add(_first_step_reaching(t_snap, dt))

    done = 0
    with np.errstate(all="ignore"):  # a state that overflows fails its sample
        sample(0.0, w)
        for k in sorted(due | snap_steps):
            stepper.advance(k - done)
            done = k
            t = k * dt
            w = stepper.fields()
            if k in due:
                sample(t, w)
            if k in snap_steps:
                snapshots[t] = w
    snapshots.setdefault(final_t, w)

    times, norm_u, norm_v, mass_u, mass_v = (np.array(column) for column in zip(*samples))
    return Trajectory(
        grid=grid,
        dt=dt,
        times=times,
        norm_u_inf=norm_u,
        norm_v_inf=norm_v,
        mass_u=mass_u,
        mass_v=mass_v,
        snapshots=snapshots,
        clamp_events=stepper.clamp_events - clamps_before,
        implicit_solve=stepper.implicit_solve,
    )


def _first_step_reaching(t: float, dt: float) -> int:
    """The first step k >= 1 with k·dt >= t - 1e-12: the test a step-by-step scan makes."""
    target = t - 1e-12
    k = max(1, math.ceil(target / dt))
    while k > 1 and (k - 1) * dt >= target:
        k -= 1
    while k * dt < target:
        k += 1
    return k


def _settled(norms: np.ndarray, eps_settle: float, floor: float) -> bool:
    """True when the tail of the norm history has stopped moving.

    The tail is the last tenth of the samples (at least two); each
    consecutive relative change must stay below ``eps_settle``.
    """
    if len(norms) < 2:
        return False
    window = max(2, math.ceil(0.1 * len(norms)))
    tail = norms[-window:]
    scale = max(float(tail[-1]), floor)
    return bool(np.all(np.abs(np.diff(tail)) < eps_settle * scale))


def classify_outcome(
    traj: Trajectory,
    eps_extinct: float,
    eps_settle: float = EPS_SETTLE,
) -> Outcome:
    """Map a trajectory onto a qualitative outcome.

    A species is extinct when its final sup-norm is below ``eps_extinct``.
    One extinction is a win for the survivor; coexistence additionally
    requires both norm histories to have settled.  Everything else is
    undecided.
    """
    nu = float(traj.norm_u_inf[-1])
    nv = float(traj.norm_v_inf[-1])
    settled = _settled(traj.norm_u_inf, eps_settle, eps_extinct) and _settled(
        traj.norm_v_inf, eps_settle, eps_extinct
    )
    if nu < eps_extinct and nv < eps_extinct:
        verdict = Verdict.BOTH_EXTINCT
    elif nv < eps_extinct <= nu:
        verdict = Verdict.U_WINS
    elif nu < eps_extinct <= nv:
        verdict = Verdict.V_WINS
    elif settled:
        verdict = Verdict.COEXISTENCE
    else:
        verdict = Verdict.UNDECIDED
    return Outcome(
        verdict=verdict,
        final_norm_u=nu,
        final_norm_v=nv,
        eps_extinct=eps_extinct,
        eps_settle=eps_settle,
        settled=settled,
    )
