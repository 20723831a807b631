"""Semi-implicit time integration and outcome classification.

One step treats transport implicitly and the growth law explicitly:

    (I - dt L1) u' = u + dt R_u(u, v)
    (I - dt L2) v' = v + dt R_v(u, v).

I - dt L has unit column sums and nonpositive off-diagonals, so its
inverse is entrywise nonnegative at any dt: the implicit half preserves
positivity unconditionally.  The explicit half keeps u + dt R_u >= 0 as
long as dt stays below 1/max(growth rate) on states of realistic size,
which is where the dt cap comes from.  Within that envelope every step
maps nonnegative states to nonnegative states and changes total mass by
exactly dt times the integrated reaction (the transport columns sum to
zero).

Trajectories record sup-norms and masses at a fixed sample cadence, plus
full snapshots at requested times; the classifier turns the recorded
norm histories into one of five qualitative outcomes.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .errors import ConfigError
from .grid import Grid
from .linsolve import Factorization, SeparableSolve, factorize
from .model import EffectiveParams, ModelParams, raw_reaction, reaction
from .operators import TransportOperator

__all__ = [
    "Verdict",
    "Outcome",
    "Trajectory",
    "Stepper",
    "integrate",
    "classify_outcome",
    "default_eps_extinct",
    "max_stable_dt",
    "default_dt",
    "CLAMP_TOLERANCE",
]

# Values in (-CLAMP_TOLERANCE, 0) are treated as rounding noise and zeroed
# silently; anything below it is a genuine positivity violation and counts
# as a clamp event.
CLAMP_TOLERANCE = 1e-13


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
    sampled_fields: list[tuple[np.ndarray, np.ndarray]] | None = None
    clamp_events: int = 0
    truncated: bool = False

    @property
    def final_state(self) -> tuple[np.ndarray, np.ndarray]:
        key = max(self.snapshots) if self.snapshots else None
        if key is not None and key == self.times[-1]:
            return self.snapshots[key]
        raise ConfigError("no snapshot was recorded at the final time")


def max_stable_dt(eff_or_params: EffectiveParams | ModelParams, r_values: np.ndarray | None = None) -> float:
    """Largest dt the explicit growth half tolerates with headroom 0.9.

    For the harvest-folded form the rate is max r·r1; for the raw form the
    binding rate is max r·(1 - min(mu1, mu2)).
    """
    if isinstance(eff_or_params, EffectiveParams):
        rate = float(np.max(eff_or_params.rr1.values))
    else:
        if r_values is None:
            raise ConfigError("raw-form dt cap needs the sampled growth rate")
        rate = float(np.max(r_values)) * (1.0 - min(eff_or_params.mu1, eff_or_params.mu2))
    if rate <= 0.0:
        raise ConfigError("growth rate must be positive")
    return 0.9 / rate


def default_dt(eff_or_params, r_values: np.ndarray | None = None) -> float:
    return min(max_stable_dt(eff_or_params, r_values), 0.1)


class Stepper:
    """Factored IMEX stepper for one parameter set on one grid.

    ``form`` chooses the reaction evaluation: "folded" uses the
    harvest-folded coefficients (requires equal harvest fractions),
    "raw" evaluates growth minus harvest literally and also covers
    unequal fractions.

    The implicit half of both species is one block-diagonal system,
    I - dt·blockdiag(L1, L2), factored once here.  Each step writes the
    stacked right-hand side [u + dt R_u; v + dt R_v] into one buffer
    reused across steps, makes one solve and one clamp pass.  In 1-D the
    stack is still tridiagonal (the coupling entries are zero, so no row
    is interchanged) and the result is bitwise equal to solving the two
    species apart.  In 2-D it is solved in modal form
    (``linsolve.SeparableSolve``), which agrees with sparse LU to rounding.
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
        self.params = params
        self.eff = eff
        self.form = form
        if dt is None:
            dt = default_dt(eff) if form == "folded" else default_dt(params, eff.r.values)
        if dt <= 0.0:
            raise ConfigError(f"dt must be positive, got {dt}")
        self.dt = float(dt)
        self.clamp_events = 0

        self._n = self.grid.size
        self._rhs = np.empty(2 * self._n)
        self._solve: Factorization | SeparableSolve
        if self.grid.dim == 2:
            self._solve = SeparableSolve((op1, op2), self.dt)
        else:
            eye = sparse.identity(self._n, format="csr")
            self._solve = factorize(
                sparse.block_diag((eye - self.dt * op1.matrix, eye - self.dt * op2.matrix), format="csr")
            )

    # -- reaction terms -------------------------------------------------

    def reaction_u(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.form == "folded":
            return reaction(u, v, self.eff)
        return raw_reaction(u, v, self.eff.r.values, self.eff.K.values, self.params.mu1)

    def reaction_v(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if self.form == "folded":
            return reaction(v, u, self.eff)
        return raw_reaction(v, u, self.eff.r.values, self.eff.K.values, self.params.mu2)

    # -- stepping --------------------------------------------------------

    def step(self, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance both species by dt; clamps and counts negative output.

        The returned states are views of one new array of both species;
        they never alias the reused right-hand side buffer.
        """
        rhs_u, rhs_v = self._rhs[: self._n], self._rhs[self._n :]
        np.multiply(self.dt, self.reaction_u(u, v), out=rhs_u)
        np.add(u, rhs_u, out=rhs_u)
        np.multiply(self.dt, self.reaction_v(u, v), out=rhs_v)
        np.add(v, rhs_v, out=rhs_v)
        w = self._clamp(self._solve.solve(self._rhs))
        return w[: self._n], w[self._n :]

    def _clamp(self, w: np.ndarray) -> np.ndarray:
        """Zero negative entries of ``w`` in place, counting those below tolerance."""
        if w.min() < 0.0:
            self.clamp_events += int(np.count_nonzero(w < -CLAMP_TOLERANCE))
            np.maximum(w, 0.0, out=w)
        return w


def integrate(
    stepper: Stepper,
    u0: np.ndarray,
    v0: np.ndarray,
    t_end: float,
    n_samples: int = 100,
    snapshot_times: tuple[float, ...] = (),
    record_fields: bool = False,
    wall_clock_budget: float | None = None,
) -> Trajectory:
    """Step from t=0 until t >= t_end, sampling norms and masses evenly.

    Snapshots are taken at the first step time reaching each requested
    value and always at the final step.  With ``record_fields`` the full
    state at every sample is kept (memory permitting); useful for
    trajectory-level comparisons.  A wall-clock budget, if given, stops
    early and marks the trajectory truncated.  ``t_end=0`` returns a
    trajectory holding only the initial sample.
    """
    if t_end < 0.0:
        raise ConfigError(f"t_end must be nonnegative, got {t_end}")
    grid = stepper.grid
    u = np.asarray(u0, dtype=float).copy()
    v = np.asarray(v0, dtype=float).copy()
    if u.shape != (grid.size,) or v.shape != (grid.size,):
        raise ConfigError("initial data does not match the grid")
    if (u < 0.0).any() or (v < 0.0).any():
        raise ConfigError("initial data must be nonnegative")

    if t_end == 0.0:
        vol = grid.cell_volume
        return Trajectory(
            grid=grid,
            dt=stepper.dt,
            times=np.array([0.0]),
            norm_u_inf=np.array([float(np.max(np.abs(u)))]),
            norm_v_inf=np.array([float(np.max(np.abs(v)))]),
            mass_u=np.array([vol * float(u.sum())]),
            mass_v=np.array([vol * float(v.sum())]),
            snapshots={0.0: (u.copy(), v.copy())},
            sampled_fields=[(u.copy(), v.copy())] if record_fields else None,
            clamp_events=stepper.clamp_events,
            truncated=False,
        )

    dt = stepper.dt
    total_steps = max(1, math.ceil(t_end / dt - 1e-12))
    sample_every = max(1, total_steps // max(1, n_samples))
    vol = grid.cell_volume

    pending = sorted(set(float(t) for t in snapshot_times))
    times = [0.0]
    norm_u = [float(np.max(np.abs(u)))]
    norm_v = [float(np.max(np.abs(v)))]
    mass_u = [vol * float(u.sum())]
    mass_v = [vol * float(v.sum())]
    snapshots: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    fields = [(u.copy(), v.copy())] if record_fields else None
    if pending and pending[0] <= 0.0:
        snapshots[0.0] = (u.copy(), v.copy())
        pending = [t for t in pending if t > 0.0]

    start = time.monotonic() if wall_clock_budget is not None else 0.0
    truncated = False
    k = 0
    while k < total_steps:
        u, v = stepper.step(u, v)
        k += 1
        t = k * dt
        if k % sample_every == 0 or k == total_steps:
            times.append(t)
            norm_u.append(float(np.max(np.abs(u))))
            norm_v.append(float(np.max(np.abs(v))))
            mass_u.append(vol * float(u.sum()))
            mass_v.append(vol * float(v.sum()))
            if fields is not None:
                fields.append((u.copy(), v.copy()))
        while pending and t >= pending[0] - 1e-12:
            snapshots[t] = (u.copy(), v.copy())
            pending.pop(0)
        if wall_clock_budget is not None and time.monotonic() - start > wall_clock_budget:
            truncated = True
            break

    final_t = k * dt
    if final_t not in snapshots:
        snapshots[final_t] = (u.copy(), v.copy())
    if times[-1] != final_t:
        times.append(final_t)
        norm_u.append(float(np.max(np.abs(u))))
        norm_v.append(float(np.max(np.abs(v))))
        mass_u.append(vol * float(u.sum()))
        mass_v.append(vol * float(v.sum()))
        if fields is not None:
            fields.append((u.copy(), v.copy()))

    return Trajectory(
        grid=grid,
        dt=dt,
        times=np.array(times),
        norm_u_inf=np.array(norm_u),
        norm_v_inf=np.array(norm_v),
        mass_u=np.array(mass_u),
        mass_v=np.array(mass_v),
        snapshots=snapshots,
        sampled_fields=fields,
        clamp_events=stepper.clamp_events,
        truncated=truncated,
    )


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
    eps_settle: float = 1e-4,
) -> Outcome:
    """Map a trajectory onto a qualitative outcome.

    A species is extinct when its final sup-norm is below ``eps_extinct``.
    One extinction is a win for the survivor; coexistence additionally
    requires both norm histories to have settled.  Everything else,
    including truncated runs, is undecided.
    """
    nu = float(traj.norm_u_inf[-1])
    nv = float(traj.norm_v_inf[-1])
    settled = _settled(traj.norm_u_inf, eps_settle, eps_extinct) and _settled(
        traj.norm_v_inf, eps_settle, eps_extinct
    )
    if traj.truncated:
        verdict = Verdict.UNDECIDED
    elif nu < eps_extinct and nv < eps_extinct:
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


def default_eps_extinct(eff: EffectiveParams) -> float:
    """Extinction threshold: one thousandth of the folded capacity peak."""
    return 1e-3 * float(np.max(eff.K1.values))
