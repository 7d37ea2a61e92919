"""Main alternating-minimisation loop.

Each iteration (:func:`spcm_step`) performs the two half-steps in a fixed
order: all memberships are recomputed from the current representatives, then
every representative is moved to the membership-weighted mean of its points.
Both half-steps lower the cost (strictly, away from a fixed point); each
iteration returns its :class:`IterationTrace` record so the descent chain can
be audited after the fact.  The loop stops when the largest per-cluster
representative displacement (max norm) drops below the configured threshold,
or at the iteration cap; afterwards representatives that landed on the same
spot are merged.

:func:`run` starts from :func:`~spcm.initialization.initialize`;
:func:`run_pcm2` is the same run from its K = 0 (lam = 0) start.
:class:`SolverConfig` checks every setting, the radius-positivity bound on K
included, before any work is done.

A cluster losing its last active point cannot happen when K passed
validation, so its occurrence aborts the run with diagnostics attached
rather than silently freezing the cluster.

A step reads its active counts and band check off each solver column as it
is stored, and takes the log and power of its memberships once for both of
its costs (``spcm.core``).  A run allocates the membership solver's
workspace once, for its N points, and passes it to every step as the
private ``_work``; each solve then computes in place in its rows
(``spcm.membership``) instead of faulting in fresh pages for its
temporaries.  A step called without it lets each solve allocate its own.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .core import DataSet, MembershipMatrix, ModelState, _active, _cost_terms, squared_distances, total_cost
from .initialization import FcmConfig, InitReport, initialize, radius_bound
from .membership import ClusterSolverContext, InvalidParameterError, _workspace, build_context, solve_membership_batch

__all__ = [
    "ActiveSetEmptyError",
    "SolverConfig",
    "IterationTrace",
    "DedupResult",
    "RunResult",
    "update_theta",
    "spcm_step",
    "run",
    "run_pcm2",
    "deduplicate",
]

# Relative slack used when flagging the descent checks in the trace.
_DESCENT_SLACK = 1e-12


class ActiveSetEmptyError(RuntimeError):
    """A cluster lost every active point; signals a misconfigured run.

    Carries the offending cluster index and, when raised from :func:`run`,
    the iteration index and the trace recorded so far.
    """

    def __init__(self, cluster: int | None = None, iteration: int | None = None, trace=()):
        self.cluster = cluster
        self.iteration = iteration
        self.trace = tuple(trace)
        who = "a cluster" if cluster is None else f"cluster {cluster}"
        where = f" at iteration {iteration}" if iteration is not None else ""
        super().__init__(
            f"{who} has no active points{where}; "
            "every cluster must keep at least one point with u > 0 "
            "(check K against the activation bound)"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Settings of one run: sparsity constant, tolerances, budgets, FCM block."""

    p: float = 0.5
    K: float | None = None
    theta_tol: float = 1e-6
    max_iters: int = 500
    dedup_threshold: float | None = None  # None -> 1e-3 * bounding-box diagonal
    fcm: FcmConfig = field(default_factory=FcmConfig)

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie strictly inside (0, 1), got {self.p}")
        if self.K is not None:
            if not self.K > 0:
                raise ValueError(f"K must be positive, got {self.K}")
            bound = radius_bound(self.p)
            if self.K >= bound:
                raise InvalidParameterError(
                    f"K = {self.K} violates the radius-positivity bound "
                    f"K < p*e^(2*(1-p)) = {bound!r}: every influence radius would be nonpositive"
                )
        if not 0 < self.theta_tol < math.inf:
            raise ValueError(f"theta_tol must be positive and finite, got {self.theta_tol}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters}")
        if self.dedup_threshold is not None and not 0 <= self.dedup_threshold < math.inf:
            raise ValueError(f"dedup_threshold must be nonnegative and finite, got {self.dedup_threshold}")


@dataclass(frozen=True)
class IterationTrace:
    """One audited iteration: costs, representatives, active sets, checks."""

    t: int
    cost: float
    cost_before: float | None
    cost_after_u: float
    theta: np.ndarray
    delta_theta: np.ndarray
    max_delta_theta: float
    active_counts: np.ndarray
    u_bounds_ok: bool
    theta_in_bbox: bool
    u_step_decreased: bool | None
    theta_step_decreased: bool


@dataclass(frozen=True)
class DedupResult:
    """Outcome of duplicate-representative removal.

    ``mapping`` sends every original cluster index to the lowest-index
    cluster it was merged into; ``kept`` lists the retained originals in
    order.  Merged membership columns take the pointwise maximum.
    """

    mapping: dict[int, int]
    kept: tuple[int, ...]
    threshold: float
    representatives: np.ndarray
    membership: np.ndarray


@dataclass(frozen=True)
class RunResult:
    """Converged state, memberships, per-iteration trace, and dedup outcome."""

    state: ModelState
    membership: MembershipMatrix
    trace: tuple[IterationTrace, ...]
    termination: str  # "converged" | "iteration-cap"
    n_iterations: int
    dedup: DedupResult
    init_report: InitReport


def update_theta(X: DataSet, u_col: np.ndarray) -> np.ndarray:
    """Membership-weighted mean of the data; a convex combination of the
    active points, hence always inside their hull."""
    u_col = np.asarray(u_col, dtype=np.float64)
    total = u_col.sum()
    if not total > 0:
        raise ActiveSetEmptyError()
    return (u_col @ X.points) / total


def _build_contexts(state: ModelState) -> tuple[ClusterSolverContext, ...]:
    return tuple(build_context(float(g), state.lam, state.p) for g in state.gammas)


def _solve_memberships(
    d2: np.ndarray, contexts: tuple[ClusterSolverContext, ...], work: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, bool, list[tuple[np.ndarray, np.ndarray]]]:
    """Memberships at squared distances ``d2``, one solver column at a time.

    Returns the (N, m) matrix, each column's active count, whether every
    active entry lies in its cluster's band [u_min, u_max] up to a relative
    1e-9, and each column's active indices and values (the cost's input).
    All of it is read off each contiguous solver column before it is
    stored; a column with no active point raises.  ``work`` is the solver's
    workspace (:func:`spcm.membership.solve_membership_batch`).
    """
    tol = 1e-9
    U = np.empty_like(d2)
    counts = np.empty(len(contexts), dtype=np.intp)
    in_band = True
    columns = []
    for j, ctx in enumerate(contexts):
        col = solve_membership_batch(d2[:, j], ctx, _work=work)
        active, u_a = _active(col)
        if active.size == 0:
            raise ActiveSetEmptyError(cluster=j)
        counts[j] = active.size
        # relative: at p near 1 the band is far narrower than any absolute slack
        in_band = in_band and bool(u_a.min() >= ctx.u_min * (1.0 - tol) and u_a.max() <= ctx.u_max * (1.0 + tol))
        columns.append((active, u_a))
        U[:, j] = col
    return U, counts, in_band, columns


def spcm_step(
    X: DataSet,
    state: ModelState,
    contexts: tuple[ClusterSolverContext, ...] | None = None,
    cost_before: float | None = None,
    *,
    _work: np.ndarray | None = None,
) -> tuple[MembershipMatrix, ModelState, IterationTrace]:
    """One full iteration: memberships from the current representatives, then
    representatives from the new memberships.

    ``cost_before`` supplies the cost of the incoming (U, theta) pair so the
    record exposes the full descent chain cost_before > cost_after_u > cost.
    The record's ``t`` is 0; :func:`run` numbers the iterations.  ``_work``
    is the membership solver's workspace for X's points, which a run
    allocates once and passes to every step; without it each solve
    allocates its own.
    """
    if contexts is None:
        contexts = _build_contexts(state)
    U, counts, u_bounds_ok, columns = _solve_memberships(
        squared_distances(X.points, state.representatives), contexts, _work
    )
    membership = MembershipMatrix._adopt(U)
    terms = _cost_terms(columns, state)
    cost_after_u = total_cost(X, membership, state, _terms=terms)

    new_reps = np.empty_like(state.representatives)
    for j in range(state.n_clusters):
        new_reps[j] = update_theta(X, U[:, j])
    state_next = replace(state, representatives=new_reps)
    cost = total_cost(X, membership, state_next, _terms=terms)

    delta = np.abs(state_next.representatives - state.representatives).max(axis=1)
    bbox_tol = 1e-9 * max(X.bbox_diagonal, 1.0)
    in_bbox = bool((new_reps >= X.bbox_min - bbox_tol).all() and (new_reps <= X.bbox_max + bbox_tol).all())
    u_step_decreased = None
    if cost_before is not None:
        u_step_decreased = cost_after_u <= cost_before + _DESCENT_SLACK * abs(cost_before)
    record = IterationTrace(
        t=0,
        cost=cost,
        cost_before=cost_before,
        cost_after_u=cost_after_u,
        theta=new_reps,
        delta_theta=delta,
        max_delta_theta=float(delta.max()),
        active_counts=counts,
        u_bounds_ok=u_bounds_ok,
        theta_in_bbox=in_bbox,
        u_step_decreased=u_step_decreased,
        theta_step_decreased=cost <= cost_after_u + _DESCENT_SLACK * abs(cost_after_u),
    )
    return membership, state_next, record


def _iterate(X: DataSet, config: SolverConfig, report: InitReport) -> RunResult:
    state = ModelState(report.theta0, report.gammas, report.lam, config.p)
    contexts = _build_contexts(state)
    work = _workspace(X.n_points)  # the solver's scratch, for the whole run
    trace: list[IterationTrace] = []
    membership: MembershipMatrix | None = None
    termination = "iteration-cap"

    for t in range(config.max_iters):
        cost_before = trace[-1].cost if trace else None
        membership = None  # the step does not read it; free it before the step allocates
        try:
            membership, state, record = spcm_step(X, state, contexts=contexts, cost_before=cost_before, _work=work)
        except ActiveSetEmptyError as err:
            raise ActiveSetEmptyError(err.cluster, iteration=t, trace=trace) from None
        trace.append(replace(record, t=t))
        if record.max_delta_theta < config.theta_tol:
            termination = "converged"
            break

    threshold = config.dedup_threshold
    if threshold is None:
        threshold = 1e-3 * X.bbox_diagonal
    dedup = deduplicate(state, membership, threshold)

    return RunResult(
        state=state,
        membership=membership,
        trace=tuple(trace),
        termination=termination,
        n_iterations=len(trace),
        dedup=dedup,
        init_report=report,
    )


def run(X: DataSet, m: int, config: SolverConfig | None = None) -> RunResult:
    """Full sparse run: initialise, iterate to a fixed point, merge duplicates.

    Raises
    ------
    ActiveSetEmptyError
        If some cluster loses all active points; the exception carries the
        trace recorded up to that iteration.
    """
    if config is None:
        config = SolverConfig()
    return _iterate(X, config, initialize(X, m, p=config.p, K=config.K, fcm=config.fcm))


def run_pcm2(X: DataSet, m: int, config: SolverConfig | None = None) -> RunResult:
    """Non-sparse run: the identical loop from the K = 0 (lam = 0) start.

    Memberships take the closed form exp(-d/gamma), so every point stays
    active in every cluster at every iteration.  ``config.K`` is not used.
    """
    if config is None:
        config = SolverConfig()
    return _iterate(X, config, initialize(X, m, p=config.p, K=0.0, fcm=config.fcm))


def deduplicate(
    state: ModelState,
    U: MembershipMatrix | np.ndarray,
    threshold: float,
) -> DedupResult:
    """Merge representatives lying within ``threshold`` of a retained one.

    The lowest index of each group is kept; a merged column is the pointwise
    maximum of its members' columns.
    """
    values = U.values if isinstance(U, MembershipMatrix) else np.asarray(U, dtype=np.float64)
    reps = state.representatives
    mapping: dict[int, int] = {}
    kept: list[int] = []
    for j in range(state.n_clusters):
        root = None
        for r in kept:
            if float(np.linalg.norm(reps[j] - reps[r])) <= threshold:
                root = r
                break
        if root is None:
            kept.append(j)
            mapping[j] = j
        else:
            mapping[j] = root
    merged = np.column_stack(
        [
            np.max(values[:, [j for j in range(state.n_clusters) if mapping[j] == r]], axis=1)
            for r in kept
        ]
    )
    return DedupResult(
        mapping=mapping,
        kept=tuple(kept),
        threshold=float(threshold),
        representatives=reps[kept].copy(),
        membership=merged,
    )
