"""Cardinality estimation and operator cost model.

Lemma 1 gives exact worst-case bounds (every operator can produce
``n1·n2`` incidents, at pairwise cost).  For *planning* we need expected
sizes, which we estimate from per-log statistics under independence
assumptions standard in relational optimizers:

* atoms — exact counts from the activity histogram;
* ``⊳`` — of the ``n1·n2`` same-instance pairs, about half satisfy the
  ordering constraint;
* ``⊙`` — a pair additionally needs exact adjacency: about ``1/m_w`` of
  ordered pairs, with ``m_w`` the mean instance length;
* ``⊗`` — sizes add;
* ``⊕`` — same-instance pairs are usually disjoint when patterns differ,
  so ``n1·n2 / W`` (all same-instance pairs) is used, with ``W`` the
  instance count.

The estimates are heuristics — cross-instance pairing is modelled by
dividing pair counts by ``W`` throughout (incidents never span instances).
The benchmark ``benchmarks/bench_optimizer.py`` measures how well plans
ranked by this model track measured runtimes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.core.model import Log
from repro.core.pattern import (
    Atomic,
    Choice,
    Consecutive,
    Parallel,
    Pattern,
    Sequential,
)

__all__ = ["LogStatistics", "CostModel", "DispatchCostModel"]


@dataclass(frozen=True)
class LogStatistics:
    """Summary statistics of a log, sufficient for cardinality estimation.

    Attributes
    ----------
    total_records:
        ``m`` — the number of log records.
    instance_count:
        ``W`` — the number of workflow instances.
    activity_counts:
        Histogram of activity names over the whole log.
    """

    total_records: int
    instance_count: int
    activity_counts: Counter = field(default_factory=Counter)

    @classmethod
    def from_log(cls, log: Log) -> "LogStatistics":
        """Collect statistics in one pass over ``log``."""
        counts: Counter = Counter()
        for record in log:
            counts[record.activity] += 1
        return cls(
            total_records=len(log),
            instance_count=len(log.wids),
            activity_counts=counts,
        )

    @property
    def mean_instance_length(self) -> float:
        """Average number of records per workflow instance."""
        if self.instance_count == 0:
            return 0.0
        return self.total_records / self.instance_count

    def count(self, activity: str) -> int:
        """Number of records with the given activity name."""
        return self.activity_counts.get(activity, 0)


class CostModel:
    """Estimates incident-set cardinalities and evaluation costs.

    Parameters
    ----------
    stats:
        Statistics of the target log.
    sequential_selectivity:
        Fraction of same-instance pairs assumed to satisfy the ``⊳``
        ordering constraint (default 0.5).
    """

    def __init__(
        self,
        stats: LogStatistics,
        *,
        sequential_selectivity: float = 0.5,
        guard_selectivity: float = 0.33,
    ):
        if not 0.0 < sequential_selectivity <= 1.0:
            raise ValueError("sequential_selectivity must be in (0, 1]")
        if not 0.0 < guard_selectivity <= 1.0:
            raise ValueError("guard_selectivity must be in (0, 1]")
        self.stats = stats
        self.sequential_selectivity = sequential_selectivity
        self.guard_selectivity = guard_selectivity

    # -- cardinality -------------------------------------------------------

    def cardinality(self, pattern: Pattern) -> float:
        """Estimated ``|incL(pattern)|`` on the model's log."""
        if isinstance(pattern, Atomic):
            if pattern.negated:
                base = float(self.stats.total_records - self.stats.count(pattern.name))
            else:
                base = float(self.stats.count(pattern.name))
            if type(pattern) is not Atomic:
                # leaf subclasses carry extra filters (attribute guards);
                # apply a default selectivity in lieu of value histograms
                base *= self.guard_selectivity
            return base
        n1 = self.cardinality(pattern.left)
        n2 = self.cardinality(pattern.right)
        return self.join_cardinality(pattern, n1, n2)

    def join_cardinality(self, operator, n1: float, n2: float) -> float:
        """Estimated output size of one operator over inputs of the given
        estimated sizes.  ``operator`` may be an operator class or a
        pattern node (the node form lets windowed operators contribute
        their bound to the selectivity)."""
        cls = operator if isinstance(operator, type) else type(operator)
        same_instance_pairs = self._same_instance_pairs(n1, n2)
        m_w = max(self.stats.mean_instance_length, 1.0)
        if issubclass(cls, Consecutive):
            return same_instance_pairs / m_w
        if issubclass(cls, Sequential):
            bound = getattr(operator, "bound", None)
            if bound is not None:
                # a window of k positions admits about k/m_w of the pairs
                # an unbounded ⊳ would
                return same_instance_pairs * min(
                    self.sequential_selectivity, bound / m_w
                )
            return same_instance_pairs * self.sequential_selectivity
        if issubclass(cls, Choice):
            return n1 + n2
        if issubclass(cls, Parallel):
            return same_instance_pairs
        raise TypeError(f"unknown operator {operator!r}")

    def _same_instance_pairs(self, n1: float, n2: float) -> float:
        """Expected number of (o1, o2) pairs sharing a workflow instance,
        assuming incidents spread uniformly over instances."""
        w = max(self.stats.instance_count, 1)
        return (n1 / w) * (n2 / w) * w

    # -- cost ---------------------------------------------------------------

    def join_cost(self, operator, n1: float, n2: float) -> float:
        """Estimated work of evaluating one operator node (Lemma 1 shapes):
        pairwise for ⊙/⊳/⊕, additive for ⊗."""
        cls = operator if isinstance(operator, type) else type(operator)
        if issubclass(cls, Choice):
            return n1 + n2
        return n1 * n2

    def pairs_estimate(self, pattern: Pattern) -> float:
        """Predicted pairs examined at the *root* node of ``pattern``
        (0 for leaves): the Lemma 1 join cost under estimated input
        cardinalities.

        This is the number ``repro-logs profile`` reconciles against the
        measured per-node ``pairs`` metric — the cost model's testable
        prediction for one operator evaluation.
        """
        if isinstance(pattern, Atomic):
            return 0.0
        return self.join_cost(
            pattern,
            self.cardinality(pattern.left),
            self.cardinality(pattern.right),
        )

    def plan_cost(self, pattern: Pattern) -> float:
        """Total estimated evaluation cost: the sum over all operator nodes
        of the node's join cost under estimated input cardinalities (leaf
        lookup cost is the leaf cardinality — the index makes it
        output-proportional)."""
        if isinstance(pattern, Atomic):
            return self.cardinality(pattern)
        cost_left = self.plan_cost(pattern.left)
        cost_right = self.plan_cost(pattern.right)
        n1 = self.cardinality(pattern.left)
        n2 = self.cardinality(pattern.right)
        return cost_left + cost_right + self.join_cost(pattern, n1, n2)


@dataclass(frozen=True)
class DispatchCostModel:
    """Overhead model for the parallel execution backends.

    :mod:`repro.exec` fans wid-disjoint shards out over an execution
    backend; whether that pays off depends on how the (estimated) join
    work compares with the fixed cost of standing the backend up.  All
    constants are in the same unit as :meth:`CostModel.plan_cost` — one
    "pair examined" — calibrated roughly as ~0.5µs of pure-Python work
    per pair, so e.g. ``process_worker_cost = 60_000`` models the ~30ms
    a pool worker costs to fork and warm up.

    Attributes
    ----------
    process_worker_cost:
        Fixed cost per process-pool worker (fork + pool bookkeeping).
    process_record_cost:
        Per-record cost of shipping a shard to a worker and its results
        back (pickling both ways).
    thread_worker_cost:
        Fixed cost per thread-pool worker.  Threads never beat serial on
        this pure-Python CPU-bound workload (the GIL serialises the
        joins), so their parallel fraction is modelled as 1.
    min_parallel_cost:
        Plans estimated cheaper than this never leave the calling
        process, whatever the requested backend count.
    """

    process_worker_cost: float = 60_000.0
    process_record_cost: float = 4.0
    thread_worker_cost: float = 2_000.0
    min_parallel_cost: float = 250_000.0

    def overhead(self, backend: str, jobs: int, records: int) -> float:
        """Fixed dispatch cost of running ``jobs`` workers over a log of
        ``records`` records on the named backend."""
        if backend == "process":
            return self.process_worker_cost * jobs + self.process_record_cost * records
        if backend == "thread":
            return self.thread_worker_cost * jobs
        return 0.0

    def effective_workers(self, backend: str, jobs: int) -> int:
        """How many workers actually run joins concurrently: processes
        sidestep the GIL, threads and serial do not."""
        return max(1, jobs) if backend == "process" else 1

    def wall_cost(
        self, backend: str, jobs: int, records: int, plan_cost: float
    ) -> float:
        """Estimated wall-clock cost of one evaluation: dispatch overhead
        plus the plan cost divided by the truly concurrent workers."""
        return self.overhead(backend, jobs, records) + plan_cost / self.effective_workers(
            backend, jobs
        )

    def choose_backend(self, jobs: int, records: int, plan_cost: float) -> str:
        """The backend with the least estimated wall cost for this plan:
        ``"serial"`` when the plan is too small to amortise a pool,
        ``"process"`` otherwise."""
        if plan_cost < self.min_parallel_cost or jobs <= 1:
            return "serial"
        candidates = ("serial", "process")
        return min(
            candidates,
            key=lambda backend: self.wall_cost(backend, jobs, records, plan_cost),
        )
