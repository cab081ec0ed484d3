"""Processor allocation (Algorithm 2 of the paper).

The :class:`LpaAllocator` implements the paper's two-step strategy:

1. **Initial allocation** (Local Processor Allocation, after [3, 4]):
   among :math:`p \\in [1, p^{\\max}]`, minimize the area ratio
   :math:`\\alpha_p = a(p)/a^{\\min}` subject to the time-ratio constraint
   :math:`\\beta_p = t(p)/t^{\\min} \\le \\delta(\\mu) =
   \\frac{1-2\\mu}{\\mu(1-\\mu)}`.
2. **Adjustment**: cap the allocation at :math:`\\lceil\\mu P\\rceil`
   (technique of Lepère et al. [18]) so that enough tasks can run
   concurrently to keep utilization high.

For monotonic models (the whole Equation (1) family, Lemma 1) step 1 is
solved with two binary searches; arbitrary models fall back to a linear
scan over :math:`[1, p^{\\max}]`.

The allocation is a pure function of ``(model, P)``, so the engine calls
Algorithm 2 through the memoized
:meth:`~repro.sim.allocation.Allocator.allocate_cached` entry point:
tasks sharing a speedup-model parameterization (hashable
:meth:`~repro.speedup.SpeedupModel.cache_key`) resolve from a per-allocator
LRU cache in O(1), including resilient-mode re-allocations at each
recurring live capacity.  ``LpaAllocator(...).cache_info()`` exposes the
hit/miss counters; ``configure_cache(0)`` disables memoization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.core.constants import MU_MAX, delta
from repro.exceptions import AllocationError
from repro.sim.allocation import Allocation, AllocationCacheInfo, Allocator
from repro.speedup.base import SpeedupModel
from repro.util.validation import check_in_range, check_positive_int

if TYPE_CHECKING:
    from repro.core.lpa_batch import BatchAllocation

__all__ = [
    "Allocation",
    "AllocationCacheInfo",
    "AllocationExplanation",
    "Allocator",
    "LpaAllocator",
]


@dataclass(frozen=True, slots=True)
class AllocationExplanation:
    """The paper's ratios behind one Algorithm-2 decision.

    Pure observability: computed on demand by :meth:`LpaAllocator.explain`
    for tracing/analysis, never on the allocation fast path.  ``alpha``
    and ``beta`` are the paper's :math:`\\alpha_p = a(p_j)/a^{\\min}` and
    :math:`\\beta_p = t(p_j)/t^{\\min}`; feasibility (Lemma 2) guarantees
    :math:`\\beta \\le \\delta(\\mu)` up to the allocator's ``rtol``.
    """

    #: Step-1 initial allocation :math:`p_j`.
    p: int
    #: Allocation after the :math:`\lceil\mu P\rceil` adjustment.
    final: int
    #: Largest useful processor count :math:`p^{\max}` for this model.
    p_max: int
    #: Area ratio :math:`a(p_j)/a^{\min}`.
    alpha: float
    #: Time ratio :math:`t(p_j)/t^{\min}`.
    beta: float
    #: The time-ratio budget :math:`\delta(\mu)` the constraint enforces.
    delta: float
    #: The adjustment threshold :math:`\lceil\mu P\rceil`.
    cap: int
    #: Whether step 2 actually reduced the allocation.
    capped: bool


class LpaAllocator(Allocator):
    """Algorithm 2: minimize area subject to a time budget, then cap.

    Parameters
    ----------
    mu:
        The utilization parameter :math:`\\mu \\in (0, (3-\\sqrt5)/2]`.
        Use :data:`repro.core.constants.MU_STAR` for the per-model optima.
    rtol:
        Relative tolerance when testing the :math:`\\beta_p \\le \\delta`
        constraint and area ties, absorbing floating-point noise (the
        adversarial instances of Section 4.4 sit *exactly* on the
        constraint boundary by design).

    Tie-breaking: among feasible allocations of minimal area, the fastest
    (largest ``p``) is chosen.  For the roofline model the area is flat in
    :math:`[1, p^{\\max}]`, so this picks :math:`p^{\\max}` and realizes
    Lemma 6's :math:`\\alpha = \\beta = 1`; for every other Equation (1)
    model the area is strictly increasing and no tie occurs.
    """

    name = "lpa"

    def __init__(self, mu: float, *, rtol: float = 1e-9) -> None:
        self.mu = check_in_range(mu, "mu", 0.0, MU_MAX, low_open=True)
        self.rtol = check_in_range(rtol, "rtol", 0.0, 1e-3)
        self.delta = delta(self.mu)

    # ------------------------------------------------------------------
    def allocate(
        self, model: SpeedupModel, P: int, *, free: int | None = None
    ) -> Allocation:
        P = check_positive_int(P, "P")
        initial = self.initial_allocation(model, P)
        cap = math.ceil(self.mu * P)
        final = cap if initial > cap else initial
        return Allocation(initial=initial, final=final)

    def explain(self, model: SpeedupModel, P: int) -> AllocationExplanation:
        """The :math:`\\alpha_p`/:math:`\\beta_p` ratios behind ``allocate``.

        Re-derives the decision for ``(model, P)`` together with the
        quantities the paper's analysis tracks.  Intended for tracing and
        notebooks — it re-queries the model a handful of times (plus a
        linear area scan for non-monotonic models), so the engine only
        calls it on traced runs.
        """
        P = check_positive_int(P, "P")
        p_max = model.max_useful_processors(P)
        t_min = model.time(p_max)
        initial = self.initial_allocation(model, P)
        if model.monotonic_hint:
            # Lemma-1 monotonicity: the area is non-decreasing, so the
            # minimum over [1, p_max] sits at p = 1.
            a_min = model.area(1)
        else:
            a_min = min(model.area(p) for p in range(1, p_max + 1))
        alpha = model.area(initial) / a_min if a_min > 0 else math.inf
        beta = model.time(initial) / t_min if t_min > 0 else math.inf
        cap = math.ceil(self.mu * P)
        final = cap if initial > cap else initial
        return AllocationExplanation(
            p=initial,
            final=final,
            p_max=p_max,
            alpha=alpha,
            beta=beta,
            delta=self.delta,
            cap=cap,
            capped=final < initial,
        )

    def allocate_batch(
        self, models: Sequence[SpeedupModel], P: int
    ) -> "BatchAllocation | None":
        """Resolve many models' allocations at once, vectorizing Eq. (1).

        Called by :meth:`~repro.sim.allocation.Allocator.prefetch` once per
        run, with one model per cache-key group the run will miss: lanes
        whose math is provably the Equation (1) closed forms resolve
        through :mod:`repro.core.lpa_batch`'s array implementation of the
        α/β decision — bit-identical to :meth:`allocate` by construction —
        and every other lane falls back to :meth:`allocate`.  The cache is
        not touched.

        Returns ``None`` when vectorization cannot be trusted: a subclass
        overriding any decision method (``allocate``/``initial_allocation``/
        ``_initial_monotonic``) changes the scalar semantics the array
        math mirrors, so such allocators keep the per-group scalar path.
        """
        cls = type(self)
        if (
            cls.allocate is not LpaAllocator.allocate
            or cls.initial_allocation is not LpaAllocator.initial_allocation
            or cls._initial_monotonic is not LpaAllocator._initial_monotonic
        ):
            return None
        P = check_positive_int(P, "P")
        from repro.core.lpa_batch import lpa_allocate_batch

        return lpa_allocate_batch(
            self, models, P, mu=self.mu, delta=self.delta, rtol=self.rtol
        )

    def initial_allocation(self, model: SpeedupModel, P: int) -> int:
        """Step 1: the constrained area-minimizing allocation :math:`p_j`."""
        p_max = model.max_useful_processors(P)
        t_min = model.time(p_max)
        threshold = self.delta * t_min * (1.0 + self.rtol)
        if model.monotonic_hint:
            return self._initial_monotonic(model, p_max, threshold)
        return self._initial_scan(model, p_max, threshold)

    # ------------------------------------------------------------------
    def _initial_monotonic(
        self, model: SpeedupModel, p_max: int, threshold: float
    ) -> int:
        """Two binary searches exploiting Lemma-1 monotonicity.

        ``t`` is non-increasing on ``[1, p_max]``, so the feasible set
        ``{p : t(p) <= threshold}`` is a suffix ``[p_lo, p_max]``; the area
        is non-decreasing, so the minimum area on the suffix is at
        ``p_lo`` — and any tie extends to a contiguous plateau whose right
        end we locate with a second search (choosing the fastest among the
        minimum-area allocations).
        """
        if model.time(1) <= threshold:
            p_lo = 1
        else:
            # Invariant: time(lo) > threshold >= time(hi).
            lo, hi = 1, p_max
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if model.time(mid) <= threshold:
                    hi = mid
                else:
                    lo = mid
            p_lo = hi
        area_budget = model.area(p_lo) * (1.0 + self.rtol)
        if model.area(p_max) <= area_budget:
            return p_max
        # Invariant: area(lo) <= budget < area(hi).
        lo, hi = p_lo, p_max
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if model.area(mid) <= area_budget:
                lo = mid
            else:
                hi = mid
        return lo

    def _initial_scan(self, model: SpeedupModel, p_max: int, threshold: float) -> int:
        """Linear scan for arbitrary (possibly non-monotonic) models."""
        best_p = 0
        best_area = math.inf
        best_time = math.inf
        for p in range(1, p_max + 1):
            t = model.time(p)
            if t > threshold:
                continue
            area = p * t
            if area < best_area * (1.0 - self.rtol) or (
                area <= best_area * (1.0 + self.rtol) and t < best_time
            ):
                best_p, best_area, best_time = p, area, t
        if best_p == 0:
            # t(p_max) = t_min <= delta * t_min always satisfies the
            # constraint, so this is unreachable for a sane model.
            raise AllocationError(
                f"no feasible allocation in [1, {p_max}] for model {model!r}"
            )
        return best_p

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LpaAllocator(mu={self.mu!r})"
