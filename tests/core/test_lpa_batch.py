"""Parity of the vectorized LPA decision with the scalar allocator.

:mod:`repro.core.lpa_batch` resolves whole groups of Equation (1) models
with array math; ``allocate_cached`` is the bit-identity oracle.  These
tests sweep every speedup family (plus the ineligible ones) against it
and pin the eligibility guards that keep the fallback honest (the
ineligible families must route through the scalar allocator).
"""

import math

import numpy as np
import pytest

from repro.core.allocator import LpaAllocator
from repro.core.constants import delta
from repro.core.lpa_batch import (
    BatchAllocation,
    eq1_eligible,
    eq1_params,
    eq1_time,
    lpa_allocate_batch,
    lpa_decide_eq1,
)
from repro.sim.allocation import Allocation
from repro.speedup import (
    AmdahlModel,
    CommunicationModel,
    GeneralModel,
    PowerLawModel,
    RooflineModel,
    TabulatedModel,
)
from repro.speedup.random import MixedModelFactory, RandomModelFactory

MU = 0.324
PLATFORMS = (1, 2, 7, 64, 1000)


def draw_models(family, n=40, seed=0):
    factory = RandomModelFactory(family, seed=seed)
    return [factory() for _ in range(n)]


class TestEligibility:
    def test_eq1_families_are_eligible(self):
        assert eq1_eligible(GeneralModel(50.0, d=3.0, c=0.25, max_parallelism=40))
        assert eq1_eligible(RooflineModel(60.0, 12))
        assert eq1_eligible(CommunicationModel(60.0, 0.4))
        assert eq1_eligible(AmdahlModel(60.0, 2.0))

    def test_non_general_models_are_not(self):
        assert not eq1_eligible(PowerLawModel(60.0))
        assert not eq1_eligible(TabulatedModel([10.0, 6.0, 5.0]))

    def test_overriding_the_closed_forms_disqualifies(self):
        class CustomTime(GeneralModel):
            def time(self, p):
                return super().time(p) * 1.0

        class CustomPmax(GeneralModel):
            def max_useful_processors(self, P):
                return super().max_useful_processors(P)

        class CustomArea(GeneralModel):
            def area(self, p):
                return super().area(p)

        assert not eq1_eligible(CustomTime(60.0))
        assert not eq1_eligible(CustomPmax(60.0))
        assert not eq1_eligible(CustomArea(60.0))

    def test_non_monotonic_hint_disqualifies(self):
        class Unhinted(GeneralModel):
            monotonic_hint = False

        assert not eq1_eligible(Unhinted(60.0))


class TestEq1Arrays:
    def test_params_stack_and_unbounded_sentinel(self):
        models = [
            GeneralModel(50.0, d=3.0, c=0.25, max_parallelism=40),
            CommunicationModel(60.0, 0.4),
        ]
        w, d, c, pt = eq1_params(models)
        assert w.tolist() == [50.0, 60.0]
        assert d.tolist() == [3.0, 0.0]
        assert c.tolist() == [0.25, 0.4]
        assert pt[0] == 40.0
        assert math.isinf(pt[1])  # unbounded parallelism -> min(p, inf) = p

    def test_eq1_time_matches_model_time_exactly(self):
        models = draw_models("general", seed=4)
        w, d, c, pt = eq1_params(models)
        for p in (1, 3, 17, 200):
            pf = np.full(len(models), float(p))
            vec = eq1_time(w, d, c, pt, pf)
            scalar = [m.time(p) for m in models]
            assert vec.tolist() == scalar  # bit-identical, not approximate


class TestDecisionParity:
    """Every lane's (initial, final) must equal the scalar path."""

    @pytest.mark.parametrize("family", RandomModelFactory._FAMILIES)
    @pytest.mark.parametrize("P", PLATFORMS)
    def test_vectorized_matches_allocate_cached(self, family, P):
        allocator = LpaAllocator(MU)
        seed = RandomModelFactory._FAMILIES.index(family) * 10_000 + P
        models = draw_models(family, seed=seed)
        batch = lpa_allocate_batch(
            allocator, models, P, mu=MU, delta=allocator.delta, rtol=allocator.rtol
        )
        assert batch.vectorized == len(models)
        for i, model in enumerate(models):
            oracle = allocator.allocate_cached(model, P, free=None)
            assert int(batch.initial[i]) == oracle.initial, (family, P, i)
            assert int(batch.final[i]) == oracle.final, (family, P, i)

    def test_p_equals_one_edge(self):
        allocator = LpaAllocator(MU)
        models = draw_models("communication", n=10, seed=9)
        batch = lpa_allocate_batch(
            allocator, models, 1, mu=MU, delta=allocator.delta, rtol=allocator.rtol
        )
        assert batch.final.tolist() == [1] * len(models)

    def test_decide_eq1_reports_p_max(self):
        models = [CommunicationModel(60.0, 0.4), AmdahlModel(60.0, 2.0)]
        w, d, c, pt = eq1_params(models)
        _, p_max = lpa_decide_eq1(w, d, c, pt, 64, delta(MU), 1e-9)
        for i, model in enumerate(models):
            assert int(p_max[i]) == model.max_useful_processors(64)

    def test_mixed_eligible_and_scalar_lanes(self):
        allocator = LpaAllocator(MU)
        models = [
            CommunicationModel(60.0, 0.4),
            PowerLawModel(60.0),
            AmdahlModel(60.0, 2.0),
            TabulatedModel([10.0, 6.0, 5.0]),
        ]
        batch = lpa_allocate_batch(
            allocator, models, 32, mu=MU, delta=allocator.delta, rtol=allocator.rtol
        )
        assert batch.vectorized == 2
        for i, model in enumerate(models):
            oracle = allocator.allocate_cached(model, 32, free=None)
            assert int(batch.initial[i]) == oracle.initial
            assert int(batch.final[i]) == oracle.final

    def test_mixed_families_randomized_sweep(self):
        allocator = LpaAllocator(MU)
        factory = MixedModelFactory(seed=123)
        models = [factory() for _ in range(120)]
        for P in (3, 48, 500):
            batch = lpa_allocate_batch(
                allocator, models, P, mu=MU, delta=allocator.delta, rtol=allocator.rtol
            )
            for i, model in enumerate(models):
                oracle = allocator.allocate_cached(model, P, free=None)
                assert int(batch.initial[i]) == oracle.initial, (P, i)
                assert int(batch.final[i]) == oracle.final, (P, i)


class TestAllocatorGuard:
    """allocate_batch declines when the scalar semantics may have changed."""

    def test_plain_lpa_vectorizes(self):
        batch = LpaAllocator(MU).allocate_batch(
            [CommunicationModel(60.0, 0.4)], 16
        )
        assert isinstance(batch, BatchAllocation)
        assert batch.vectorized == 1

    def test_overridden_allocate_declines(self):
        class Uncapped(LpaAllocator):
            def allocate(self, model, P, *, free=None):
                initial = self.initial_allocation(model, P)
                return Allocation(initial=initial, final=initial)

        assert Uncapped(MU).allocate_batch([CommunicationModel(60.0, 0.4)], 16) is None

    def test_overridden_initial_allocation_declines(self):
        class Custom(LpaAllocator):
            def initial_allocation(self, model, P):
                return super().initial_allocation(model, P)

        assert Custom(MU).allocate_batch([CommunicationModel(60.0, 0.4)], 16) is None

    def test_ablation_allocator_declines(self):
        from repro.experiments.ablation import UncappedLpaAllocator

        allocator = UncappedLpaAllocator(MU)
        assert allocator.allocate_batch([CommunicationModel(60.0, 0.4)], 16) is None
