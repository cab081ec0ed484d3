"""Allocation memoization is provably transparent (the tentpole's contract).

The cached entry point must return exactly the allocation the uncached
allocator would have computed — across model families, randomized
parameters, and platform sizes — and must bypass the cache whenever
correctness cannot be proven (no cache key, unhashable key,
``free``-dependent allocator, mutated model).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.online import (
    AvailableProcessorsAllocator,
    FixedFractionAllocator,
    MaxUsefulAllocator,
)
from repro.core.allocator import LpaAllocator
from repro.core.constants import MU_STAR
from repro.exceptions import AllocationError
from repro.speedup import (
    AmdahlModel,
    CallableModel,
    CommunicationModel,
    GeneralModel,
    PowerLawModel,
    RooflineModel,
)

P_GRID = (1, 2, 3, 7, 16, 64, 257)


def _model_from(family: str, w: float, frac: float, extra: int) -> object:
    """Deterministically map drawn parameters onto one model family."""
    if family == "roofline":
        return RooflineModel(w=w, max_parallelism=1 + extra)
    if family == "communication":
        return CommunicationModel(w=w, c=0.01 + frac)
    if family == "amdahl":
        return AmdahlModel(w=w, d=frac * 10.0)
    if family == "general":
        return GeneralModel(w=w, d=frac * 10.0, c=0.01 + frac / 2.0, max_parallelism=1 + extra)
    return PowerLawModel(w=w, exponent=0.2 + 0.7 * frac)


@st.composite
def models(draw):
    family = draw(
        st.sampled_from(["roofline", "communication", "amdahl", "general", "powerlaw"])
    )
    w = draw(st.floats(min_value=0.5, max_value=1e4, allow_nan=False))
    frac = draw(st.floats(min_value=0.01, max_value=0.9, allow_nan=False))
    extra = draw(st.integers(min_value=0, max_value=300))
    return _model_from(family, w, frac, extra)


class TestCachedEqualsUncached:
    @given(model=models())
    @settings(max_examples=150, deadline=None)
    def test_lpa_identical_allocations(self, model):
        cached = LpaAllocator(MU_STAR["communication"])
        uncached = LpaAllocator(MU_STAR["communication"])
        uncached.configure_cache(0)  # memoization disabled
        for P in P_GRID:
            a = cached.allocate_cached(model, P)
            b = uncached.allocate_cached(model, P)
            assert a == b
            # And a second cached call returns the same (now cached) answer.
            assert cached.allocate_cached(model, P) == b
        assert uncached.cache_info().hits == 0
        assert cached.cache_info().hits >= len(P_GRID)  # repeat calls hit

    @given(model=models())
    @settings(max_examples=60, deadline=None)
    def test_baselines_identical_allocations(self, model):
        for make in (MaxUsefulAllocator, lambda: FixedFractionAllocator(0.5)):
            cached, uncached = make(), make()
            uncached.configure_cache(0)
            for P in P_GRID:
                assert cached.allocate_cached(model, P) == uncached.allocate_cached(
                    model, P
                )


class TestBypassSemantics:
    def test_callable_model_bypasses(self):
        """CallableModel has no cache key: every call is a counted bypass."""
        allocator = LpaAllocator(MU_STAR["amdahl"])
        model = CallableModel(lambda p: 10.0 / p + 0.1 * p)
        a1 = allocator.allocate_cached(model, 16)
        a2 = allocator.allocate_cached(model, 16)
        assert a1 == a2 == allocator.allocate(model, 16)
        info = allocator.cache_info()
        assert info.bypasses == 2 and info.hits == 0 and info.currsize == 0

    def test_unhashable_cache_key_bypasses(self):
        class ListKeyModel(CommunicationModel):
            def cache_key(self):  # lists are unhashable
                return ["communication", self.w, self.c]

        allocator = LpaAllocator(MU_STAR["communication"])
        model = ListKeyModel(w=50.0, c=0.5)
        assert allocator.allocate_cached(model, 8) == allocator.allocate(model, 8)
        assert allocator.cache_info().bypasses >= 1

    def test_free_dependent_allocator_never_cached(self):
        allocator = AvailableProcessorsAllocator()
        model = CommunicationModel(w=50.0, c=0.5)
        a_full = allocator.allocate_cached(model, 16, free=16)
        a_tight = allocator.allocate_cached(model, 16, free=2)
        assert a_full.final != a_tight.final  # the decision tracked `free`
        info = allocator.cache_info()
        assert info.hits == 0 and info.currsize == 0 and info.bypasses == 2

    def test_mutated_model_gets_fresh_entry(self):
        """A changed parameterization must never see the stale allocation."""
        allocator = LpaAllocator(MU_STAR["general"])
        model = GeneralModel(w=100.0, d=1.0, c=0.5, max_parallelism=32)
        before = allocator.allocate_cached(model, 64)
        model.w = 5000.0  # mutate in place: cache_key changes with it
        after = allocator.allocate_cached(model, 64)
        fresh = LpaAllocator(MU_STAR["general"]).allocate(model, 64)
        assert after == fresh
        assert before != after or before == fresh  # never the stale answer


class TestCacheMechanics:
    def test_lru_eviction_bounded(self):
        allocator = LpaAllocator(MU_STAR["communication"])
        allocator.configure_cache(4)
        for i in range(10):
            allocator.allocate_cached(CommunicationModel(w=10.0 + i, c=0.5), 8)
        info = allocator.cache_info()
        assert info.currsize <= 4 and info.misses == 10

    def test_negative_maxsize_rejected(self):
        with pytest.raises(AllocationError):
            LpaAllocator(MU_STAR["communication"]).configure_cache(-1)

    def test_clear_resets_counters(self):
        allocator = LpaAllocator(MU_STAR["communication"])
        allocator.allocate_cached(CommunicationModel(w=10.0, c=0.5), 8)
        allocator.clear_allocation_cache()
        info = allocator.cache_info()
        assert (info.hits, info.misses, info.bypasses, info.currsize) == (0, 0, 0, 0)

    def test_eq1_family_shares_cache_entries(self):
        """Roofline/Amdahl/Communication with equal (w, d, c, p~) coincide."""
        allocator = LpaAllocator(MU_STAR["communication"])
        a = CommunicationModel(w=50.0, c=0.5)
        b = GeneralModel(w=50.0, d=0.0, c=0.5, max_parallelism=a.max_parallelism)
        assert math.isclose(a.time(7), b.time(7))
        allocator.allocate_cached(a, 16)
        allocator.allocate_cached(b, 16)
        info = allocator.cache_info()
        assert info.misses == 1 and info.hits == 1


class TestPrefetch:
    def test_prefetched_miss_skips_scalar_search(self):
        allocator = LpaAllocator(MU_STAR["communication"])
        model = CommunicationModel(w=50.0, c=0.5)
        expected = allocator.allocate(model, 16)
        with allocator.prefetch([model, model], 16) as vectorized:
            assert vectorized == 1
            allocator.allocate = None  # any scalar call would now fail
            assert allocator.allocate_cached(model, 16) == expected
            assert allocator.allocate_cached(model, 16) == expected
        info = allocator.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_cached_and_keyless_models_are_not_batched(self):
        allocator = LpaAllocator(MU_STAR["communication"])
        cached = CommunicationModel(w=50.0, c=0.5)
        allocator.allocate_cached(cached, 16)
        keyless = CallableModel(lambda p: 10.0 / p + 0.1 * p)
        with allocator.prefetch([cached, keyless], 16) as vectorized:
            assert vectorized == 0
            assert allocator._prefetched is None

    def test_nested_prefetch_restores_outer_table(self):
        allocator = LpaAllocator(MU_STAR["communication"])
        a = CommunicationModel(w=50.0, c=0.5)
        b = CommunicationModel(w=70.0, c=0.5)
        with allocator.prefetch([a], 16):
            outer = allocator._prefetched
            assert outer is not None
            with allocator.prefetch([b], 32):
                assert allocator._prefetched is not outer
            assert allocator._prefetched is outer
        assert allocator._prefetched is None

    def test_table_dropped_on_exception(self):
        allocator = LpaAllocator(MU_STAR["communication"])
        with pytest.raises(RuntimeError):
            with allocator.prefetch([CommunicationModel(w=50.0, c=0.5)], 16):
                assert allocator._prefetched is not None
                raise RuntimeError("inside the block")
        assert allocator._prefetched is None

    @pytest.mark.parametrize(
        "allocator",
        [
            MaxUsefulAllocator(),  # no allocate_batch
            AvailableProcessorsAllocator(),  # reads `free`
        ],
    )
    def test_noop_without_batch_resolution(self, allocator):
        with allocator.prefetch([CommunicationModel(w=50.0, c=0.5)], 16) as vectorized:
            assert vectorized == 0
            assert allocator._prefetched is None

    def test_noop_when_cache_disabled_or_batch_declines(self):
        disabled = LpaAllocator(MU_STAR["communication"])
        disabled.configure_cache(0)

        class Declining(LpaAllocator):
            def allocate_batch(self, models, P):
                return None

        for allocator in (disabled, Declining(MU_STAR["communication"])):
            with allocator.prefetch([CommunicationModel(w=50.0, c=0.5)], 16) as vectorized:
                assert vectorized == 0
                assert allocator._prefetched is None
