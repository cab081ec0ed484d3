"""ServiceCore: admission, quotas, backpressure, shedding, recovery."""

import pytest

from repro.exceptions import (
    AdmissionRejected,
    ProtocolError,
    QuotaExceeded,
    SessionClosed,
)
from repro.service.config import ServiceConfig, TenantQuota
from repro.service.core import ServiceCore
from repro.service.journal import read_journal
from repro.service.protocol import Hello, Submit
from repro.speedup import AmdahlModel, RooflineModel

#: ``state_digest()`` of :func:`pinned_lifecycle`, live and recovered.
LIFECYCLE_DIGEST = "f8efff4f3c8b35e53baaa413ed742aa6c58b64fc141ec7b34b9c043155f1616f"


def submit_n(core, tenant, count, prefix="t"):
    for i in range(count):
        core.submit(tenant, Submit(task=f"{prefix}{i}", model=AmdahlModel(8.0, 1.0)))


class TestAdmission:
    def test_hello_acks_effective_quota(self):
        core = ServiceCore(ServiceConfig(P=8, family="amdahl"))
        info = core.hello(Hello(tenant="a", max_running_procs=2))
        assert info["P"] == 8
        assert info["quota"]["max_running_procs"] == 2

    def test_tenant_id_with_slash_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        with pytest.raises(ProtocolError):
            core.hello(Hello(tenant="a/b"))

    def test_duplicate_active_session_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        with pytest.raises(AdmissionRejected):
            core.hello(Hello(tenant="a"))

    def test_session_limit_has_retry_after(self):
        config = ServiceConfig(P=4, family="amdahl", max_tenants=1, retry_after_s=0.5)
        core = ServiceCore(config)
        core.hello(Hello(tenant="a"))
        with pytest.raises(AdmissionRejected) as excinfo:
            core.hello(Hello(tenant="b"))
        assert excinfo.value.retry_after == 0.5

    def test_seat_frees_after_cancel(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl", max_tenants=1))
        core.hello(Hello(tenant="a"))
        core.cancel("a")
        core.hello(Hello(tenant="b"))  # must not raise

    def test_quota_is_shrink_only(self):
        config = ServiceConfig(
            P=8,
            family="amdahl",
            quota=TenantQuota(max_inflight_tasks=10, max_running_procs=4),
        )
        core = ServiceCore(config)
        with pytest.raises(QuotaExceeded):
            core.hello(Hello(tenant="greedy", max_inflight_tasks=100))
        with pytest.raises(QuotaExceeded):
            core.hello(Hello(tenant="greedy", max_running_procs=8))
        info = core.hello(Hello(tenant="modest", max_inflight_tasks=2))
        assert info["quota"]["max_inflight_tasks"] == 2


class TestBackpressure:
    def test_inflight_quota_rejects_with_retry_after(self):
        config = ServiceConfig(
            P=1,
            family="amdahl",
            quota=TenantQuota(max_inflight_tasks=2),
            retry_after_s=0.25,
        )
        core = ServiceCore(config)
        core.hello(Hello(tenant="a"))
        submit_n(core, "a", 2)
        with pytest.raises(QuotaExceeded) as excinfo:
            core.submit("a", Submit(task="extra", model=AmdahlModel(1.0, 1.0)))
        assert excinfo.value.retry_after == 0.25
        # Draining the inflight work clears the backpressure.
        core.drain()
        core.submit("a", Submit(task="extra", model=AmdahlModel(1.0, 1.0)))

    def test_queue_depth_limit_rejects(self):
        config = ServiceConfig(
            P=1,
            family="amdahl",
            max_queue_depth=2,
            shed_threshold=None,
            quota=TenantQuota(max_inflight_tasks=100),
        )
        core = ServiceCore(config)
        core.hello(Hello(tenant="a"))
        submit_n(core, "a", 3)  # 1 running + 2 queued
        with pytest.raises(AdmissionRejected):
            core.submit("a", Submit(task="over", model=AmdahlModel(8.0, 1.0)))

    def test_duplicate_task_and_unknown_dep_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        core.submit("a", Submit(task="x", model=AmdahlModel(1.0, 1.0)))
        with pytest.raises(ProtocolError):
            core.submit("a", Submit(task="x", model=AmdahlModel(1.0, 1.0)))
        with pytest.raises(ProtocolError):
            core.submit(
                "a", Submit(task="y", model=AmdahlModel(1.0, 1.0), deps=("ghost",))
            )

    def test_submit_after_close_rejected(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        core.close("a")
        with pytest.raises(SessionClosed):
            core.submit("a", Submit(task="late", model=AmdahlModel(1.0, 1.0)))


class TestShedding:
    def config(self):
        return ServiceConfig(
            P=1,
            family="amdahl",
            max_queue_depth=100,
            shed_threshold=4,
            quota=TenantQuota(max_inflight_tasks=100),
            max_tenants=10,
        )

    def test_sheds_lowest_priority_newest_session(self):
        core = ServiceCore(self.config())
        core.hello(Hello(tenant="vip", priority=5))
        core.hello(Hello(tenant="old-low", priority=0))
        core.hello(Hello(tenant="new-low", priority=0))
        submit_n(core, "vip", 2, prefix="v")
        submit_n(core, "old-low", 2, prefix="o")
        # This submission pushes the queue to the threshold: the shed
        # victim must be the newest priority-0 session — the submitter.
        _, shed = core.submit(
            "new-low", Submit(task="n0", model=AmdahlModel(8.0, 1.0))
        )
        evicted = [t for t, n in shed if n["event"] == "evicted"]
        assert "new-low" in evicted  # newest among the priority-0 pair
        assert "vip" not in evicted
        assert core.shed_count >= 1

    def test_shed_is_replayable(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(self.config(), journal_path=journal)
        core.hello(Hello(tenant="a", priority=1))
        core.hello(Hello(tenant="b", priority=0))
        submit_n(core, "a", 3, prefix="a")
        with pytest.raises(SessionClosed):
            submit_n(core, "b", 4, prefix="b")  # b gets shed mid-stream
        assert core.shed_count >= 1
        digest = core.state_digest()
        core.close_journal()
        recovered = ServiceCore.recover(journal, reopen=False)
        assert recovered.state_digest() == digest


class TestJournalDiscipline:
    def test_idle_ticks_not_journaled(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl"), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        records_before = core.journal.next_seq
        for _ in range(50):
            core.tick()
        assert core.journal.next_seq == records_before
        core.close_journal()
        _, mutations = read_journal(journal)
        assert [m["op"] for m in mutations] == ["hello"]

    def test_rejected_mutations_leave_no_trace(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl", max_tenants=1), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        with pytest.raises(AdmissionRejected):
            core.hello(Hello(tenant="b"))
        with pytest.raises(ProtocolError):
            core.fault("fail", 99)
        core.close_journal()
        _, mutations = read_journal(journal)
        assert [m["op"] for m in mutations] == ["hello"]

    def test_full_lifecycle_recovery_is_digest_identical(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl"), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        core.submit("a", Submit(task="x", model=AmdahlModel(8.0, 1.0)))
        core.submit("a", Submit(task="y", model=AmdahlModel(4.0, 1.0), deps=("x",)))
        core.fault("fail", 0)
        core.fault("recover", 0)
        core.close("a")
        core.drain()
        digest = core.state_digest()
        core.close_journal()
        recovered = ServiceCore.recover(journal, reopen=False)
        assert recovered.state_digest() == digest
        assert recovered.pool.tenants["a"].status == "finished"

    def test_recovery_reopens_for_further_mutations(self, tmp_path):
        journal = tmp_path / "wal.jsonl"
        core = ServiceCore(
            ServiceConfig(P=4, family="amdahl"), journal_path=journal
        )
        core.hello(Hello(tenant="a"))
        core.close_journal()
        recovered = ServiceCore.recover(journal)
        recovered.submit("a", Submit(task="x", model=AmdahlModel(1.0, 1.0)))
        digest = recovered.state_digest()
        recovered.close_journal()
        second = ServiceCore.recover(journal, reopen=False)
        assert second.state_digest() == digest


def pinned_lifecycle(path):
    """Quota, cancel, deadline eviction and RETRY_EXHAUSTED in one journal."""
    config = ServiceConfig(P=6, family="amdahl", fault_max_attempts=2, fault_backoff=0.5)
    core = ServiceCore(config, journal_path=path)
    core.hello(Hello(tenant="quota", max_running_procs=2))
    core.hello(Hello(tenant="late", deadline=3.0))
    core.hello(Hello(tenant="gone"))
    core.hello(Hello(tenant="fragile"))
    for i in range(4):
        deps = (f"q{i - 1}",) if i % 2 else ()
        core.submit("quota", Submit(task=f"q{i}", model=AmdahlModel(6.0 + i, 0.5), deps=deps))
    core.submit("late", Submit(task="l0", model=AmdahlModel(20.0, 1.0)))
    core.submit("late", Submit(task="l1", model=AmdahlModel(5.0, 1.0), deps=("l0",)))
    core.submit("gone", Submit(task="g0", model=RooflineModel(9.0, 3)))
    core.submit("fragile", Submit(task="f0", model=RooflineModel(30.0, 2)))
    for tenant in ("quota", "late", "fragile"):
        core.close(tenant)
    core.tick(2)
    core.cancel("gone")
    owner = core.pool.state_dict()["owner"]
    victim = next(int(q) for q, (tenant, _) in owner.items() if tenant == "fragile")
    core.fault("fail", victim)
    core.tick(3)
    core.fault("recover", victim)
    owner = core.pool.state_dict()["owner"]
    victim = next(int(q) for q, (tenant, _) in owner.items() if tenant == "fragile")
    core.fault("fail", victim)
    core.drain()
    return core


class TestPinnedLifecycle:
    def test_live_and_recovered_digests_are_pinned(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        core = pinned_lifecycle(path)
        runs = core.pool.tenants
        assert runs["quota"].status == "finished"
        assert (runs["late"].status, runs["late"].reason) == ("cancelled", "DEADLINE_EXCEEDED")
        assert (runs["gone"].status, runs["gone"].reason) == ("cancelled", "CANCELLED")
        assert (runs["fragile"].status, runs["fragile"].reason) == ("cancelled", "RETRY_EXHAUSTED")
        assert core.state_digest() == LIFECYCLE_DIGEST
        core.close_journal()
        assert ServiceCore.recover(path, reopen=False).state_digest() == LIFECYCLE_DIGEST


class TestStatus:
    def test_status_reports_pool_shape(self):
        core = ServiceCore(ServiceConfig(P=4, family="amdahl"))
        core.hello(Hello(tenant="a"))
        core.submit("a", Submit(task="x", model=AmdahlModel(8.0, 1.0)))
        status = core.status()
        assert status["P"] == 4
        assert status["tenants"]["a"]["status"] == "open"
        assert status["tenants"]["a"]["inflight"] == 1
        assert status["free"] < 4
        assert status["journal_records"] is None
