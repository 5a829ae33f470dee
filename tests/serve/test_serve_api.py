"""API contract tests for the ``clip-sched serve`` daemon.

One daemon (module-scoped: the scheduler behind it trains the
inflection predictor once) serves every test over real sockets via
:class:`~repro.serve.client.ServeClient`: submit/query/update-budget
happy paths, quota and admission rejections, JSON round-trips of
decisions over the wire, the telemetry stream, and error codecs.  A
separate daemon instance covers the start → burst → clean-shutdown
smoke path the CI workflow exercises.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.scheduler import ClipScheduler, SchedulingDecision
from repro.errors import ServeError
from repro.serve import SchedulerService, ServeClient, ServeDaemon, TenantQuota
from repro.serve.service import Submission
from repro.workloads.apps import get_app

BUDGET_W = 1400.0
MAX_PENDING = 64


@pytest.fixture(scope="module")
def clip(trained_inflection):
    """One scheduler shared by the daemons under test."""
    from repro.hw.cluster import SimulatedCluster
    from repro.sim.engine import ExecutionEngine

    engine = ExecutionEngine(SimulatedCluster.testbed(), seed=42)
    return ClipScheduler(engine, inflection=trained_inflection)


@pytest.fixture(scope="module")
def daemon(clip):
    """A running daemon on an ephemeral port."""
    service = SchedulerService(
        clip,
        BUDGET_W,
        max_pending=MAX_PENDING,
        quotas={
            "small": TenantQuota(budget_w=900.0),
            "narrow": TenantQuota(max_pending=2),
        },
    )
    daemon = ServeDaemon(service, port=0).start_in_thread()
    yield daemon
    daemon.shutdown()


@pytest.fixture()
def client(daemon):
    with ServeClient("127.0.0.1", daemon.port) as client:
        yield client


class TestSubmitAndQuery:
    def test_health_and_stats(self, client):
        assert client.health() == {"ok": True}
        stats = client.stats()
        assert stats["budget_w"] == BUDGET_W
        assert stats["audit_violations"] == 0

    def test_single_submission_round_trips(self, client):
        (job,) = client.submit("comd")
        assert job["status"] == "done"
        assert job["tenant"] == "default"
        assert job["latency_s"] >= 0.0
        decision = SchedulingDecision.from_dict(job["decision"])
        assert decision.app_name == "comd"
        assert decision.cluster_budget_w == BUDGET_W
        assert decision.total_capped_w <= BUDGET_W + 1e-6
        # the wire form is exactly the decision's own codec
        assert decision.to_dict() == job["decision"]

    def test_burst_submission_with_duplicates(self, client):
        jobs = client.submit(["comd", "minimd", "comd", "sp-mz.C"])
        assert [j["app"] for j in jobs] == ["comd", "minimd", "comd", "sp-mz.C"]
        assert all(j["status"] == "done" for j in jobs)
        first = SchedulingDecision.from_dict(jobs[0]["decision"])
        dup = SchedulingDecision.from_dict(jobs[2]["decision"])
        assert first == dup  # one pipeline pass, equal plans

    def test_query_matches_submission(self, client):
        (job,) = client.submit("tealeaf")
        fetched = client.job(job["job_id"])
        assert fetched == job

    def test_async_submission_polls_to_done(self, client):
        (job,) = client.submit("comd", wait=False)
        assert job["status"] in ("pending", "done")
        deadline = time.time() + 30.0
        while job["status"] == "pending":
            assert time.time() < deadline, "job never decided"
            time.sleep(0.01)
            job = client.job(job["job_id"])
        assert job["status"] == "done"
        assert job["decision"] is not None

    def test_per_job_budget_override(self, client):
        jobs = client.submit([{"app": "comd", "budget_w": 1000.0}, "comd"])
        budgets = [j["decision"]["cluster_budget_w"] for j in jobs]
        assert budgets == [1000.0, BUDGET_W]


class TestBudgetAndQuotas:
    def test_update_budget_applies_to_new_submissions(self, client):
        assert client.budget() == BUDGET_W
        try:
            assert client.update_budget(1100.0) == 1100.0
            (job,) = client.submit("comd")
            assert job["decision"]["cluster_budget_w"] == 1100.0
        finally:
            client.update_budget(BUDGET_W)

    def test_bad_budget_rejected(self, client):
        status, data = client.request("POST", "/v1/budget", {"budget_w": -5})
        assert status == 400
        assert "error" in data
        assert client.budget() == BUDGET_W  # unchanged

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), "abc", None], ids=repr
    )
    def test_non_finite_or_non_numeric_budget_rejected(self, client, bad):
        status, data = client.request("POST", "/v1/budget", {"budget_w": bad})
        assert status == 400, data
        assert "budget" in data["error"]
        assert client.budget() == BUDGET_W  # unchanged
        (job,) = client.submit("comd")
        assert job["decision"]["cluster_budget_w"] == BUDGET_W

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), "abc"], ids=repr
    )
    def test_non_finite_or_non_numeric_job_budget_rejected(self, client, bad):
        before = client.stats()
        status, data = client.request(
            "POST", "/v1/jobs", {"jobs": [{"app": "comd", "budget_w": bad}]}
        )
        assert status == 400, data
        assert "job budget" in data["error"]
        assert client.stats()["submitted"] == before["submitted"]

    def test_service_rejects_non_finite_budget(self, clip):
        with pytest.raises(ServeError):
            SchedulerService(clip, float("nan"))
        service = SchedulerService(clip, BUDGET_W)
        with pytest.raises(ServeError):
            service.update_budget(float("inf"))
        assert service.budget_w == BUDGET_W

    @pytest.mark.parametrize(
        "spec", ["a=nan", "a=inf", "a=-100", "a=0", "a=100:-1", "a=100:0"]
    )
    def test_bad_quota_spec_rejected(self, spec):
        with pytest.raises(ServeError, match="bad quota spec"):
            TenantQuota.parse(spec)

    def test_quota_spec_parses(self):
        assert TenantQuota.parse("a=900:3") == (
            "a", TenantQuota(budget_w=900.0, max_pending=3)
        )

    def test_service_rejects_max_pending_below_one(self, clip):
        with pytest.raises(ServeError, match="max_pending"):
            SchedulerService(clip, BUDGET_W, max_pending=0)

    def test_tenant_budget_quota_caps_decisions(self, client):
        (job,) = client.submit("comd", tenant="small")
        assert job["decision"]["cluster_budget_w"] == 900.0
        # quota clamps, it does not raise
        (job,) = client.submit([{"app": "comd", "budget_w": 1200.0}],
                               tenant="small")
        assert job["decision"]["cluster_budget_w"] == 900.0

    def test_global_admission_rejects_oversized_burst(self, client):
        status, data = client.request(
            "POST", "/v1/jobs", {"jobs": ["comd"] * (MAX_PENDING + 1)}
        )
        assert status == 429
        assert data["rejected"] is True
        assert "max_pending" in data["error"]

    def test_tenant_admission_rejects_over_quota(self, client):
        status, data = client.request(
            "POST",
            "/v1/jobs",
            {"jobs": ["comd"] * 3, "tenant": "narrow"},
        )
        assert status == 429
        assert data["tenant"] == "narrow"
        # a burst within quota still lands
        jobs = client.submit(["comd", "minimd"], tenant="narrow")
        assert all(j["status"] == "done" for j in jobs)

    def test_rejection_is_all_or_nothing(self, client):
        before = client.stats()
        status, _ = client.request(
            "POST", "/v1/jobs", {"jobs": ["comd"] * (MAX_PENDING + 1)}
        )
        assert status == 429
        after = client.stats()
        assert after["decided"] == before["decided"]
        assert after["rejected"] == before["rejected"] + MAX_PENDING + 1


class TestErrorCodec:
    def test_unknown_app_is_400(self, client):
        status, data = client.request(
            "POST", "/v1/jobs", {"jobs": ["no-such-app"]}
        )
        assert status == 400
        assert "no-such-app" in data["error"]

    def test_unknown_job_is_404(self, client):
        status, data = client.request("GET", "/v1/jobs/j-999999")
        assert status == 404
        assert "unknown job" in data["error"]

    def test_unknown_path_is_404(self, client):
        status, _ = client.request("GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_405(self, client):
        status, _ = client.request("GET", "/v1/jobs")
        assert status == 405
        status, _ = client.request("POST", "/v1/stats", {})
        assert status == 405

    def test_bad_json_is_400(self, client):
        status, data = client.request("POST", "/v1/jobs", {"nope": 1})
        assert status == 400
        # raw garbage bodies too
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", client._port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/jobs",
                body=b"not json",
                headers={"Content-Type": "application/json"},
            )
            assert conn.getresponse().status == 400
        finally:
            conn.close()

    def test_negative_content_length_is_400(self, client):
        import socket

        with socket.create_connection(
            ("127.0.0.1", client._port), timeout=10
        ) as sock:
            sock.sendall(
                b"POST /v1/budget HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: -1\r\n\r\n"
            )
            reply = sock.makefile("rb").readline()
        assert reply.split()[1] == b"400", reply

    def test_client_raises_serve_error(self, client):
        with pytest.raises(ServeError) as err:
            client.submit("no-such-app")
        assert err.value.status == 400


class TestOutcomeReporting:
    def test_outcome_feeds_the_learning_layer(self, client, clip):
        (job,) = client.submit("comd")
        before = client.stats()
        predicted = job["decision"]["allocation"]["predicted_cluster_perf"]
        measured = predicted * 0.9
        record = client.record_outcome(
            job["job_id"], performance=measured, measured_power_w=1200.0
        )
        assert record["outcome"]["performance"] == pytest.approx(measured)
        assert record["outcome"]["recorded"] is True
        # the observation landed in the knowledge entry...
        app = get_app("comd")
        entry = clip.knowledge.get(app.name, app.problem_size)
        obs = entry.observations[-1]
        assert obs.source == "serve"
        assert obs.measured_time_s == pytest.approx(1.0 / measured)
        # ...and the daemon's telemetry shows it
        after = client.stats()
        assert after["outcomes"] == before["outcomes"] + 1
        assert (
            after["learning"]["outcomes"]
            == before["learning"]["outcomes"] + 1
        )
        assert after["learning"]["enabled"] is False

    def test_outcome_accepts_measured_time(self, client):
        (job,) = client.submit("minimd")
        record = client.record_outcome(job["job_id"], measured_time_s=2.0)
        assert record["outcome"]["performance"] == pytest.approx(0.5)
        fetched = client.job(job["job_id"])
        assert fetched["outcome"] == record["outcome"]

    def test_unknown_job_outcome_is_404(self, client):
        status, data = client.request(
            "POST", "/v1/jobs/j-999999/outcome", {"performance": 1.0}
        )
        assert status == 404
        assert "unknown" in data["error"] or "no such" in data["error"]

    def test_double_report_is_409(self, client):
        (job,) = client.submit("comd")
        client.record_outcome(job["job_id"], performance=1.0)
        with pytest.raises(ServeError) as err:
            client.record_outcome(job["job_id"], performance=1.0)
        assert err.value.status == 409

    def test_bad_outcome_payload_is_400(self, client):
        (job,) = client.submit("comd")
        for payload in ({}, {"performance": -1.0}, {"measured_time_s": 0}):
            status, _ = client.request(
                "POST", f"/v1/jobs/{job['job_id']}/outcome", payload
            )
            assert status == 400, payload

    @pytest.mark.parametrize(
        "payload",
        [
            {"performance": float("nan")},
            {"performance": float("inf")},
            {"performance": "fast"},
            {"measured_time_s": float("nan")},
            {"measured_time_s": "slow"},
            {"measured_time_s": 1e-320},  # its inverse overflows to inf
            {"performance": 1.0, "measured_power_w": float("nan")},
            {"performance": 1.0, "measured_power_w": float("inf")},
            {"performance": 1.0, "measured_power_w": "hot"},
            {"performance": 1.0, "measured_power_w": -5.0},
        ],
        ids=[
            "perf-nan", "perf-inf", "perf-str", "time-nan", "time-str",
            "time-denormal", "power-nan", "power-inf", "power-str",
            "power-negative",
        ],
    )
    def test_non_finite_or_non_numeric_outcome_is_400(self, client, payload):
        (job,) = client.submit("comd")
        status, data = client.request(
            "POST", f"/v1/jobs/{job['job_id']}/outcome", payload
        )
        assert status == 400, (payload, data)

    def test_rejected_report_leaves_the_job_reportable(self, client):
        (job,) = client.submit("comd")
        path = f"/v1/jobs/{job['job_id']}/outcome"
        status, _ = client.request(
            "POST", path, {"performance": 1.0, "measured_power_w": "hot"}
        )
        assert status == 400
        assert client.job(job["job_id"])["outcome"] is None
        record = client.record_outcome(
            job["job_id"], performance=1.0, measured_power_w=1200.0
        )
        assert record["outcome"]["recorded"] is True
        assert record["outcome"]["measured_power_w"] == 1200.0

    def test_outcome_requires_post(self, client):
        (job,) = client.submit("comd")
        status, _ = client.request(
            "GET", f"/v1/jobs/{job['job_id']}/outcome"
        )
        assert status == 405


class TestTelemetry:
    def test_stream_reports_decisions(self, client):
        client.submit(["comd", "minimd"])
        events = client.telemetry(2, interval=0.05)
        assert len(events) == 2
        for event in events:
            assert event["decided"] >= 2
            assert event["audit_violations"] == 0
            assert "decisions_per_s" in event
            assert "pending" in event

    @pytest.mark.parametrize(
        "events, interval",
        [(1, float("inf")), (1, float("nan")), (-3, 0.05)],
        ids=["interval=inf", "interval=nan", "events=-3"],
    )
    def test_bad_stream_parameters_are_400(self, daemon, events, interval):
        with ServeClient("127.0.0.1", daemon.port, timeout=5) as client:
            with pytest.raises(ServeError) as exc:
                client.telemetry(events, interval=interval)
        assert exc.value.status == 400


class TestDaemonLifecycle:
    def test_smoke_start_burst_clean_shutdown(self, clip):
        """The CI smoke path: fresh daemon, one burst, clean stop."""
        service = SchedulerService(clip, BUDGET_W)
        daemon = ServeDaemon(service, port=0).start_in_thread()
        try:
            with ServeClient("127.0.0.1", daemon.port) as client:
                jobs = client.submit(["comd", "minimd", "comd", "tealeaf"])
                assert [j["status"] for j in jobs] == ["done"] * 4
                stats = client.stats()
                assert stats["decided"] >= 4
                assert stats["audit_violations"] == 0
        finally:
            daemon.shutdown()
        assert daemon._thread is None  # joined
        clip.monitor.assert_clean()

    def test_shutdown_fails_undecided_queue(self, clip):
        """Submissions still queued at shutdown fail loudly, they do
        not hang their waiters."""
        service = SchedulerService(clip, BUDGET_W)
        daemon = ServeDaemon(service, port=0).start_in_thread()
        # bypass HTTP: enqueue directly after stopping the coalescer so
        # the submission can never be decided
        subs = service.submit(["comd"])
        daemon.shutdown()
        service.fail_pending(subs, "service shutting down")
        assert subs[0].record.status == "failed"
        with pytest.raises(ServeError):
            subs[0].future.result(timeout=1)

    def test_two_daemons_share_one_scheduler(self, daemon, clip):
        """Two daemons (two coalescers, two decision threads) safely
        share the scheduler's caches — the serve-layer version of the
        concurrency suite."""
        service2 = SchedulerService(clip, BUDGET_W)
        daemon2 = ServeDaemon(service2, port=0).start_in_thread()
        try:
            results: list[list[dict]] = []
            errors: list[Exception] = []

            def hit(port):
                try:
                    with ServeClient("127.0.0.1", port) as c:
                        results.append(c.submit(["comd", "minimd"] * 4))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=hit, args=(port,))
                for port in (daemon.port, daemon2.port)
                for _ in range(2)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not errors
            assert len(results) == 4
            reference = results[0][0]["decision"]
            for jobs in results:
                for job in jobs:
                    assert job["status"] == "done"
                    if job["app"] == "comd":
                        assert job["decision"] == reference
            clip.monitor.assert_clean()
        finally:
            daemon2.shutdown()


class TestSubmissionValidation:
    def test_empty_submission_rejected(self, client):
        status, _ = client.request("POST", "/v1/jobs", {"jobs": []})
        assert status == 400

    def test_bad_job_spec_rejected(self, client):
        for jobs in ([42], [{"budget_w": 100.0}], [{"app": 7}]):
            status, _ = client.request("POST", "/v1/jobs", {"jobs": jobs})
            assert status == 400, jobs

    def test_direct_service_submission_type(self, clip):
        """The transport-free service hands back live submissions."""
        service = SchedulerService(clip, BUDGET_W)
        subs = service.submit(["comd"])
        assert isinstance(subs[0], Submission)
        assert subs[0].record.status == "pending"
        assert subs[0].app is get_app("comd")
        service.decide_burst(subs)
        assert subs[0].record.status == "done"
        assert subs[0].future.result(timeout=1).app_name == "comd"
