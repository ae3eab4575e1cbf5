"""The campaign server: submit → poll → stream → browse → re-render."""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.errors import ExperimentError
from repro.service import DbResultStore, JobManager, build_server


@pytest.fixture()
def server(tmp_path):
    srv = build_server(tmp_path / "service.sqlite", port=0, quiet=True)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.close()
        thread.join(timeout=5.0)


def _url(server, path):
    host, port = server.server_address[:2]
    return f"http://{host}:{port}{path}"


def _get_json(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return json.loads(resp.read())


def _get_text(server, path):
    with urllib.request.urlopen(_url(server, path), timeout=30) as resp:
        return resp.read().decode()


def _post_json(server, path, payload):
    request = urllib.request.Request(
        _url(server, path),
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        return resp.status, json.loads(resp.read())


GRID_SPEC = {
    "axes": {"protocol": ["pure_leach"]},
    "preset": "smoke",
    "horizon_s": 5.0,
    "sample_interval_s": 1.0,
    "seeds": [1],
}


class TestEndpoints:
    def test_health_and_experiments(self, server):
        health = _get_json(server, "/health")
        assert health["ok"] is True
        assert health["rows"] == 0
        assert health["schema_version"] >= 2
        listed = _get_json(server, "/experiments")["experiments"]
        names = {spec["name"] for spec in listed}
        assert {"fig8", "table1", "ext-dynamics"} <= names
        assert all({"name", "kind", "summary"} <= set(s) for s in listed)

    def test_submit_poll_stream_browse(self, server):
        status, submitted = _post_json(server, "/campaigns", GRID_SPEC)
        assert status == 202
        job_id = submitted["job_id"]
        assert submitted["status"] in ("queued", "running")

        assert server.manager.get(job_id).wait(timeout=120.0)
        snap = _get_json(server, f"/campaigns/{job_id}")
        assert snap["status"] == "done"
        assert snap["total_cells"] == 1
        assert snap["completed_cells"] == 1
        assert snap["cache"]["misses"] == 1

        # NDJSON event stream: replayable, ordered, terminal.
        lines = _get_text(
            server, f"/campaigns/{job_id}/events?timeout=5"
        ).strip().splitlines()
        events = [json.loads(line) for line in lines]
        assert [e["type"] for e in events] == ["plan", "cell", "done"]
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert events[1]["source"] == "sim"
        # Replay from an offset skips what was already seen.
        tail = _get_text(
            server, f"/campaigns/{job_id}/events?after=2&timeout=5"
        ).strip().splitlines()
        assert [json.loads(line)["type"] for line in tail] == ["done"]

        # The rows are browsable with predicates.
        browsed = _get_json(
            server, "/runs?protocol=pure_leach&where=delivery_rate>=0"
        )
        assert browsed["count"] == 1
        row = browsed["rows"][0]
        assert row["protocol"] == "pure_leach"
        assert "sample_times_s" not in row  # scalar summary by default
        full = _get_json(server, "/runs?full=1")
        assert "sample_times_s" in full["rows"][0]

        # Resubmitting the identical campaign is served from the cache.
        _, again = _post_json(server, "/campaigns", GRID_SPEC)
        assert server.manager.get(again["job_id"]).wait(timeout=60.0)
        snap2 = _get_json(server, f"/campaigns/{again['job_id']}")
        assert snap2["cache"]["hits"] == 1
        assert snap2["cache"]["misses"] == 0
        assert _get_json(server, "/health")["rows"] == 1  # nothing re-added

    def test_figure_job_renders_and_rerenders_from_rows(self, server):
        spec = {"experiment": "fig8", "preset": "smoke", "seeds": [1]}
        _, submitted = _post_json(server, "/campaigns", spec)
        job_id = submitted["job_id"]
        assert server.manager.get(job_id).wait(timeout=300.0)
        snap = _get_json(server, f"/campaigns/{job_id}")
        assert snap["status"] == "done", snap["error"]
        assert snap["has_figure"]
        rendered = _get_text(server, f"/campaigns/{job_id}/figure")
        assert "fig8:" in rendered
        # Re-render purely from the stored DB rows: byte-identical.
        rerendered = _get_text(
            server, f"/campaigns/{job_id}/figure?rerender=1"
        )
        assert rerendered == rendered

    def test_error_paths(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server, "/campaigns", {"experiment": "fig99"})
        assert excinfo.value.code == 400
        assert "unknown experiment" in json.loads(
            excinfo.value.read())["error"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/campaigns/job-999")
        assert excinfo.value.code == 400

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/nope")
        assert excinfo.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/runs?where=warp_factor%3E9")
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, "/runs?where=nonsense")
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("query", [
        "limit=-1",
        "where=protocol%3Escheme1",
        "where=sample_times_s%3E1",
    ])
    def test_unsupported_runs_queries_are_400(self, server, query):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get_json(server, f"/runs?{query}")
        assert excinfo.value.code == 400

    def test_runs_limit_is_exact(self, server):
        from repro.api import RunResult

        server.db.extend([
            RunResult(protocol="scheme1", seed=s, load_pps=5.0, horizon_s=5.0,
                      config_digest=f"{s:064x}")
            for s in (1, 2, 3)
        ])
        assert _get_json(server, "/runs?limit=0") == {"count": 0, "rows": []}
        assert _get_json(server, "/runs?limit=2")["count"] == 2

    @pytest.mark.parametrize("executor, field", [
        ({"kind": "pool", "jobs": "4"}, "jobs"),
        ({"kind": "pool", "jobs": 2.5}, "jobs"),
        ({"kind": "pool", "jobs": True}, "jobs"),
        ("supervised:timeout=nan", "cell_timeout_s"),
        ("supervised:partial=maybe", "allow_partial"),
        ("distributed:bind=nohostport", "bind"),
    ])
    def test_malformed_executor_is_400(self, server, executor, field):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post_json(server, "/campaigns",
                       {**GRID_SPEC, "executor": executor})
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert field in error
        assert _get_json(server, "/campaigns")["jobs"] == []


class TestJobManager:
    def test_bad_specs_fail_at_submit(self, tmp_path):
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            with pytest.raises(ExperimentError, match="experiment"):
                manager.submit({})
            with pytest.raises(ExperimentError, match="axes"):
                manager.submit({"axes": {}})
            with pytest.raises(ExperimentError, match="unknown campaign axis"):
                manager.submit({"axes": {"warp_speed": [9]}})
            assert manager.list() == []
        finally:
            manager.shutdown()

    def test_failed_job_reports_not_crashes(self, tmp_path, monkeypatch):
        """A job that blows up mid-run lands in 'failed' with the error
        recorded, and the worker thread survives to run the next job."""
        from repro.api import registry

        def boom(preset="smoke", seeds=(1,)):
            raise RuntimeError("reactor scram")

        monkeypatch.setitem(
            registry._REGISTRY,
            "svc-boom",
            registry.ExperimentSpec(name="svc-boom", fn=boom, kind="extension"),
        )
        manager = JobManager(DbResultStore(tmp_path / "db.sqlite"))
        try:
            record = manager.submit({"experiment": "svc-boom"})
            assert record.wait(timeout=60.0)
            assert record.status == "failed"
            assert "reactor scram" in record.error
            assert record.events[-1]["type"] == "failed"
            # The worker is still alive: the next job completes.
            follow = manager.submit(GRID_SPEC)
            assert follow.wait(timeout=120.0)
            assert follow.status == "done"
        finally:
            manager.shutdown()
