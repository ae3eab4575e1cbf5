"""The service result database: schema, migrations, fidelity, concurrency."""

import json
import math
import random
import sqlite3
import struct
import threading

import pytest

from repro.api import ResultStore, RunResult
from repro.errors import ExperimentError
from repro.service import (
    SCHEMA_VERSION,
    DbResultStore,
    ensure_schema,
    open_store,
    parse_predicate,
    query_runs,
    schema_version,
)
from repro.service.migrations import MIGRATIONS


def _run(seed=1, digest="d" * 64, experiment=None, protocol="scheme1",
         load=5.0, **extra):
    extra.setdefault("delivery_rate", 0.9)
    return RunResult(
        protocol=protocol,
        seed=seed,
        load_pps=load,
        horizon_s=30.0,
        n_nodes=12,
        config_digest=digest,
        experiment=experiment,
        sample_times_s=[1.0, 2.0, 3.0],
        mean_energy_j=[0.5, 0.25, 0.125],
        alive_counts=[12, 12, 11],
        generated=100,
        delivered=90,
        **extra,
    )


class TestOpenStore:
    def test_suffix_routing(self, tmp_path):
        assert isinstance(open_store(tmp_path / "a.sqlite"), DbResultStore)
        assert isinstance(open_store(tmp_path / "a.db"), DbResultStore)
        assert isinstance(open_store(tmp_path / "a.jsonl"), ResultStore)
        assert isinstance(open_store(tmp_path / "a.csv"), ResultStore)

    def test_bad_suffix_refused(self, tmp_path):
        with pytest.raises(ExperimentError, match="suffix"):
            DbResultStore(tmp_path / "a.txt")


class TestDbResultStore:
    def test_round_trip_full_fidelity(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        original = _run(experiment="fig8")
        store.append(original)
        (loaded,) = store.load()
        assert loaded.to_dict() == original.to_dict()
        assert len(store) == 1

    def test_insertion_order_preserved(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        runs = [_run(seed=s, digest=f"{s:064x}") for s in (3, 1, 2)]
        store.extend(runs)
        assert [r.seed for r in store] == [3, 1, 2]

    def test_query_pushdown_filters(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.extend([
            _run(seed=1, digest="a" * 64, experiment="fig8"),
            _run(seed=2, digest="a" * 64, experiment="fig8"),
            _run(seed=1, digest="b" * 64, experiment="fig10",
                 protocol="pure_leach"),
        ])
        assert len(store.query(experiment="fig8")) == 2
        assert len(store.query(experiment="fig8", seed=2)) == 1
        assert len(store.query(config_digest="b" * 64)) == 1
        assert len(store.query(protocol="pure_leach")) == 1
        assert len(store.query(experiment="nope")) == 0
        assert len(store.query(limit=2)) == 2

    def test_rows_for_digests_reports_sizes(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        run = _run(digest="a" * 64)
        store.append(run)
        store.append(_run(digest="b" * 64))
        rows = store.rows_for_digests({"a" * 64})
        assert len(rows) == 1
        loaded, nbytes = rows[0]
        assert loaded.config_digest == "a" * 64
        assert nbytes == len(json.dumps(run.to_dict()).encode())
        assert store.rows_for_digests(set()) == []

    def test_import_export_jsonl(self, tmp_path):
        jsonl = ResultStore(tmp_path / "runs.jsonl")
        jsonl.extend([_run(seed=s, digest=f"{s:064x}") for s in (1, 2)])
        db = DbResultStore(tmp_path / "runs.sqlite")
        assert db.import_from(jsonl) == 2
        assert [r.to_dict() for r in db] == [r.to_dict() for r in jsonl]
        out = tmp_path / "export.jsonl"
        assert db.export_to(out) == 2
        assert [r.to_dict() for r in ResultStore(out)] == \
            [r.to_dict() for r in db]

    def test_wal_mode_enabled(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.append(_run())
        conn = sqlite3.connect(str(store.path))
        try:
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        finally:
            conn.close()
        assert mode.lower() == "wal"


class TestMigrations:
    def test_fresh_db_is_current(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        conn = sqlite3.connect(str(store.path))
        try:
            assert schema_version(conn) == SCHEMA_VERSION
        finally:
            conn.close()

    def test_stepwise_upgrade_from_v1(self, tmp_path):
        # Build a version-1 file by hand (what an old build would leave).
        path = tmp_path / "old.sqlite"
        conn = sqlite3.connect(str(path), isolation_level=None)
        version, statements = MIGRATIONS[0]
        assert version == 1
        for statement in statements:
            conn.execute(statement)
        conn.execute("PRAGMA user_version = 1")
        conn.execute(
            "INSERT INTO runs (experiment, config_digest, seed, protocol,"
            " load_pps, horizon_s, n_nodes, format_version, payload)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            ("fig8", "c" * 64, 1, "scheme1", 5.0, 30.0, 12, 1,
             json.dumps(_run(digest="c" * 64).to_dict())),
        )
        conn.close()
        # Opening with the current build upgrades in place, keeping rows.
        store = DbResultStore(path)
        assert len(store) == 1
        conn = sqlite3.connect(str(path))
        try:
            assert schema_version(conn) == SCHEMA_VERSION
            indexes = {
                row[0] for row in conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='index'"
                )
            }
        finally:
            conn.close()
        assert "idx_runs_digest" in indexes  # migration 2 applied

    def test_newer_schema_refused_loudly(self, tmp_path):
        path = tmp_path / "future.sqlite"
        conn = sqlite3.connect(str(path))
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 7}")
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="upgrade repro"):
            DbResultStore(path)

    def test_runner_is_idempotent(self, tmp_path):
        path = tmp_path / "runs.sqlite"
        DbResultStore(path)
        conn = sqlite3.connect(str(path), isolation_level=None)
        try:
            ensure_schema(conn)  # second pass: no-op, no error
            assert schema_version(conn) == SCHEMA_VERSION
        finally:
            conn.close()


class TestFormatVersion:
    def test_newer_row_format_refused(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.append(_run())
        conn = sqlite3.connect(str(store.path))
        conn.execute("UPDATE runs SET format_version = 99")
        conn.commit()
        conn.close()
        with pytest.raises(ExperimentError, match="format version 99"):
            store.load()


class TestQueryRuns:
    def test_predicates_and_key_filters(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.extend([
            _run(seed=1, digest="a" * 64, experiment="fig8",
                 delivery_rate=0.95),
            _run(seed=2, digest="b" * 64, experiment="fig8",
                 delivery_rate=0.40),
        ])
        rows = query_runs(
            store, experiment="fig8",
            where=[parse_predicate("delivery_rate>0.9")],
        )
        assert [r.seed for r in rows] == [1]
        # Same result off a flat-file store (no pushdown path).
        jsonl = ResultStore(tmp_path / "runs.jsonl")
        store.export_to(jsonl)
        rows2 = query_runs(
            jsonl, experiment="fig8",
            where=[parse_predicate("delivery_rate>0.9")],
        )
        assert [r.to_dict() for r in rows2] == [r.to_dict() for r in rows]

    def test_limit_applies_after_predicates(self, tmp_path):
        store = DbResultStore(tmp_path / "runs.sqlite")
        store.extend([
            _run(seed=s, digest=f"{s:064x}", delivery_rate=0.9 + s / 100)
            for s in range(1, 6)
        ])
        rows = query_runs(
            store, where=[parse_predicate("seed>=2")], limit=2,
        )
        assert [r.seed for r in rows] == [2, 3]

    def test_limit_zero_returns_no_rows(self, tmp_path):
        db = DbResultStore(tmp_path / "runs.sqlite")
        db.extend([_run(seed=s, digest=f"{s:064x}") for s in (1, 2)])
        jsonl = ResultStore(tmp_path / "runs.jsonl")
        db.export_to(jsonl)
        for store in (db, jsonl):
            assert query_runs(store, limit=0) == []
            assert [r.seed for r in query_runs(store, limit=1)] == [1]
        assert db.query(limit=0) == []

    def test_negative_limit_rejected(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "runs.sqlite")
        db.append(_run())
        with pytest.raises(ExperimentError, match="limit"):
            query_runs(db, limit=-1)
        with pytest.raises(ExperimentError, match="limit"):
            aggregate_runs(db, ["protocol"], limit=-1)

    @pytest.mark.parametrize("text, match", [
        ("sample_times_s>1", "series"),
        ("energy_breakdown=None", "series"),
        ("protocol>scheme1", "orders"),
        ("experiment<=fig8", "orders"),
        ("lifetime_s<None", "orders"),
        ("delivery_rate>high", "orders"),
        ("warp_factor>9", "unknown RunResult field"),
        ("nonsense", "malformed"),
    ])
    def test_unsupported_predicates_rejected_at_parse(self, text, match):
        with pytest.raises(ExperimentError, match=match):
            parse_predicate(text)

    def test_none_and_string_predicates(self, tmp_path):
        store = ResultStore(tmp_path / "runs.jsonl")
        store.extend([
            _run(seed=1, digest="1" * 64, lifetime_s=None),
            _run(seed=2, digest="2" * 64, lifetime_s=25.0, protocol="pure_leach"),
        ])

        def seeds(*texts):
            where = [parse_predicate(t) for t in texts]
            return [r.seed for r in query_runs(store, where=where)]

        assert seeds("lifetime_s=None") == [1]
        assert seeds("lifetime_s!=None") == [2]
        # A None metric matches no comparison against a number.
        assert seeds("lifetime_s!=25") == []
        assert seeds("protocol=pure_leach") == [2]
        assert seeds("protocol!=pure_leach") == [1]
        # Digits stay a string against a string field.
        assert seeds("config_digest=" + "1" * 64) == [1]
        # An integer past SQLite's 64-bit range still compares.
        assert seeds("generated<99999999999999999999") == [1, 2]

    def test_jsonl_torn_tail_corruption_and_version(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        store = ResultStore(path)
        store.extend([_run(seed=s, digest=f"{s:064x}") for s in (1, 2)])
        good = path.read_text()
        path.write_text(good + '{"protocol": "sch')
        assert [r.seed for r in query_runs(store)] == [1, 2]
        path.write_text(good.replace("\n", "\n{broken\n", 1))
        with pytest.raises(ExperimentError, match="corrupt record"):
            query_runs(store)
        path.write_text(good.replace('"format_version": 1', '"format_version": 99'))
        with pytest.raises(ExperimentError, match="format version 99"):
            query_runs(store)
        path.unlink()
        assert query_runs(store) == []


class TestJsonExtract:
    def test_json_extract_parses_doubles_like_float(self):
        """The where/aggregate pushdown reads metrics with json_extract:
        it must turn every stored float repr into the same double."""
        rng = random.Random(20050611)
        values = [round(rng.uniform(0.0, 1.0), 6) for _ in range(4000)]
        values += [rng.uniform(1e-6, 1e6) for _ in range(2000)]
        while len(values) < 10_000:
            (v,) = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))
            if math.isfinite(v):
                values.append(v)
        conn = sqlite3.connect(":memory:")
        try:
            conn.execute("CREATE TABLE t (payload TEXT)")
            conn.executemany(
                "INSERT INTO t VALUES (?)",
                [(json.dumps({"x": v}),) for v in values],
            )
            parsed = [
                row[0] for row in conn.execute(
                    "SELECT json_extract(payload, '$.x') FROM t ORDER BY rowid"
                )
            ]
        finally:
            conn.close()
        mismatches = [
            (v, p) for v, p in zip(values, parsed) if p != float(repr(v))
        ]
        assert len(parsed) == len(values)
        assert mismatches == []


class TestConcurrentAccess:
    def test_wal_reader_sees_consistent_rows_during_writes(self, tmp_path):
        """A reader polling while a writer appends never errors and only
        ever sees fully committed batches (WAL snapshot isolation)."""
        store = DbResultStore(tmp_path / "runs.sqlite")
        batches = 20
        batch_size = 5
        errors = []
        seen_counts = []
        done = threading.Event()

        def reader():
            try:
                while not done.is_set():
                    seen_counts.append(len(store))
            except Exception as exc:  # noqa: BLE001 - reported to assert
                errors.append(exc)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for b in range(batches):
                store.extend([
                    _run(seed=b * batch_size + i,
                         digest=f"{b * batch_size + i:064x}")
                    for i in range(batch_size)
                ])
        finally:
            done.set()
            thread.join(timeout=10.0)
        assert not errors
        # Counts only ever land on committed batch boundaries and grow
        # monotonically (each extend() is one transaction).
        assert all(count % batch_size == 0 for count in seen_counts)
        assert seen_counts == sorted(seen_counts)
        assert len(store) == batches * batch_size


class TestAggregation:
    def _populate(self, store):
        rows = []
        for seed in (1, 2, 3):
            for proto, rate in (("scheme1", 0.9), ("pure_leach", 0.6)):
                rows.append(_run(
                    seed=seed, protocol=proto,
                    digest=f"{proto}-{seed}".ljust(64, "0"),
                    delivery_rate=rate + seed / 100.0,
                    mean_delay_s=0.1 * seed,
                ))
        store.extend(rows)
        return rows

    def _backends(self, tmp_path):
        """The same rows as .sqlite, .jsonl, .csv and a plain row list."""
        rows = []
        for i, (proto, rate, lifetime) in enumerate((
            ("scheme1", 0.93, None),
            ("scheme1", 0.91, 40.0),
            ("scheme1", 0.62, None),
            ("pure_leach", 0.62, 12.5),
            ("pure_leach", 0.6, 20.25),
            ("pure_leach", 0.61, None),
        )):
            rows.append(_run(
                seed=i % 3 + 1, protocol=proto, experiment="fig8",
                digest=f"{i:064x}", load=5.0 * (1 + i % 2),
                delivery_rate=rate, lifetime_s=lifetime,
                mean_delay_s=0.1 * (i + 1), collisions=7 * i,
            ))
        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend(rows)
        jsonl = ResultStore(tmp_path / "r.jsonl")
        jsonl.extend(rows)
        csv = ResultStore(tmp_path / "r.csv")
        csv.extend(rows)
        return rows, {"sqlite": db, "jsonl": jsonl, "csv": csv, "rows": rows}

    def test_every_backend_answers_identically(self, tmp_path):
        from repro.service import aggregate_runs

        _, stores = self._backends(tmp_path)
        predicate_sets = [  # (predicates, rows they keep)
            ([], 6),
            (["delivery_rate>=0.62"], 4),  # equal to a stored value: kept
            (["delivery_rate>0.62"], 2),  # ... and dropped
            (["lifetime_s=None"], 3),
            (["lifetime_s!=None", "collisions<=21"], 2),
            (["protocol=scheme1", "seed!=2"], 2),
        ]
        metrics = ["collisions", "delivery_rate", "lifetime_s"]
        for texts, kept in predicate_sets:
            where = [parse_predicate(t) for t in texts]
            listed = {
                name: [r.scalar_summary() for r in query_runs(store, where=where)]
                for name, store in stores.items()
            }
            assert len(listed["sqlite"]) == kept, texts
            assert listed["jsonl"] == listed["sqlite"], texts
            assert listed["csv"] == listed["sqlite"], texts
            assert listed["rows"] == listed["sqlite"], texts
            for agg in ("mean", "min", "max", "sum"):
                reduced = {
                    name: aggregate_runs(
                        store, ["protocol", "load"], agg=agg,
                        metrics=metrics, where=where,
                    )
                    for name, store in stores.items()
                }
                want = reduced["sqlite"]
                for name, got in reduced.items():
                    assert got == want, (name, agg, texts)
                    # == would accept 60 for 60.0; the JSON text would not.
                    assert json.dumps(got) == json.dumps(want), (name, agg, texts)

    def test_matches_python_reference(self, tmp_path):
        from repro.service import aggregate_runs

        rows, stores = self._backends(tmp_path)
        metrics = ["collisions", "delivery_rate", "lifetime_s"]
        reducers = {
            "mean": lambda vs: sum(vs) / len(vs),
            "min": min, "max": max, "sum": sum,
        }
        for agg, reduce in reducers.items():
            groups = aggregate_runs(
                stores["sqlite"], ["protocol"], agg=agg, metrics=metrics
            )
            assert [g["protocol"] for g in groups] == ["pure_leach", "scheme1"]
            for group in groups:
                members = [r for r in rows if r.protocol == group["protocol"]]
                assert group["n"] == len(members)
                for field in metrics:
                    values = [getattr(r, field) for r in members]
                    values = [v for v in values if v is not None]
                    want = reduce(values)
                    # SQLite >= 3.43 sums with compensation: compare the
                    # floats by closeness, never bit for bit.
                    assert math.isclose(group[field], want, rel_tol=1e-12)
                    if agg == "mean":
                        assert isinstance(group[field], float)
                    else:
                        assert type(group[field]) is type(want), (agg, field)

    def test_integer_metrics_stay_integer(self, tmp_path):
        from repro.service import aggregate_runs

        _, stores = self._backends(tmp_path)
        for store in stores.values():
            (total,) = aggregate_runs(store, [], agg="sum", metrics=["generated"])
            assert total["generated"] == 600
            assert type(total["generated"]) is int
            (mean,) = aggregate_runs(store, [], agg="mean", metrics=["generated"])
            assert mean["generated"] == 100.0
            assert type(mean["generated"]) is float

    def test_limit_caps_groups(self, tmp_path):
        from repro.service import aggregate_runs

        _, stores = self._backends(tmp_path)
        for store in stores.values():
            groups = aggregate_runs(store, ["protocol"], limit=1)
            assert [g["protocol"] for g in groups] == ["pure_leach"]
            assert aggregate_runs(store, ["protocol"], limit=0) == []

    def test_no_group_keys_and_no_rows(self, tmp_path):
        from repro.service import aggregate_runs

        _, stores = self._backends(tmp_path)
        for store in stores.values():
            (only,) = aggregate_runs(store, [], metrics=["collisions"])
            assert only == {"n": 6, "collisions": 17.5}
            assert aggregate_runs(store, [], experiment="nope") == []
            assert aggregate_runs(store, ["protocol"], experiment="nope") == []

    @pytest.mark.parametrize("metric", ["sample_times_s", "energy_breakdown"])
    def test_series_metrics_rejected(self, tmp_path, metric):
        from repro.service import aggregate_runs

        _, stores = self._backends(tmp_path)
        for store in stores.values():
            with pytest.raises(ExperimentError, match="series"):
                aggregate_runs(store, ["protocol"], metrics=[metric])

    @pytest.mark.parametrize("metric", ["protocol", "experiment", "config_digest"])
    def test_string_metrics_rejected(self, tmp_path, metric):
        from repro.service import aggregate_runs

        _, stores = self._backends(tmp_path)
        for store in stores.values():
            with pytest.raises(ExperimentError, match="not numeric"):
                aggregate_runs(store, ["protocol"], metrics=[metric])

    def test_mean_over_seeds(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        self._populate(db)
        (grp,) = aggregate_runs(
            db, ["protocol"], agg="mean", metrics=["delivery_rate"],
            protocol="scheme1",
        )
        assert grp["delivery_rate"] == pytest.approx(0.92)

    def test_none_metrics_skipped_not_zeroed(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([
            _run(seed=1, lifetime_s=None),
            _run(seed=2, digest="e" * 64, lifetime_s=30.0),
        ])
        (grp,) = aggregate_runs(
            db, ["protocol"], agg="mean", metrics=["lifetime_s"]
        )
        # SQL AVG skips NULL (a None metric), it does not count it as 0.
        assert grp["lifetime_s"] == pytest.approx(30.0)
        assert grp["n"] == 2

    def test_where_predicates_narrow_the_groups(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        self._populate(db)
        groups = aggregate_runs(
            db, ["protocol"], agg="mean", metrics=["delivery_rate"],
            where=[parse_predicate("delivery_rate>0.8")],
        )
        (grp,) = groups
        assert grp["protocol"] == "scheme1"
        assert grp["n"] == 3

    def test_group_aliases_and_validation(self, tmp_path):
        from repro.service import aggregate_runs

        db = DbResultStore(tmp_path / "r.sqlite")
        self._populate(db)
        groups = aggregate_runs(
            db, ["load"], agg="mean", metrics=["delivery_rate"]
        )
        assert groups[0]["load_pps"] == 5.0
        with pytest.raises(ExperimentError, match="group"):
            aggregate_runs(db, ["payload"], agg="mean")
        with pytest.raises(ExperimentError, match="aggregate"):
            aggregate_runs(db, ["protocol"], agg="median")
        with pytest.raises(ExperimentError, match="unknown RunResult"):
            aggregate_runs(db, ["protocol"], metrics=["nope"])


class TestQueryCli:
    def _stores(self, tmp_path):
        rows = [
            _run(seed=s, digest=f"{s:064x}", protocol=proto, experiment="fig8",
                 delivery_rate=0.5 + s / 10)
            for s in (1, 2, 3) for proto in ("scheme1", "pure_leach")
        ]
        jsonl = tmp_path / "r.jsonl"
        ResultStore(jsonl).extend(rows)
        db = tmp_path / "r.sqlite"
        DbResultStore(db).import_from(jsonl)
        return str(jsonl), str(db)

    def _query(self, capsys, *argv):
        from repro.cli import main

        assert main(["query", *argv]) == 0
        return capsys.readouterr().out

    def test_agg_output_is_byte_identical_across_backends(self, tmp_path, capsys):
        jsonl, db = self._stores(tmp_path)
        for extra in (
            ["--agg", "mean", "--group-by", "protocol,load"],
            ["--agg", "sum", "--group-by", "protocol", "--columns", "generated"],
            ["--agg", "max", "--where", "delivery_rate>=0.7", "--limit", "1"],
        ):
            outputs = [
                self._query(capsys, store, *extra, "--format", "jsonl")
                for store in (jsonl, db)
            ]
            assert outputs[0] == outputs[1], extra

    def test_agg_sum_of_int_metric_prints_an_int(self, tmp_path, capsys):
        _, db = self._stores(tmp_path)
        out = self._query(capsys, db, "--agg", "sum", "--columns", "generated",
                          "--format", "jsonl")
        assert json.loads(out) == {"n": 6, "generated": 600}
        assert '"generated": 600}' in out

    def test_agg_limit_is_sql_limit(self, tmp_path, capsys):
        jsonl, _ = self._stores(tmp_path)
        out = self._query(capsys, jsonl, "--agg", "mean", "--group-by", "seed",
                          "--limit", "2", "--format", "jsonl")
        assert [json.loads(line)["seed"] for line in out.splitlines()] == [1, 2]
        out = self._query(capsys, jsonl, "--limit", "0")
        assert out.endswith("0 rows\n")

    def test_negative_limit_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        jsonl, _ = self._stores(tmp_path)
        for bad in ("-1", "two"):
            with pytest.raises(SystemExit) as excinfo:
                main(["query", jsonl, "--limit", bad])
            assert excinfo.value.code == 2
            assert "expected an integer >= 0" in capsys.readouterr().err

    def test_series_metric_is_an_error_not_a_traceback(self, tmp_path, capsys):
        from repro.cli import main

        jsonl, _ = self._stores(tmp_path)
        code = main(["query", jsonl, "--agg", "mean", "--columns", "sample_times_s"])
        assert code == 1
        assert "series field" in capsys.readouterr().err


class TestGc:
    def test_keeps_latest_generation_per_cell(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        old = _run(seed=1, delivery_rate=0.1)
        new = _run(seed=1, delivery_rate=0.9)
        other = _run(seed=2, digest="e" * 64)
        db.extend([old, new, other])
        report = collect_garbage(db, keep_latest=1)
        assert report["deleted"] == 1
        assert report["groups"] == 2
        kept = db.load()
        assert len(kept) == 2
        # The *newest* generation of the duplicated cell survives.
        assert {r.delivery_rate for r in kept} == {0.9, other.delivery_rate}

    def test_distinct_cells_never_evicted(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([
            _run(seed=s, digest=f"{s:064x}", experiment=exp)
            for s in (1, 2) for exp in (None, "fig8")
        ])
        report = collect_garbage(db, keep_latest=1)
        assert report["deleted"] == 0
        assert len(db) == 4

    def test_keep_latest_k_and_dry_run(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([_run(seed=1, delivery_rate=i / 10.0) for i in range(5)])
        dry = collect_garbage(db, keep_latest=2, dry_run=True)
        assert dry["deleted"] == 3 and len(db) == 5
        assert dry["bytes_after"] == dry["bytes_before"]
        wet = collect_garbage(db, keep_latest=2)
        assert wet["deleted"] == 3 and len(db) == 2
        assert [r.delivery_rate for r in db.load()] == [0.3, 0.4]

    def test_reclaims_file_bytes(self, tmp_path):
        from repro.service import collect_garbage

        db = DbResultStore(tmp_path / "r.sqlite")
        db.extend([_run(seed=1) for _ in range(200)])
        report = collect_garbage(db, keep_latest=1)
        assert report["deleted"] == 199
        assert report["reclaimed_bytes"] > 0
        assert report["bytes_after"] < report["bytes_before"]

    def test_guards(self, tmp_path):
        from repro.service import collect_garbage

        with pytest.raises(ExperimentError, match="keep-latest"):
            collect_garbage(tmp_path / "r.sqlite", keep_latest=0)
        with pytest.raises(ExperimentError, match="no such"):
            collect_garbage(tmp_path / "missing.sqlite")
