"""Tests for GamDatabase connection management."""

import threading
import time

import pytest

from repro.core.genmapper import GenMapper
from repro.gam.database import GamDatabase
from repro.gam.errors import GamSchemaError
from repro.gam.repository import GamRepository


class TestGamDatabase:
    def test_in_memory_database_gets_schema(self):
        with GamDatabase() as db:
            assert db.counts() == {
                "source": 0,
                "object": 0,
                "source_rel": 0,
                "object_rel": 0,
            }

    def test_file_database_persists(self, tmp_path):
        path = tmp_path / "gam.db"
        with GamDatabase(path) as db:
            db.execute(
                "INSERT INTO source (name, content, structure)"
                " VALUES ('GO', 'Other', 'Network')"
            )
            db.commit()
        with GamDatabase(path, create=False) as db:
            assert db.counts()["source"] == 1

    def test_create_false_requires_existing_schema(self, tmp_path):
        path = tmp_path / "empty.db"
        path.touch()
        with pytest.raises(GamSchemaError):
            GamDatabase(path, create=False)

    def test_transaction_commits_on_success(self):
        with GamDatabase() as db:
            with db.transaction():
                db.execute(
                    "INSERT INTO source (name, content, structure)"
                    " VALUES ('A', 'Gene', 'Flat')"
                )
            assert db.counts()["source"] == 1

    def test_transaction_rolls_back_on_error(self):
        with GamDatabase() as db:
            with pytest.raises(RuntimeError):
                with db.transaction():
                    db.execute(
                        "INSERT INTO source (name, content, structure)"
                        " VALUES ('A', 'Gene', 'Flat')"
                    )
                    raise RuntimeError("boom")
            assert db.counts()["source"] == 0

    def test_rows_are_name_addressable(self):
        with GamDatabase() as db:
            db.execute(
                "INSERT INTO source (name, content, structure)"
                " VALUES ('A', 'Gene', 'Flat')"
            )
            row = db.execute("SELECT * FROM source").fetchone()
            assert row["name"] == "A"
            assert row["content"] == "Gene"

    def test_executemany_inserts_all_rows(self):
        with GamDatabase() as db:
            db.executemany(
                "INSERT INTO source (name, content, structure) VALUES (?, ?, ?)",
                [("A", "Gene", "Flat"), ("B", "Other", "Network")],
            )
            assert db.counts()["source"] == 2

    def test_counts_track_every_table(self):
        with GamDatabase() as db:
            db.execute(
                "INSERT INTO source (name, content, structure)"
                " VALUES ('A', 'Gene', 'Flat')"
            )
            db.execute("INSERT INTO object (source_id, accession) VALUES (1, 'x')")
            db.execute(
                "INSERT INTO source_rel (source1_id, source2_id, type)"
                " VALUES (1, 1, 'Is-a')"
            )
            counts = db.counts()
            assert counts["source"] == 1
            assert counts["object"] == 1
            assert counts["source_rel"] == 1
            assert counts["object_rel"] == 0

    def test_refuses_file_of_retired_sharded_layout(self, tmp_path):
        path = tmp_path / "gam.db"
        with GamDatabase(path) as db:
            db.execute(
                "INSERT INTO meta (key, value) VALUES ('layout', 'sharded')"
            )
        for open_database in (
            lambda: GamDatabase(path),
            lambda: GamDatabase(path, create=False),
            lambda: GenMapper(path),
        ):
            with pytest.raises(GamSchemaError) as excinfo:
                open_database()
            message = str(excinfo.value)
            assert str(path) in message
            assert "dump" in message and "load" in message


class TestConcurrentReaders:
    def test_readers_see_old_complete_or_new_complete(self, tmp_path):
        """A reader never observes a partly re-imported source: WAL gives
        its pooled connection the state before or after the writer's one
        transaction, never a mix."""
        old = tuple(f"old-{i}" for i in range(10))
        new = tuple(f"new-{i}" for i in range(10))
        with GamDatabase(tmp_path / "gam.db") as db:
            repo = GamRepository(db)
            source = repo.add_source("Alpha")
            repo.add_objects(source, [(accession,) for accession in old])
            stop = threading.Event()
            observed: set[tuple[str, ...]] = set()
            errors: list[Exception] = []

            def reader():
                try:
                    while not stop.is_set():
                        rows = db.execute_read(
                            "SELECT accession FROM object WHERE source_id = ?",
                            (source.source_id,),
                        ).fetchall()
                        observed.add(tuple(sorted(row[0] for row in rows)))
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            thread = threading.Thread(target=reader)
            thread.start()
            try:
                deadline = time.monotonic() + 10
                while old not in observed and time.monotonic() < deadline:
                    time.sleep(0.001)
                with db.write_scope("Alpha"), db.transaction():
                    db.execute(
                        "DELETE FROM object WHERE source_id = ?",
                        (source.source_id,),
                    )
                    for accession in new:
                        db.execute(
                            "INSERT INTO object (source_id, accession)"
                            " VALUES (?, ?)",
                            (source.source_id, accession),
                        )
                        # Hold the transaction open so the reader samples
                        # the source while it is half rewritten.
                        time.sleep(0.002)
                deadline = time.monotonic() + 10
                while new not in observed and time.monotonic() < deadline:
                    time.sleep(0.001)
            finally:
                stop.set()
                thread.join(timeout=30)
        assert not thread.is_alive()
        assert not errors
        assert observed <= {old, new}
        assert old in observed and new in observed
