"""`repro store` exit codes: missing inputs and unusable stores must be
documented non-zero exits, never tracebacks (docs/CLUSTER.md contract).
"""

import sqlite3

import pytest

from repro.cli import EXIT_STORE_MISSING, EXIT_STORE_UNAVAILABLE, main
from repro.search.results import EvalOutcome
from repro.store import ResultStore


@pytest.fixture
def store_db(tmp_path):
    db = str(tmp_path / "results.sqlite")
    with ResultStore(db) as store:
        store.put("cg-w1", "k1", EvalOutcome(True, 100, "", ""))
    return db


class TestExitCodes:
    def test_export_round_trips(self, store_db, tmp_path, capsys):
        out = str(tmp_path / "dump.jsonl")
        assert main(["store", "export", store_db, out]) == 0
        assert "exported 1" in capsys.readouterr().out
        db2 = str(tmp_path / "merged.sqlite")
        assert main(["store", "import", db2, out]) == 0
        assert "imported 1" in capsys.readouterr().out

    def test_export_missing_db_is_exit_3(self, tmp_path, capsys):
        code = main([
            "store", "export",
            str(tmp_path / "nope.sqlite"), str(tmp_path / "out.jsonl"),
        ])
        assert code == EXIT_STORE_MISSING
        assert "no such store" in capsys.readouterr().err

    def test_import_missing_file_is_exit_3(self, store_db, tmp_path, capsys):
        code = main([
            "store", "import", store_db, str(tmp_path / "nope.jsonl"),
        ])
        assert code == EXIT_STORE_MISSING
        assert "no such file" in capsys.readouterr().err

    def test_locked_db_is_exit_4(self, store_db, tmp_path, capsys):
        blocker = sqlite3.connect(store_db)
        try:
            blocker.execute("BEGIN EXCLUSIVE")
            code = main([
                "store", "export", store_db,
                str(tmp_path / "out.jsonl"), "--timeout", "0.1",
            ])
        finally:
            blocker.rollback()
            blocker.close()
        assert code == EXIT_STORE_UNAVAILABLE
        assert "locked" in capsys.readouterr().err

    def test_schema_mismatch_is_exit_4(self, store_db, tmp_path, capsys):
        db = sqlite3.connect(store_db)
        db.execute("UPDATE meta SET value = '999' WHERE key = 'schema_version'")
        db.commit()
        db.close()
        code = main([
            "store", "export", store_db, str(tmp_path / "out.jsonl"),
        ])
        assert code == EXIT_STORE_UNAVAILABLE
        assert "schema" in capsys.readouterr().err

    def test_plain_build_store_is_exit_4(self, store_db, tmp_path, capsys):
        # a v2 store holds plain-build cycles; v3 refuses to replay them
        db = sqlite3.connect(store_db)
        db.execute("UPDATE meta SET value = '2' WHERE key = 'schema_version'")
        db.commit()
        db.close()
        code = main([
            "store", "export", store_db, str(tmp_path / "out.jsonl"),
        ])
        assert code == EXIT_STORE_UNAVAILABLE
        assert "schema v2, expected v3" in capsys.readouterr().err
