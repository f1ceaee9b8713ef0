"""Lattice-aware policy digests and the v1 -> v2 store migration.

Two invariants: the binary f64->f32 lattice (and None) produce exactly
the legacy schema-v1 digests, so every pre-lattice store row stays
addressable; any non-binary lattice salts the digest with its canonical
descriptor, so the same flag map searched over two different width
chains can never replay each other's outcomes.
"""

from __future__ import annotations

import os
import sqlite3
import tempfile

import pytest
from hypothesis import given, strategies as st

from repro.config.model import Policy
from repro.lattice import BINARY_LATTICE, FULL_LATTICE
from repro.search.results import EvalOutcome
from repro.store import SCHEMA_VERSION, ResultStore, policy_digest

policies_maps = st.dictionaries(
    st.integers(min_value=0, max_value=2**20),
    st.sampled_from([Policy.SINGLE, Policy.DOUBLE, Policy.IGNORE,
                     Policy.BF16, Policy.HALF]),
    min_size=1, max_size=8,
)


class TestDigestSalting:
    @given(policies_maps)
    def test_binary_and_none_match_legacy(self, policies):
        legacy = policy_digest(policies)
        assert policy_digest(policies, None) == legacy
        assert policy_digest(policies, "f64,f32") == legacy
        assert policy_digest(policies, BINARY_LATTICE) == legacy

    @given(policies_maps)
    def test_nonbinary_lattices_never_collide(self, policies):
        digests = {
            policy_digest(policies),
            policy_digest(policies, FULL_LATTICE),
            policy_digest(policies, "f64,f32,bf16"),
            policy_digest(policies, "f64,f32,f16"),
        }
        assert len(digests) == 4

    @given(policies_maps)
    def test_spec_and_instance_agree(self, policies):
        assert policy_digest(policies, "f64,f32,bf16,f16") == policy_digest(
            policies, FULL_LATTICE
        )

    def test_narrow_policies_change_the_digest(self):
        base = {0x10: Policy.SINGLE, 0x20: Policy.DOUBLE}
        narrowed = {0x10: Policy.HALF, 0x20: Policy.DOUBLE}
        assert (policy_digest(base, FULL_LATTICE)
                != policy_digest(narrowed, FULL_LATTICE))


class TestStoreIsolationAcrossLattices:
    def test_same_flags_different_lattice_are_different_rows(self):
        policies = {0x10: Policy.SINGLE}
        store = ResultStore()
        binary_key = policy_digest(policies, BINARY_LATTICE)
        full_key = policy_digest(policies, FULL_LATTICE)
        store.put("w", binary_key, EvalOutcome(True, 100, "", ""))
        assert store.get("w", full_key) is None
        store.put("w", full_key, EvalOutcome(False, 0, "", "verify"))
        assert store.get("w", binary_key).passed
        assert not store.get("w", full_key).passed
        store.close()


class TestV1Migration:
    def _reopen_as(self, version):
        tmp = tempfile.mkdtemp()
        path = os.path.join(tmp, "results.sqlite")
        store = ResultStore(path)
        store.put("w", "k", EvalOutcome(True, 42, "", ""))
        store.close()
        db = sqlite3.connect(path)
        db.execute("UPDATE meta SET value = ? WHERE key = 'schema_version'",
                   (str(version),))
        db.commit()
        db.close()
        return path

    def test_plain_build_stores_refuse_to_open(self):
        # v1 and v2 rows carry plain-build cycles under the digests v3
        # keeps, so replaying them would report another build's cycles.
        from repro.store import StoreSchemaError

        assert SCHEMA_VERSION == 3
        for version in (1, 2):
            path = self._reopen_as(version)
            with pytest.raises(StoreSchemaError, match=f"v{version}"):
                ResultStore(path)

    def test_future_schema_still_refuses(self):
        from repro.store import StoreSchemaError

        path = self._reopen_as(SCHEMA_VERSION + 1)
        with pytest.raises(StoreSchemaError):
            ResultStore(path)
