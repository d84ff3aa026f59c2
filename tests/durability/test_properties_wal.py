"""Property tests: WAL round-trips under arbitrary payloads, arbitrary
byte-level truncation always yields a clean record prefix, and replaying any
prefix of the log twice is a no-op (digest-identical to replaying it once)."""

import string

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.controller import SfcController, replay, synthesize_churn
from repro.core.spec import ProblemInstance, SwitchSpec
from repro.durability import (
    ControllerDurability,
    RecoveryEngine,
    WriteAheadLog,
    scan_wal,
)
from repro.durability.recover import apply_controller_record
from tests.durability.conftest import SWEEP_CHURN, SWEEP_SEED

op_names = st.text(
    alphabet=string.ascii_lowercase + "-", min_size=1, max_size=12
).filter(lambda s: s != "_header")

json_scalars = st.none() | st.booleans() | st.integers(-(10**9), 10**9) | st.text(
    max_size=12
)

payloads = st.dictionaries(st.text(max_size=8), json_scalars, max_size=4)

op_lists = st.lists(st.tuples(op_names, payloads), min_size=0, max_size=20)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=op_lists)
def test_append_reopen_roundtrip(tmp_path, ops):
    path = tmp_path / "prop.jsonl"
    path.unlink(missing_ok=True)
    wal = WriteAheadLog(path, fsync="always")
    written = [wal.append(op, data) for op, data in ops]
    wal.close()

    scan = scan_wal(path)
    assert list(scan.records) == written
    assert scan.problems == ()
    reopened = WriteAheadLog(path)
    assert reopened.last_lsn == len(ops)
    reopened.close()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(ops=op_lists, cut=st.integers(min_value=0, max_value=10_000))
def test_any_byte_truncation_yields_a_clean_prefix(tmp_path, ops, cut):
    path = tmp_path / "prop.jsonl"
    path.unlink(missing_ok=True)
    wal = WriteAheadLog(path, fsync="always")
    written = [wal.append(op, data) for op, data in ops]
    wal.close()

    body = path.read_bytes()
    path.write_bytes(body[: min(cut, len(body))])
    scan = scan_wal(path)
    # Whatever survives is an exact prefix of what was written — a torn
    # byte can cost the tail, never corrupt the middle.
    assert list(scan.records) == written[: len(scan.records)]
    # And opening on top of the wreckage yields a working log.
    reopened = WriteAheadLog(path)
    reopened.append("post-truncation", {})
    reopened.close()


@pytest.fixture(scope="module")
def journaled_run(tmp_path_factory):
    """A real controller run's WAL records plus the digest reached after
    each prefix (the single-replay reference)."""
    spec = SwitchSpec(
        stages=3, blocks_per_stage=4, block_bits=6400, rule_bits=64,
        capacity_gbps=10.0,
    )
    instance = ProblemInstance(
        switch=spec, sfcs=(), num_types=4, max_recirculations=1
    )
    directory = tmp_path_factory.mktemp("journaled")
    controller = SfcController(instance, with_dataplane=False)
    durability = ControllerDurability(directory, checkpoint_every=0)
    durability.attach(controller)
    events = synthesize_churn(SWEEP_CHURN, SWEEP_SEED)[:150]
    replay(controller, events)
    records = durability.wal.records()
    durability.close()
    assert len(records) >= 20

    reference = SfcController(instance, with_dataplane=False)
    prefix_digests = [reference.state.digest()]
    engine = RecoveryEngine(lambda r: apply_controller_record(reference, r))
    for record in records:
        engine.apply(record)
        prefix_digests.append(reference.state.digest())
    assert engine.problems == []
    return instance, records, prefix_digests


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_prefix_replayed_twice_is_digest_identical(journaled_run, data):
    instance, records, prefix_digests = journaled_run
    prefix = data.draw(st.integers(min_value=0, max_value=len(records)))

    fresh = SfcController(instance, with_dataplane=False)
    engine = RecoveryEngine(lambda r: apply_controller_record(fresh, r))
    engine.replay(records[:prefix])
    once = fresh.state.digest()
    engine.replay(records[:prefix])  # the double-apply attempt
    assert engine.problems == []
    assert engine.replayed == prefix
    assert engine.skipped == prefix
    assert fresh.state.digest() == once == prefix_digests[prefix]
