"""On-disk format versions are checked on read: a log, manifest or
checkpoint written under another format is refused with a typed
:class:`~repro.errors.DurabilityError` naming the version, never replayed
against digests it cannot reproduce."""

import json

import pytest

from repro.durability import (
    FabricDurability,
    WriteAheadLog,
    recover_fabric,
    restore_controller,
    scan_wal,
)
from repro.durability.checkpoint import controller_checkpoint
from repro.durability.wal import HEADER_OP, WalRecord
from repro.errors import DurabilityError
from tests.durability.conftest import chain, make_controller, make_fabric


def write_v1_log(path):
    """A hand-made version-1 log: header plus one admit record."""
    lines = [
        WalRecord(lsn=0, op=HEADER_OP, data={"version": 1, "base_lsn": 0}),
        WalRecord(lsn=1, op="admit", data={"tenant_id": 1}),
    ]
    path.write_bytes(b"".join(record.to_line() for record in lines))


def test_v1_wal_header_is_refused_by_name(tmp_path):
    path = tmp_path / "wal.jsonl"
    write_v1_log(path)
    with pytest.raises(DurabilityError, match="version 1"):
        scan_wal(path)
    with pytest.raises(DurabilityError, match="version 1"):
        WriteAheadLog(path)
    assert path.read_bytes()  # refused, not truncated away


def test_v1_manifest_is_refused_by_recovery(tmp_path):
    fabric = make_fabric()
    durability = FabricDurability(tmp_path).attach(fabric)
    assert fabric.admit(chain(1)).ok
    durability.close()
    manifest_path = tmp_path / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DurabilityError, match="version 1"):
        recover_fabric(tmp_path)


def test_v1_checkpoint_is_refused_by_restore(tiny_instance):
    source = make_controller(tiny_instance)
    assert source.admit(chain(1)).ok
    checkpoint = controller_checkpoint(source, lsn=1)
    checkpoint["version"] = 1
    with pytest.raises(DurabilityError, match="version 1"):
        restore_controller(make_controller(tiny_instance), checkpoint)
