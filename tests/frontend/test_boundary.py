"""Fail-closed SFC boundary: every malformed chain body is a 400 that
leaves the fabric untouched (same digest, invariant intact)."""

import math

import pytest

from repro.errors import FrontendError
from repro.frontend import FrontendServer, HttpFrontendClient

from .conftest import chain


def body(**overrides) -> dict:
    sfc = chain(7).to_dict()
    sfc.update(overrides)
    return {"sfc": sfc}


BAD_BODIES = {
    "nan-bandwidth": body(bandwidth_gbps=math.nan),
    "infinite-bandwidth": body(bandwidth_gbps=math.inf),
    "negative-infinite-bandwidth": body(bandwidth_gbps=-math.inf),
    "sub-unit-bandwidth": body(bandwidth_gbps=1e-12),
    "zero-bandwidth": body(bandwidth_gbps=0.0),
    "negative-bandwidth": body(bandwidth_gbps=-1.0),
    "string-bandwidth": body(bandwidth_gbps="5"),
    "bool-bandwidth": body(bandwidth_gbps=True),
    "fractional-nf-type": body(nf_types=[1.7, 2], rules=[10, 10]),
    "fractional-rule-count": body(rules=[10.5, 10, 10]),
    "list-name": body(name=["x"]),
    "empty-chain": body(nf_types=[], rules=[]),
    "length-mismatch": body(nf_types=[1, 2], rules=[10]),
    "zero-nf-type": body(nf_types=[0, 1, 2]),
    "negative-tenant-id": body(tenant_id=-1),
    "missing-field": {"sfc": {"name": "x", "nf_types": [1], "rules": [1]}},
}


@pytest.fixture
def served(fabric):
    server = FrontendServer(fabric, port=0).start()
    client = HttpFrontendClient(server.url, timeout=10.0)
    assert client.admit(chain(1))["ok"]
    yield fabric, client
    server.close(timeout=10.0)


@pytest.mark.parametrize("case", sorted(BAD_BODIES))
def test_bad_sfc_admit_is_400_and_changes_nothing(served, case):
    fabric, client = served
    before = fabric.digest()
    with pytest.raises(FrontendError, match="-> 400"):
        client._request("POST", "/v1/tenants", BAD_BODIES[case])
    assert fabric.digest() == before
    assert fabric.check_invariant() == []


@pytest.mark.parametrize(
    "case", ["nan-bandwidth", "fractional-nf-type", "empty-chain"]
)
def test_bad_sfc_modify_is_400_and_changes_nothing(served, case):
    fabric, client = served
    before = fabric.digest()
    with pytest.raises(FrontendError, match="-> 400"):
        client._request("PUT", "/v1/tenants/1", BAD_BODIES[case])
    assert fabric.digest() == before
    assert fabric.check_invariant() == []
