"""Every analysis report, pinned bit for bit.

The sha256 of ``analyze(w).dumps()`` for every registered workload at
its smallest class, for mg.W and cg.S, and for the small sources of
:mod:`tests.analysis.programs` that reach what the workloads do not
(packed and single-precision ops, the XMM stack and lane moves, every
unknown reason).  A report digests every statistic, shadow error,
verdict and unknown reason of its run, so a change to the observer
that moves any of them fails here.  The CI ``analysis-smoke`` job
checks the cg.T entry against ``repro analyze cg T -o analysis.json``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis import analyze
from repro.workloads import make_workload
from tests.analysis.programs import SOURCE_NAMES, source_workload

PINNED = {
    "amg.S": "ebb06bda9920a9e15d9e0b1d8055df995ab154cc208474639ed9f6c9c71987da",
    "bt.T": "6806d54f5c9f25aad1ea76d4553099b62a0f62464907352ed2e58e280d686a43",
    "cg.T": "4305d2bd49603a11a9bc676077dfd95c1b8cd3b9aaa2bfe17696fadd7031a83c",
    "ep.T": "f3a9f23e7113e622a86f7246c5d52be449526688c6701a70130a0dbdf2d25f00",
    "ft.T": "9db973967460a67b775c3313ccbb7249e808b28663a52ee50d0e13ecb26b344b",
    "heat.T": "7746d1946f18ab8c228272f1cad9666baf439bae95a1fc70bff2f2818b46549a",
    "lu.T": "55e051d1a768934802dc457940e20017987e095eb2e29bbab08799bdfdbec04d",
    "mg.T": "e876195f91dbd084551dc295d1523a874e36211d653381346ba67072857cc88d",
    "nekcg.T": "5c8261c96024ffac9344947aa5d81225b97878dbab69d95ac799b24c03445b18",
    "sp.T": "c833f6b285eb5497c5697b6642685feeba08e5243ec0ade9291b301ad5e4bf26",
    "superlu.S": "ca8031fa8ed3233af7b6407f2c8b44449fd5077468488186499940495a09e853",
    "cg.S": "5e230743cd6be4500d49f4783bd5c560097f849db4aec91c7e3ca8c759167fe8",
    "mg.W": "98ea2d822fe85720b68235bd9db955192824ac257065535b117462ca9fcdabc4",
    "mh_mixed": "13dceb2af735af09360fcb79d350f4b473b90d95ff02aaf09e921cfd376a64f6",
    "mh_flips": "a4e704933bb451ec3566acdd81aa03b7996d5c7b973104ef2accb5eab6184dcf",
    "mh_exact": "711a353db9df1c03a921817b9af45fa2d6d346ef7e51a33112089cd10a16d9e6",
    "mh_trap": "4eb81acef67f0e0711ade6d7bb0480838a0192d5e161f07245285d6a9a7ed92f",
    "asm_packed": "af4fa273c55cde38485ff2cc128e94cc0d75429656fcef666f8af67cf9269332",
    "asm_scalar": "5b8c389df34cd64a67755ae5bbe0d1d5d706c3396ed3de75f12936670a0d7d6b",
    "asm_escapes": "a18fd6263ee489bc716266b2761ec4cf780a982fbb626f40e64a9108c0c0ade3",
}


def _subject(key: str):
    if key in SOURCE_NAMES:
        return source_workload(key)
    name, klass = key.split(".")
    return make_workload(name, klass)


@pytest.mark.parametrize("key", PINNED)
def test_report_is_pinned(key):
    text = analyze(_subject(key)).dumps()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[key]


def test_every_registered_workload_is_pinned():
    from repro.workloads import REGISTRY

    for name in REGISTRY.names():
        assert f"{name}.{REGISTRY.get(name).classes[0]}" in PINNED, name
