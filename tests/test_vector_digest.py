"""Bit-exact digest pins for the vector engine.

``tests/test_vector.py`` holds the vector engine to the event kernel
only within statistical bands, so a change to the vector MAC, energy
settlement or queue bookkeeping that shifts one packet or one joule
would pass there unnoticed.  This module pins the engine's own output
bit-for-bit: the SHA-256 of ``dataclasses.asdict(RunResult)`` without
``wall_time_s`` (the ``perfbench/harness.fingerprint`` recipe) over the
five equivalence scenarios x three protocols x two offered loads at
N=300 over 40 s.

The matrix is chosen so every MAC branch runs: collision episodes,
retry-budget exhaustion (``dropped_retry``), a cluster head going down
mid-round (churn failure or battery death), and radio bursts offered to
uplink relays.  ``test_matrix_exercises_every_mac_branch`` asserts that,
so a digest table that stopped covering a branch fails loudly.

Two vectorised building blocks the engine relies on are also held to
their reference arithmetic bit-for-bit: the PER lookup against
``np.interp`` and the batched delay reservoir against batch-by-batch
updates.

The digests were recorded before the vector MAC's race loop was
rewritten around an incremental ready set and cluster-contiguous
segment reductions; a performance change to the engine must leave them
unchanged.  Recompute them only for an intentional modelling change, and
say so in the change description.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

import numpy as np
import pytest

from repro.api.engine import RunOptions, simulate
from repro.config import PhyConfig, Protocol
from repro.phy import AbicmTable
from repro.sim.trace import Tracer
from repro.vector.equivalence import SCENARIOS, scenario_config
from repro.vector.state import BatchReservoir, PerTables

N_NODES = 300
HORIZON_S = 40.0
LOADS_PPS = (2.0, 10.0)
PROTOCOLS = (Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE, Protocol.CAEM_FIXED)

#: scenario, protocol, load (pps), sha256 of the run's RunResult fields.
DIGESTS_TABLE = """
static   pure_leach    2 4d2d4444715732f0cf8f659cb915b18e8f1888243b8745945e47125c5f1300a8
static   pure_leach   10 2d8d4948dd6dfc9d2d46367e82b748432c7721047f637d2759eb9a920b95312c
static   scheme1       2 723cba9aa74aa369a7587414cfa99eeee964345d65336b97126714c6fa0294f1
static   scheme1      10 9cab76a8fa55737d0c23ad1e0f7fccc255f1284b0f7f3145dca393b0fd4b2453
static   scheme2       2 0cdd07999f8821f30ed7c137e9e38a4892419f447b65ee8fcc48c6dc6f1a03f3
static   scheme2      10 b078883e946757712521a6f4a23c212c2bee8721f35dacc60a7fd12514b5bdff
uplink   pure_leach    2 65cc50e11bf5acb1dd0cc57f434287fa11ddf702afc4774630291b8c0da592e3
uplink   pure_leach   10 03890bfc21c1eb9592bf31945c433cf9094426a1f3182a8ea8dcd1697550b58e
uplink   scheme1       2 1afba474024d9c7cbd1577056e61e51113b7e8798fa97b91a058b625888ed84c
uplink   scheme1      10 0156b92e7ee5ef56d024aedff02f7f978eb7b9738b839150eba802b0f8b2b022
uplink   scheme2       2 c88db8fef7e5cf9a35b0e856044a7c37254d1161dd72c63458ac740d0bdd0fc0
uplink   scheme2      10 698eaa7b4c5d1b2a6ba834c7986cc6ab0ed12f04e46f6c658265fd57630aa17d
dynamics pure_leach    2 1a6b37c2488076a0e5cf1449ba9725e807f49aec2d00564e7a5d8cedabe4cc73
dynamics pure_leach   10 09184c5872d3607b708c865b5d7ce9093c9a89f355da6f24ca49b5ce7f2c73f9
dynamics scheme1       2 da2ace61e44b3dc7ec1f1f45f90a4df5be7fe365d8a260ff5cd9803a3077772c
dynamics scheme1      10 a550d5da667d847325e53d746cdeab789b57cb058fc6d5301520597684b9d528
dynamics scheme2       2 5947c09d98ca1d8d75a41c879a596d368bffc64998e74d2bc7380f28867ed1e2
dynamics scheme2      10 13f92d6b32e2da7015b2ddcf0d0af3a47bd6671dc06f23d00a18bb6bd45498d6
jakes    pure_leach    2 cfc406c465824619b9464d26ee6b498351914f3632498d66bb60c108a0d06e43
jakes    pure_leach   10 d391d57197db7f89053411909a7f57c91bc4777b91a4289a04a812fd0bec7d54
jakes    scheme1       2 7232f11dca7dc83b7448338a6c214b7f6d78e7e26e3fa7aa130aa19cc495f241
jakes    scheme1      10 8809309b98fc1af59bd21561f258e989e7918aceeb35f51ad38f87795ca6a442
jakes    scheme2       2 c438143a114826ba11cd9e4dbe22fae92a87cba0460ac712766fb33429f52016
jakes    scheme2      10 756630ac2bc406150ab609f2a100505a426bc8a8cf723b9bdd56de80a5fa781d
rician   pure_leach    2 44d6f78ba4c706f5c2617757687239e45d4c339d0719950020aabe9e93c31f05
rician   pure_leach   10 17e79d6e2f9ce2c8493168b5ac612ea6a1d0fbed2c51370cb2e20178c5b173eb
rician   scheme1       2 c9d8e42d89f754a7a897b9ce48529dda25b763c1695613c87132d1d667cafee5
rician   scheme1      10 90f3f05fdc3fb132e170bdc73c98ccf14269fb5e7898087026faa68854f6f070
rician   scheme2       2 59fb97da21e690b591667599499d01dcecf9f6cee3d7dd6e7ce843f894171ee7
rician   scheme2      10 43116a9355d3f9f84e05987e729343d38c568691c671e12d6e273c3a9d69fcb9
"""
DIGESTS = {
    (scenario, protocol, float(load)): digest
    for scenario, protocol, load, digest in (
        line.split() for line in DIGESTS_TABLE.strip().splitlines()
    )
}

CELLS = [(s, p, load) for s in SCENARIOS for p in PROTOCOLS for load in LOADS_PPS]


def _fingerprint(result) -> str:
    data = dataclasses.asdict(result)
    data.pop("wall_time_s", None)
    blob = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _run(scenario: str, protocol: Protocol, load: float):
    """One vector run, plus how many cluster heads went down in it."""
    cfg = scenario_config(scenario, N_NODES, seed=3)
    cfg = dataclasses.replace(cfg, protocol=protocol)
    cfg = cfg.with_traffic(packets_per_second=load).with_scale(backend="vector")
    tracer = Tracer()
    opts = RunOptions(horizon_s=HORIZON_S, sample_interval_s=5.0, max_series_samples=64)
    result = simulate(cfg, opts, tracer=tracer)
    heads: set = set()
    heads_down = 0
    for note in tracer.annotations:
        if note.kind == "leach.round":
            heads = set(note.data["heads"])
        elif note.kind == "node.fail" and note.data["was_head"]:
            heads_down += 1
        elif note.kind == "node.death" and note.data["node"] in heads:
            heads_down += 1
    return result, heads_down


@pytest.mark.parametrize(
    "scenario,protocol,load",
    CELLS,
    ids=[f"{s}-{p.value}-{load:g}pps" for s, p, load in CELLS],
)
def test_digest_pinned(scenario, protocol, load):
    result, _ = _run(scenario, protocol, load)
    assert _fingerprint(result) == DIGESTS[(scenario, protocol.value, load)]


def test_matrix_exercises_every_mac_branch():
    runs = [_run(*cell) for cell in CELLS]
    assert sum(r.collisions for r, _ in runs) > 0
    assert sum(r.dropped_retry for r, _ in runs) > 0
    assert sum(down for _, down in runs) > 0
    assert any(r.cluster_delivered > 0 for r, _ in runs)
    # Both the gated (CAEM) and ungated (pure LEACH) access paths shed
    # packets on retry exhaustion somewhere in the matrix.
    for protocol in (Protocol.PURE_LEACH, Protocol.CAEM_ADAPTIVE):
        assert any(
            r.dropped_retry > 0
            for (_, p, _), (r, _) in zip(CELLS, runs)
            if p is protocol
        )


def test_per_lookup_is_np_interp_bit_for_bit():
    phy = PhyConfig()
    tables = PerTables(AbicmTable.from_config(phy), phy.packet_length_bits)
    rng = np.random.default_rng(7)
    grid = tables.grid
    snr = np.concatenate(
        [
            rng.uniform(grid[0] - 5.0, grid[-1] + 5.0, 20_000),
            grid,
            np.nextafter(grid, np.inf),
            np.nextafter(grid, -np.inf),
            [-1e300, 1e300, -np.inf, np.inf],
        ]
    )
    mode = rng.integers(0, tables.n_modes, snr.size)
    expected = np.empty(snr.size)
    for k in range(tables.n_modes):
        sel = mode == k
        expected[sel] = np.interp(snr[sel], grid, tables.tables[k])
    got = tables.per(mode, snr)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize("cap", [None, 40, 400])
def test_reservoir_parts_match_batch_by_batch(cap):
    rng = np.random.default_rng(11)
    one = BatchReservoir(cap, np.random.default_rng(5))
    merged = BatchReservoir(cap, np.random.default_rng(5))
    for _ in range(30):
        parts = rng.integers(0, 40, rng.integers(1, 9)).tolist()
        values = rng.random(sum(parts))
        lo = 0
        for size in parts:
            one.add(values[lo : lo + size])
            lo += size
        merged.add(values, parts)
    assert (one.sum, one.count, one.seen) == (merged.sum, merged.count, merged.seen)
    assert np.array_equal(one.samples(), merged.samples())
    assert one.rng.random() == merged.rng.random()
