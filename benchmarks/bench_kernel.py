"""Microbenchmarks — simulation-kernel and channel-model hot paths.

Unlike the figure benches these are true latency benchmarks (many
rounds): the event loop and the lazy channel samplers are the two hot
paths that bound how large a network the simulator can carry.

Run them (serially) with::

    PYTHONPATH=src python -m pytest benchmarks/bench_kernel.py -q

No baseline is committed: the repository benchmark
(``perfbench/run.py``) is the regression gate, and it measures the
event kernel through its ``paper-campaign`` workload.
"""

import numpy as np

from repro.channel import RayleighFading
from repro.config import ChannelConfig, NetworkConfig, PhyConfig, Protocol
from repro.channel import Link, LinkBudget
from repro.network import SensorNetwork
from repro.phy import AbicmTable
from repro.rng import RngRegistry
from repro.sim import Simulator


def test_kernel_event_throughput(benchmark):
    """Schedule+dispatch cost of the event heap (10k-event batches)."""

    def run_batch():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 10_000:
                sim.call_in(0.001, tick)

        sim.call_in(0.001, tick)
        sim.run()
        return count

    result = benchmark(run_batch)
    assert result == 10_000


def test_kernel_push_pop_cancel_churn(benchmark):
    """Heap churn under MAC-like timer patterns: interleaved push/cancel
    (backoff timers invalidated by collision tones) plus the lazy-deletion
    pop path (10k live + 10k cancelled per batch)."""

    def churn():
        sim = Simulator()
        keep = []
        # Interleave: every other handle is cancelled before it can fire.
        for i in range(20_000):
            handle = sim.call_in(1.0 + (i % 997) * 1e-3, _noop)
            if i % 2:
                handle.cancel()
            else:
                keep.append(handle)
        # A second cancellation wave hits handles already in the heap.
        for handle in keep[::4]:
            handle.cancel()
        sim.run()
        return sim.events_processed

    result = benchmark(churn)
    assert result == 7_500  # 10k kept - 2.5k late-cancelled


def _noop():
    pass


def test_network_100_node_quick_run(benchmark):
    """End-to-end kernel load: a 100-node paper-scale network advanced
    20 simulated seconds (one full LEACH round).  This is the macro
    number that tracks whole-stack regressions; run it serially."""

    def run_network():
        cfg = NetworkConfig(
            n_nodes=100, protocol=Protocol.CAEM_ADAPTIVE, seed=1
        )
        net = SensorNetwork(cfg)
        net.run_until(20.0)
        return net.sim.events_processed

    events = benchmark.pedantic(
        run_network, rounds=1, iterations=1, warmup_rounds=0
    )
    assert events > 10_000


def test_fading_sampling_rate(benchmark):
    """Lazy AR(1) fading queries (1k-sample batches)."""
    fading = RayleighFading(0.1, RngRegistry(1).stream("bench"))
    state = {"t": 0.0}

    def sample_block():
        t = state["t"]
        acc = 0.0
        for _ in range(1000):
            t += 0.01
            acc += fading.power_gain(t)
        state["t"] = t
        return acc

    total = benchmark(sample_block)
    assert total > 0


def test_link_snr_query_rate(benchmark):
    """Full link SNR queries: pathloss + shadowing + fading (1k batches)."""
    cfg = ChannelConfig()
    link = Link(35.0, LinkBudget.from_config(cfg), cfg,
                RngRegistry(2).stream("bench"), "bench")
    state = {"t": 0.0}

    def sample_block():
        t = state["t"]
        acc = 0.0
        for _ in range(1000):
            t += 0.05
            acc += link.snr_db(t)
        state["t"] = t
        return acc

    benchmark(sample_block)


def test_abicm_mode_selection(benchmark):
    """Mode staircase lookups across the SNR range (vector of 10k)."""
    table = AbicmTable.from_config(PhyConfig())
    snrs = np.linspace(-5.0, 35.0, 10_000)

    def select_all():
        return sum(
            (table.mode_for_snr(float(s)) or table.lowest).index for s in snrs
        )

    result = benchmark(select_all)
    assert result > 0
