"""Fast-forward win on DRAM-latency-bound work.

A cold pointer chase under STT is the fast-forward's home turf: every load
is a serial DRAM miss behind a tainted address, so the machine spends the
overwhelming majority of cycles provably idle.  The benchmark pins the
skipping path's wall time in ``benchmarks/baseline.json`` (so CI notices if
the win erodes), and the ratio test requires the skipping loop to step at
least 5x fewer cycles than the naive loop, with bit-identical metrics.
"""

from repro.common import AttackModel
from repro.pipeline.core import Core
from repro.sim import RunRequest, config_by_name, execute
from repro.workloads import make_pointer_chase

#: Cold (never warmed) chase: each hop is a dependent DRAM miss, and under
#: STT the next hop's address is tainted until the previous one commits.
_DRAM_BOUND = make_pointer_chase(
    "ff_bench_chase", nodes=8192, iterations=600, seed=11, warm_table=False
)

_REQUEST = RunRequest(
    workload=_DRAM_BOUND,
    config=config_by_name("STT{ld}"),
    attack_model=AttackModel.SPECTRE,
)


def test_fastforward_dram_bound(benchmark):
    """Wall time of the (default, skipping) path — tracked in baseline.json."""
    metrics = benchmark.pedantic(execute, args=(_REQUEST,), rounds=3, iterations=1)
    assert metrics.instructions > 1000


def test_fastforward_steps_at_least_5x_fewer_cycles(monkeypatch):
    """The skipping loop steps at most a fifth of the cycles the naive loop
    steps, with the same result.  Counted, not timed: the wall-clock ratio
    swings with the host and with how cheap an idle step is, while the
    stepped-cycle count is a pure function of the simulation.  At the time
    of writing the chase steps 12,339 of 78,705 cycles (6.4x fewer)."""
    cores = []
    run = Core.run

    def recording_run(core, *args, **kwargs):
        cores.append(core)
        return run(core, *args, **kwargs)

    monkeypatch.setattr(Core, "run", recording_run)
    monkeypatch.setattr(Core, "fast_forward", False)
    naive_metrics = execute(_REQUEST)
    monkeypatch.setattr(Core, "fast_forward", True)
    fast_metrics = execute(_REQUEST)
    # Same simulation either way…
    assert fast_metrics.cycles == naive_metrics.cycles
    assert fast_metrics.stats == naive_metrics.stats
    # …stepping at least 5x fewer cycles with skipping.
    naive, fast = cores
    assert naive.ff_skipped_cycles == 0
    stepped = fast.cycle - fast.ff_skipped_cycles
    assert naive.cycle >= 5 * stepped, (
        f"fast-forward stepped {stepped} of {naive.cycle} cycles "
        f"({naive.cycle / stepped:.2f}x fewer, want >= 5x) on a DRAM-bound chase"
    )
