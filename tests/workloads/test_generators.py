"""Tests for workload generators and the SPEC17-like suite."""

import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro.isa import Interpreter
from repro.workloads import (
    SPEC17_NAMES,
    make_compute_kernel,
    make_fp_dense,
    make_fp_stream,
    make_hash_probe,
    make_indirect_stream,
    make_mixed_kernel,
    make_pointer_chase,
    make_stream_kernel,
    make_stride_reuse,
    suite,
    workload_by_name,
)
from repro.workloads.generators import _randbelow_many

#: The suite's kernels in suite order, as ``repro info`` lists them.
SUITE_NAMES = (
    "mcf_like", "omnetpp_like", "xalancbmk_like", "gcc_like", "deepsjeng_like",
    "lbm_like", "x264_like", "namd_like", "bwaves_like", "exchange2_like",
    "xz_like",
)


def functional_run(workload, limit=1_000_000):
    interpreter = Interpreter(workload.program)
    trace = interpreter.run(limit)
    assert interpreter.halted, f"{workload.name} did not halt in {limit} instructions"
    return trace


class TestGeneratorsProduceRunnablePrograms:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: make_indirect_stream("t", table_words=256, iterations=50),
            lambda: make_indirect_stream("t", table_words=256, iterations=30, unroll=3),
            lambda: make_pointer_chase("t", nodes=64, iterations=50),
            lambda: make_pointer_chase("t", nodes=64, iterations=20, value_branch=False),
            lambda: make_hash_probe("t", buckets=64, iterations=40),
            lambda: make_stream_kernel("t", words=256, iterations=60),
            lambda: make_stride_reuse("t", block_words=128, passes=2),
            lambda: make_fp_dense("t", elems=64, iterations=40, companion_words=128),
            lambda: make_fp_stream("t", words=128, iterations=40),
            lambda: make_compute_kernel("t", iterations=60),
            lambda: make_mixed_kernel("t", table_words=128, iterations=40),
        ],
        ids=["indirect", "indirect-unrolled", "chase", "chase-nobranch", "hash",
             "stream", "stride", "fp-dense", "fp-stream", "compute", "mixed"],
    )
    def test_halts_functionally(self, factory):
        workload = factory()
        trace = functional_run(workload)
        assert len(trace) > 50

    def test_pad_ops_add_instructions(self):
        plain = make_indirect_stream("a", table_words=64, iterations=10)
        padded = make_indirect_stream("b", table_words=64, iterations=10, pad_ops=4)
        assert padded.static_instructions > plain.static_instructions

    def test_unroll_multiplies_table_loads(self):
        single = make_indirect_stream("a", table_words=64, iterations=10, unroll=1)
        triple = make_indirect_stream("b", table_words=64, iterations=10, unroll=3)
        single_loads = sum(1 for i in single.program.instructions if i.is_load)
        triple_loads = sum(1 for i in triple.program.instructions if i.is_load)
        assert triple_loads > single_loads

    def test_hash_probe_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            make_hash_probe("t", buckets=100, iterations=10)

    def test_subnormal_fraction_plants_subnormals(self):
        from repro.isa.instructions import is_subnormal

        workload = make_fp_dense(
            "t", elems=256, iterations=10, subnormal_frac=0.5, companion_words=256
        )
        values = [v for v in workload.program.initial_memory.values()
                  if isinstance(v, float)]
        subnormals = sum(1 for v in values if is_subnormal(v))
        assert subnormals > 10

    def test_deterministic_by_seed(self):
        a = make_indirect_stream("t", table_words=64, iterations=10, seed=3)
        b = make_indirect_stream("t", table_words=64, iterations=10, seed=3)
        assert a.program.initial_memory == b.program.initial_memory
        assert [str(i) for i in a.program.instructions] == [
            str(i) for i in b.program.instructions
        ]


class TestBulkDraw:
    @pytest.mark.parametrize(
        "n", [1, 2, 3, 1000, 2048, 320 * 1024, 1 << 30, (1 << 32) - 1, (1 << 32) + 1]
    )
    @pytest.mark.parametrize("seed", [0, 1, 11, 2**31 + 5])
    @pytest.mark.parametrize("count", [0, 1, 7, 600])
    def test_matches_one_randrange_per_value(self, n, seed, count):
        bulk, single = random.Random(seed), random.Random(seed)
        assert _randbelow_many(bulk, n, count) == [
            single.randrange(n) for _ in range(count)
        ]
        assert bulk.getstate() == single.getstate()


class TestSuite:
    def test_suite_names_are_unique(self):
        assert SPEC17_NAMES == SUITE_NAMES
        assert tuple(w.name for w in suite()) == SUITE_NAMES
        assert tuple(w.name for w in suite(scale=0.25)) == SUITE_NAMES

    def test_full_scale_suite_is_built_once(self):
        first, second = suite(), suite()
        assert all(a is b for a, b in zip(first, second, strict=True))
        assert first[0] is workload_by_name("mcf_like")
        assert suite(scale=0.25)[0] is not suite(scale=0.25)[0]

    def test_import_and_info_build_nothing(self):
        script = (
            "import gc\n"
            "import repro, repro.__main__\n"
            "from repro.isa.program import Program\n"
            "from repro.workloads import spec17\n"
            "programs = sum(isinstance(o, Program) for o in gc.get_objects())\n"
            "print(spec17.workload_by_name.cache_info().currsize, programs)\n"
            "repro.__main__.main(['info'])\n"
            "print(spec17.workload_by_name.cache_info().currsize)\n"
        )
        src = str(pathlib.Path(repro.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        ).stdout.splitlines()
        assert out[0] == "0 0"
        assert f"workloads: {', '.join(SUITE_NAMES)}" in out
        assert out[-1] == "0"

    def test_lookup_by_name(self):
        assert workload_by_name("mcf_like").name == "mcf_like"
        with pytest.raises(KeyError):
            workload_by_name("nonexistent")

    def test_scaled_suite_is_smaller(self):
        full = {w.name: w for w in suite()}
        scaled = {w.name: w for w in suite(scale=0.25)}
        smaller = sum(
            1 for name in full
            if len(scaled[name].program.initial_memory)
            <= len(full[name].program.initial_memory)
        )
        assert smaller == len(full)

    @pytest.mark.parametrize("name", SPEC17_NAMES)
    def test_every_suite_member_halts(self, name):
        functional_run(workload_by_name(name))

    def test_descriptions_present(self):
        for workload in suite():
            assert workload.description
