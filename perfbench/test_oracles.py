"""The benchmark's own tests: each oracle accepts a real op and rejects a
planted wrong value.

    python3 -m pytest perfbench/test_oracles.py -q
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import workloads  # noqa: E402
from mppsoc.mpnoc import RoutingResult  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_oracle_accepts_op_and_rejects_planted_value(name, tmp_path):
    workload = workloads.make(name, 3, tmp_path, ROOT)
    for index in range(3):
        inputs = workload.prepare(index)
        output = workload.op(inputs)
        assert workload.check(inputs, output) is None
        assert workload.check(inputs, output, plant=True) is not None


def test_route_oracle_rejects_conflicting_pass(tmp_path):
    workload = workloads.make("design-sweep", 3, tmp_path, ROOT)
    perm = [0, 2, 1, 3]
    # 0->0 and 2->1 share an omega stage-0 switch output; one pass is wrong.
    merged = RoutingResult(passes=1, per_pass=(tuple(enumerate(perm)),),
                           conflicts=0)
    assert workload._check_route("delta-omega", perm, merged) is not None


def test_inputs_repeat_for_a_seed(tmp_path):
    first = workloads.make("array-compute", 5, tmp_path / "a", ROOT)
    second = workloads.make("array-compute", 5, tmp_path / "b", ROOT)
    assert first.prepare(4) == second.prepare(4)
    assert first.prepare(4) != first.prepare(5)


def test_reduction_program_size():
    program = workloads.reduction_program(64, 64)
    assert program.count("MOVD") == 2 * 63
    assert program.strip().endswith("HALT")
