"""The benchmark's own pass at seed 0 gives the pinned outputs on every
workload: a change to the library that keeps its results bit-identical
keeps these digests.  Reads perfbench/ and changes nothing in it."""

import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run, workloads = _load("run"), _load("workloads")

# workload -> (sha256 prefix of a seed-0 pass's outputs, instances completed)
SEED0 = {
    "principal-sweep": ("8ce4579c1d9e", 1228),
    "parabolic-verify": ("e08d010cd649", 623),
    "height-suite": ("bb0365cc8dd7", 600),
    "module-build": ("1862bd9305fd", 93),
}


@pytest.mark.parametrize("name", list(SEED0))
def test_seed0_pass_is_bit_identical(name):
    result = run.launch(name, workloads.WORKLOADS[name].generate(0))
    assert result["failures"] == []
    assert (result["digest"][:12], result["completed"]) == SEED0[name]
