"""The single-thread BLAS cap of run_experiment.

numpy bundles a scipy-openblas build with its own thread pool, the only
BLAS the package calls.  These tests read and preset that pool through the
functions that ``linalg._find_blas_pools`` returns, and never set it above
os.cpu_count().
"""

import hashlib
import os
import subprocess
import sys
import types

import pytest

from darksteady import cli, experiments, linalg
from darksteady.config import parse_config
from darksteady.errors import ConfigError

TWO = min(2, os.cpu_count() or 1)


@pytest.fixture
def pools():
    """numpy's bundled pool preset to TWO threads; its count is put back
    afterwards."""
    found = linalg._find_blas_pools()
    if len(found) != 1:
        pytest.skip("numpy does not bundle scipy-openblas here")
    before = [get() for get, _ in found]
    for _, set_ in found:
        set_(TWO)
    yield found
    for (_, set_), count in zip(found, before):
        set_(count)


def _counts(found):
    return [get() for get, _ in found]


def _run_with_runner(tmp_path, monkeypatch, runner):
    monkeypatch.setitem(experiments._RUNNERS, "steady", runner)
    cfg = tmp_path / "run.ini"
    cfg.write_text("experiment = steady\n")
    return cli.main(["steady", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_pools_read_one_inside_a_run_and_are_restored(tmp_path, monkeypatch, pools):
    inside = []

    def runner(cfg):
        inside.append(_counts(pools))
        return {}

    assert _run_with_runner(tmp_path, monkeypatch, runner) == 0
    assert inside == [[1]]
    assert _counts(pools) == [TWO]


def test_pools_restored_when_the_runner_raises(tmp_path, monkeypatch, pools):
    inside = []

    def runner(cfg):
        inside.append(_counts(pools))
        raise ConfigError("raised inside the run")

    monkeypatch.setitem(experiments._RUNNERS, "steady", runner)
    with pytest.raises(ConfigError, match="inside the run"):
        experiments.run_experiment(
            parse_config(f"experiment = steady\nout = {tmp_path / 'out'}\n")
        )
    assert inside == [[1]]
    assert _counts(pools) == [TWO]


def test_thread_variable_does_not_lift_the_cap(tmp_path, monkeypatch, pools):
    """The cap does not look at the thread variables (OpenBLAS reads them
    only when it loads): a run still goes on one thread, so its output
    bytes stay fixed."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    inside = []

    def runner(cfg):
        inside.append(_counts(pools))
        return {}

    assert _run_with_runner(tmp_path, monkeypatch, runner) == 0
    assert inside == [[1]]
    assert _counts(pools) == [TWO]


def test_discovery_finds_numpys_one_pool(pools):
    """One pool, numpy's: the package calls no other BLAS, so no other
    library's pool is looked for or set."""
    assert len(pools) == 1
    pools[0][1](1)
    assert _counts(pools) == [1]
    pools[0][1](TWO)
    assert _counts(pools) == [TWO]


def test_run_works_when_no_symbol_is_found(tmp_path, monkeypatch, pools):
    """Another BLAS: libraries that export none of the thread functions
    give no pool, and the run goes ahead untouched."""
    monkeypatch.setattr(linalg, "_blas_pools", None)
    monkeypatch.setattr(linalg, "ctypes", types.SimpleNamespace(CDLL=lambda path: object()))
    assert linalg._find_blas_pools() == []
    inside = []

    def runner(cfg):
        inside.append(_counts(pools))
        return experiments._run_steady(cfg)

    assert _run_with_runner(tmp_path, monkeypatch, runner) == 0
    assert (tmp_path / "out" / "data.csv").exists()
    assert linalg._blas_pools == []
    assert inside == [[TWO]]


def test_pools_never_set_above_cpu_count(tmp_path, monkeypatch, pools):
    monkeypatch.setattr(linalg, "_blas_pools", None)
    found = linalg._find_blas_pools()
    values = []

    def recording(set_):
        def record(count):
            values.append(count)
            return set_(count)

        return record

    monkeypatch.setattr(linalg, "_find_blas_pools",
                        lambda: [(get, recording(set_)) for get, set_ in found])
    assert _run_with_runner(tmp_path, monkeypatch, experiments._run_steady) == 0
    assert values == [1, TWO]
    assert all(1 <= v <= (os.cpu_count() or 1) for v in values)


def test_import_does_no_discovery():
    code = (
        "import darksteady.cli, darksteady.linalg as l; "
        "print(l._blas_pools is None)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "True"


_SAME_BYTES = {
    "fig3": "experiment = fig3\ncycles = 50\n[params]\nt2_star = 10\n",
    "sweep": (
        "experiment = sweep\n[params]\nvariant = two-nuclei-spin-half\n"
        "asymmetry = 1, 0.8\nomega_e = 1.2727922061357855\n[grid]\ng = 1.5, 2.5\n"
    ),
}


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("name", sorted(_SAME_BYTES))
def test_caller_thread_count_does_not_change_outputs(tmp_path, pools, name):
    """A Markovian fig3 and a two-nuclei sweep, whose bytes follow the BLAS
    summation order, write the same data.csv with the caller's pools at 1
    and at 2 threads."""
    cfg = tmp_path / "run.ini"
    cfg.write_text(_SAME_BYTES[name])
    digests = []
    for count in (1, TWO):
        for _, set_ in pools:
            set_(count)
        out = tmp_path / f"out{count}"
        assert cli.main([name, "--config", str(cfg), "--out", str(out)]) == 0
        digests.append(hashlib.sha256((out / "data.csv").read_bytes()).hexdigest())
    assert digests[0] == digests[1]
