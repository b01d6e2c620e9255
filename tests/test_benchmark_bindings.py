"""Every name the benchmark under perfbench/ binds exists in the package.

perfbench/test_smoke.py runs the benchmark itself, outside this suite, so a
change that removes a name only the benchmark reads would pass here and break
only there. These tests read the benchmark's binding table from its file and
check the names bench.py reads directly. They import neither bench.py nor
run.py: importing run.py rewrites os.environ for the whole process.
"""

import importlib.util
from pathlib import Path

import pytest

from igenkrylov import bidiag, harness, regparam, solve, tomo
from igenkrylov.config import ExperimentConfig, GeometryConfig

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """perfbench/spans.py as a module, loaded by its path and kept out of sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_site_resolves_to_a_callable():
    sites = load_spans().SITES
    assert sites
    for owner, attr, name in sites:
        assert callable(getattr(owner, attr, None)), (owner.__name__, attr, name)


def test_the_caches_the_benchmark_clears_and_counts_exist():
    info = tomo.system_matrix.cache_info()
    assert isinstance(info.misses, int) and isinstance(info.hits, int)
    assert callable(tomo.system_matrix.cache_clear)
    assert callable(tomo._jittered_operator.cache_clear)


@pytest.mark.parametrize("mode", ["igk", "gengk"])
def test_the_problem_record_feeds_the_benchmark_orthogonality_check(mode):
    """bench.py passes build_problem's A, prior and noise positionally to
    relation_diagnostics, gates on harness.ORTH_GATE, and judges the record of
    run_reconstruction of that same problem."""
    cfg = ExperimentConfig(
        geometry=GeometryConfig(n=16, angle_count=8, angle_step=22.0), mode=mode, max_iter=3
    )
    problem = harness.build_problem(cfg)
    assert isinstance(problem, solve.Problem)
    state = bidiag.igenGK_run(
        problem.A, harness.inexactness_for(cfg), problem.prior, problem.noise, problem.b, 3
    )
    rep = bidiag.relation_diagnostics(state, problem.A, problem.prior, problem.noise)
    assert max(rep.err_Vorth, rep.err_Uorth) <= harness.ORTH_GATE
    record = harness.run_reconstruction(cfg, problem)
    assert (record.stop_reason, record.iterations, len(record.relerr)) == ("max_iter", 3, 3)
    assert record.final_relerr == record.relerr[-1] and record.solution.size == 16 * 16
    assert regparam.log.name == "igenkrylov.regparam"
