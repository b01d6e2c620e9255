import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_experiments.py"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fresh_python(args, **env):
    """Run ``python args`` in a fresh interpreter with the package on its path,
    the three thread variables removed from the environment and ``env`` set."""
    environ = {key: value for key, value in os.environ.items() if key not in THREAD_VARS}
    environ.update(env, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], env=environ, capture_output=True, text=True,
                          check=True)


# Runs the code of its first argument in a fresh interpreter, where a meta
# path finder records the thread variables when numpy is first looked up.
# Prints them, whether numpy is loaded, and the variables at the end.
THREAD_PROBE = """
import json, os, sys
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
at_numpy = {}
class Recorder:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not at_numpy:
            at_numpy.update((var, os.environ.get(var)) for var in VARS)
sys.meta_path.insert(0, Recorder())
try:
    exec(sys.argv[1])
except SystemExit:
    pass
print(json.dumps({"at_numpy": at_numpy or None, "numpy": "numpy" in sys.modules,
                  "after": {var: os.environ.get(var) for var in VARS}}))
"""

# The pin of an importer of igenkrylov.cli: unset variables become 1, a set one is kept.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}


def thread_probe(code):
    proc = fresh_python(["-c", THREAD_PROBE, code], MKL_NUM_THREADS="4")
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_numpy_and_sets_no_variable():
    probe = thread_probe("import igenkrylov")
    assert probe["at_numpy"] is None and not probe["numpy"]
    assert probe["after"] == {**PINNED, "OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": None}


def test_importing_the_cli_pins_unset_thread_counts_before_numpy_loads():
    assert thread_probe("import igenkrylov.cli") == {
        "at_numpy": PINNED, "numpy": True, "after": PINNED}


def test_running_the_script_pins_unset_thread_counts():
    code = (f"import runpy\nsys.argv = [{str(SCRIPT)!r}, 'compare']\n"
            f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')")
    assert thread_probe(code) == {"at_numpy": PINNED, "numpy": True, "after": PINNED}


def test_cli_history_bytes_do_not_depend_on_an_unset_thread_count(script, tmp_path):
    """``python -m igenkrylov.cli reconstruct`` on the sweep's limit-gk-dp-n16
    configuration, cut to 200 iterations, writes the same history.csv with the
    three thread variables removed from the environment as with each set to 1.
    Without the pin in cli, the unset run uses OpenBLAS's default of a thread
    per core: on a 2-core host its relerr then moves in the last digit and this
    test fails. On a 1-CPU host both runs use one thread, and it passes trivially."""
    path = tmp_path / "limit-gk-dp-n16.json"
    path.write_text(json.dumps({**script.SWEEP_CONFIGS["limit-gk-dp-n16"], "max_iter": 200}))
    histories = []
    for name, env in (("unset", {}), ("pinned", dict.fromkeys(THREAD_VARS, "1"))):
        out = tmp_path / name
        fresh_python(["-m", "igenkrylov.cli", "reconstruct", "--config", str(path),
                      "--out", str(out)], **env)
        histories.append((out / "history.csv").read_bytes())
    assert histories[0] == histories[1]


@pytest.mark.parametrize("argv", [["sweep", "--out", "x"], ["paper", "--pres", "desk"],
                                  ["desk", "--config=x.json"]])
def test_a_flag_the_script_sets_itself_exits_2_before_any_run(script, tmp_path, monkeypatch,
                                                               capsys, argv):
    """argparse keeps the last of a repeated flag, so an extra --out or --preset
    would override the script's own, abbreviated or not."""
    monkeypatch.chdir(tmp_path)
    assert script.main(argv) == 2
    assert not (tmp_path / "results").exists()
    assert capsys.readouterr().err.startswith("usage: run_experiments.py")


def write_tree(root, history, summary='{"iterations": 3}\n', timings='{"s": 1.0}\n'):
    (root / "run").mkdir(parents=True)
    (root / "run" / "history.csv").write_text(history)
    (root / "run" / "summary.json").write_text(summary)
    (root / "run" / "timings.json").write_text(timings)


HISTORY = "iter,relerr,lambda\n1,0.5,2.0\n2,0.25,4.0\n3,0.125,0\n"


def test_compare_ignores_timings(script, tmp_path, capsys):
    write_tree(tmp_path / "old", HISTORY)
    write_tree(tmp_path / "new", HISTORY, timings='{"s": 2.5}\n')
    assert script.main(["compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert "all 2 files identical" in capsys.readouterr().out


def test_compare_reports_timings_whose_keys_differ(script, tmp_path, capsys):
    """A timings.json whose keys differ, or that is in one tree only, is a
    difference; it stays out of the file count."""
    old, new = tmp_path / "old", tmp_path / "new"
    write_tree(old, HISTORY, timings='{"a_s": 1.0, "b_s": 2.0}\n')
    write_tree(new, HISTORY, timings='{"a_s": 1.5, "c_s": 2.0}\n')
    (new / "other").mkdir()
    (new / "other" / "timings.json").write_text('{"a_s": 1.0}\n')
    assert script.main(["compare", str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert f"differs: run/timings.json keys ['a_s', 'b_s'] in {old}, ['a_s', 'c_s'] in {new}" in out
    assert f"differs: other/timings.json keys no file in {old}, ['a_s'] in {new}" in out
    assert out[-1] == "all 2 files identical; keys of 2 timings.json differ"


def test_compare_reports_largest_move_per_changed_column(script, tmp_path, capsys):
    write_tree(tmp_path / "old", HISTORY)
    changed = "iter,relerr,lambda\n1,0.5,2.0\n2,0.2500001,4.0\n3,0.12501,1e-9\n"
    write_tree(tmp_path / "new", changed, summary='{"iterations": 4}\n')
    assert script.main(["compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "differs: run/history.csv column relerr: largest relative move 8e-05" in out
    assert "differs: run/history.csv column lambda: largest relative move inf" in out
    assert not any("column iter" in line for line in out)
    assert "differs: run/summary.json" in out
    assert out[-1] == "2 of 2 files differ"
    # A cell that changes to or from a value that is not finite moves by inf.
    for idx, (a, b) in enumerate((("0.5", "nan"), ("nan", "0.5"), ("inf", "1e308"))):
        old_root, new_root = tmp_path / f"old{idx}", tmp_path / f"new{idx}"
        write_tree(old_root, f"iter,relerr\n1,{a}\n")
        write_tree(new_root, f"iter,relerr\n1,{b}\n")
        assert script.main(["compare", str(old_root), str(new_root)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "differs: run/history.csv column relerr: largest relative move inf" in out, (a, b)


def test_compare_reports_a_file_in_one_tree_only(script, tmp_path, capsys):
    write_tree(tmp_path / "old", HISTORY)
    write_tree(tmp_path / "new", HISTORY)
    (tmp_path / "new" / "run" / "final.pgm").write_bytes(b"P5\n")
    assert script.main(["compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out
    assert f"only in {tmp_path / 'new'}: run/final.pgm" in out


def test_compare_counts_the_pixels_of_an_image_that_differs(script, tmp_path, capsys):
    header = b"P5\n2 2\n65535\n"
    for root, levels in (("old", (0, 7, 65535, 300)), ("new", (0, 8, 65000, 300))):
        write_tree(tmp_path / root, HISTORY)
        pixels = b"".join(level.to_bytes(2, "big") for level in levels)
        (tmp_path / root / "run" / "final.pgm").write_bytes(header + pixels)
    assert script.main(["compare", str(tmp_path / "old"), str(tmp_path / "new")]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "differs: run/final.pgm: 2 pixels, largest by 535/65535" in out
    assert out[-1] == "1 of 3 files differ"


def test_compare_needs_two_directories(script, tmp_path):
    write_tree(tmp_path / "old", HISTORY)
    assert script.main(["compare", str(tmp_path / "old")]) == 2
    assert script.main(["compare", str(tmp_path / "old"), str(tmp_path / "missing")]) == 2
