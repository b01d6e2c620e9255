import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_experiments.py"


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
