"""Byte-level contracts of the artifact writer."""

from pathlib import Path

import numpy as np

from blowlab.reporting import format_value, output_dir, write_csv


def test_format_value_branches():
    assert format_value(True) == "true"
    assert format_value(np.bool_(False)) == "false"
    assert format_value(0.25) == "0.25"
    assert format_value(np.float64(1.0 / 3.0)) == repr(1.0 / 3.0)
    assert format_value(np.int64(7)) == "7"
    assert format_value(None) == ""
    assert format_value("label") == "label"


def test_write_csv_golden_bytes(tmp_path):
    path = write_csv(tmp_path / "out.csv", ("a", "b"),
                     [(1, 0.5), ("x", None)],
                     metadata={"zeta": 2.0, "alpha": True})
    expected = ("# alpha = true\n"
                "# zeta = 2.0\n"
                "a,b\n"
                "1,0.5\n"
                "x,\n")
    assert path.read_text() == expected


def test_write_csv_is_reproducible(tmp_path):
    rows = [(0.1, np.float64(0.2)), (3, False)]
    meta = {"b": 1, "a": 0.5}
    p1 = write_csv(tmp_path / "one.csv", ("x", "y"), rows, meta)
    p2 = write_csv(tmp_path / "two.csv", ("x", "y"), rows, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_manifest_layout(tmp_path):
    """A preset manifest as cli.run_preset writes it: the config as sorted
    metadata, then one (criterion, name, passed, detail) row per check."""
    path = write_csv(tmp_path / "manifest.csv",
                     ("criterion", "name", "passed", "detail"),
                     [("C1", "demo", True, "ok")],
                     {"preset": "demo", "tolerance_version": 1})
    text = path.read_text().splitlines()
    assert text[0] == "# preset = demo"
    assert text[1] == "# tolerance_version = 1"
    assert text[2] == "criterion,name,passed,detail"
    assert text[3] == "C1,demo,true,ok"


def test_output_dir_honors_environment(tmp_path, monkeypatch):
    target = tmp_path / "artifacts"
    monkeypatch.setenv("BLOWLAB_OUTDIR", str(target))
    assert output_dir() == target
    assert target.is_dir()
    monkeypatch.delenv("BLOWLAB_OUTDIR")
    monkeypatch.chdir(tmp_path)
    assert output_dir() == Path("blowlab-out")
    assert (tmp_path / "blowlab-out").is_dir()
