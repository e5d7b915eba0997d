"""Command-line surface: artifacts, determinism, options and argument files."""

import json
import re
import sys
import warnings

import numpy as np
import pytest

from blowlab import cli, norms
from blowlab.errors import DomainError
from blowlab.norms import RadialProfile
from blowlab.reporting import write_csv


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    target = tmp_path / "artifacts"
    monkeypatch.setenv("BLOWLAB_OUTDIR", str(target))
    return target


def read_rows(path):
    lines = path.read_text().splitlines()
    body = [l for l in lines if not l.startswith("#")]
    meta = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("#"))
    return body[0].split(","), [l.split(",") for l in body[1:]], meta


def test_constants_output(outdir, capsys):
    assert cli.main(["constants", "--alpha", "2", "--d", "5", "--p", "3"]) == 0
    out = capsys.readouterr().out
    assert "s = 1.4142136" in out
    assert "K = 0.531923" in out
    header, rows, meta = read_rows(outdir / "constants.csv")
    assert header == ["alpha", "d", "p", "s", "morrey_norm"]
    assert rows[0][0] == "2.0" and rows[0][1] == "5"
    assert {"K", "q", "sigma_d"} <= set(meta)


def test_constants_whose_sphere_area_leaves_the_doubles_exit_2(outdir, capsys):
    """sigma_500 is 0 in doubles: the command printed sigma_500 = 0 and
    morrey_norm = 0 and exited 0."""
    assert cli.main(["constants", "--d", "500", "--p", "3"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: sigma_d at d = 500 lies below the smallest normal double")
    assert not list(outdir.rglob("*.csv"))


def test_simulate_on_a_profile_file_is_a_domain_error(outdir, tmp_path):
    path = tmp_path / "profile.csv"
    path.write_text("r,value\n0.1,1.0\n0.2,0.7\n0.3,0.5\n0.4,0.2\n")
    args = cli.build_parser().parse_args(["simulate", "--profile", str(path)])
    with pytest.raises(DomainError, match="^simulate needs lattice data; use --profile gauss$"):
        args.fn(args)


# every flag of each subcommand with the value it takes when not given
PARSED_DEFAULTS = {
    "kernel": {"--kind": "gaussian", "--alpha": 1.0, "--tail-order": 2.5,
               "--strength": 1.0, "--t": 1.0, "--L": 48.0,
               "--boundary-tol": 1e-8, "--rho-max": 10.0, "--d": 1,
               "--n": 1024, "--radial": False},
    "constants": {"--alpha": 2.0, "--p": 3.0, "--q": 1.0, "--d": 5},
    "criterion": {"--profile": "gauss", "--mass": 1.0, "--sigma": 1.0,
                  "--p": 2.0, "--c": 1.0, "--c2": 1.0, "--p2": 3.0,
                  "--alpha": 1.0, "--tail-order": 2.5, "--strength": 1.0,
                  "--L": 48.0, "--threshold": 1.0, "--t-min": 1e-3,
                  "--t-max": 1e3, "--kernel": "gaussian", "--family": "power",
                  "--d": 1, "--n": 1024, "--t-count": 40},
    "simulate": {"--profile": "gauss", "--mass": 1.0, "--sigma": 1.0,
                 "--p": 2.0, "--c": 1.0, "--c2": 1.0, "--p2": 3.0,
                 "--alpha": 1.0, "--tail-order": 2.5, "--strength": 1.0,
                 "--L": 48.0, "--dt-init": 1e-3, "--dt-min": 1e-12,
                 "--t-end": 1.0, "--u-max": 1e8, "--kernel": "gaussian",
                 "--family": "power", "--d": 1, "--n": 1024, "--targets": ""},
    "sweep-K": {"--alpha": 2.0, "--p": 3.0, "--d": "400,800"},
    "sweep-L": {"--alpha": 2.0, "--p": 3.0, "--d": "3:50"},
    "dichotomy": {"--mass": 1.0, "--sigma": 1.0, "--p": 4.0, "--c": 1.0,
                  "--L": 128.0, "--dt-init": 0.05, "--dt-min": 1e-14,
                  "--t-end": 60.0, "--u-max": 1e4, "--alpha": 1.0,
                  "--tail-order": 2.5, "--strength": 1.0,
                  "--kernel": "gaussian", "--d": 1, "--n": 1024,
                  "--scales": "0.3,1,3,10", "--bisection-steps": 6},
    "selftest": {"--only": None},
}


@pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
def test_parsed_defaults_and_flags(capsys, command):
    expected = PARSED_DEFAULTS[command]
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args([command, "--help"])
    shown = set(re.findall(r"(?<![\w-])--[\w-]+", capsys.readouterr().out))
    assert shown - {"--help"} == set(expected)
    parsed = vars(cli.build_parser().parse_args([command]))
    del parsed["fn"], parsed["command"]
    dest = {"--kind": "kernel"}
    assert parsed == {dest.get(f, f[2:].replace("-", "_")): v
                      for f, v in expected.items()}


def test_config_file_precedence(outdir, tmp_path):
    args = tmp_path / "run.args"
    args.write_text("--p=4\n")
    assert cli.main(["constants", f"@{args}", "--alpha", "2", "--d", "5"]) == 0
    _, rows, _ = read_rows(outdir / "constants.csv")
    assert rows[0][2] == "4.0"                  # the file fills the gap
    assert cli.main(["constants", f"@{args}",
                     "--alpha", "2", "--d", "5", "--p", "3"]) == 0
    _, rows, _ = read_rows(outdir / "constants.csv")
    assert rows[0][2] == "3.0"                  # a later flag wins


def test_kernel_dump(outdir, capsys):
    assert cli.main(["kernel", "--kind", "gaussian", "--t", "1.0"]) == 0
    out = capsys.readouterr().out
    mass = float(next(l for l in out.splitlines()
                      if l.startswith("mass = ")).split(" = ")[1])
    assert abs(mass - 1.0) < 1e-12
    header, rows, meta = read_rows(outdir / "kernel.csv")
    assert header == ["x", "value"]
    assert len(rows) == 1024
    assert meta["kind"] == "gaussian_like"


def test_kernel_radial_profile(outdir):
    assert cli.main(["kernel", "--radial", "--kind", "fractional",
                     "--alpha", "1.0", "--d", "3"]) == 0
    header, rows, _ = read_rows(outdir / "kernel_profile.csv")
    assert header == ["rho", "R"]
    assert len(rows) == 501


def test_kernel_radial_profile_outside_the_double_range(outdir, capsys):
    # R(0) at alpha = 1, d = 1000 exceeds the largest double
    assert cli.main(["kernel", "--radial", "--kind", "fractional",
                     "--alpha", "1", "--d", "1000"]) == 2
    assert "error: profile route closed at rho = 0 " in capsys.readouterr().err
    assert not (outdir / "kernel_profile.csv").exists()


def test_sweep_L_outside_the_double_range_names_the_route(outdir, capsys):
    # at d = 1000 the envelope's grid reaches radii where R lies below the
    # smallest double, and the Mellin line there cannot resolve it
    assert cli.main(["sweep-L", "--alpha", "1.5", "--p", "3", "--d", "1000,1001"]) == 2
    assert "error: profile route mellin at rho = " in capsys.readouterr().err
    assert not (outdir / "sweep_L.csv").exists()


def test_kernel_radial_needs_fractional(outdir, capsys):
    assert cli.main(["kernel", "--radial", "--kind", "gaussian"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-8"])
def test_kernel_rejects_bad_boundary_tol(outdir, capsys, tol):
    assert cli.main(["kernel", "--kind", "gaussian", "--t", "25",
                     "--L", "8", "--n", "256", f"--boundary-tol={tol}"]) == 2
    assert "boundary_tol" in capsys.readouterr().err
    assert not (outdir / "kernel.csv").exists()


def test_sweep_is_byte_deterministic(tmp_path, monkeypatch):
    blobs = []
    for sub in ("one", "two"):
        monkeypatch.setenv("BLOWLAB_OUTDIR", str(tmp_path / sub))
        assert cli.main(["sweep-K", "--alpha", "2", "--p", "3",
                         "--d", "400,800"]) == 0
        blobs.append((tmp_path / sub / "sweep_K.csv").read_bytes())
    assert blobs[0] == blobs[1]
    header, rows, _ = read_rows(tmp_path / "one" / "sweep_K.csv")
    assert header == ["quantity", "alpha", "p", "d", "value",
                      "normalized", "rho0"]
    assert len(rows) == 2


def test_sweep_L_reports_band(outdir):
    assert cli.main(["sweep-L", "--alpha", "2", "--p", "2",
                     "--d", "400,800"]) == 0
    _, rows, meta = read_rows(outdir / "sweep_L.csv")
    assert len(rows) == 2
    assert "normalized_band_lo" in meta and "normalized_band_hi" in meta


def test_sweep_L_at_a_generic_order_in_high_dimension(outdir):
    # from d = 14 the generic-order profile once missed its tolerance
    # between the series; the Mellin-Barnes line serves every dimension
    assert cli.main(["sweep-L", "--alpha", "1.5", "--p", "3", "--d", "12:16"]) == 0
    _, rows, _ = read_rows(outdir / "sweep_L.csv")
    assert len(rows) == 5


def test_parse_d_values_forms():
    assert cli._parse_d_values("3:5") == [3, 4, 5]
    assert cli._parse_d_values("400,800") == [400.0, 800.0]
    logspaced = cli._parse_d_values("100:1000:3")
    assert logspaced[0] == 100 and logspaced[-1] == 1000
    assert len(logspaced) == 3


@pytest.mark.parametrize("argv", [
    ["simulate", "--targets", "abc"],
    ["dichotomy", "--scales", "0.3,x"],
    ["sweep-K", "--d", "3:x"],
    ["sweep-L", "--d", "3:5:7:9"],
])
def test_malformed_lists_exit_with_domain_error(outdir, capsys, argv):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad ")
    assert "Traceback" not in err


def run_with_args_file(tmp_path, lines, command="constants"):
    args = tmp_path / "run.args"
    args.write_text("".join(line + "\n" for line in lines))
    with pytest.raises(SystemExit) as err:
        cli.main([command, f"@{args}"])
    return err.value.code


def test_config_key_no_subcommand_reads(outdir, tmp_path, capsys):
    assert run_with_args_file(tmp_path, ["--p=4", "--pp=4"]) == 2
    assert "--pp=4" in capsys.readouterr().err
    assert not (outdir / "constants.csv").exists()


def test_undecodable_args_file_exits_via_argparse(outdir, tmp_path, capsys):
    args = tmp_path / "run.args"
    args.write_bytes(b"\xff\xfe--p=4\n")
    with pytest.raises(SystemExit) as err:
        cli.main(["constants", f"@{args}"])
    assert err.value.code == 2
    assert "cannot decode an argument file" in capsys.readouterr().err
    assert not outdir.exists()


def test_config_value_of_the_wrong_type(outdir, tmp_path, capsys):
    assert run_with_args_file(tmp_path, ["--p=three"]) == 2
    assert "argument --p: invalid float value: 'three'" in capsys.readouterr().err
    assert not (outdir / "constants.csv").exists()


def test_criterion_json_summary(outdir, capsys):
    assert cli.main(["criterion", "--profile", "gauss", "--mass", "4",
                     "--p", "2", "--t-count", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(next(l for l in lines if l.startswith("{")))
    assert summary["classification"] == "criterion_met"
    assert summary["T_star"] > 0
    assert summary["morrey_value"] is None      # p = 2 is not supercritical
    assert summary["morrey_divergent"] is None
    header, _, _ = read_rows(outdir / "criterion_curve.csv")
    assert header == ["T", "W", "hinv", "ratio"]


def test_criterion_writes_no_concentration_at_or_below_fujita(outdir, capsys):
    """At or below the Fujita exponent 1 + alpha/d = 3 (d = 1, Gaussian J)
    the command computes no concentration: no criterion_norms.csv, and the
    JSON line reads null."""
    for p in ("3", "2.5"):
        assert cli.main(["criterion", "--p", p, "--t-count", "12"]) == 0
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("{"))
        summary = json.loads(line)
        assert summary["morrey_value"] is None
        assert summary["morrey_divergent"] is None
        assert (outdir / "criterion_curve.csv").exists()
        assert not (outdir / "criterion_norms.csv").exists()


def test_criterion_exponential_default_grid_cuts_out_of_range_horizon(outdir,
                                                                      capsys):
    """h_inv(1000) of e^u - 1 is below the smallest normal double: the sweep
    ends at the previous horizon and the note says so."""
    assert cli.main(["criterion", "--family", "exponential", "--mass", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    summary = json.loads(next(l for l in lines if l.startswith("{")))
    assert summary["classification"] == "criterion_met"
    assert summary["T_star"] == 1.7012542798525891
    assert "sweep cut at T=1000" in summary["note"]
    _, rows, _ = read_rows(outdir / "criterion_curve.csv")
    assert len(rows) == 39


def test_criterion_level_below_the_normal_doubles_exits_2(outdir, capsys):
    """At p = 1.01 the level h_inv(1e200) of u^p is about 1e-19800: the
    first horizon has no level, so the command exits 2 and writes nothing
    (it wrote hinv = 0.0 and ratio = inf rows)."""
    assert cli.main(["criterion", "--p", "1.01", "--t-min", "1e200",
                     "--t-max", "1e300", "--t-count", "3"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: h_inverse(1e+200) lies below the smallest normal double")
    assert not outdir.exists() or not any(outdir.rglob("*"))


def test_criterion_on_a_power_law_near_p_1(outdir, capsys):
    """u^1.004 satisfies the Osgood condition, so the criterion runs: the
    tail probe refused it ("tail exponent 1.004 <= 1") with exit 2."""
    assert cli.main(["criterion", "--p", "1.004", "--mass", "4",
                     "--t-min", "20", "--t-max", "4000"]) == 0
    summary = json.loads(next(l for l in capsys.readouterr().out.splitlines()
                              if l.startswith("{")))
    assert summary["classification"] == "not_met_on_grid"
    assert (outdir / "criterion_curve.csv").exists()


def test_criterion_cut_where_the_source_leaves_the_doubles_exits_2(outdir, capsys):
    """The level h_inv(20) of u^1.005 + u^1.006 read 8.98e110 (true
    1.959e117), since the quadrature of h dropped the part past the u where
    F overflows; then the command exited 2 naming that cut. The power sum's
    exact route serves the level: the first row's hinv matches mpmath's
    root of the 2F1 form, and no row reads a level past the doubles."""
    mp = pytest.importorskip("mpmath")
    assert cli.main(["criterion", "--family", "power-sum", "--p", "1.005",
                     "--p2", "1.006", "--mass", "4", "--t-min", "20",
                     "--t-max", "4000"]) == 0
    assert capsys.readouterr().err == ""
    header, rows, _ = read_rows(outdir / "criterion_curve.csv")
    assert len(rows) == 40
    level = float(rows[0][header.index("hinv")])
    with mp.workdps(40):
        p1, p2 = mp.mpf(1.005), mp.mpf(1.006)
        b = (p2 - 1) / (p2 - p1)
        root = mp.findroot(lambda x: mp.exp(x * (1 - p2)) / (p2 - 1) * mp.hyp2f1(
            1, b, 1 + b, -mp.exp(-x * (p2 - p1))) - 20, mp.log(level))
        assert abs(level / float(mp.exp(root)) - 1.0) < 1e-12
    assert all(0.0 < float(r[header.index("hinv")]) < sys.float_info.max for r in rows)


SCALES = ["1e-300", "1e-100", "1", "1e100", "1e300"]
SOURCE_FLAGS = [
    *[["--family", "power-sum", "--c", c1, "--c2", c2] for c1 in SCALES for c2 in SCALES],
    *[["--family", family, "--c", c] for family in ("power", "exponential")
      for c in SCALES if c != "1"],
    # 5 u^1.005 + u^1.006, whose crossover 2.5^1000 lies past the largest double
    ["--family", "power-sum", "--c", "5", "--p", "1.005", "--p2", "1.006",
     "--t-min", "20", "--t-max", "4000"],
]


@pytest.mark.parametrize("flags", SOURCE_FLAGS, ids=[" ".join(f[1:]) for f in SOURCE_FLAGS])
def test_criterion_over_the_source_flags_ends_without_a_traceback(outdir, capsys, flags):
    """Every power and power-sum source here has a first level that is a
    normal double, so the command exits 0; the exponential's level at
    c >= 1e100 lies below them, so it exits 2 naming that. Power sums raised
    ZeroDivisionError and ValueError, or exited 2 with "did not converge" or
    a w or cut, where the level is a double."""
    code = cli.main(["criterion", "--n", "256", "--mass", "4", *flags])
    err = capsys.readouterr().err
    if flags[1] == "exponential" and float(flags[3]) >= 1e100:
        assert code == 2
        assert "lies below the smallest normal double" in err
    else:
        assert (code, err) == (0, "")


def test_criterion_rejects_radial_profile_with_lattice_kernel(outdir, tmp_path,
                                                              capsys):
    prof = tmp_path / "profile.csv"
    import numpy as np
    u = RadialProfile.from_function(1, lambda r: np.exp(-r * r),
                                    r_min=1e-3, r_max=20.0)
    write_csv(prof, ("r", "value"), zip(u.r, u.u))
    assert cli.main(["criterion", "--profile", str(prof),
                     "--kernel", "gaussian"]) == 2
    assert "error:" in capsys.readouterr().err


def write_profile(path, f):
    u = RadialProfile.from_function(1, f)
    write_csv(path, ("r", "value"), zip(u.r, u.u))
    return path


def test_criterion_norms_grid_bytes(outdir):
    assert cli.main(["criterion", "--profile", "gauss", "--mass", "4",
                     "--p", "4"]) == 0
    assert (outdir / "criterion_norms.csv").read_text() == (
        "# divergent = false\n"
        "functional,order,value,argmax\n"
        "morrey_norm_grid,1.5,3.055151396116229,1.7320508075688772\n")


def test_criterion_norms_radial_bytes(outdir, tmp_path):
    prof = write_profile(tmp_path / "profile.csv", lambda r: 3.0 * np.exp(-r * r))
    assert cli.main(["criterion", "--profile", str(prof), "--d", "1",
                     "--p", "4", "--kernel", "fractional", "--alpha", "2"]) == 0
    assert (outdir / "criterion_norms.csv").read_text() == (
        "# divergent = false\n"
        "functional,order,value,argmax\n"
        "radial_concentration,1.5,4.55611447048453,1.2294893564391196\n")


def test_criterion_norms_flag_divergent_concentration(outdir, tmp_path):
    """u = (1+r)^(-1/2) has mass ~ r^(1/2) in B_r, which outgrows
    r^(alpha/(p-1) - d) = r^(-1/3): the sup runs to the last sample."""
    prof = write_profile(tmp_path / "profile.csv", lambda r: (1.0 + r) ** -0.5)
    assert cli.main(["criterion", "--profile", str(prof), "--d", "1",
                     "--p", "4", "--kernel", "fractional", "--alpha", "2"]) == 0
    _, rows, meta = read_rows(outdir / "criterion_norms.csv")
    assert meta == {"divergent": "true"}
    assert rows == [["radial_concentration", "1.5", "12.255457720380523",
                     "1000.0"]]


def test_criterion_rejects_a_non_integrable_head(outdir, tmp_path, capsys):
    """u = r^-1.5 e^-r in d = 1 has no finite semigroup moment: exit 2."""
    prof = write_profile(tmp_path / "profile.csv", lambda r: r ** -1.5 * np.exp(-r))
    assert cli.main(["criterion", "--profile", str(prof), "--d", "1", "--p", "4",
                     "--kernel", "fractional", "--alpha", "1.5"]) == 2
    assert "head exponent 1.5" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("profile", ["gauss", "radial"])
def test_criterion_evaluates_the_concentration_once(outdir, tmp_path,
                                                    monkeypatch, profile):
    """Both routes are counted under every name bound to them in any
    blowlab module, so a second evaluation anywhere would show."""
    calls = []
    modules = [m for n, m in sys.modules.items() if n.startswith("blowlab")]
    for name in ("morrey_norm_grid", "radial_concentration"):
        original = getattr(norms, name)

        def counted(*args, _f=original, _name=name, **kw):
            calls.append(_name)
            return _f(*args, **kw)

        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    argv = ["criterion", "--p", "4"]
    if profile == "radial":
        prof = write_profile(tmp_path / "profile.csv",
                             lambda r: 3.0 * np.exp(-r * r))
        argv += ["--profile", str(prof), "--kernel", "fractional"]
    assert cli.main(argv) == 0
    expected = "morrey_norm_grid" if profile == "gauss" else "radial_concentration"
    assert calls == [expected]


def test_radial_criterion_fits_the_head_once(outdir, tmp_path, monkeypatch):
    """The head exponent depends on the profile alone: one fit serves the
    pairing at every horizon and the concentration (the pairing refitted it
    at each of the sweep's 40 horizons)."""
    fits = []
    original = norms.loglog_slope

    def counted(*args):
        fits.append(args)
        return original(*args)

    monkeypatch.setattr(norms, "loglog_slope", counted)
    prof = write_profile(tmp_path / "profile.csv", lambda r: 3.0 * np.exp(-r * r))
    assert cli.main(["criterion", "--profile", str(prof), "--kernel", "fractional",
                     "--p", "4"]) == 0
    assert (outdir / "criterion_norms.csv").exists()
    assert len(fits) == 1


@pytest.mark.parametrize("body, where", [
    ("r,value\n# a comment\n0.1,1.0\nabc,2.0\n", ", line 4"),  # a cell that is no number
    ("r,value\n0.1,1.0\n0.2\n", ", line 3"),                    # a row with one column
    ("", ""),                                                     # an empty file
    (b"r,value\n0.1,\xff\xfe\n", ""),                            # bytes that are no UTF-8
    ("directory", ""),                                            # a directory
    ("missing", ""),                                              # no such file
])
def test_malformed_profile_csv_exits_with_domain_error(outdir, tmp_path, capsys,
                                                       body, where):
    prof = tmp_path / "bad.csv"
    if body == "directory":
        prof.mkdir()
    elif isinstance(body, bytes):
        prof.write_bytes(body)
    elif body != "missing":
        prof.write_text(body)
    assert cli.main(["criterion", "--profile", str(prof),
                     "--kernel", "fractional"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {prof}{where}: ")
    assert "Traceback" not in err


FOUR_ROWS = "r,value\n0.1,1.0\n0.2,{}\n0.3,0.5\n0.4,0.2\n"


@pytest.mark.parametrize("argv, profile", [
    (["kernel", "--t", "nan"], None),
    (["kernel", "--t", "inf"], None),
    (["simulate", "--t-end", "nan"], None),
    (["simulate", "--targets", "nan"], None),
    (["simulate", "--dt-init", "inf"], None),
    (["criterion", "--mass", "nan"], None),
    (["criterion", "--mass", "inf"], None),
    (["criterion", "--sigma", "nan"], None),
    (["criterion", "--threshold", "nan"], None),
    (["criterion", "--threshold", "inf"], None),
    (["criterion", "--L", "nan"], None),
    (["criterion", "--c", "inf"], None),
    (["criterion", "--kernel", "fractional", "--strength", "nan"], None),
    (["criterion", "--kernel", "fractional"], FOUR_ROWS.format("nan")),
    (["criterion", "--kernel", "fractional"], FOUR_ROWS.format("inf")),
    # blowup is a crossing of u_max, never an overflow
    (["simulate", "--u-max", "inf"], None),
    (["dichotomy", "--u-max", "inf"], None),
    # the sum of F(u0) leaves the double range
    (["simulate", "--mass", "1e154", "--u-max", "1e300"], None),
])
def test_non_finite_inputs_exit_with_domain_error(outdir, tmp_path, capsys,
                                                  argv, profile):
    if profile is not None:
        path = tmp_path / "profile.csv"
        path.write_text(profile)
        argv = argv + ["--profile", str(path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(outdir.rglob("*.csv"))


@pytest.mark.parametrize("argv", [
    ["sweep-K", "--p", "1"],
    ["sweep-K", "--p", "nan"],
    ["sweep-K", "--d", "nan,400"],
    ["sweep-K", "--d", "3:2"],
    ["sweep-L", "--alpha", "1", "--p", "1", "--d", "3:5"],
    ["sweep-L", "--alpha", "1", "--p", "0.5", "--d", "3:5"],
    ["sweep-L", "--alpha", "1", "--p", "nan", "--d", "3:5"],
    ["sweep-L", "--alpha", "2", "--p", "0.5", "--d", "3:5"],
    ["sweep-L", "--d", "nan,5"],
    ["sweep-L", "--d", "3:2"],
    ["sweep-L", "--d", "5:5"],
    ["constants", "--p", "nan"],
    ["constants", "--q", "nan"],
    ["dichotomy", "--bisection-steps", "-1"],
    ["dichotomy", "--scales", "0,3"],
    ["dichotomy", "--scales="],
    # dimensions whose closed forms overflow the float range
    ["kernel", "--kind", "fractional", "--radial", "--d", str(10 ** 306)],
    ["constants", "--d", str(10 ** 306)],
    # a dimension that is not an integer, before anything is computed
    ["sweep-L", "--alpha", "1.5", "--p", "3", "--d", "10.5,11"],
    # the radial dump's last radius, before the rho grid is built: inf
    # reached np.linspace and warned, and 0 wrote 501 rows at rho = 0
    ["kernel", "--kind", "fractional", "--alpha", "1.5", "--radial", "--rho-max", "inf"],
    ["kernel", "--kind", "fractional", "--alpha", "1.5", "--radial", "--rho-max", "nan"],
    ["kernel", "--kind", "fractional", "--alpha", "1.5", "--radial", "--rho-max", "0"],
])
def test_bad_parameters_exit_with_an_error(outdir, capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not list(outdir.rglob("*.csv"))


@pytest.mark.parametrize("rho_max", ["inf", "nan", "0"])
def test_radial_dump_checks_its_last_radius_first(outdir, capsys, rho_max):
    """--rho-max is checked before the rho grid is built, under its own
    name; nan used to end in a ResolutionError of the Mellin route at
    rho = nan."""
    argv = ["kernel", "--kind", "fractional", "--alpha", "1.5", "--radial"]
    assert cli.main(argv + ["--rho-max", rho_max]) == 2
    assert capsys.readouterr().err.startswith(
        "error: --rho-max must be positive and finite, got ")


@pytest.mark.parametrize("horizons", [
    ["--t-min", "0"],
    ["--t-min", "10", "--t-max", "1"],
    ["--t-max", "inf"],
    ["--t-count", "1"],
])
def test_bad_horizon_grid_exits_with_domain_error(outdir, capsys, horizons):
    assert cli.main(["criterion"] + horizons) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: log_grid needs 0 < lo < hi < inf and n >= 2")
    assert not list(outdir.rglob("*.csv"))


@pytest.mark.parametrize("profile, divergent", [
    (lambda r: 3.0 * np.exp(-r * r), False),
    # the sup runs to the last sample, where the value read is finite; a
    # head that is not integrable exits 2
    # (test_criterion_rejects_a_non_integrable_head)
    (lambda r: (1.0 + r) ** -0.5, True),
])
def test_criterion_json_summary_flags_divergent_concentration(
        outdir, tmp_path, capsys, profile, divergent):
    prof = write_profile(tmp_path / "profile.csv", profile)
    assert cli.main(["criterion", "--profile", str(prof), "--d", "1",
                     "--p", "4", "--kernel", "fractional", "--alpha", "2"]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines()
                if l.startswith("{"))
    summary = json.loads(line, parse_constant=pytest.fail)
    assert summary["morrey_divergent"] is divergent
    assert summary["morrey_value"] == (12.255457720380523 if divergent
                                       else 4.55611447048453)


def test_simulate_artifacts(outdir, capsys):
    assert cli.main(["simulate", "--profile", "gauss", "--mass", "2",
                     "--t-end", "0.1", "--dt-init", "1e-3",
                     "--targets", "0.5"]) == 0
    header, _, meta = read_rows(outdir / "trajectory.csv")
    assert header == ["t", "sup_u", "mass", "dt"]
    # the step control's record: no step rejected, and the accepted steps'
    # local error estimates summed
    assert meta["rejected_steps"] == "0"
    assert 0.0 < float(meta["step_error"]) < 1e-3
    header, rows, _ = read_rows(outdir / "moment_T0.5.csv")
    assert header == ["t", "W", "F_of_W", "dW_dt_fd"]
    assert rows[-1][3] == ""              # no forward difference at the end
    # F = u^2, evaluated on each recorded W
    assert all(float(r[2]) == float(r[1]) * float(r[1]) for r in rows)
    assert (outdir / "final_state.csv").exists()


def test_readme_dichotomy_bracket_ends_are_decay_and_blowup_rows(outdir, capsys):
    """The README example: the midpoint 1.8551571554236668 is censored, so
    it moves neither end and ends the bisection after four midpoints."""
    assert cli.main(["dichotomy", "--p", "4", "--scales", "0.3,1,3,10"]) == 0
    _, rows, meta = read_rows(outdir / "dichotomy.csv")
    outcome = {row[0]: row[1] for row in rows}
    assert outcome[meta["lambda_lo"]] == "global_decay"
    assert outcome[meta["lambda_hi"]] == "blowup"
    assert (meta["lambda_lo"], meta["lambda_hi"]) == ("1.7320508075688772",
                                                      "1.9870133464215778")
    assert outcome["1.8551571554236668"] == "censored"
    assert meta["bisection_steps"] == "4" and meta["monotone"] == "true"


def test_selftest_single_preset(outdir, capsys):
    assert cli.main(["selftest", "--only", "constants-closed-forms"]) == 0
    out = capsys.readouterr().out
    assert "C1 constants-closed-forms: PASS" in out
    assert out.strip().endswith("selftest: PASS")
    assert (outdir / "selftest" / "constants-closed-forms" / "manifest.csv").exists()


def test_run_preset_validation(outdir):
    with pytest.raises(KeyError):
        cli.run_preset("no-such-preset")


def test_manifest_records_configuration(outdir, capsys):
    """Sorted metadata lines, the header, then one row per check."""
    cli.run_preset("constants-closed-forms")
    out = capsys.readouterr().out
    assert "C1 constants-closed-forms: PASS" in out
    lines = (outdir / "selftest" / "constants-closed-forms" / "manifest.csv").read_text()
    assert "# tolerance_version = 1" in lines
    assert "# criterion = C1" in lines
    assert "# binding.d = 5" in lines
    assert "seed" not in lines
    text = lines.splitlines()
    meta = [line for line in text if line.startswith("#")]
    assert text[:len(meta)] == sorted(meta)
    assert text[len(meta)] == "criterion,name,passed,detail"
    rows = text[len(meta) + 1:]
    assert len(rows) == out.count("  [PASS] ") > 0
    assert all(row.startswith("C1,") and ",true," in row for row in rows)


def test_seed_is_not_an_option(outdir, tmp_path, capsys):
    """No code draws a random number, so no subcommand takes a seed."""
    with pytest.raises(SystemExit) as err:
        cli.main(["constants", "--seed", "3"])
    assert err.value.code == 2
    assert run_with_args_file(tmp_path, ["--only=constants-closed-forms",
                                         "--seed=0"], "selftest") == 2
    assert "--seed=0" in capsys.readouterr().err
    assert not outdir.exists()


def test_unknown_choice_exits_via_argparse():
    with pytest.raises(SystemExit) as err:
        cli.main(["selftest", "--only", "bogus"])
    assert err.value.code == 2
