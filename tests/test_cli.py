import argparse
import contextlib
import io
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldfish import polynomials, spectrum
from goldfish.cli import build_parser, main
from goldfish.dynamics import ModelSpec, ParticleState, System, simulate
from goldfish.equilibria import cbar_closed_form
from goldfish.linalg import multiset_distance
from goldfish.polynomials import GoldfishError
from goldfish.reports import write_trajectory_csv, write_trajectory_svg
from goldfish.spectrum import verify_integrality


def run(argv):
    return main(argv)


def read_trajectory_csv(path):
    """Inverse of :func:`write_trajectory_csv` (values part only)."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [list(map(float, line.strip().split(","))) for line in fh if line.strip()]
    data = np.array(rows)
    times = data[:, 0]
    ncols = (len(header) - 1) // 2
    values = data[:, 1::2][:, :ncols] + 1j * data[:, 2::2][:, :ncols]
    return times, values


def test_spectrum_command_hand_cell(tmp_path):
    out = tmp_path / "report.json"
    code = run(["spectrum", "--nu", "0", "--mu", "1", "--n", "2", "--exact", "--json", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    sample = report["results"]["samples"][0]
    assert sample["integer_roots"] == [-1, 1, 2, 4]
    assert report["results"]["all_integers"] is True


@pytest.mark.parametrize("perturb", ["0", "1/2"])
def test_spectrum_numeric_solves_the_reported_pencil(tmp_path, perturb):
    """Every numeric eigenvalue is a root of the reported exact charpoly,
    also when --perturb-c1 shifts the cell off its equilibrium."""
    out = tmp_path / "report.json"
    argv = ["spectrum", "--nu", "0", "--mu", "1", "--n", "2", "--perturb-c1", perturb]
    assert run(argv + ["--numeric", "--json", str(out)]) == (0 if perturb == "0" else 1)
    results = json.loads(out.read_text())["results"]
    poly = verify_integrality(0, 1, 2, perturb_c1=Fraction(perturb)).samples[0].charpoly
    assert str(poly) == results["samples"][0]["charpoly"]
    eigs = [complex(re, im) for re, im in results["numeric_eigenvalues"]]
    assert len(eigs) == 4
    for lam in eigs:
        value = sum(float(c) * lam**k for k, c in enumerate(poly.coeffs))
        scale = sum(abs(float(c)) * abs(lam) ** k for k, c in enumerate(poly.coeffs))
        assert abs(value) <= 1e-9 * scale, (lam, value)


def test_spectrum_numeric_builds_each_charpoly_once(monkeypatch, capsys):
    """--numeric solves the first sample's pencil as verify_integrality
    built it: one exact charpoly per free-constant sample (four at nu = 5),
    each a kernel call on the whole 6 x 6 pencil (which splits off row 6
    itself), and the same exact report as without --numeric."""
    calls = []
    factors = polynomials._charpoly_factors

    def counted(A, B):
        calls.append(len(A))
        return factors(A, B)

    monkeypatch.setattr(polynomials, "_charpoly_factors", counted)
    argv = ["spectrum", "--nu", "5", "--mu", "5", "--n", "6"]
    assert run(argv + ["--numeric"]) == 0
    numeric = json.loads(capsys.readouterr().out)["results"]
    assert calls == [6] * 4
    assert run(argv) == 0
    exact = json.loads(capsys.readouterr().out)["results"]
    assert numeric["samples"] == exact["samples"]
    first = spectrum.DEFAULT_NU5_SAMPLES[0]
    eigs = spectrum.solve_pencil_numeric(spectrum.build_pencil(cbar_closed_form(5, 5, 6, first)))
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    assert [complex(re, im) for re, im in numeric["numeric_eigenvalues"]] == list(eigs)


_SIMULATE_GOLD = ["simulate", "--system", "gold", "--n", "1", "--z0", "1,0", "--t-end", "0.1",
                  "--samples", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibria", "--iso", "--n", "2", "--json"],
        _SIMULATE_GOLD + ["--csv"],
        _SIMULATE_GOLD + ["--json"],
        _SIMULATE_GOLD + ["--svg"],
        ["sweep", "--which", "integrality", "--n-max", "2", "--csv"],
    ],
)
def test_unwritable_output_path_is_a_usage_error(tmp_path, capsys, argv):
    """An output path in a missing directory exits 2 with one error line,
    before any report reaches stdout."""
    path = tmp_path / "missing" / "out"
    assert run(argv + [str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert str(path) in err


def test_c217_double_root_cell_is_contained(capsys):
    assert run(["conjecture", "--which", "c217", "--nu", "4", "--mu", "3", "--n", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["contained"] is True


def test_failed_certificate_is_a_runtime_failure(monkeypatch, capsys):
    """An exact charpoly that fails its certificate exits 1 with one line."""

    def uncertified(A, B):
        raise ArithmeticError("charpoly cross-check failed")

    monkeypatch.setattr(polynomials, "_charpoly_factors", uncertified)
    assert run(["spectrum", "--nu", "0", "--mu", "1", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "runtime failure: charpoly cross-check failed\n"


def _choices(command, option):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if option in a.option_strings).choices


def test_system_choices():
    """The CLI offers every system by its hyphenated name."""
    assert _choices("simulate", "--system") == [
        "altgold", "altisogold", "gammatau", "general-gold", "gold", "isogold",
        "matrix-general", "matrix-u", "matrix-utilde", "rcm", "veselov",
    ]
    assert _choices("isochrony", "--system") == ["altisogold", "isogold"]


@pytest.mark.parametrize("perturb", ["0", "1/2"])
def test_spectrum_rejects_empty_cell(capsys, perturb):
    code = run(["spectrum", "--nu", "0", "--mu", "0", "--n", "0", "--perturb-c1", perturb])
    assert code == 2
    assert capsys.readouterr().err == "error: need at least one coefficient\n"


@pytest.mark.parametrize("n", ["0", "-1"])
def test_spectrum_without_coefficients_is_a_usage_error(capsys, n):
    assert cbar_closed_form(0, 1, int(n)) == ()
    assert run(["spectrum", "--nu", "0", "--mu", "1", "--n", n]) == 2
    assert capsys.readouterr().err == "error: need at least one coefficient\n"


def test_spectrum_past_the_float_range_gives_a_verdict(capsys):
    """At mu = 1e40 the charpoly's coefficient quotients pass 1.8e308; the
    root window is still found, and the command reports its verdict."""
    assert run(["spectrum", "--nu", "0", "--mu", "1e40", "--n", "6"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    sample = json.loads(out)["results"]["samples"][0]
    assert sample["integer_roots"] == [5 - 10**40, 6 - 10**40, 2, 3, 4]
    assert sample["all_integers"] is False


def test_simulate_csv_contract(tmp_path, capsys):
    code = run(
        [
            "simulate",
            "--system",
            "gold",
            "--n",
            "1",
            "--a2",
            "0,0",
            "--z0",
            "1,0",
            "--v0",
            "1,0",
            "--t-end",
            "0.9",
            "--samples",
            "10",
            "--method",
            "direct",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "t,re_z1,im_z1"
    assert len(lines) == 11
    last = [float(x) for x in lines[-1].split(",")]
    assert abs(last[1] - 10.0) < 1e-6  # z = 1/(1 - t) at t = 0.9


def test_equilibria_rejects_excluded_nu(capsys):
    code = run(["equilibria", "--iso", "--n", "4", "--nu", "2"])
    assert code == 2
    assert "nu = 2" in capsys.readouterr().err


def test_equilibria_table(tmp_path):
    out = tmp_path / "eq.json"
    code = run(["equilibria", "--iso", "--n", "3", "--json", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())["results"]
    assert all(r["residual_zero"] for r in rows)
    cells = {(r["nu"], r["mu"]) for r in rows}
    assert (0, 0) in cells and (1, 3) in cells and (3, 3) in cells


def test_equilibria_altgold_table_n12(tmp_path):
    out = tmp_path / "eq.json"
    assert run(["equilibria", "--altgold", "--n", "12", "--json", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]
    assert all(r["residual_zero"] for r in rows)
    assert {r["genuineness"] for r in rows} == {"GENUINE", "DEGENERATE"}


def test_conjecture_counterexample_exit_code(tmp_path):
    out = tmp_path / "c.json"
    code = run(["conjecture", "--which", "c215", "--nu", "3", "--mu", "3", "--n", "3", "--json", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["results"]["counterexamples"]


def test_conjecture_verified_cell(tmp_path):
    out = tmp_path / "c.json"
    code = run(["conjecture", "--which", "c215", "--nu", "0", "--mu", "1", "--n", "2", "--json", str(out)])
    assert code == 0


def test_conjecture_c215_rejects_non_integer_mu(tmp_path, capsys):
    # the product formula is stated for integer mu; 1/2 must not be
    # truncated to the (passing) mu = 0 cell
    out = tmp_path / "c.json"
    code = run(["conjecture", "--which", "c215", "--nu", "0", "--mu", "1/2", "--n", "3",
                "--json", str(out)])
    assert code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1/2" in err
    assert len(err.strip().splitlines()) == 1


def test_sweep_c215_non_integer_mu_cell_fails(tmp_path):
    out = tmp_path / "s.json"
    code = run(["sweep", "--which", "c215", "--nu-list", "0", "--mu-list", "0,1/2",
                "--n-min", "3", "--n-max", "3", "--threads", "1", "--json", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["results"]["nu=0,mu=0,N=3"]["pass"] is True
    bad = report["results"]["nu=0,mu=1/2,N=3"]
    assert bad["pass"] is False and bad["detail"].startswith("error: ")
    assert report["failures"] == ["nu=0,mu=1/2,N=3"]


def test_sweep_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["sweep", "--which", "integrality", "--nu-list", "0,1", "--n-min", "1",
            "--n-max", "3", "--threads", "1"]
    assert run(argv + ["--json", str(a)]) == 0
    assert run(argv + ["--json", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # a process pool gives the same cells; only the echoed thread count differs
    two = tmp_path / "two.json"
    assert run(argv[:-1] + ["2", "--json", str(two)]) == 0
    one, pooled = json.loads(a.read_text()), json.loads(two.read_text())
    assert pooled["results"] == one["results"]
    assert pooled["failures"] == one["failures"]


def test_sweep_negative_control(tmp_path):
    out = tmp_path / "s.json"
    csv = tmp_path / "s.csv"
    code = run(
        [
            "sweep",
            "--which",
            "integrality",
            "--nu-list",
            "0",
            "--n-min",
            "2",
            "--n-max",
            "3",
            "--perturb",
            "0,1,2:1/2",
            "--threads",
            "1",
            "--json",
            str(out),
            "--csv",
            str(csv),
        ]
    )
    assert code == 1
    report = json.loads(out.read_text())
    assert report["failures"] == ["nu=0,mu=1,N=2"]
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "cell,pass"
    failed = [r for r in rows[1:] if r.endswith(",0")]
    assert failed == ["nu=0,mu=1,N=2,0".replace(",0", ",0")] or len(failed) == 1


@pytest.mark.parametrize("perturb", ["0,1/0,3", "0,1,3:1/0", "0,1,9", "0,1"])
def test_sweep_rejects_bad_perturb(capsys, perturb):
    """A --perturb with an unreadable rational or the wrong number of
    fields, or naming no grid cell, is a usage error before any cell
    runs."""
    argv = ["sweep", "--which", "integrality", "--n-max", "3", "--threads", "1"]
    assert run(argv + ["--perturb", perturb]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_sweep_empty_grid(monkeypatch, capsys, tmp_path):
    """A grid that holds no cell would verify nothing: it is a usage error
    before any cell runs, and no report is written."""

    def never(payload):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr("goldfish.cli._sweep_cell", never)
    out = tmp_path / "empty.json"
    for options in (
        ["--which", "integrality", "--nu-list", "", "--n-min", "1", "--n-max", "2"],
        ["--which", "integrality", "--nu-list", ","],
        ["--which", "integrality", "--nu-list", "5", "--n-max", "4"],
        ["--which", "c215", "--n-min", "5", "--n-max", "3"],
    ):
        assert run(["sweep", *options, "--threads", "1", "--json", str(out)]) == 2, options
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "error: the grid holds no (nu, mu, N) cell, so it would verify nothing\n"


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    times = np.linspace(0, 1, 7)
    values = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(times, values, path)
    t2, v2 = read_trajectory_csv(path)
    assert np.array_equal(t2, times)
    assert np.array_equal(v2, values)


def test_svg_single_closed_polyline(tmp_path):
    theta = np.linspace(0, 2 * np.pi, 100)
    values = np.exp(1j * theta)[:, None]
    path = tmp_path / "plot.svg"
    write_trajectory_svg(values, path)
    text = path.read_text()
    assert text.count("<polyline") == 1
    points = text.split('points="')[1].split('"')[0].split()
    assert points[0] == points[-1]  # the circle closes


def test_svg_one_polyline_per_particle(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
    path = tmp_path / "plot3.svg"
    write_trajectory_svg(values, path)
    assert path.read_text().count("<polyline") == 3


def test_simulate_spectral_csv_column_count(tmp_path):
    csv = tmp_path / "run.csv"
    code = run(
        [
            "simulate",
            "--system",
            "gold",
            "--n",
            "2",
            "--a2=-1,0",
            "--z0=0.4,0.1",
            "--z0=-0.5,0.2",
            "--v0=0.1,0.0",
            "--v0=0.0,-0.2",
            "--t-end",
            "1.0",
            "--samples",
            "21",
            "--method",
            "spectral",
            "--csv",
            str(csv),
        ]
    )
    assert code == 0
    header = csv.read_text().splitlines()[0].split(",")
    assert len(header) == 1 + 4  # t plus re/im for two bodies


@pytest.mark.parametrize(
    "system, particle, flags",
    [
        ("matrix-u", System.GOLD, ["--a2=-1,0"]),
        ("matrix-utilde", System.ISOGOLD, []),
        ("matrix-general", System.VESELOV, ["--g=0.2,0", "--phi=0,0;-1,0"]),
    ],
)
def test_matrix_flow_follows_its_particle_system(tmp_path, system, particle, flags):
    """A matrix flow starts from its particle system's initial data, so its
    eigenvalues follow that system's direct solution."""
    csv = tmp_path / "run.csv"
    argv = ["simulate", "--system", system, "--n", "2", *flags, "--z0=0.4,0.1",
            "--z0=-0.2,0.3", "--v0=0.1,0", "--v0=0,0.2", "--samples", "8", "--tol", "1e-12"]
    assert run(argv + ["--csv", str(csv)]) == 0
    times, values = read_trajectory_csv(csv)
    a2 = -1.0 if particle is System.GOLD else 0.0
    spec = ModelSpec(particle, 2, a2=a2, g=0.2, phi_poly=(0, -1))
    state = ParticleState([0.4 + 0.1j, -0.2 + 0.3j], [0.1, 0.2j])
    direct = simulate(spec, state, times, "direct", tol=1e-12)
    for got, want in zip(values, direct.values):
        assert multiset_distance(got, want) < 1e-8


def test_collision_is_a_runtime_failure(capsys):
    code = run(["simulate", "--system", "gold", "--n", "2", "--z0", "0,0", "--z0", "0,0"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("runtime failure: ")
    assert len(err.strip().splitlines()) == 1


def test_usage_error_on_bad_complex():
    assert run(["simulate", "--system", "gold", "--n", "1", "--a2", "nope",
                "--z0", "1,0", "--t-end", "0.5"]) == 2


def test_isochrony_command(tmp_path):
    out = tmp_path / "iso.json"
    code = run(
        [
            "isochrony",
            "--system",
            "altisogold",
            "--n",
            "2",
            "--seed",
            "3",
            "--scale",
            "0.1",
            "--samples-per-period",
            "32",
            "--tol-ode",
            "1e-11",
            "--json",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["results"]["p"] == 1
    assert report["results"]["deviation"] <= 1e-6


@pytest.mark.parametrize(
    "option", [["--samples-per-period", "0"], ["--samples-per-period", "1"], ["--p-max", "-1"]]
)
def test_isochrony_rejects_bad_sampling_before_integrating(monkeypatch, capsys, option):
    """A sampling grid that cannot divide the period, or a negative p_max,
    exits 2 with one error line and integrates nothing."""

    def never(*args, **kwargs):
        raise AssertionError("simulate ran")

    monkeypatch.setattr("goldfish.cli.simulate", never)
    assert run(["isochrony", "--system", "altisogold", "--n", "2"] + option) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: " + option[0]) and len(err.splitlines()) == 1


def test_fresh_goldfish_error_subclass_is_a_runtime_failure(monkeypatch, capsys):
    """Any GoldfishError subclass exits 1 with one line, with no list of
    classes in the command line to extend."""

    class FreshError(GoldfishError):
        pass

    def failing(*args, **kwargs):
        raise FreshError("fresh failure")

    monkeypatch.setattr(spectrum, "verify_integrality", failing)
    assert run(["spectrum", "--nu", "0", "--mu", "1", "--n", "3"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "runtime failure: fresh failure\n"


@pytest.mark.parametrize("nu, mu", [(0, 7), (0, -1), (1, 0), (4, 3)])
def test_c215_outside_its_cells_is_a_usage_error(capsys, nu, mu):
    """The c215 product has 2N roots, and is stated, only for
    nu <= mu <= N; other cells exit 2 before the product is expanded, not 1
    with a counterexample of the wrong degree."""
    argv = ["conjecture", "--which", "c215", "--nu", str(nu), "--mu", str(mu), "--n", "5"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: c215 is stated only for nu <= mu <= N (nu = {nu}, N = 5)\n"


def test_numpy_warnings_stay_off_stderr(capsys):
    """A failure that numpy meets on the way (overflow at 1e200) leaves the
    one error line, and no floating-point warning, on stderr."""
    argv = ["simulate", "--system", "gold", "--n", "2", "--z0=1,0", "--z0=1e200,0",
            "--samples", "3"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == "error: rhs is not finite on the initial state\n"


def test_sweep_rejects_n_min_below_one(monkeypatch, capsys):
    """A grid that starts below N = 1 is a usage error before any cell runs."""

    def never(payload):
        raise AssertionError("a sweep cell ran")

    monkeypatch.setattr("goldfish.cli._sweep_cell", never)
    argv = ["sweep", "--which", "integrality", "--n-min", "0", "--n-max", "1", "--threads", "1"]
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --n-min must be at least 1\n"


def test_sweep_cell_bug_propagates(monkeypatch):
    """A cell records a failure of the computation as an error cell; any
    other exception is a bug and leaves the sweep."""

    def buggy(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(spectrum, "verify_integrality", buggy)
    argv = ["sweep", "--which", "integrality", "--nu-list", "0", "--n-max", "2", "--threads", "1"]
    with pytest.raises(KeyError, match="bug"):
        main(argv)


def test_sweep_cell_overflow_is_a_recorded_failure(tmp_path):
    """An ArithmeticError in a cell (here the float solver's overflow at
    mu = 1e400) is the cell's recorded failure, and the sweep exits 1."""
    out = tmp_path / "s.json"
    argv = ["sweep", "--which", "c217", "--nu-list", "0", "--mu-list", "1e400",
            "--n-min", "5", "--n-max", "5", "--threads", "1", "--json", str(out)]
    assert run(argv) == 1
    report = json.loads(out.read_text())
    (cell,) = report["results"].values()
    assert cell == {"pass": False, "detail": "error: integer division result too large for a float"}
    assert report["failures"] == list(report["results"])


# Tokens for the string options: unreadable, out-of-range and huge values.
# Options that argparse types as int draw integers only, because argparse
# rejects other text itself, with its usage lines, before main runs.
_GARBAGE = st.one_of(
    st.sampled_from([
        "", ",", "3,", "abc", "1/0", "nan", "inf", "-0", "1/2", "-7/3", "2", "7", "8",
        "1e20", "-1e20", "1e-400", "1e400", "1,2,3", "0,1,3:1/2", "0,0,1:1e30", "2,8", "٣",
    ]),
    st.integers(-1, 7).map(str),
    st.text(max_size=5),
)
_INTS = st.one_of(st.sampled_from([0, 1, 3, 4, 5]), st.integers(-2, 9), st.just(10**30))
_SIZES = st.integers(-1, 6)


def _flag(name, values):
    return values.map(lambda v: [f"--{name}={v}"])


def _maybe(name, values):
    return st.one_of(st.just([]), _flag(name, values))


_ARGVS = st.one_of(
    st.tuples(
        st.just(["spectrum"]), _flag("nu", _INTS), _flag("mu", _GARBAGE), _flag("n", _SIZES),
        _maybe("free", _GARBAGE), _maybe("perturb-c1", _GARBAGE),
    ),
    st.tuples(
        st.just(["conjecture"]), _flag("which", st.sampled_from(["c215", "c217"])),
        _flag("nu", _INTS), _flag("mu", _GARBAGE), _flag("n", _SIZES), _maybe("free", _GARBAGE),
    ),
    st.tuples(
        st.just(["equilibria"]), st.sampled_from([["--iso"], ["--altgold"]]),
        _flag("n", _SIZES), _maybe("nu", _INTS), _maybe("mu", _INTS),
        _maybe("free-samples", _GARBAGE),
    ),
    st.tuples(
        st.just(["sweep", "--threads", "1"]),
        _flag("which", st.sampled_from(["integrality", "c215", "c217"])),
        _maybe("nu-list", _GARBAGE), _maybe("mu-list", _GARBAGE),
        _flag("n-min", _SIZES), _flag("n-max", _SIZES), _maybe("free", _GARBAGE),
        _maybe("perturb", _GARBAGE),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=200)
@given(_ARGVS)
def test_every_argv_exits_0_1_or_2_on_at_most_one_line(argv):
    """The fast commands, fed garbage, end in an exit code and at most one
    stderr line, never in a traceback or an escaped exception."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert len(err.getvalue().splitlines()) <= 1
    assert "Traceback" not in err.getvalue()
