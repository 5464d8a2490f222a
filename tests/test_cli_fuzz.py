"""The CLI on random grammar strings and flag values: every case ends in a
documented exit code (0, 2, 3 or 4), never in a traceback."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsec.cli import EXIT_INFEASIBLE, EXIT_USAGE, main

# NaN, +-inf, huge, tiny, negative, zero and non-numeric texts
EDGES = ("nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "0", "-0", "-1", "abc", "")


def mostly(valid):
    """Valid texts three times in four, edge cases the fourth time."""
    return st.one_of(valid, valid, valid, st.sampled_from(EDGES))


def decimal(lo, hi):
    return st.floats(lo, hi).map(lambda v: f"{v:.4g}")


scales = st.floats(-3.0, 3.0).map(lambda e: f"{10.0 ** e:.4g}")
laws = mostly(st.one_of(
    st.builds("gamma:{}:{}".format, decimal(0.05, 50.0), scales),
    st.integers(1, 100).map("chisq:{}".format),
    scales.map("exp:{}".format),
    scales.map("const:{}".format),
    st.builds(lambda kind, params: ":".join([kind, *params]),
              st.sampled_from(("chisq", "gamma", "exp", "const", "GAMMA", "rayleigh")),
              st.lists(st.sampled_from(EDGES + ("2", "0.5")), max_size=3)),
))
policies = mostly(st.one_of(
    st.sampled_from(("const", "full-inv", "main-inv", "trunc-inv", "bogus")),
    scales.map("trunc-inv:{}".format),
))
budgets = mostly(decimal(-20.0, 50.0))
kappas = mostly(decimal(0.0, 5.0))
grids = st.one_of(
    st.builds(lambda start, span, step: f"{start:g}:{start + span:g}:{step:g}",
              st.integers(-20, 40), st.integers(0, 20), st.integers(1, 10)),
    st.builds(lambda *p: ":".join(p), *[st.sampled_from(EDGES + ("0", "10"))] * 3),
    st.lists(budgets, min_size=1, max_size=3).map(",".join),
)
# block counts stay small, or invalid: a valid huge one would allocate a ledger
counts = mostly(st.sampled_from(("1", "2", "3")))
n1s = mostly(st.sampled_from(("1", "100", "1000", "1e3", "100000000000000000000",
                              "9223372036854775807", "4611686018427387904")))
nodes = mostly(st.sampled_from(("16", "8", "7")))


def flag(name, values):
    """'--name=value' (so a value may start with '-'), or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [f"{name}={v}"]))


def argv_of(command, *flags):
    return st.tuples(*flags).map(lambda parts: [command] + [a for p in parts for a in p])


small_nodes = flag("--nodes", nodes).map(lambda f: f or ["--nodes=16"])
bounds_argv = argv_of("bounds", flag("--dist-m", laws), flag("--dist-e", laws),
                      flag("--pbar-db", budgets), flag("--policy", policies),
                      flag("--policy", policies), flag("--q-kappa", kappas),
                      st.sampled_from(([], ["--bits"])), small_nodes)
sweep_argv = argv_of("sweep", flag("--dist-m", laws), flag("--dist-e", laws),
                     grids.map(lambda g: [f"--snr-db-grid={g}"]),
                     flag("--policy", policies), flag("--q-kappa", kappas), small_nodes)
simulate_argv = argv_of("simulate",
                        flag("--scheme", st.sampled_from(("full", "main", "baseline", "x"))),
                        flag("--dist-m", laws), flag("--dist-e", laws),
                        flag("--policy", policies), flag("--pbar-db", budgets),
                        counts.map(lambda v: [f"-a={v}"]), counts.map(lambda v: [f"-b={v}"]),
                        n1s.map(lambda v: [f"--n1={v}"]), flag("--delta", mostly(decimal(0.0, 0.99))),
                        flag("--q-kappa", kappas),
                        flag("--init", st.sampled_from(("insecure", "dedicated", "x"))),
                        flag("--seed", st.sampled_from(("0", "7", "-1", "nan",
                                                        "18446744073709551616"))),
                        small_nodes)


def run(argv, out_dir=None):
    """Exit code and stderr of one in-process run; any other exception fails."""
    if argv[0] == "simulate":
        argv = argv + ["--out", str(out_dir / "run")]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse rejects the command line
            code = stop.code
    assert code in (0, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
    return code, err.getvalue()


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, derandomize=True, deadline=None)
@given(argv=st.one_of(bounds_argv, sweep_argv, simulate_argv))
def test_documented_exit_code(argv, out_dir):
    run(argv, out_dir)


# zero power at kappa = inf: log(1 + P q) is 0, not log1p(0 * inf) = NaN
ZERO_POWER_KAPPA_INF = ["bounds", "--dist-m", "const:3", "--dist-e", "const:1",
                        "--pbar-db=-inf", "--q-kappa", "inf"]


@pytest.mark.parametrize("argv,code", [
    (["bounds", "--dist-m", "gamma:nan:1"], EXIT_USAGE),
    (["bounds", "--dist-m", "gamma:inf:1"], EXIT_USAGE),
    (["bounds", "--dist-m", "gamma:1e-300:1"], EXIT_USAGE),
    (["bounds", "--dist-e", "chisq:1e300"], EXIT_USAGE),
    (["bounds", "--dist-m", "gamma:1e10:1"], EXIT_USAGE),
    (["bounds", "--dist-m", "gamma:1e15:1"], EXIT_USAGE),
    (["bounds", "--pbar-db", "1e300"], EXIT_USAGE),
    (["sweep", "--snr-db-grid", "0:inf:1"], EXIT_USAGE),
    (["sweep", "--snr-db-grid", "0:1:1e-300"], EXIT_USAGE),
    (["simulate", "-a", "2", "-b", "2", "--n1", str(10**20)], EXIT_USAGE),
    (["simulate", "-a", "2", "-b", "2", "--n1", str(2**62)], EXIT_USAGE),
    (["bounds", "--dist-m", "const:3", "--dist-e", "const:1", "--q-kappa", "nan"], EXIT_USAGE),
    (["bounds", "--q-kappa", "nan", "--nodes", "16"], EXIT_USAGE),
    (["simulate", "-a", "2", "-b", "2", "--q-kappa", "nan"], EXIT_USAGE),
    (["bounds", "--dist-m", "const:1e10", "--dist-e", "const:1"], 0),
    (ZERO_POWER_KAPPA_INF, 0),
    (["bounds", "--q-kappa", "inf", "--policy", "trunc-inv:1"], 0),
    (["simulate", "--q-kappa", "inf", "--policy", "trunc-inv:1", "-a", "5", "-b", "2"], 0),
    (["bounds", "--dist-m", "const:1e8", "--dist-e", "const:1"], 0),
    (["bounds", "--dist-m", "const:1e300", "--dist-e", "const:1e-300"], 0),
    (["bounds", "--dist-m", "const:1e-300", "--dist-e", "const:1e300"], 0),
    (["sweep", "--dist-m", "exp:1", "--dist-e", "exp:1", "--policy", "full-inv",
      "--policy", "main-inv", "--snr-db-grid", "0:10:5"], EXIT_INFEASIBLE),
])
def test_known_bad_inputs(argv, code, out_dir):
    assert run(argv, out_dir)[0] == code


def test_zero_power_at_infinite_kappa_is_finite():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(ZERO_POWER_KAPPA_INF) == 0
    assert math.isfinite(json.loads(out.getvalue())["lower_full"]["value"])
