"""Ledger invariants of the three schemes on random configurations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsec.bounds import lower_full, lower_main
from dlsec.fading import FadingDistribution
from dlsec.numerics import RngSeed
from dlsec.protocol import INIT_MODES, SCHEMES, SimConfig, _bits, simulate

gamma_laws = st.builds(
    lambda shape, scale: FadingDistribution("gamma", (shape, scale)),
    st.floats(1.05, 8.0),
    st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e),
)

configs = st.builds(
    SimConfig,
    scheme=st.sampled_from(SCHEMES),
    dist_m=gamma_laws,
    dist_e=gamma_laws,
    p_bar=st.one_of(st.just(0.0), st.floats(0.0, 50.0).map(lambda db: 10.0 ** (db / 10.0))),
    a=st.integers(1, 8),
    b=st.integers(1, 8),
    n1=st.integers(1, 2000),
    delta=st.floats(0.0, 0.95, exclude_max=True),
    q_kappa=st.sampled_from([None, 0.0, 0.7]),
    init=st.sampled_from(INIT_MODES),
    seed=st.builds(RngSeed, st.integers(0, 2**64 - 1), st.integers(0, 3)),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(config=configs)
def test_ledger_invariants(config):
    """Ledger invariants, and the tie to the lower bound the scheme runs:
    the pad schedule is (1 - delta) times the rate of the one-entry-menu
    bound (r_o_chosen of lower_full, the fixed point of lower_main), and
    the report carries the kappa that bound used (0 where none does)."""
    rep = simulate(config)
    rec = rep.records
    assert rep.roundtrip_ok
    assert min(rep.buffer_trajectory) >= 0
    assert np.all(rec.insecure_bits <= rec.data_delivered)
    generated, consumed = int(rec.key_generated.sum()), int(rec.key_consumed.sum())
    assert consumed <= generated
    assert rep.buffer_trajectory[-1] == generated - consumed
    again = simulate(config)
    assert again.to_json() == rep.to_json()
    assert again.csv_text() == rep.csv_text()

    args = (config.dist_m, config.dist_e, config.p_bar, [config.policy_spec()])
    kappa = 0.0 if config.q_kappa is None else config.q_kappa
    if config.scheme == "full":
        bound = lower_full(*args, q_kappa=config.q_kappa, nodes=config.nodes)
        rate, kappa = bound.diagnostics["r_o_chosen"], bound.diagnostics["q_kappa"]
    elif config.scheme == "main":
        rate = lower_main(*args, nodes=config.nodes).value
    if config.scheme != "baseline":
        sched = rep.schedule["otp_bits_per_block"]
        assert sched == _bits((1.0 - config.delta) * rate, config.n1)
    assert rep.config.q_kappa == kappa
