"""Ledger invariants of the three schemes on random configurations."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dlsec.fading import FadingDistribution
from dlsec.numerics import RngSeed
from dlsec.protocol import INIT_MODES, SCHEMES, SimConfig, simulate

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
    q_kappa=st.sampled_from([0.0, 0.7]),
    init=st.sampled_from(INIT_MODES),
    seed=st.builds(RngSeed, st.integers(0, 2**64 - 1), st.integers(0, 3)),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(config=configs)
def test_ledger_invariants(config):
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
