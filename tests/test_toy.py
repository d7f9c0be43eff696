"""Scalar estimation grid: determinism, format, and basic statistics."""

import numpy as np
import pytest

from fedklms.config import parse_toy_config
from fedklms.distributions import DiagonalGaussian, log_ratio
from fedklms.streams import StreamKey, derive_stream
from fedklms.toy import CSV_HEADER, _log_weights, run_toy, write_toy_csv


def small_cfg(**overrides):
    obj = {"r_grid": [0.0, 4.0], "client_grid": [1, 10], "eta_grid": [0.0],
           "runs": 30, "seed": 3}
    obj.update(overrides)
    return parse_toy_config(obj)


class TestToyGrid:
    def test_cell_count_and_order(self):
        cells, _ = run_toy(small_cfg(eta_grid=[0.0, 0.2]))
        assert len(cells) == 2 * 2 * 2
        keys = [(c.overhead_r, c.num_clients, c.eta) for c in cells]
        assert keys == sorted(keys, key=lambda k: (
            [0.0, 4.0].index(k[0]), [1, 10].index(k[1]), [0.0, 0.2].index(k[2])))

    def test_deterministic_rerun(self, tmp_path):
        a, _ = run_toy(small_cfg())
        b, _ = run_toy(small_cfg())
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_toy_csv(a, str(pa))
        write_toy_csv(b, str(pb))
        assert pa.read_bytes() == pb.read_bytes()

    def test_seed_changes_output(self):
        a, _ = run_toy(small_cfg(seed=1))
        b, _ = run_toy(small_cfg(seed=2))
        assert any(x.mean_abs_gap != y.mean_abs_gap for x, y in zip(a, b))

    def test_csv_header_exact(self, tmp_path):
        cells, _ = run_toy(small_cfg())
        path = tmp_path / "t.csv"
        write_toy_csv(cells, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "r,N,eta,mean_abs_gap,std_gap"
        assert len(lines) == 1 + len(cells)

    def test_zero_kl_is_unbiased(self):
        # mu=0 means q = p for every client; gap is pure sampling noise
        cfg = small_cfg(mu=0.0, runs=200, client_grid=[10])
        cells, _ = run_toy(cfg)
        for c in cells:
            se = 1.0 / np.sqrt(10) / np.sqrt(200)
            assert abs(c.mean_abs_gap) < 5 * np.sqrt(10) * se + 0.5

    def test_realized_bits_match_rule(self):
        # mu=0.8, sigma=1: KL = 0.32; bits = max(1, ceil((0.32 + r)/ln 2))
        cells, summary = run_toy(small_cfg(eta_grid=[0.0]))
        by = {(c.overhead_r, c.num_clients): c for c in cells}
        assert by[(0.0, 1)].mean_bits == 1.0
        assert by[(4.0, 1)].mean_bits == 7.0
        assert all("mean_bits" in c for c in summary["cells"])

    def test_more_clients_shrink_std(self):
        cells, _ = run_toy(small_cfg(runs=100))
        by = {(c.overhead_r, c.num_clients): c for c in cells}
        assert by[(4.0, 10)].std_gap < by[(4.0, 1)].std_gap


# each client's q is N(mu_n, sigma) with mu_n = mu + an offset in [-eta, eta];
# the shipped studies run sigma = 1 only
@pytest.mark.parametrize("sigma", [1.0, 0.3, 2.5])
def test_log_weights_are_the_codec_log_ratio_bit_for_bit(sigma):
    stream = derive_stream(StreamKey(17, (("sigma", int(10 * sigma)),)))
    offsets = (stream.uniforms(6) * 2.0 - 1.0) * 0.4
    prior = DiagonalGaussian(np.zeros(1), sigma)
    candidates = prior.sample(0, 1, stream, count=1000)
    for mu_n in [0.8, -0.8, -2.3, 0.0, *(0.8 + offsets)]:
        codec_rows = log_ratio(DiagonalGaussian(np.array([mu_n]), sigma), prior).block(0, 1)
        closed = _log_weights(candidates[:, 0], mu_n, 1.0 / sigma**2)
        assert np.array_equal(closed, codec_rows(candidates)), mu_n
