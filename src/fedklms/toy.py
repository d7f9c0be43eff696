"""Scalar mean-estimation study on a grid of (overhead r, clients N, spread eta).

The smallest setting that exposes the codec's estimation behavior: every
client observes the same unknown scalar mean (plus an optional per-client
offset drawn uniformly from [-eta, eta]), encodes one Gaussian sample of its
posterior against the shared prior N(0, sigma), and the server averages the
decoded values.  The gap between that average and the true mean shrinks with
more clients (variance) and with more overhead bits (bias).

Each client sends one of K = 2^ceil((KL + r) / ln 2) candidates drawn from
the prior (:func:`~fedklms.codec.samples_per_block` on its own KL), picked by
the paper's importance sampler, whose estimators this study measures: with
probability proportional to q/p (:func:`select_index`).  The nominal r is
honored only up to the ceiling, so realized bits are reported per cell.

Cells are written in r -> N -> eta loop order, one CSV row per cell, so a
rerun with the same seed is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import samples_per_block
from .config import ToyConfig
from .distributions import DiagonalGaussian
from .streams import SampleStream, StreamKey, derive_stream

CSV_HEADER = "r,N,eta,mean_abs_gap,std_gap"


@dataclass
class ToyCell:
    overhead_r: float
    num_clients: int
    eta: float
    mean_abs_gap: float
    std_gap: float
    mean_bits: float

    def csv_row(self) -> str:
        return (
            f"{self.overhead_r!r},{self.num_clients},{self.eta!r},"
            f"{self.mean_abs_gap!r},{self.std_gap!r}"
        )


def select_index(weights: np.ndarray, selector_stream: SampleStream) -> int:
    """Draw one index with probability given by normalized ``weights``,
    consuming one uniform of the selector stream."""
    u = selector_stream.next_uniform()
    k = int(np.searchsorted(np.cumsum(weights), u, side="right"))
    if k >= weights.size:
        # roundoff left the last cumulative weight below u: take the last with mass
        k = int(np.flatnonzero(weights > 0.0)[-1])
    return k


def _log_weights(candidates: np.ndarray, mu_n: float, iq: float) -> np.ndarray:
    """log q/p for q = N(mu_n, sigma), p = N(0, sigma), iq = 1 / sigma^2, with
    the floating-point operations of :func:`~fedklms.distributions.log_ratio`."""
    return candidates * (iq * mu_n) - 0.5 * (iq * mu_n**2)


def _client_value(prior: DiagonalGaussian, iq: float, mu_n: float, num_samples: int,
                  client_key: StreamKey) -> float:
    """One client's decoded value: a candidate from the prior, drawn by q/p
    under the max-shifted softmax of the codec's selection weights."""
    candidates = prior.sample(0, 1, derive_stream(client_key.child("shared")),
                              count=num_samples)[:, 0]
    log_w = _log_weights(candidates, mu_n, iq)
    weights = np.exp(log_w - np.max(log_w))
    weights /= weights.sum()
    return candidates[select_index(weights, derive_stream(client_key.child("select")))]


def _run_cell(
    cfg: ToyConfig, cell_key: StreamKey, r: float, n_clients: int, eta: float
) -> ToyCell:
    sigma = cfg.sigma
    iq = 1.0 / sigma**2
    prior = DiagonalGaussian(np.zeros(1), sigma)
    params = cfg.codec_params(r)
    gaps = np.empty(cfg.runs)
    bits_sum = 0
    for rep in range(cfg.runs):
        rep_key = cell_key.child("rep", rep)
        offsets = (
            derive_stream(rep_key.child("offsets")).uniforms(n_clients) * 2.0 - 1.0
        ) * eta
        decoded = np.empty(n_clients)
        for n in range(n_clients):
            mu_n = cfg.mu + offsets[n]
            num_samples, bits = samples_per_block(mu_n**2 / (2.0 * sigma**2), params)
            bits_sum += bits
            decoded[n] = _client_value(prior, iq, mu_n, num_samples, rep_key.child("client", n))
        gaps[rep] = decoded.mean() - cfg.mu
    return ToyCell(
        overhead_r=r,
        num_clients=n_clients,
        eta=eta,
        mean_abs_gap=float(np.abs(gaps).mean()),
        std_gap=float(gaps.std()),
        mean_bits=bits_sum / (cfg.runs * n_clients),
    )


def run_toy(cfg: ToyConfig) -> tuple[list[ToyCell], dict]:
    root = StreamKey(cfg.seed)
    cells: list[ToyCell] = []
    index = 0
    for r in cfg.r_grid:
        for n_clients in cfg.client_grid:
            for eta in cfg.eta_grid:
                cells.append(
                    _run_cell(cfg, root.child("cell", index), r, n_clients, eta)
                )
                index += 1
    summary = {
        "mu": cfg.mu,
        "sigma": cfg.sigma,
        "runs": cfg.runs,
        "seed": cfg.seed,
        "cells": [
            {
                "r": c.overhead_r,
                "N": c.num_clients,
                "eta": c.eta,
                "mean_abs_gap": c.mean_abs_gap,
                "std_gap": c.std_gap,
                "mean_bits": c.mean_bits,
            }
            for c in cells
        ],
    }
    return cells, summary


def write_toy_csv(cells: list[ToyCell], path: str) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER] + [c.csv_row() for c in cells]
    out.write_text("\n".join(lines) + "\n")
