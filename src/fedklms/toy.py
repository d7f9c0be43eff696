"""Scalar mean-estimation study on a grid of (overhead r, clients N, spread eta).

The smallest setting that exposes the codec's estimation behavior: every
client observes the same unknown scalar mean (plus an optional per-client
offset drawn uniformly from [-eta, eta]), encodes one Gaussian sample of its
posterior against the shared prior N(0, sigma), and the server averages the
decoded values.  The gap between that average and the true mean shrinks with
more clients (variance) and with more overhead bits (bias).

Per-client candidate counts follow the same power-of-two rule as the block
codec, applied to the client's own realized KL, so the nominal r is honored
only up to the ceiling; realized bits are therefore reported per cell in the
summary next to the nominal grid value.

Each client's message is one index into the K candidates of a
one-coordinate block, as in the codec, but the client picks it with the
paper's importance sampler, whose estimators this study measures: it weighs
the candidates one tile at a time (:func:`~fedklms.codec.candidate_tiles`,
:func:`~fedklms.codec.selection_weights`) and draws the index with
probability proportional to q/p (:func:`~fedklms.codec.select_index`).  The
server regenerates the chosen candidate with
:func:`~fedklms.codec.decode_block` from a stream of its own.

Cells are written in r -> N -> eta loop order, one CSV row per cell, so a
rerun with the same seed is byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import (candidate_tiles, decode_block, samples_per_block, select_index,
                    selection_weights)
from .config import ToyConfig
from .distributions import DiagonalGaussian
from .streams import StreamKey, derive_stream

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


def _run_cell(
    cfg: ToyConfig, cell_key: StreamKey, r: float, n_clients: int, eta: float
) -> ToyCell:
    sigma = cfg.sigma
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
            kl = mu_n**2 / (2.0 * sigma**2)
            num_samples, bits = samples_per_block(kl, params)
            bits_sum += bits
            client_key = rep_key.child("client", n)
            shared = client_key.child("shared")
            tiles = candidate_tiles(prior, 0, 1, num_samples, derive_stream(shared))
            weights = selection_weights(DiagonalGaussian(np.array([mu_n]), sigma), prior,
                                        0, 1, tiles)
            k = select_index(weights, derive_stream(client_key.child("select")))
            decoded[n] = decode_block(prior, 0, 1, num_samples, derive_stream(shared), k)[0]
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
