"""Benchmark workloads: which notebook steps are explained, on which inputs.

Each workload is a short notebook — paper queries from
``repro.workload.queries`` explained in order by one closed-loop client.
Why each was chosen is in ``BENCHMARK.json`` and ``README.md``.
Inputs are generated from the benchmark's ``--seed`` and handed to the
program only as Spark DataFrames (a ``DatasetBundle`` built by the runner,
not by ``make_bundle``), so the program never sees the seed or the scale
preset.
"""
from __future__ import annotations

import pandas as pd

from repro.datasets.spotify import spotify_pdf

#: Workload name -> paper query numbers, explained in this order.
WORKLOADS: dict[str, tuple[int, ...]] = {
    "spotify_filter": (6,),
    "spotify_groupby": (21, 25),
}


def tables(seed: int, smoke: bool) -> dict[str, pd.DataFrame]:
    """The seeded input tables: Spotify at the ``test`` scale (6 000 rows),
    or 400 rows for a smoke run."""
    return {"spotify": spotify_pdf(400 if smoke else 6000, seed=seed)}
